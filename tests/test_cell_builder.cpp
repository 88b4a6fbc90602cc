// Tests for the grid-accelerated cell builder: exactness against brute
// force, the partition-of-space property (cell volumes sum to the box
// volume), completeness classification near boundaries, and the
// incompleteness proof that lets the pipeline skip building hull cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "geom/cell_builder.hpp"
#include "util/rng.hpp"

namespace tg = tess::geom;
using tg::CellBuilder;
using tg::Vec3;
using tess::util::Rng;

namespace {

std::vector<Vec3> random_points(std::uint64_t seed, int n, double lo = 0.0,
                                double hi = 1.0) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)});
  return pts;
}

// Reference: clip against every other point, no grid, no security radius.
tg::VoronoiCell brute_force_cell(const std::vector<Vec3>& pts, int site,
                                 const Vec3& lo, const Vec3& hi) {
  tg::VoronoiCell cell(pts[static_cast<std::size_t>(site)], lo, hi);
  for (int j = 0; j < static_cast<int>(pts.size()); ++j) {
    if (j == site) continue;
    cell.cut(pts[static_cast<std::size_t>(j)], j);
    if (cell.empty()) break;
  }
  return cell;
}

// Dense blob plus sparse background (the backend-parity clustered cloud):
// its outer sites have hull cells, its blob sites tiny complete ones.
std::vector<Vec3> clustered_cloud(int n, double domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      pts.push_back({rng.uniform(0.0, domain), rng.uniform(0.0, domain),
                     rng.uniform(0.0, domain)});
    } else {
      Vec3 p{0.4 * domain + rng.normal(0.0, 0.04 * domain),
             0.5 * domain + rng.normal(0.0, 0.04 * domain),
             0.5 * domain + rng.normal(0.0, 0.04 * domain)};
      p.x = std::clamp(p.x, 0.0, domain * (1.0 - 1e-12));
      p.y = std::clamp(p.y, 0.0, domain * (1.0 - 1e-12));
      p.z = std::clamp(p.z, 0.0, domain * (1.0 - 1e-12));
      pts.push_back(p);
    }
  }
  return pts;
}

struct ProofCounts {
  int proven = 0;
  int incomplete = 0;
};

// Builds every site in the box [lo, hi] and checks that each site
// proves_incomplete() settles really comes back incomplete.
ProofCounts check_proofs(const std::vector<Vec3>& pts, const Vec3& lo,
                         const Vec3& hi, const char* what) {
  CellBuilder builder(pts, {}, lo, hi);
  tg::VoronoiCell cell(pts[0], lo, hi);
  tg::ClipScratch scratch;
  ProofCounts c;
  for (int s = 0; s < static_cast<int>(pts.size()); ++s) {
    const bool proven = builder.proves_incomplete(s, lo, hi);
    builder.build_into(cell, scratch, s, lo, hi);
    if (!cell.complete()) ++c.incomplete;
    if (!proven) continue;
    ++c.proven;
    EXPECT_FALSE(cell.complete()) << what << ": site " << s
                                  << " proven incomplete but built complete";
  }
  return c;
}

}  // namespace

TEST(CellBuilder, MatchesBruteForce) {
  const auto pts = random_points(77, 100);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  for (int s = 0; s < 100; s += 7) {
    auto fast = builder.build(s, {0, 0, 0}, {1, 1, 1});
    auto ref = brute_force_cell(pts, s, {0, 0, 0}, {1, 1, 1});
    EXPECT_NEAR(fast.volume(), ref.volume(), 1e-10) << "site " << s;
    EXPECT_NEAR(fast.area(), ref.area(), 1e-9) << "site " << s;
    EXPECT_EQ(fast.neighbor_ids(), ref.neighbor_ids()) << "site " << s;
  }
}

class CellPartition : public ::testing::TestWithParam<int> {};

TEST_P(CellPartition, VolumesSumToBox) {
  const int n = GetParam();
  const auto pts = random_points(static_cast<std::uint64_t>(n), n);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  double total = 0.0;
  for (int s = 0; s < n; ++s)
    total += builder.build(s, {0, 0, 0}, {1, 1, 1}).volume();
  // Voronoi cells clipped to the box partition it exactly.
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CellPartition, ::testing::Values(2, 5, 20, 100, 400));

TEST(CellBuilder, SiteContainedInOwnCell) {
  const auto pts = random_points(5, 200);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  for (int s = 0; s < 200; s += 11) {
    auto cell = builder.build(s, {0, 0, 0}, {1, 1, 1});
    ASSERT_FALSE(cell.empty());
    // Site must be strictly closer to itself than to all face planes: all
    // cell vertices are at least as far from any other site.
    const Vec3& site = pts[static_cast<std::size_t>(s)];
    for (const auto& f : cell.faces()) {
      if (f.source < 0) continue;
      const Vec3& nb = pts[static_cast<std::size_t>(f.source)];
      for (int v : f.verts) {
        const Vec3& x = cell.vertices()[static_cast<std::size_t>(v)];
        EXPECT_LE(tg::dist2(x, site), tg::dist2(x, nb) + 1e-9);
      }
    }
  }
}

TEST(CellBuilder, InteriorCellsCompleteBoundaryCellsNot) {
  // Regular 5x5x5 lattice, spacing 1, inside [0,5)^3 box grown by nothing:
  // cells of boundary-layer sites touch the seed box and are incomplete.
  std::vector<Vec3> pts;
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y)
      for (int z = 0; z < 5; ++z) pts.push_back({x + 0.5, y + 0.5, z + 0.5});
  CellBuilder builder(pts, {}, {0, 0, 0}, {5, 5, 5});
  int complete = 0;
  for (int s = 0; s < static_cast<int>(pts.size()); ++s) {
    auto cell = builder.build(s, {0, 0, 0}, {5, 5, 5});
    if (cell.complete()) {
      ++complete;
      EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
    }
  }
  // Only the 3x3x3 interior sites are complete.
  EXPECT_EQ(complete, 27);
}

TEST(CellBuilder, GlobalIdsUsedAsFaceSources) {
  const auto pts = random_points(9, 50);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(1000 + i);
  CellBuilder builder(pts, ids, {0, 0, 0}, {1, 1, 1});
  auto cell = builder.build(10, {0, 0, 0}, {1, 1, 1});
  for (auto nb : cell.neighbor_ids()) {
    EXPECT_GE(nb, 1000);
    EXPECT_LT(nb, 1050);
    EXPECT_NE(nb, 1010);  // never its own site
  }
}

TEST(CellBuilder, TwoPointsSplitBox) {
  const std::vector<Vec3> pts{{0.25, 0.5, 0.5}, {0.75, 0.5, 0.5}};
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  auto c0 = builder.build(0, {0, 0, 0}, {1, 1, 1});
  auto c1 = builder.build(1, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(c0.volume(), 0.5, 1e-12);
  EXPECT_NEAR(c1.volume(), 0.5, 1e-12);
  EXPECT_FALSE(c0.complete());
}

TEST(CellBuilder, DuplicatePointsDoNotCrash) {
  std::vector<Vec3> pts{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.2, 0.2, 0.2}};
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  auto cell = builder.build(0, {0, 0, 0}, {1, 1, 1});
  EXPECT_GE(cell.volume(), 0.0);
}

TEST(CellBuilder, ClusteredPointsStillPartition) {
  // Heavily clustered distribution (mimics evolved cosmological particles):
  // two tight clusters plus sparse background.
  Rng rng(31337);
  std::vector<Vec3> pts;
  for (int i = 0; i < 150; ++i)
    pts.push_back({0.2 + 0.02 * rng.normal(), 0.2 + 0.02 * rng.normal(),
                   0.2 + 0.02 * rng.normal()});
  for (int i = 0; i < 150; ++i)
    pts.push_back({0.8 + 0.02 * rng.normal(), 0.7 + 0.02 * rng.normal(),
                   0.6 + 0.02 * rng.normal()});
  for (int i = 0; i < 20; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  // Clamp into the box.
  for (auto& p : pts) {
    p.x = std::clamp(p.x, 0.001, 0.999);
    p.y = std::clamp(p.y, 0.001, 0.999);
    p.z = std::clamp(p.z, 0.001, 0.999);
  }
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  double total = 0.0;
  for (int s = 0; s < static_cast<int>(pts.size()); ++s)
    total += builder.build(s, {0, 0, 0}, {1, 1, 1}).volume();
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(CellBuilder, ClipsNoopMatchesReplayedCuts) {
  // The builder's no-op count is the number of its cuts that leave the cell
  // unchanged: replaying each traced cut sequence on a fresh cell and
  // counting the cuts that return false gives the same total.
  const auto pts = random_points(41, 300);
  CellBuilder builder(pts, {}, {0, 0, 0}, {1, 1, 1});
  tg::VoronoiCell cell(pts[0], {0, 0, 0}, {1, 1, 1});
  tg::ClipScratch scratch;
  CellBuilder::CellTrace trace;
  std::uint64_t cuts = 0, noops = 0;
  for (int s = 0; s < 300; s += 13) {
    builder.build_traced(cell, scratch, s, {0, 0, 0}, {1, 1, 1}, trace);
    tg::VoronoiCell replay(pts[static_cast<std::size_t>(s)], {0, 0, 0}, {1, 1, 1});
    for (const std::int64_t id : trace.cut_ids) {
      ++cuts;
      if (!replay.cut(pts[static_cast<std::size_t>(id)], id)) ++noops;
    }
  }
  EXPECT_EQ(builder.cuts_attempted(), cuts);
  EXPECT_EQ(builder.clips_noop(), noops);
  EXPECT_EQ(scratch.clips_noop, noops);
  EXPECT_GT(noops, 0u);
  EXPECT_LT(noops, cuts);
}

TEST(CellBuilder, ProvenIncompleteCellsBuildIncomplete) {
  struct Input {
    const char* name;
    std::vector<Vec3> pts;
    double domain;
  };
  std::vector<Input> inputs;
  inputs.push_back({"random", random_points(3, 400), 1.0});
  inputs.push_back({"clustered", clustered_cloud(480, 6.0, 9), 6.0});
  std::vector<Vec3> lattice;  // every site ties with its neighbours exactly
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) lattice.push_back({x + 0.5, y + 0.5, z + 0.5});
  inputs.push_back({"lattice", lattice, 8.0});
  auto dup = random_points(21, 200);
  for (int i = 0; i < 40; ++i) dup.push_back(dup[static_cast<std::size_t>(5 * i)]);
  inputs.push_back({"duplicates", dup, 1.0});
  // Sites 0 to 4e-9 from each face of [0, 1]^3: some lie exactly on one.
  auto skin = random_points(27, 300);
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t a = i % 3;
    skin[i][a] = (i / 3) % 2 == 0 ? 1e-9 * static_cast<double>(i % 5)
                                  : 1.0 - 1e-9 * static_cast<double>(i % 5);
  }
  inputs.push_back({"near_face", skin, 1.0});

  for (const auto& in : inputs) {
    const Vec3 lo{0, 0, 0}, hi{in.domain, in.domain, in.domain};
    const double g = 0.15 * in.domain;
    const auto tight = check_proofs(in.pts, lo, hi, in.name);
    const auto grown = check_proofs(in.pts, lo - Vec3{g, g, g},
                                    hi + Vec3{g, g, g}, in.name);
    // Every input has hull cells in both boxes, and the proof finds some.
    EXPECT_GT(tight.proven, 0) << in.name;
    EXPECT_GT(grown.proven, 0) << in.name;
    if (std::string(in.name) == "clustered") {
      // The proof must pay for itself where hull builds are dearest.
      EXPECT_GE(2 * tight.proven, tight.incomplete);
      EXPECT_GE(2 * grown.proven, grown.incomplete);
    }
  }
}
