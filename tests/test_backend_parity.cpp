// Cross-backend parity suite: the SIMD geometry backend must produce
// byte-identical results to the scalar backend — at cell granularity
// (traced stage-by-stage comparison via geom::compare_backends) and at
// mesh granularity (serialized BlockMesh bytes through the full parallel
// pipeline, across periodic/open domains, thread counts, and the
// incremental auto-ghost loop), with identical cuts_attempted totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/serialize.hpp"
#include "geom/backend.hpp"
#include "geom/cell_builder.hpp"
#include "geom/parity.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::TessBackend;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

std::vector<Vec3> random_cloud(int n, double lo, double hi, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi),
                   rng.uniform(lo, hi)});
  return pts;
}

// Clustered cloud: dense blob + sparse background, the shape that stresses
// both the ring walk (tiny cells) and the 2*r_max screen (huge cells).
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

}  // namespace

// ---------------------------------------------------------------------------
// Cell-level parity via the traced harness.
// ---------------------------------------------------------------------------

TEST(BackendParity, RandomCloudsAllCellsBitwiseEqual) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto pts = random_cloud(400, 0.0, 4.0, seed);
    const auto report = tess::geom::compare_backends(
        pts, {}, {0, 0, 0}, {4, 4, 4}, {0, 0, 0}, {4, 4, 4});
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.cells, pts.size());
    EXPECT_GT(report.cuts_scalar, 0u);
  }
}

TEST(BackendParity, ClusteredCloudBitwiseEqual) {
  const auto pts = clustered_cloud(800, 6.0, 9);
  const auto report = tess::geom::compare_backends(
      pts, {}, {0, 0, 0}, {6, 6, 6}, {0, 0, 0}, {6, 6, 6});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(BackendParity, ExplicitIdsAndSubBox) {
  // Non-trivial ids (reversed) and a clip box smaller than the grid bounds,
  // as in a ghost-grown block: candidate ordering ties break on id.
  const auto pts = random_cloud(300, 0.0, 3.0, 17);
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < pts.size(); ++i)
    ids.push_back(static_cast<std::int64_t>(1000 + pts.size() - i));
  const auto report = tess::geom::compare_backends(
      pts, ids, {0, 0, 0}, {3, 3, 3}, {0.5, 0.5, 0.5}, {2.5, 2.5, 2.5});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(BackendParity, ReportDetectsRealDivergence) {
  // Sanity check that the harness is not vacuously green: hand-build two
  // traces that differ and make sure ok() goes false via the cuts totals.
  const auto pts = random_cloud(50, 0.0, 2.0, 5);
  auto report = tess::geom::compare_backends(pts, {}, {0, 0, 0}, {2, 2, 2},
                                             {0, 0, 0}, {2, 2, 2});
  ASSERT_TRUE(report.ok());
  report.cuts_simd += 1;  // simulated divergence
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("backend parity"), std::string::npos);
}

TEST(BackendParity, BackendStatsAccumulate) {
  const auto pts = random_cloud(200, 0.0, 2.0, 23);
  const tess::geom::CellBuilder builder(pts, {}, {0, 0, 0}, {2, 2, 2},
                                        TessBackend::kSimd);
  tess::geom::VoronoiCell cell({}, {0, 0, 0}, {2, 2, 2});
  tess::geom::ClipScratch scratch;
  for (int s = 0; s < static_cast<int>(pts.size()); ++s)
    builder.build_into(cell, scratch, s, {0, 0, 0}, {2, 2, 2});
  const auto stats = builder.backend_stats();
  EXPECT_GT(stats.cand_seen, 0u);
  EXPECT_GT(stats.cand_kept, 0u);
  EXPECT_LE(stats.cand_kept, stats.cand_seen);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.lanes, stats.cand_seen);
  EXPECT_EQ(builder.backend(), TessBackend::kSimd);
}

// ---------------------------------------------------------------------------
// Mesh-level parity through the full parallel pipeline.
// ---------------------------------------------------------------------------

namespace {

struct MeshRun {
  std::vector<std::vector<std::byte>> bytes;  // per rank
  std::vector<TessStats> stats;
};

MeshRun run_pipeline(TessBackend backend, int nranks, int threads,
                     bool periodic, bool auto_ghost, int nparticles) {
  const double domain = 8.0;
  MeshRun out;
  out.bytes.resize(static_cast<std::size_t>(nranks));
  out.stats.resize(static_cast<std::size_t>(nranks));
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), periodic);
    TessOptions opt;
    opt.ghost = auto_ghost ? 0.5 : 2.0;
    opt.auto_ghost = auto_ghost;
    opt.incremental = auto_ghost;
    opt.threads = threads;
    opt.backend = backend;
    std::vector<Particle> mine;
    if (c.rank() == 0) {
      const auto pts = clustered_cloud(nparticles, domain, 41);
      for (std::size_t i = 0; i < pts.size(); ++i)
        mine.push_back({pts[i], static_cast<std::int64_t>(i)});
    }
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(c, d, mine, opt, &stats);
    tess::diy::Buffer buf;
    mesh.serialize(buf);
    out.bytes[static_cast<std::size_t>(c.rank())] = buf.data();
    out.stats[static_cast<std::size_t>(c.rank())] = stats;
  });
  return out;
}

}  // namespace

class MeshBackendParity
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(MeshBackendParity, SerializedMeshesByteIdentical) {
  const auto [periodic, threads] = GetParam();
  const int kRanks = 2, kParticles = 1200;
  const auto scalar = run_pipeline(TessBackend::kScalar, kRanks, threads,
                                   periodic, false, kParticles);
  const auto simd = run_pipeline(TessBackend::kSimd, kRanks, threads, periodic,
                                 false, kParticles);
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_FALSE(scalar.bytes[static_cast<std::size_t>(r)].empty());
    EXPECT_EQ(scalar.bytes[static_cast<std::size_t>(r)],
              simd.bytes[static_cast<std::size_t>(r)])
        << "periodic=" << periodic << " threads=" << threads << " rank=" << r;
    EXPECT_EQ(scalar.stats[static_cast<std::size_t>(r)].cells_kept,
              simd.stats[static_cast<std::size_t>(r)].cells_kept);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndThreads, MeshBackendParity,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 4)));

TEST(MeshBackendParity, IncrementalAutoGhostByteIdentical) {
  // The hardest path: incremental auto-ghost rebuilds only unresolved cells
  // across doubling passes, with CSR appends in between.
  const auto scalar =
      run_pipeline(TessBackend::kScalar, 2, 4, true, true, 1200);
  const auto simd = run_pipeline(TessBackend::kSimd, 2, 4, true, true, 1200);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(scalar.bytes[static_cast<std::size_t>(r)],
              simd.bytes[static_cast<std::size_t>(r)])
        << "rank " << r;
    const auto& ss = scalar.stats[static_cast<std::size_t>(r)];
    const auto& sv = simd.stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(ss.auto_iterations, sv.auto_iterations);
    EXPECT_EQ(ss.ghost_used, sv.ghost_used);
    EXPECT_EQ(ss.cells_kept, sv.cells_kept);
    EXPECT_EQ(ss.cells_uncertified, sv.cells_uncertified);
  }
  EXPECT_GE(scalar.stats[0].auto_iterations, 2);
}
