// Tests for the half-space-clipped Voronoi cell: exact geometry on known
// configurations, completeness detection, generator bookkeeping, and
// randomized invariants (Euler formula, volume monotonicity).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/voronoi_cell.hpp"
#include "util/rng.hpp"

namespace tg = tess::geom;
using tg::Vec3;
using tg::VoronoiCell;
using tess::util::Rng;

namespace {

// V - E + F must equal 2 for a convex polyhedron; E counted as half the
// total loop length (each edge appears in exactly two faces).
void expect_euler(const VoronoiCell& cell) {
  std::set<int> verts;
  std::size_t loop_len = 0;
  for (const auto& f : cell.faces()) {
    verts.insert(f.verts.begin(), f.verts.end());
    loop_len += f.verts.size();
  }
  ASSERT_EQ(loop_len % 2, 0u);
  const auto V = static_cast<long>(verts.size());
  const auto E = static_cast<long>(loop_len / 2);
  const auto F = static_cast<long>(cell.faces().size());
  EXPECT_EQ(V - E + F, 2) << "V=" << V << " E=" << E << " F=" << F;
}

// Every stored vertex belongs to the live cell: some face references it, and
// each has its generator triple.
void expect_all_vertices_live(const VoronoiCell& cell) {
  ASSERT_EQ(cell.vertex_generators().size(), cell.vertices().size());
  std::vector<char> used(cell.vertices().size(), 0);
  for (const auto& f : cell.faces())
    for (int v : f.verts) {
      ASSERT_GE(v, 0);
      ASSERT_LT(static_cast<std::size_t>(v), used.size());
      used[static_cast<std::size_t>(v)] = 1;
    }
  EXPECT_EQ(std::count(used.begin(), used.end(), 1),
            static_cast<std::ptrdiff_t>(used.size()));
}

}  // namespace

TEST(VoronoiCell, InitialBox) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(cell.faces().size(), 6u);
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
  EXPECT_NEAR(cell.area(), 6.0, 1e-12);
  EXPECT_FALSE(cell.complete());  // bounded by box planes only
  EXPECT_FALSE(cell.empty());
  expect_euler(cell);
  const Vec3 c = cell.centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
  EXPECT_NEAR(c.z, 0.5, 1e-12);
}

TEST(VoronoiCell, SingleCutHalvesBox) {
  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  // Neighbor mirrored across x = 0.5.
  EXPECT_TRUE(cell.cut({0.75, 0.5, 0.5}, 7));
  EXPECT_NEAR(cell.volume(), 0.5, 1e-12);
  EXPECT_EQ(cell.faces().size(), 6u);
  expect_euler(cell);
  // The new face carries the neighbor id.
  bool found = false;
  for (const auto& f : cell.faces())
    if (f.source == 7) found = true;
  EXPECT_TRUE(found);
  auto ids = cell.neighbor_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 7);
}

TEST(VoronoiCell, CutKeepsSiteSide) {
  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  cell.cut({0.75, 0.5, 0.5}, 1);
  // All remaining vertices must satisfy x <= 0.5.
  for (const auto& f : cell.faces())
    for (int v : f.verts)
      EXPECT_LE(cell.vertices()[static_cast<std::size_t>(v)].x, 0.5 + 1e-12);
}

TEST(VoronoiCell, TangentCutIsNoop) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  // Bisector at x = 1.0 exactly on the box face.
  EXPECT_FALSE(cell.cut({1.5, 0.5, 0.5}, 3));
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
}

TEST(VoronoiCell, FarNeighborDoesNotChangeCell) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_FALSE(cell.cut({5, 5, 5}, 9));
  EXPECT_EQ(cell.neighbor_ids().size(), 0u);
}

TEST(VoronoiCell, CubicLatticeCellIsUnitCube) {
  // Site at the center of a 3x3x3 lattice with spacing 1: its Voronoi cell
  // is the unit cube centered on the site.
  const Vec3 site{0, 0, 0};
  VoronoiCell cell(site, {-2, -2, -2}, {2, 2, 2});
  std::int64_t id = 0;
  for (int x = -1; x <= 1; ++x)
    for (int y = -1; y <= 1; ++y)
      for (int z = -1; z <= 1; ++z) {
        if (x == 0 && y == 0 && z == 0) continue;
        cell.cut({static_cast<double>(x), static_cast<double>(y),
                  static_cast<double>(z)},
                 id++);
      }
  EXPECT_TRUE(cell.complete());
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
  EXPECT_NEAR(cell.area(), 6.0, 1e-12);
  EXPECT_NEAR(cell.max_radius2(), 0.75, 1e-12);  // corner at (±.5,±.5,±.5)
  // Diagonal-neighbor bisectors graze the cell exactly along its edges and
  // corners, leaving zero-area faces that compact() prunes; only the 6 axis
  // neighbors bound the cell.
  cell.compact();
  EXPECT_EQ(cell.faces().size(), 6u);
  EXPECT_NEAR(cell.volume(), 1.0, 1e-12);
}

TEST(VoronoiCell, BccCellIsTruncatedOctahedron) {
  // Body-centered cubic: Voronoi cell of the center site is the truncated
  // octahedron with 14 faces (8 hexagons + 6 squares) and volume = a^3/2
  // for conventional cube edge a = 2 (neighbors at corners and face
  // centers of the cube of side 2).
  const Vec3 site{0, 0, 0};
  VoronoiCell cell(site, {-4, -4, -4}, {4, 4, 4});
  std::int64_t id = 0;
  // 8 nearest neighbors at (±1, ±1, ±1).
  for (int sx : {-1, 1})
    for (int sy : {-1, 1})
      for (int sz : {-1, 1}) cell.cut({double(sx), double(sy), double(sz)}, id++);
  // 6 second neighbors at (±2, 0, 0) etc.
  for (int a = 0; a < 3; ++a)
    for (int s : {-2, 2}) {
      Vec3 p{0, 0, 0};
      p[static_cast<std::size_t>(a)] = s;
      cell.cut(p, id++);
    }
  EXPECT_TRUE(cell.complete());
  EXPECT_EQ(cell.faces().size(), 14u);
  EXPECT_NEAR(cell.volume(), 4.0, 1e-12);  // half of 2^3
  expect_euler(cell);
  EXPECT_EQ(cell.neighbor_ids().size(), 14u);
}

TEST(VoronoiCell, CellClippedAwayEntirely) {
  VoronoiCell cell({0.1, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  // A neighbor so close on the other side that the bisector excludes the
  // whole box: neighbor at -10 -> bisector near x = -5 keeps x <= -5.
  // Use a plane directly instead.
  EXPECT_TRUE(cell.clip({{1, 0, 0}, -1.0, 42}));
  EXPECT_TRUE(cell.empty());
  EXPECT_EQ(cell.volume(), 0.0);
  EXPECT_FALSE(cell.complete());
}

TEST(VoronoiCell, VertexGeneratorsTrackCuttingPlanes) {
  const Vec3 site{0, 0, 0};
  VoronoiCell cell(site, {-2, -2, -2}, {2, 2, 2});
  std::int64_t id = 100;
  for (int x = -1; x <= 1; ++x)
    for (int y = -1; y <= 1; ++y)
      for (int z = -1; z <= 1; ++z) {
        if (x == 0 && y == 0 && z == 0) continue;
        cell.cut({double(x), double(y), double(z)}, id++);
      }
  cell.compact();
  ASSERT_TRUE(cell.complete());
  // Every vertex of the complete cell must have three known generators
  // with non-negative (particle) sources.
  ASSERT_EQ(cell.vertices().size(), cell.vertex_generators().size());
  std::size_t used = cell.vertices().size();
  EXPECT_EQ(used, 8u);  // unit-cube cell
  for (const auto& g : cell.vertex_generators()) {
    for (auto s : g) {
      EXPECT_NE(s, VoronoiCell::kNoGenerator);
      EXPECT_GE(s, 100);
    }
  }
}

TEST(VoronoiCell, MaxVertexSeparationBoundsDiameter) {
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(cell.max_vertex_separation2(), 3.0, 1e-12);  // cube diagonal^2
}

TEST(VoronoiCell, CompactRemovesUnusedVertices) {
  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  cell.cut({0.75, 0.5, 0.5}, 1);
  // The cut itself drops the four corners it removed: only the half-box's
  // 8 corners remain, and compact() has nothing left to remove.
  EXPECT_EQ(cell.vertices().size(), 8u);
  EXPECT_EQ(cell.vertex_generators().size(), 8u);
  cell.compact();
  EXPECT_EQ(cell.vertices().size(), 8u);
  EXPECT_NEAR(cell.volume(), 0.5, 1e-12);
  expect_euler(cell);
}

TEST(VoronoiCell, VolumeNeverIncreasesUnderCuts) {
  Rng rng(2024);
  VoronoiCell cell({0.5, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  double vol = cell.volume();
  for (int i = 0; i < 50; ++i) {
    const Vec3 nb{rng.uniform(), rng.uniform(), rng.uniform()};
    cell.cut(nb, i);
    if (cell.empty()) break;
    const double v = cell.volume();
    EXPECT_LE(v, vol + 1e-12);
    vol = v;
    expect_euler(cell);
    expect_all_vertices_live(cell);
  }
}

TEST(VoronoiCell, EmptiedCellStoresNoVertices) {
  VoronoiCell cell({0.1, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  ASSERT_TRUE(cell.clip({{1, 0, 0}, -1.0, 42}));
  EXPECT_TRUE(cell.empty());
  EXPECT_TRUE(cell.vertices().empty());
  EXPECT_TRUE(cell.vertex_generators().empty());
  EXPECT_EQ(cell.max_radius2(), 0.0);
  EXPECT_EQ(cell.max_vertex_separation2(), 0.0);
}

TEST(VoronoiCell, ClipsNoopCountsUnchangedCuts) {
  tg::ClipScratch scratch;
  VoronoiCell cell({0.25, 0.5, 0.5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_TRUE(cell.cut({0.75, 0.5, 0.5}, 1, scratch));   // x <= 0.5
  EXPECT_FALSE(cell.cut({5, 5, 5}, 2, scratch));         // far away
  EXPECT_FALSE(cell.cut({0.75, 0.5, 0.5}, 3, scratch));  // on the face
  EXPECT_FALSE(cell.cut({1.5, 0.5, 0.5}, 4, scratch));   // x <= 0.875
  EXPECT_TRUE(cell.cut({0.25, 0.9, 0.5}, 5, scratch));   // y <= 0.7
  EXPECT_FALSE(cell.cut({0.25, 0.9, 0.5}, 6, scratch));  // repeated
  EXPECT_EQ(scratch.clips_noop, 4u);
  // Emptying the cell changes it; clipping an empty cell is not counted.
  EXPECT_TRUE(cell.clip({{1, 0, 0}, -1.0, 7}, scratch));
  EXPECT_FALSE(cell.cut({5, 5, 5}, 8, scratch));
  EXPECT_EQ(scratch.clips_noop, 4u);
}

// The clip tolerance scales with every vertex the cell has stored since its
// reset, including those earlier cuts removed. Here the removed corners of
// a huge seed box widen the tolerance past the distance of a live corner,
// so the cut is a no-op; the same cut on a fresh box of the same shape,
// whose tolerance comes from the live corners alone, does change the cell.
TEST(VoronoiCell, ClipToleranceCountsRemovedVertices) {
  for (const auto backend : {tg::TessBackend::kScalar, tg::TessBackend::kSimd}) {
    SCOPED_TRACE(backend == tg::TessBackend::kSimd ? "simd" : "scalar");
    tg::ClipScratch scratch;
    scratch.backend = backend;
    const double big = 1e6;
    VoronoiCell cell({0, 0, 0}, {-big, -big, -big}, {big, big, big});
    std::int64_t id = 0;
    for (int axis = 0; axis < 3; ++axis)
      for (const double sign : {1.0, -1.0}) {
        Vec3 n{};
        n[static_cast<std::size_t>(axis)] = sign;
        ASSERT_TRUE(cell.clip({n, 1.0, id++}, scratch));
      }
    ASSERT_EQ(cell.vertices().size(), 8u);  // the cube [-1, 1]^3
    const std::vector<Vec3> verts = cell.vertices();
    const std::size_t faces = cell.faces().size();
    const double volume = cell.volume();

    // The corner (1, 1, 1) lies about 1e-9 beyond this plane: outside a
    // tolerance from the live corners (~7e-12), inside one that includes
    // the removed box corners (~3e-6).
    const tg::Plane plane{{1, 1, 1}, 3.0 - 1e-9, id++};
    const std::uint64_t noop_before = scratch.clips_noop;
    EXPECT_FALSE(cell.clip(plane, scratch));
    EXPECT_EQ(scratch.clips_noop, noop_before + 1);
    ASSERT_EQ(cell.vertices().size(), verts.size());
    for (std::size_t i = 0; i < verts.size(); ++i) {
      EXPECT_EQ(cell.vertices()[i].x, verts[i].x);
      EXPECT_EQ(cell.vertices()[i].y, verts[i].y);
      EXPECT_EQ(cell.vertices()[i].z, verts[i].z);
    }
    EXPECT_EQ(cell.faces().size(), faces);
    EXPECT_EQ(cell.volume(), volume);

    VoronoiCell fresh({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
    EXPECT_TRUE(fresh.clip(plane, scratch));
    EXPECT_EQ(fresh.vertices().size(), 10u);  // the corner became a triangle
  }
}

class RandomCellInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCellInvariants, EulerVolumeRadius) {
  Rng rng(GetParam());
  const Vec3 site{rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)};
  VoronoiCell cell(site, {0, 0, 0}, {1, 1, 1});
  for (int i = 0; i < 30; ++i) {
    const Vec3 nb{rng.uniform(), rng.uniform(), rng.uniform()};
    if (tg::dist2(nb, site) < 1e-6) continue;
    cell.cut(nb, i);
    if (cell.empty()) return;
  }
  expect_euler(cell);
  EXPECT_GT(cell.volume(), 0.0);
  EXPECT_LE(cell.volume(), 1.0 + 1e-12);
  EXPECT_GT(cell.area(), 0.0);
  // max_radius2 must actually bound the vertex distances.
  for (const auto& f : cell.faces())
    for (int v : f.verts)
      EXPECT_LE(tg::dist2(site, cell.vertices()[static_cast<std::size_t>(v)]),
                cell.max_radius2() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCellInvariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));
