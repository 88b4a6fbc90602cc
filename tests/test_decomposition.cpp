// Tests for the regular block decomposition: bounds tiling, point lookup,
// neighbor symmetry, and periodic shifts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>

#include "diy/decomposition.hpp"
#include "util/rng.hpp"

using tess::diy::Bounds;
using tess::diy::Decomposition;
using tess::diy::Neighbor;
using tess::geom::Vec3;
using tess::util::Rng;

TEST(Bounds, ContainsAndDistance) {
  Bounds b{{0, 0, 0}, {1, 2, 3}};
  EXPECT_TRUE(b.contains({0.5, 1.0, 2.9}));
  EXPECT_TRUE(b.contains({0, 0, 0}));       // min inclusive
  EXPECT_FALSE(b.contains({1, 0.5, 0.5}));  // max exclusive
  EXPECT_DOUBLE_EQ(b.distance({0.5, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(b.distance({-1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(b.distance({2, 3, 3}), std::sqrt(2.0));
}

TEST(Bounds, Grown) {
  Bounds b{{0, 0, 0}, {1, 1, 1}};
  const auto g = b.grown(0.25);
  EXPECT_DOUBLE_EQ(g.min.x, -0.25);
  EXPECT_DOUBLE_EQ(g.max.z, 1.25);
}

TEST(Decomposition, FactorNearCubic) {
  EXPECT_EQ(Decomposition::factor(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(Decomposition::factor(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(Decomposition::factor(64), (std::array<int, 3>{4, 4, 4}));
  const auto f12 = Decomposition::factor(12);
  EXPECT_EQ(f12[0] * f12[1] * f12[2], 12);
  const auto f7 = Decomposition::factor(7);
  EXPECT_EQ(f7[0] * f7[1] * f7[2], 7);
}

TEST(Decomposition, BlockBoundsTileDomain) {
  Decomposition d({0, 0, 0}, {10, 10, 10}, {2, 2, 2}, false);
  double vol = 0.0;
  for (int b = 0; b < d.num_blocks(); ++b) {
    const auto bb = d.block_bounds(b);
    vol += (bb.max.x - bb.min.x) * (bb.max.y - bb.min.y) * (bb.max.z - bb.min.z);
  }
  EXPECT_DOUBLE_EQ(vol, 1000.0);
}

TEST(Decomposition, BlockOfPointConsistent) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {3, 2, 4}, false);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    const int b = d.block_of_point(p);
    EXPECT_TRUE(d.block_bounds(b).contains(p));
  }
}

TEST(Decomposition, IndexRoundTrip) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {3, 4, 5}, true);
  for (int b = 0; b < d.num_blocks(); ++b)
    EXPECT_EQ(d.block_index(d.block_coords(b)), b);
  EXPECT_THROW((void)d.block_coords(d.num_blocks()), std::out_of_range);
}

TEST(Decomposition, NonPeriodicCornerHas7Neighbors) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {2, 2, 2}, false);
  EXPECT_EQ(d.neighbors(0).size(), 7u);  // corner block of a 2x2x2 grid
  for (const auto& nb : d.neighbors(0))
    EXPECT_EQ(nb.shift, (Vec3{0, 0, 0}));
}

TEST(Decomposition, PeriodicBlockHas26NeighborRelations) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {3, 3, 3}, true);
  // 3^3 grid: all 26 neighbor blocks are distinct.
  EXPECT_EQ(d.neighbors(13).size(), 26u);  // center block, no shifts
  for (const auto& nb : d.neighbors(13)) EXPECT_EQ(nb.shift, (Vec3{0, 0, 0}));
  // Corner block: all 26 relations exist, some with shifts.
  const auto nbrs = d.neighbors(0);
  EXPECT_EQ(nbrs.size(), 26u);
  int shifted = 0;
  for (const auto& nb : nbrs)
    if (!(nb.shift == Vec3{0, 0, 0})) ++shifted;
  EXPECT_GT(shifted, 0);
}

TEST(Decomposition, PeriodicShiftMovesPointAcrossDomain) {
  Decomposition d({0, 0, 0}, {10, 10, 10}, {2, 1, 1}, true);
  // Block 0 spans x in [0,5); its -x neighbor is block 1 with shift +10.
  bool found = false;
  for (const auto& nb : d.neighbors(0)) {
    if (nb.block == 1 && nb.shift == (Vec3{10, 0, 0})) {
      found = true;
      // A particle at x=0.1 imaged for that neighbor lands at x=10.1, just
      // outside block 1's high edge — the correct ghost position.
      const Vec3 img = Vec3{0.1, 5, 5} + nb.shift;
      EXPECT_NEAR(d.block_bounds(1).distance(img), 0.1, 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Decomposition, NeighborSymmetry) {
  // If A has neighbor (B, s) then B has neighbor (A, -s).
  for (bool periodic : {false, true}) {
    Decomposition d({0, 0, 0}, {1, 1, 1}, {2, 3, 2}, periodic);
    for (int a = 0; a < d.num_blocks(); ++a)
      for (const auto& nb : d.neighbors(a)) {
        const auto back = d.neighbors(nb.block);
        const Neighbor expect{a, -nb.shift};
        EXPECT_NE(std::find(back.begin(), back.end(), expect), back.end())
            << "block " << a << " -> " << nb.block << " periodic " << periodic;
      }
  }
}

TEST(Decomposition, SingleBlockPeriodicSelfNeighbors) {
  Decomposition d({0, 0, 0}, {1, 1, 1}, {1, 1, 1}, true);
  const auto nbrs = d.neighbors(0);
  EXPECT_FALSE(nbrs.empty());
  for (const auto& nb : nbrs) {
    EXPECT_EQ(nb.block, 0);
    EXPECT_FALSE(nb.shift == (Vec3{0, 0, 0}));  // all are wrap images
  }
}

TEST(Decomposition, WrapPoint) {
  Decomposition d({0, 0, 0}, {10, 10, 10}, {2, 2, 2}, true);
  const Vec3 w = d.wrap({-1, 11, 5});
  EXPECT_DOUBLE_EQ(w.x, 9);
  EXPECT_DOUBLE_EQ(w.y, 1);
  EXPECT_DOUBLE_EQ(w.z, 5);
  Decomposition dn({0, 0, 0}, {10, 10, 10}, {2, 2, 2}, false);
  EXPECT_DOUBLE_EQ(dn.wrap({-1, 11, 5}).x, -1);  // no-op
}

TEST(Decomposition, InvalidArgumentsThrow) {
  EXPECT_THROW(Decomposition({0, 0, 0}, {1, 1, 1}, {0, 1, 1}, false),
               std::invalid_argument);
  EXPECT_THROW(Decomposition({0, 0, 0}, {0, 1, 1}, {1, 1, 1}, false),
               std::invalid_argument);
  EXPECT_THROW(Decomposition::factor(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Generic neighbor discovery (neighbors_within)
// ---------------------------------------------------------------------------

TEST(Decomposition, NeighborsWithinMatchesGridStencilForSmallReach) {
  // For a reach below the block width, box-overlap discovery must find the
  // exact 26-stencil set (same blocks, same shifts) on a regular grid.
  for (bool periodic : {false, true}) {
    Decomposition d({0, 0, 0}, {9, 9, 9}, {3, 3, 3}, periodic);
    for (int b = 0; b < d.num_blocks(); ++b) {
      auto stencil = d.neighbors(b);
      auto within = d.neighbors_within(b, 0.5);
      auto key = [](const Neighbor& n) {
        return std::make_tuple(n.block, n.shift.x, n.shift.y, n.shift.z);
      };
      auto cmp = [&](const Neighbor& a, const Neighbor& c) {
        return key(a) < key(c);
      };
      std::sort(stencil.begin(), stencil.end(), cmp);
      std::sort(within.begin(), within.end(), cmp);
      EXPECT_EQ(stencil, within) << "block " << b << " periodic " << periodic;
    }
  }
}

TEST(Decomposition, NeighborsWithinReachesPastAdjacentBlocks) {
  // A reach wider than one block must discover blocks two cells away —
  // the latent gap the fixed 26-stencil could not express.
  Decomposition d({0, 0, 0}, {12, 12, 12}, {4, 1, 1}, false);
  const auto near = d.neighbors_within(0, 1.0);   // only block 1 (width 3)
  const auto far = d.neighbors_within(0, 3.5);    // blocks 1 and 2
  auto has_block = [](const std::vector<Neighbor>& v, int b) {
    return std::any_of(v.begin(), v.end(),
                       [b](const Neighbor& n) { return n.block == b; });
  };
  EXPECT_TRUE(has_block(near, 1));
  EXPECT_FALSE(has_block(near, 2));
  EXPECT_TRUE(has_block(far, 1));
  EXPECT_TRUE(has_block(far, 2));
  EXPECT_FALSE(has_block(far, 3));
}

TEST(Decomposition, NeighborsWithinSymmetry) {
  // (A has (B, s) within r) <=> (B has (A, -s) within r), for both layouts.
  Rng rng(31);
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i)
    pts.push_back({rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)});
  for (bool periodic : {false, true}) {
    const Decomposition grid({0, 0, 0}, {8, 8, 8}, {2, 2, 2}, periodic);
    const auto tree =
        Decomposition::kd({0, 0, 0}, {8, 8, 8}, periodic, 8, pts);
    for (const Decomposition* d : {&grid, &tree}) {
      for (int a = 0; a < d->num_blocks(); ++a)
        for (const auto& nb : d->neighbors_within(a, 1.3)) {
          const auto back = d->neighbors_within(nb.block, 1.3);
          const Neighbor expect{a, -nb.shift};
          EXPECT_NE(std::find(back.begin(), back.end(), expect), back.end())
              << "block " << a << " -> " << nb.block << " periodic "
              << periodic;
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Mass-weighted k-d decomposition
// ---------------------------------------------------------------------------

namespace {

/// Clustered cloud: a dense Plummer-like blob plus a uniform background.
std::vector<Vec3> clustered_points(int n, double domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts;
  const Vec3 center{0.3 * domain, 0.6 * domain, 0.4 * domain};
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 2 == 0) {
      p = {center.x + rng.normal(0.0, 0.05 * domain),
           center.y + rng.normal(0.0, 0.05 * domain),
           center.z + rng.normal(0.0, 0.05 * domain)};
      for (std::size_t a = 0; a < 3; ++a)
        p[a] = std::clamp(p[a], 0.0, domain * (1.0 - 1e-12));
    } else {
      p = {rng.uniform(0, domain), rng.uniform(0, domain),
           rng.uniform(0, domain)};
    }
    pts.push_back(p);
  }
  return pts;
}

}  // namespace

TEST(Decomposition, KdTilesDomainAndRoutesPoints) {
  const double domain = 10.0;
  const auto pts = clustered_points(2000, domain, 77);
  for (int nblocks : {1, 2, 5, 8}) {
    const auto d =
        Decomposition::kd({0, 0, 0}, {domain, domain, domain}, false, nblocks,
                          pts);
    EXPECT_EQ(d.kind(), tess::diy::DecompKind::kTree);
    EXPECT_EQ(d.num_blocks(), nblocks);
    double vol = 0.0;
    for (int b = 0; b < nblocks; ++b) {
      const auto bb = d.block_bounds(b);
      for (std::size_t a = 0; a < 3; ++a) EXPECT_LT(bb.min[a], bb.max[a]);
      vol += (bb.max.x - bb.min.x) * (bb.max.y - bb.min.y) *
             (bb.max.z - bb.min.z);
    }
    EXPECT_NEAR(vol, domain * domain * domain, 1e-6);
    // Routing agrees with containment, and every point routes somewhere.
    for (const auto& p : pts) {
      const int b = d.block_of_point(p);
      EXPECT_TRUE(d.block_bounds(b).contains(p));
    }
  }
}

TEST(Decomposition, KdBalancesClusteredCounts) {
  // The count-weighted median splits must spread a heavily clustered cloud
  // far more evenly than the uniform grid does.
  const double domain = 10.0;
  const auto pts = clustered_points(4000, domain, 99);
  const int nblocks = 8;
  const Decomposition grid({0, 0, 0}, {domain, domain, domain},
                           Decomposition::factor(nblocks), false);
  const auto tree = Decomposition::kd({0, 0, 0}, {domain, domain, domain},
                                      false, nblocks, pts);
  auto max_count = [&](const Decomposition& d) {
    std::vector<int> counts(static_cast<std::size_t>(nblocks), 0);
    for (const auto& p : pts)
      ++counts[static_cast<std::size_t>(d.block_of_point(p))];
    return *std::max_element(counts.begin(), counts.end());
  };
  const int grid_max = max_count(grid);
  const int tree_max = max_count(tree);
  const int ideal = 4000 / nblocks;
  EXPECT_LT(tree_max, grid_max / 2) << "k-d did not rebalance the cluster";
  EXPECT_LE(tree_max, ideal + ideal / 2);  // within 1.5x of perfect
}

TEST(Decomposition, KdMassWeightedSplitsFollowWeight) {
  // All mass on the left quarter: with weights the first x-split must land
  // near the weighted median, far left of the geometric middle.
  std::vector<Vec3> pts;
  std::vector<double> w;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.25 * (i + 0.5) / 100.0;
    pts.push_back({x * 10.0, 5.0, 5.0});
    w.push_back(100.0);
    pts.push_back({10.0 * (0.5 + 0.5 * (i + 0.5) / 100.0), 5.0, 5.0});
    w.push_back(1.0);
  }
  const auto d = Decomposition::kd({0, 0, 0}, {10, 10, 10}, false, 2, pts, &w);
  ASSERT_EQ(d.splits().size(), 1u);
  EXPECT_EQ(d.splits()[0].axis, 0);
  EXPECT_LT(d.splits()[0].coord, 3.0)
      << "weighted median ignored the heavy left cluster";
}

TEST(Decomposition, KdDeterministicAcrossInputOrder) {
  const auto pts = clustered_points(1000, 5.0, 13);
  auto shuffled = pts;
  Rng rng(14);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);
  const auto a = Decomposition::kd({0, 0, 0}, {5, 5, 5}, true, 6, pts);
  const auto b = Decomposition::kd({0, 0, 0}, {5, 5, 5}, true, 6, shuffled);
  ASSERT_EQ(a.splits().size(), b.splits().size());
  for (std::size_t i = 0; i < a.splits().size(); ++i) {
    EXPECT_EQ(a.splits()[i].axis, b.splits()[i].axis) << i;
    EXPECT_DOUBLE_EQ(a.splits()[i].coord, b.splits()[i].coord) << i;
  }
}

TEST(Decomposition, KdSplitsRoundTripThroughExplicitCtor) {
  // The broadcast path: reconstructing from the split nodes must give the
  // same bounds and routing as the original build.
  const auto pts = clustered_points(800, 7.0, 21);
  const auto built = Decomposition::kd({0, 0, 0}, {7, 7, 7}, true, 5, pts);
  const Decomposition rebuilt({0, 0, 0}, {7, 7, 7}, true, 5, built.splits());
  for (int b = 0; b < 5; ++b) {
    const auto ba = built.block_bounds(b), bb = rebuilt.block_bounds(b);
    EXPECT_EQ(ba.min, bb.min);
    EXPECT_EQ(ba.max, bb.max);
  }
  for (const auto& p : pts)
    EXPECT_EQ(built.block_of_point(p), rebuilt.block_of_point(p));
}

TEST(Decomposition, KdGridOnlyAccessorsThrow) {
  const auto d = Decomposition::kd({0, 0, 0}, {1, 1, 1}, false, 3,
                                   clustered_points(100, 1.0, 5));
  EXPECT_THROW((void)d.dims(), std::logic_error);
  EXPECT_THROW((void)d.block_coords(0), std::logic_error);
  EXPECT_THROW((void)d.block_index({0, 0, 0}), std::logic_error);
  EXPECT_THROW((Decomposition{{0, 0, 0}, {1, 1, 1}, false, 2, {}}),
               std::invalid_argument);  // split count != nblocks - 1
}
