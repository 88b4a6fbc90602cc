// Failure-injection and degenerate-input robustness across the stack:
// pathological point configurations for the geometry kernel, extreme
// options for the tessellation pipeline, and malformed analysis inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "geom/cell_builder.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::TessOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

TEST(Robustness, NearlyCoincidentClusterTessellation) {
  // A tight cluster (spacing ~1e-9) plus regular points: cells of the
  // cluster members are minuscule but the pipeline must not crash and the
  // partition property must hold.
  Rng rng(99);
  std::vector<Particle> ps;
  for (int i = 0; i < 20; ++i)
    ps.push_back({{5.0 + 1e-9 * rng.normal(), 5.0 + 1e-9 * rng.normal(),
                   5.0 + 1e-9 * rng.normal()},
                  i});
  for (int i = 20; i < 120; ++i)
    ps.push_back({{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)}, i});
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {10, 10, 10}, Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 5.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    double vol = 0.0;
    for (const auto& cell : mesh.cells) vol += cell.volume;
    const double total = c.allreduce_sum(vol);
    EXPECT_NEAR(total, 1000.0, 1e-3);
  });
}

TEST(Robustness, CollinearAndCoplanarParticles) {
  // All particles on one plane: every 3D Voronoi cell is a slab reaching
  // the seed box -> all incomplete, none emitted, no crash.
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int x = 0; x < 6; ++x)
    for (int y = 0; y < 6; ++y) ps.push_back({{x + 0.5, y + 0.5, 3.0}, id++});
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {6, 6, 6}, {1, 1, 1}, false);
    TessOptions opt;
    opt.ghost = 1.0;
    tess::core::TessStats stats;
    auto mesh = tess::core::standalone_tessellate(c, d, ps, opt, &stats);
    EXPECT_EQ(mesh.cells.size(), 0u);
    EXPECT_EQ(stats.cells_incomplete, 36u);
  });
}

TEST(Robustness, GhostLargerThanBlock) {
  // Ghost region wider than the block itself must still work (every
  // particle goes everywhere).
  Rng rng(7);
  std::vector<Particle> ps;
  for (int i = 0; i < 64; ++i)
    ps.push_back({{rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 4)}, i});
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {4, 4, 4}, Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 3.5;  // block side is 2
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    const auto kept = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(kept, 64);
  });
}

TEST(Robustness, SingleParticlePeriodicDomain) {
  // One particle in a periodic box: its cell is the whole box (bounded by
  // its own periodic images).
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {5, 5, 5}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 1.0;
    opt.auto_ghost = true;  // must grow until the images close the cell
    tess::core::TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, {{{2.5, 2.5, 2.5}, 0}}, opt, &stats);
    ASSERT_EQ(mesh.cells.size(), 1u);
    EXPECT_NEAR(mesh.cells[0].volume, 125.0, 1e-9);
    EXPECT_GT(stats.auto_iterations, 1);
  });
}

TEST(Robustness, MaxVolumeThresholdDropsVoidCells) {
  Rng rng(13);
  std::vector<Particle> ps;
  for (int i = 0; i < 200; ++i)
    ps.push_back({{rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)}, i});
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 4.0;
    opt.max_volume = 2.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    for (const auto& cell : mesh.cells) EXPECT_LE(cell.volume, 2.0);
  });
}

TEST(Robustness, DegenerateLatticeAcrossManyRanks) {
  // Exactly degenerate (cospherical everywhere) input on 8 ranks, with
  // duplicate-prone block boundaries aligned with the lattice planes.
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) ps.push_back({{x + 0.5, y + 0.5, z + 0.5}, id++});
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? ps : std::vector<Particle>{}, opt);
    double vol = 0.0;
    for (const auto& cell : mesh.cells) {
      EXPECT_NEAR(cell.volume, 1.0, 1e-9);
      vol += cell.volume;
    }
    EXPECT_NEAR(c.allreduce_sum(vol), 512.0, 1e-6);
  });
}
