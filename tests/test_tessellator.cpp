// Integration tests of the parallel tessellation pipeline: completeness,
// the partition property, rank-count invariance (the essence of the paper's
// Table I at full ghost size), threshold culling, and the file round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/blockio.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::BlockMesh;
using tess::core::TessOptions;
using tess::core::TessStats;
using tess::core::Tessellator;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

std::vector<Particle> random_particles(std::uint64_t seed, int n, double domain) {
  Rng rng(seed);
  std::vector<Particle> ps;
  for (int i = 0; i < n; ++i)
    ps.push_back({{rng.uniform(0, domain), rng.uniform(0, domain),
                   rng.uniform(0, domain)},
                  i});
  return ps;
}

std::vector<Particle> lattice_particles(int n) {
  std::vector<Particle> ps;
  std::int64_t id = 0;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        ps.push_back({{x + 0.5, y + 0.5, z + 0.5}, id++});
  return ps;
}

// Collects (site_id -> volume) across all blocks on rank 0.
struct IdVolume {
  std::int64_t id;
  double volume;
};
std::map<std::int64_t, double> gather_cell_volumes(Comm& c, const BlockMesh& mesh) {
  std::vector<IdVolume> mine;
  for (const auto& cell : mesh.cells) mine.push_back({cell.site_id, cell.volume});
  auto all = c.gatherv(mine);
  std::map<std::int64_t, double> out;
  for (const auto& iv : all) out[iv.id] = iv.volume;
  return out;
}

}  // namespace

TEST(Tessellator, PeriodicLatticeAllCellsUnitCubes) {
  Runtime::run(4, [&](Comm& c) {
    const int n = 8;
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 2.0;
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? lattice_particles(n) : std::vector<Particle>{}, opt,
        &stats);
    // Periodic lattice: every cell is a complete unit cube.
    EXPECT_EQ(stats.cells_incomplete, 0u);
    for (const auto& cell : mesh.cells) {
      EXPECT_NEAR(cell.volume, 1.0, 1e-9);
      EXPECT_NEAR(cell.area, 6.0, 1e-9);
      EXPECT_EQ(cell.num_faces, 6u);
    }
    const auto total = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(total, 512);
  });
}

class TessellatorRanks : public ::testing::TestWithParam<int> {};

TEST_P(TessellatorRanks, PartitionOfDomainVolume) {
  const int nranks = GetParam();
  const double domain = 8.0;
  Runtime::run(nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(nranks), true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? random_particles(1, 500, domain) : std::vector<Particle>{},
        opt);
    double vol = 0.0;
    for (const auto& cell : mesh.cells) vol += cell.volume;
    const double total = c.allreduce_sum(vol);
    // Periodic domain, ample ghost: every cell complete, cells tile the box.
    EXPECT_NEAR(total, domain * domain * domain, 1e-6);
    const auto kept = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_EQ(kept, 500);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TessellatorRanks, ::testing::Values(1, 2, 4, 8));

TEST(Tessellator, RankCountInvariance) {
  // The parallel result with sufficient ghost must match the serial result
  // cell for cell — the 100%-accuracy row of the paper's Table I.
  const double domain = 6.0;
  const auto particles = random_particles(9, 300, domain);
  std::map<std::int64_t, double> serial;
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(c, d, particles, opt);
    serial = gather_cell_volumes(c, mesh);
  });
  ASSERT_EQ(serial.size(), 300u);
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 3.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
    auto parallel = gather_cell_volumes(c, mesh);
    if (c.rank() == 0) {
      ASSERT_EQ(parallel.size(), serial.size());
      for (const auto& [id, vol] : serial) {
        ASSERT_TRUE(parallel.contains(id)) << "cell " << id << " missing";
        EXPECT_NEAR(parallel.at(id), vol, 1e-9 * (1.0 + vol)) << "cell " << id;
      }
    }
  });
}

TEST(Tessellator, SmallGhostLosesAccuracy) {
  // With a ghost zone far smaller than typical spacing, boundary cells are
  // wrong or missing — the upper rows of Table I.
  const double domain = 6.0;
  const auto particles = random_particles(10, 200, domain);
  long long kept = 0;
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(8), true);
    TessOptions opt;
    opt.ghost = 0.05;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt);
    if (c.rank() == 0) kept = 0;
    const auto total = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    if (c.rank() == 0) kept = total;
  });
  EXPECT_LT(kept, 200);  // incomplete boundary cells were dropped
}

TEST(Tessellator, ThresholdCulling) {
  const double domain = 6.0;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 3.0;
    opt.min_volume = 1.0;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? random_particles(11, 400, domain) : std::vector<Particle>{},
        opt);
    for (const auto& cell : mesh.cells) EXPECT_GE(cell.volume, 1.0);
  });
}

TEST(Tessellator, EarlyCullMatchesExactCull) {
  // The conservative early cull must never drop a cell the exact volume
  // test would keep: a min_volume run keeps exactly the cells of an
  // unthresholded run whose volume reaches the threshold. At 600 sites the
  // mean cell volume is 0.36, so the early bound fires on some cells and
  // about a sixth of the cells are kept.
  const double domain = 6.0;
  const double min_volume = 0.5;
  const auto particles = random_particles(12, 600, domain);
  std::map<std::int64_t, double> all, thresholded;
  std::size_t culled_early = 0;
  for (const double threshold : {0.0, min_volume}) {
    Runtime::run(4, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {domain, domain, domain},
                      Decomposition::factor(4), true);
      TessOptions opt;
      opt.ghost = 3.0;
      opt.min_volume = threshold;
      TessStats stats;
      auto mesh = tess::core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt, &stats);
      auto vols = gather_cell_volumes(c, mesh);
      const std::size_t early = c.allreduce_sum(stats.cells_culled_early);
      if (c.rank() == 0) {
        (threshold > 0.0 ? thresholded : all) = vols;
        if (threshold > 0.0) culled_early = early;
      }
    });
  }
  std::set<std::int64_t> want, got;
  for (const auto& [id, v] : all)
    if (v >= min_volume) want.insert(id);
  for (const auto& [id, v] : thresholded) got.insert(id);
  EXPECT_EQ(got, want);
  EXPECT_GT(culled_early, 0u);
  EXPECT_LT(want.size(), all.size());
}

TEST(Tessellator, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "tess_core_roundtrip.bin";
  const double domain = 5.0;
  const auto particles = random_particles(14, 150, domain);
  Runtime::run(4, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(4), true);
    TessOptions opt;
    opt.ghost = 2.5;
    Tessellator t(c, d, opt);
    auto mine = tess::diy::migrate_items(
        c, d, c.rank() == 0 ? particles : std::vector<Particle>{},
        [](Particle& p) -> Vec3& { return p.pos; });
    auto mesh = t.tessellate(mine);
    const auto bytes = t.write(path, mesh);
    EXPECT_GT(bytes, 0u);
    EXPECT_GT(t.stats().output_seconds, 0.0);

    c.barrier();
    // Read back this rank's block and compare.
    tess::diy::BlockFileReader reader(path);
    auto buf = reader.read_block(c.rank());
    auto back = BlockMesh::deserialize(buf);
    ASSERT_EQ(back.cells.size(), mesh.cells.size());
    for (std::size_t i = 0; i < mesh.cells.size(); ++i) {
      EXPECT_EQ(back.cells[i].site_id, mesh.cells[i].site_id);
      EXPECT_DOUBLE_EQ(back.cells[i].volume, mesh.cells[i].volume);
    }
    EXPECT_EQ(back.face_verts, mesh.face_verts);
    EXPECT_EQ(back.face_neighbors, mesh.face_neighbors);
  });
  std::remove(path.c_str());
}

TEST(Tessellator, StatsAccounting) {
  const double domain = 5.0;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {domain, domain, domain},
                    Decomposition::factor(2), true);
    TessOptions opt;
    opt.ghost = 2.0;
    TessStats stats;
    auto mesh = tess::core::standalone_tessellate(
        c, d, c.rank() == 0 ? random_particles(15, 100, domain) : std::vector<Particle>{},
        opt, &stats);
    EXPECT_EQ(stats.cells_kept, mesh.cells.size());
    EXPECT_EQ(stats.local_particles,
              stats.cells_kept + stats.cells_incomplete + stats.cells_culled_early +
                  stats.cells_culled_volume);
    EXPECT_GT(stats.ghost_received, 0u);
    EXPECT_GT(stats.compute_seconds, 0.0);
  });
}

TEST(Tessellator, ProvenIncompleteCellsCountedPerPass) {
  // Sums each pass's proven and incomplete counts over the ranks, and checks
  // the tess.cells_proven_incomplete counter carries the same total.
  constexpr int kRanks = 2;
  auto run = [](bool periodic, const std::vector<Particle>& particles,
                double domain, const TessOptions& opt) {
    std::vector<TessStats> stats(kRanks);
    tess::obs::metrics().reset();
    Runtime::run(kRanks, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {domain, domain, domain},
                      Decomposition::factor(kRanks), periodic);
      tess::core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt,
          &stats[static_cast<std::size_t>(c.rank())]);
    });
    std::vector<tess::core::IterationStats> passes(stats[0].iterations.size());
    std::size_t total = 0;
    for (const auto& s : stats) {
      EXPECT_EQ(s.iterations.size(), passes.size());
      for (std::size_t k = 0; k < passes.size(); ++k) {
        passes[k].cells_incomplete += s.iterations[k].cells_incomplete;
        passes[k].cells_proven_incomplete +=
            s.iterations[k].cells_proven_incomplete;
        total += s.iterations[k].cells_proven_incomplete;
      }
    }
#if TESS_OBS_ENABLED
    EXPECT_EQ(tess::obs::metrics().counter("tess.cells_proven_incomplete").value(),
              total);
#endif
    return passes;
  };

  // Open domain, clustered, auto-ghost: hull cells stay incomplete in every
  // pass, and the proof settles some of them each time.
  constexpr double kDomain = 6.0;
  Rng rng(77);
  std::vector<Particle> clustered;
  for (int i = 0; i < 600; ++i) {
    Vec3 p{rng.uniform(0, kDomain), rng.uniform(0, kDomain),
           rng.uniform(0, kDomain)};
    if (i % 4 != 3)
      p = {std::clamp(2.4 + rng.normal(0.0, 0.3), 0.0, kDomain * (1 - 1e-12)),
           std::clamp(3.0 + rng.normal(0.0, 0.3), 0.0, kDomain * (1 - 1e-12)),
           std::clamp(3.0 + rng.normal(0.0, 0.3), 0.0, kDomain * (1 - 1e-12))};
    clustered.push_back({p, i});
  }
  TessOptions open_opt;
  open_opt.ghost = 0.3;
  open_opt.auto_ghost = true;
  const auto open_passes = run(false, clustered, kDomain, open_opt);
  ASSERT_GT(open_passes.size(), 1u) << "expected several auto-ghost passes";
  for (std::size_t k = 0; k < open_passes.size(); ++k) {
    EXPECT_GT(open_passes[k].cells_proven_incomplete, 0u) << "pass " << k;
    EXPECT_LE(open_passes[k].cells_proven_incomplete,
              open_passes[k].cells_incomplete)
        << "pass " << k;
  }

  // Periodic with ample ghost: every cell closes, so nothing is provable.
  TessOptions periodic_opt;
  periodic_opt.ghost = 2.0;
  const auto periodic_passes =
      run(true, random_particles(15, 200, 5.0), 5.0, periodic_opt);
  ASSERT_EQ(periodic_passes.size(), 1u);
  EXPECT_EQ(periodic_passes[0].cells_incomplete, 0u);
  EXPECT_EQ(periodic_passes[0].cells_proven_incomplete, 0u);
}

TEST(Tessellator, EmptyBlockIsHandled) {
  // All particles crowd one corner; some blocks own nothing.
  Runtime::run(8, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, Decomposition::factor(8), true);
    std::vector<Particle> ps;
    if (c.rank() == 0) {
      Rng rng(16);
      for (int i = 0; i < 50; ++i)
        ps.push_back({{rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)}, i});
    }
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh = tess::core::standalone_tessellate(c, d, std::move(ps), opt);
    // Just verify the collective completes and totals are consistent.
    const auto kept = c.allreduce_sum(static_cast<long long>(mesh.cells.size()));
    EXPECT_LE(kept, 50);
  });
}

TEST(BlockMesh, DataModelStats) {
  Runtime::run(1, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {8, 8, 8}, {1, 1, 1}, true);
    TessOptions opt;
    opt.ghost = 2.0;
    auto mesh =
        tess::core::standalone_tessellate(c, d, lattice_particles(8), opt);
    EXPECT_DOUBLE_EQ(mesh.avg_faces_per_cell(), 6.0);
    EXPECT_DOUBLE_EQ(mesh.avg_verts_per_face(), 4.0);
    EXPECT_GT(mesh.bytes_per_cell(), 0.0);
    // Welding: vertices shared between cells are listed once. In absolute
    // coordinates the periodic 8^3 lattice exposes a 9^3 grid of corner
    // positions (x = 0 and x = 8 are periodic images but distinct points).
    EXPECT_EQ(mesh.vertices.size(), 729u);
    // Without welding there would be 8 corners x 512 cells = 4096 entries.
    EXPECT_LT(mesh.vertices.size(), 4096u);
  });
}
