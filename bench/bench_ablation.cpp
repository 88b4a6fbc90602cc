// Ablation bench for the ghost-size choice: ghost size vs exchange volume
// vs completeness, the tradeoff the paper flags as future work in §IV-A.
#include <cstdio>

#include "common.hpp"
#include "util/table.hpp"

using namespace tess;

int main() {
  tess::bench::obs_begin_from_env();
  std::printf("== Ablation studies ==\n\n");

  hacc::SimConfig sim;
  sim.np = sim.ng = 32;
  sim.nsteps = 50;
  sim.sigma_grid = 5.0;  // strongly clustered
  sim.seed = 31;
  const auto snapshot = bench::evolve_snapshot(sim, sim.nsteps);
  const double domain = sim.box();

  // ---- Ghost size vs exchange volume vs completeness. ----
  util::Table ghost({"Ghost", "Exchange(s)", "GhostParticles", "CellsKept",
                     "Incomplete"});
  for (double g : {1.0, 2.0, 3.0, 4.0, 6.0}) {
    core::TessOptions opt;
    opt.ghost = g;
    const auto r = bench::run_standalone(8, snapshot, domain, opt);
    ghost.add_row({util::Table::cell(g, 0), util::Table::cell(r.exchange_max, 4),
                   util::Table::cell(static_cast<std::size_t>(r.ghost_exchanged)),
                   util::Table::cell(static_cast<std::size_t>(r.cells_kept)),
                   util::Table::cell(static_cast<std::size_t>(r.cells_incomplete))});
  }
  std::printf("Ghost size vs exchange volume vs completeness (8 ranks):\n%s\n",
              ghost.render().c_str());
  std::printf("expected: larger ghosts exchange more particles but eliminate\n"
              "incomplete cells\n");
  tess::bench::obs_export_from_env();
  return 0;
}
