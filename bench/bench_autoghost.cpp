// Auto-ghost loop benchmark: restart-from-scratch vs incremental
// (annulus-delta exchange + certified-cell reuse). The clustered input and
// the deliberately small initial ghost force several doubling passes, the
// regime the incremental path exists for; both modes emit byte-identical
// meshes, so the comparison is pure work saved.
//
// Produces BENCH_autoghost.json via --benchmark_format=json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "common.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "util/rng.hpp"

using namespace tess;
using comm::Comm;
using comm::Runtime;
using core::TessOptions;
using core::TessStats;
using diy::Decomposition;
using diy::Particle;
using geom::Vec3;

namespace {

constexpr double kDomain = 8.0;
// Starting guess sized so pass 1 already certifies the dense cluster cells
// while the sparse background forces >= 3 further doublings — the regime
// where certificate reuse pays: later passes rebuild only the sparse tail.
constexpr double kInitialGhost = 0.35;
constexpr int kRanks = 2;

// Strongly clustered: 90% of the particles in two tight blobs, 10% sparse
// background. The blob cells certify at the small initial ghost while the
// background cells need several doublings, so the incremental path's later
// passes touch only the sparse tail — the regime certificate reuse targets.
std::vector<Particle> clustered(int n) {
  util::Rng rng(77);
  std::vector<Particle> ps;
  const Vec3 centers[2] = {{0.3 * kDomain, 0.3 * kDomain, 0.4 * kDomain},
                           {0.7 * kDomain, 0.6 * kDomain, 0.6 * kDomain}};
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 10 < 9) {
      const Vec3& c = centers[i % 2 == 0 ? 0 : 1];
      p = {c.x + rng.normal(0.0, 0.03 * kDomain),
           c.y + rng.normal(0.0, 0.03 * kDomain),
           c.z + rng.normal(0.0, 0.03 * kDomain)};
      p.x = std::clamp(p.x, 0.0, kDomain * (1.0 - 1e-12));
      p.y = std::clamp(p.y, 0.0, kDomain * (1.0 - 1e-12));
      p.z = std::clamp(p.z, 0.0, kDomain * (1.0 - 1e-12));
    } else {
      p = {rng.uniform(0, kDomain), rng.uniform(0, kDomain),
           rng.uniform(0, kDomain)};
    }
    ps.push_back({p, i});
  }
  return ps;
}

void run_autoghost(benchmark::State& state, bool incremental) {
  const int n = static_cast<int>(state.range(0));
  const auto particles = clustered(n);
  int iterations = 0;
  std::size_t sent = 0;
  for (auto _ : state) {
    iterations = 0;
    sent = 0;
    std::vector<TessStats> stats(kRanks);
    Runtime::run(kRanks, [&](Comm& c) {
      Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                      Decomposition::factor(kRanks), true);
      TessOptions opt;
      opt.ghost = kInitialGhost;
      opt.auto_ghost = true;
      opt.incremental = incremental;
      auto mesh = core::standalone_tessellate(
          c, d, c.rank() == 0 ? particles : std::vector<Particle>{}, opt,
          &stats[static_cast<std::size_t>(c.rank())]);
      benchmark::DoNotOptimize(mesh.cells.size());
    });
    for (const auto& s : stats) sent += s.ghost_sent;
    iterations = stats[0].auto_iterations;
  }
  state.counters["auto_iterations"] = static_cast<double>(iterations);
  state.counters["ghost_sent"] = static_cast<double>(sent);
}

}  // namespace

static void BM_AutoGhost_Scratch(benchmark::State& state) {
  run_autoghost(state, false);
}
BENCHMARK(BM_AutoGhost_Scratch)->Arg(2000)->Arg(4000)->UseRealTime()->Unit(benchmark::kMillisecond);

static void BM_AutoGhost_Incremental(benchmark::State& state) {
  run_autoghost(state, true);
}
BENCHMARK(BM_AutoGhost_Incremental)->Arg(2000)->Arg(4000)->UseRealTime()->Unit(benchmark::kMillisecond);

// Custom main instead of BENCHMARK_MAIN(): with TESS_OBS_EXPORT=<prefix>
// in the environment, the run also emits <prefix>.trace.json (one
// chrome://tracing lane per rank x thread showing the exchange / build /
// retry spans) and <prefix>.summary.json.
// --fault-spec=SPEC arms the fault injector (comm/fault.hpp grammar) for
// the whole run; --fault-seed=N seeds it (default: TESS_FAULT_SEED, else 1).
// Both are stripped from argv before Google Benchmark sees them. With a
// spec armed, retry/recovery counters are printed after the run (and land
// in the obs summary export as comm.fault.* / comm.recv.* counters).
int main(int argc, char** argv) {
  std::string fault_spec;
  std::uint64_t fault_seed = tess::comm::FaultInjector::env_seed(1);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--fault-spec=", 0) == 0) {
      fault_spec = arg.substr(13);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      fault_seed = std::strtoull(arg.substr(13).data(), nullptr, 10);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!fault_spec.empty()) {
    auto plan = tess::comm::FaultPlan::parse(fault_spec, fault_seed);
    std::fprintf(stderr, "fault plan: %s\n", plan.describe().c_str());
    tess::comm::faults().arm(std::move(plan));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tess::bench::obs_begin_from_env();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (tess::comm::faults().armed()) {
    const auto fc = tess::comm::faults().counts();
    std::fprintf(stderr,
                 "fault counters: dropped=%llu recovered=%llu delayed=%llu "
                 "duplicated=%llu deduped=%llu lost=%llu\n",
                 static_cast<unsigned long long>(fc.dropped),
                 static_cast<unsigned long long>(fc.recovered),
                 static_cast<unsigned long long>(fc.delayed),
                 static_cast<unsigned long long>(fc.duplicated),
                 static_cast<unsigned long long>(fc.dedup_dropped),
                 static_cast<unsigned long long>(fc.lost));
  }
  tess::bench::obs_export_from_env();
  return 0;
}
