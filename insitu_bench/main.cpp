// The in-situ step benchmark binary (README.md in this directory).
//
//   insitu_bench --workload evolved_insitu|clustered_open|snapshot_queries
//                --seed N --seconds S --trace 0|1 --out DIR
//
// Runs one workload on 4 in-process ranks, checks every output outside the
// timed region, and writes the raw measurements to DIR/result.json; with
// --trace 1 it also writes the benchmark's own spans to DIR/spans.jsonl.
// run.py turns both into the reported metrics. Exit status 0 means the run
// completed; the correctness verdict is the "failures" list in result.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "comm/comm.hpp"
#include "core/standalone.hpp"
#include "core/tessellator.hpp"
#include "diy/blockio.hpp"
#include "diy/exchange.hpp"
#include "diy/repartition.hpp"
#include "geom/cell_builder.hpp"
#include "hacc/simulation.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "span_log.hpp"
#include "util/rng.hpp"

namespace {

using insitu::now_s;
using insitu::Span;
using insitu::SpanLog;
using tess::geom::Vec3;
namespace comm = tess::comm;
namespace core = tess::core;
namespace diy = tess::diy;
namespace geom = tess::geom;
namespace hacc = tess::hacc;
namespace serve = tess::serve;
namespace util = tess::util;

// ---------------------------------------------------------------------------
// Workload constants. Every input is drawn from --seed; these fix its shape.

constexpr int kRanks = 4;
/// Set-ups per run: at least kMinSetups, more while they add up to less than
/// kSetupBudgetS, so that the median of a few-millisecond set-up is steady.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
constexpr int kMinSamples = 11;     ///< the tail needs 10 samples beyond it
constexpr std::size_t kCheckSample = 32;  ///< oracle-checked points per batch
constexpr std::size_t kBatchPoints = 4096;  ///< points per locate or void batch
/// The library default, named so that TESS_GEOM_BACKEND (read only for kAuto)
/// cannot switch the measured kernel.
constexpr geom::TessBackend kBackend = geom::TessBackend::kScalar;

// evolved_insitu: the paper's configuration.
constexpr int kEvolvedNp = 32;
constexpr int kEvolvedSteps = 100;
constexpr int kEvolvedStart = 40;
constexpr double kEvolvedGhostSpacings = 4.0;
/// On a periodic file locate() measures unwrapped distance, so its answer is
/// the brute-force nearest site only away from the faces (serve/snapshot.hpp).
constexpr double kPeriodicCheckMargin = 4.0;

// clustered_open: two Gaussian blobs plus a uniform background, open domain.
constexpr int kClusteredNp = 20;
constexpr double kClusteredDomain = 6.0;
constexpr double kClusteredGhostSpacings = 2.0;

// snapshot_queries: six evolved snapshots, a 3-snapshot cache, and a fixed
// mix per cycle of 8 batches: 6 point_locate, 1 void_lookup, 1
// extract_region, of which 3 go to a snapshot the cache does not hold.
constexpr int kSnapshots = 6;
constexpr std::size_t kCacheSnapshots = 3;
constexpr int kCycle = 8;
constexpr int kColdPerCycle = 3;
constexpr double kVoidMinVolume = 2.0;  ///< twice the mean cell volume
constexpr double kRegionSide = 8.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t fnv1a(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Independent stream of the run's seed for one purpose (`stream`) and
/// instance (`index`), so inputs never depend on how many steps ran.
util::Rng rng_for(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return util::Rng(seed, stream * 1000003ULL + index);
}

std::vector<Vec3> random_points(util::Rng& rng, std::size_t n, double lo,
                                double hi) {
  std::vector<Vec3> ps(n);
  for (auto& p : ps) p = {rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)};
  return ps;
}

// ---------------------------------------------------------------------------
// Minimal JSON object writer for result.json.

class JsonObj {
 public:
  JsonObj& num(const char* key, double v) {
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return raw(key, buf);
    }
    return raw(key, "null");
  }
  JsonObj& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObj& num(const char* key, int v) { return raw(key, std::to_string(v)); }
  JsonObj& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObj& str(const char* key, const std::string& v) { return raw(key, quote(v)); }
  JsonObj& nums(const char* key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", vs[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObj& strs(const char* key, const std::vector<std::string>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) s += (i ? "," : "") + quote(vs[i]);
    return raw(key, s + "]");
  }
  JsonObj& objs(const char* key, const std::vector<std::string>& bodies) {
    std::string s = "[";
    for (std::size_t i = 0; i < bodies.size(); ++i) s += (i ? ",\n" : "") + bodies[i];
    return raw(key, s + "]");
  }
  JsonObj& raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + std::string(key) + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += (ch == '\n') ? ' ' : ch;
    }
    return q + "\"";
  }

  std::string body_;
};

// ---------------------------------------------------------------------------
// Raw measurements, filled by rank 0 (steps) or the client thread (batches).

struct StepRecord {
  int step = 0;
  bool traced = false;
  double wall = 0.0;  ///< barrier to barrier on rank 0
  double cpu = 0.0;   ///< process CPU seconds over the same interval
  std::uint64_t traffic_bytes = 0;
  std::uint64_t cuts = 0, cand_seen = 0, cand_kept = 0, exact_fallbacks = 0;
  std::uint64_t file_bytes = 0;
  core::TessStats stats;                  ///< reduced_stats() of the step
  std::vector<double> rank_compute_s;     ///< per-rank TessStats::compute_seconds
  std::vector<double> pass_compute_s;     ///< per pass, summed over ranks
};

struct BatchRecord {
  std::string kind;  ///< locate | void | region
  bool cold = false;
  bool traced = false;
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t queries = 0;
  std::uint64_t walk_steps = 0;
  std::uint64_t fallbacks = 0;
};

struct Output {
  std::vector<double> setup_s;
  std::vector<StepRecord> steps;
  std::vector<BatchRecord> batches;
  std::vector<std::string> failures;  ///< one entry per failed step or batch
  std::size_t attempted = 0;
  JsonObj extra;
};

std::string step_json(const StepRecord& r) {
  JsonObj o;
  o.num("step", r.step).boolean("traced", r.traced).num("wall", r.wall)
      .num("cpu", r.cpu).num("traffic_bytes", r.traffic_bytes)
      .num("cuts", r.cuts).num("cand_seen", r.cand_seen)
      .num("cand_kept", r.cand_kept).num("exact_fallbacks", r.exact_fallbacks)
      .num("file_bytes", r.file_bytes)
      .num("passes", r.stats.auto_iterations)
      .num("ghost_used", r.stats.ghost_used)
      .num("ghost_received", static_cast<std::uint64_t>(r.stats.ghost_received))
      .num("cells_kept", static_cast<std::uint64_t>(r.stats.cells_kept))
      .num("cells_incomplete", static_cast<std::uint64_t>(r.stats.cells_incomplete))
      .num("cells_culled", static_cast<std::uint64_t>(r.stats.cells_culled_early +
                                                      r.stats.cells_culled_volume))
      .num("cells_uncertified", static_cast<std::uint64_t>(r.stats.cells_uncertified))
      .num("exchange_s", r.stats.exchange_seconds)
      .num("compute_s", r.stats.compute_seconds)
      .nums("rank_compute_s", r.rank_compute_s)
      .nums("pass_compute_s", r.pass_compute_s);
  std::uint64_t built = 0;
  for (const auto& it : r.stats.iterations) built += it.cells_built;
  o.num("cells_built", built);
  return o.text();
}

std::string batch_json(const BatchRecord& b) {
  JsonObj o;
  o.str("kind", b.kind).boolean("cold", b.cold).boolean("traced", b.traced)
      .num("wall", b.wall).num("cpu", b.cpu)
      .num("queries", static_cast<std::uint64_t>(b.queries))
      .num("walk_steps", b.walk_steps).num("fallbacks", b.fallbacks);
  return o.text();
}

// ---------------------------------------------------------------------------
// Output checks (run outside the timed region).

/// Sites an oracle may answer with: input positions indexed by particle id
/// (ids are dense, 0..n-1), and which of them own a cell in the file.
struct SiteTruth {
  std::vector<Vec3> pos;
  std::vector<double> volume;  ///< NaN where the file holds no cell
};

/// Brute-force nearest site among the sites that own a cell: an oracle that
/// shares nothing with the clipper or the serving index.
std::int64_t brute_nearest(const SiteTruth& t, const Vec3& p, double* d2_out) {
  double best = std::numeric_limits<double>::infinity();
  std::int64_t id = -1;
  for (std::size_t i = 0; i < t.pos.size(); ++i) {
    if (std::isnan(t.volume[i])) continue;
    const double d2 = geom::dist2(p, t.pos[i]);
    if (d2 < best) {
      best = d2;
      id = static_cast<std::int64_t>(i);
    }
  }
  *d2_out = best;
  return id;
}

/// Indices of a seeded sample of `points`, restricted to those at least
/// `margin` inside [lo, hi)^3.
std::vector<std::size_t> check_sample(const std::vector<Vec3>& points, double lo,
                                      double hi, double margin, util::Rng rng) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    if (std::min({p.x, p.y, p.z}) >= lo + margin &&
        std::max({p.x, p.y, p.z}) < hi - margin)
      eligible.push_back(i);
  }
  std::vector<std::size_t> pick;
  for (std::size_t k = 0; k < kCheckSample && !eligible.empty(); ++k) {
    const auto j = static_cast<std::size_t>(rng.uniform_index(eligible.size()));
    pick.push_back(eligible[j]);
    eligible[j] = eligible.back();
    eligible.pop_back();
  }
  return pick;
}

/// Empty when every sampled location matches the oracle.
std::string check_locations(const SiteTruth& truth, const std::vector<Vec3>& points,
                            const std::vector<serve::PointLocation>& locs,
                            const std::vector<std::size_t>& sample) {
  if (locs.size() != points.size()) return "locate returned a short batch";
  if (sample.empty()) return "no point eligible for the oracle check";
  for (const auto i : sample) {
    double d2 = 0.0;
    const auto ref = brute_nearest(truth, points[i], &d2);
    const auto& loc = locs[i];
    if (!loc.found() || loc.site_id < 0 ||
        static_cast<std::size_t>(loc.site_id) >= truth.pos.size() ||
        std::abs(geom::dist2(points[i], truth.pos[static_cast<std::size_t>(
                                            loc.site_id)]) - d2) > 1e-12 * (1.0 + d2)) {
      std::ostringstream msg;
      msg << "locate(" << points[i].x << "," << points[i].y << "," << points[i].z
          << ") gave site " << loc.site_id << ", brute force gives " << ref;
      return msg.str();
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// State shared by the rank threads of one Runtime::run. Each rank writes only
// its own slot; rank 0 reads the slots after a barrier.

struct Shared {
  explicit Shared(int n)
      : inputs(static_cast<std::size_t>(n)),
        kept(static_cast<std::size_t>(n)),
        rank_compute(static_cast<std::size_t>(n)),
        rank_passes(static_cast<std::size_t>(n)) {}
  std::atomic<bool> go{false};
  std::vector<std::vector<diy::Particle>> inputs;  ///< each rank's input sites
  std::vector<std::vector<std::pair<std::int64_t, double>>> kept;  ///< (id, volume)
  std::vector<double> rank_compute;
  std::vector<std::vector<double>> rank_passes;
  std::vector<Vec3> query_points;  ///< rank 0's batch for the coming step
};

void publish_rank(Shared& sh, int rank, std::vector<diy::Particle> inputs,
                  const core::BlockMesh& mesh, const core::TessStats& stats) {
  auto& kept = sh.kept[static_cast<std::size_t>(rank)];
  kept.clear();
  for (const auto& c : mesh.cells) kept.emplace_back(c.site_id, c.volume);
  sh.inputs[static_cast<std::size_t>(rank)] = std::move(inputs);
  sh.rank_compute[static_cast<std::size_t>(rank)] = stats.compute_seconds;
  auto& passes = sh.rank_passes[static_cast<std::size_t>(rank)];
  passes.clear();
  for (const auto& it : stats.iterations) passes.push_back(it.compute_seconds);
}

SiteTruth gather_truth(const Shared& sh, std::size_t n_sites) {
  SiteTruth t;
  t.pos.assign(n_sites, Vec3{});
  t.volume.assign(n_sites, std::numeric_limits<double>::quiet_NaN());
  for (const auto& in : sh.inputs)
    for (const auto& p : in) t.pos[static_cast<std::size_t>(p.id)] = p.pos;
  for (const auto& k : sh.kept)
    for (const auto& [id, vol] : k) t.volume[static_cast<std::size_t>(id)] = vol;
  return t;
}

struct CounterSnap {
  std::uint64_t traffic = 0, cuts = 0, seen = 0, kept = 0, exact = 0;
  static CounterSnap read(const comm::Comm& c) {
    auto& m = tess::obs::metrics();
    return {c.traffic_bytes(), m.counter("geom.cuts").value(),
            m.counter("geom.backend.cand_seen").value(),
            m.counter("geom.backend.cand_kept").value(),
            m.counter("geom.exact_fallbacks").value()};
  }
};

// ---------------------------------------------------------------------------
// The step loop shared by evolved_insitu and clustered_open.

struct StepLoop {
  const Args* args;
  double seconds = 0.0;  ///< 0: run exactly max_steps steps
  int max_steps = 0;
  bool alternate_trace = false;  ///< trace every second step
  std::string dir;
  double domain = 0.0;
  double check_margin = 0.0;
  std::size_t n_sites = 0;
  /// This rank's particles for `step`, after any simulation work.
  std::function<std::vector<diy::Particle>(int step)> produce;
  /// This rank's input sites after the step, for the oracle.
  std::function<std::vector<diy::Particle>()> inputs;
  /// Workload-specific checks, after publish_rank; collective. Returns
  /// the failures on rank 0.
  std::function<std::vector<std::string>(comm::Comm&, const core::BlockMesh&,
                                         const StepRecord&)>
      check;
};

void run_steps(comm::Comm& c, core::Tessellator& tess, serve::QueryService& service,
               Shared& sh, const StepLoop& loop, int first_step, Output& out) {
  const bool root = c.rank() == 0;
  const double loop_start = now_s();
  CounterSnap base;
  for (int k = 0;; ++k) {
    const int step = first_step + k;
    if (root) {
      const double elapsed = now_s() - loop_start;
      bool go = k < loop.max_steps;
      if (loop.seconds > 0.0 && elapsed >= loop.seconds)
        go = go && k < kMinSamples && elapsed < 2.0 * loop.seconds;
      sh.go.store(go);
      if (go) {
        SpanLog::instance().set_enabled(loop.alternate_trace && k % 2 == 1);
        auto rng = rng_for(loop.args->seed, 1, static_cast<std::uint64_t>(step));
        sh.query_points = random_points(rng, kBatchPoints, 0.0, loop.domain);
      }
    }
    c.barrier();
    if (!sh.go.load()) break;
    if (root) base = CounterSnap::read(c);
    c.barrier();

    insitu::t_step = step;
    const std::string path = loop.dir + "/step-" + std::to_string(step) + ".tess";
    StepRecord rec;
    BatchRecord batch;
    std::vector<serve::PointLocation> locs;
    core::BlockMesh mesh;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    {
      Span span("step");
      auto particles = loop.produce(step);
      {
        Span s("core.tessellate_step");
        mesh = tess.tessellate_step(step, std::move(particles));
      }
      {
        Span s("comm.barrier.after_tessellate");
        c.barrier();
      }
      diy::Buffer buf;
      {
        Span s("core.serialize");
        mesh.serialize(buf);
      }
      {
        Span s("diy.write_blocks");
        rec.file_bytes = diy::write_blocks(c, path, buf);
      }
      if (root) {
        const double q0 = now_s(), qcpu0 = process_cpu_s();
        {
          Span s("serve.point_locate");
          locs = service.point_locate(path, sh.query_points);
        }
        batch.wall = now_s() - q0;
        batch.cpu = process_cpu_s() - qcpu0;
      }
      {
        Span s("comm.barrier.step_end");
        c.barrier();
      }
    }
    const double t1 = now_s();
    const double cpu1 = process_cpu_s();
    if (root) {
      const auto end = CounterSnap::read(c);
      rec.step = step;
      rec.traced = SpanLog::instance().enabled();
      rec.wall = t1 - t0;
      rec.cpu = cpu1 - cpu0;
      rec.traffic_bytes = end.traffic - base.traffic;
      rec.cuts = end.cuts - base.cuts;
      rec.cand_seen = end.seen - base.seen;
      rec.cand_kept = end.kept - base.kept;
      rec.exact_fallbacks = end.exact - base.exact;
      SpanLog::instance().set_enabled(false);
    }
    c.barrier();
    insitu::t_step = -1;

    // Outside the timed region: statistics and output checks.
    rec.stats = tess.reduced_stats();
    publish_rank(sh, c.rank(), loop.inputs(), mesh, tess.stats());
    c.barrier();
    SiteTruth truth;
    if (root) {
      truth = gather_truth(sh, loop.n_sites);
      rec.rank_compute_s = sh.rank_compute;
      rec.pass_compute_s.assign(rec.stats.iterations.size(), 0.0);
      for (const auto& passes : sh.rank_passes)
        for (std::size_t p = 0; p < passes.size() && p < rec.pass_compute_s.size(); ++p)
          rec.pass_compute_s[p] += passes[p];
    }
    auto failures = loop.check(c, mesh, rec);
    if (root) {
      batch.kind = "locate";
      batch.cold = true;
      batch.traced = rec.traced;
      batch.queries = locs.size();
      for (const auto& l : locs) {
        batch.walk_steps += l.walk_steps;
        batch.fallbacks += l.grid_fallback ? 1 : 0;
      }
      const auto sample =
          check_sample(sh.query_points, 0.0, loop.domain, loop.check_margin,
                       rng_for(loop.args->seed, 2, static_cast<std::uint64_t>(step)));
      if (auto f = check_locations(truth, sh.query_points, locs, sample); !f.empty())
        failures.push_back(f);
      service.cache().evict(path);
      std::remove(path.c_str());
      ++out.attempted;
      if (!failures.empty()) {
        std::string all = "step " + std::to_string(step) + ":";
        for (const auto& f : failures) all += " " + f + ";";
        out.failures.push_back(all);
      }
      out.steps.push_back(std::move(rec));
      out.batches.push_back(std::move(batch));
    }
  }
}

serve::ServiceConfig service_config(std::size_t cache_snapshots) {
  serve::ServiceConfig cfg;
  cfg.threads = kRanks;
  cfg.cache.max_snapshots = cache_snapshots;
  return cfg;
}

/// Replays rank 0's final-pass block through the public CellBuilder: the
/// block's own sites plus every particle (and periodic image) inside the
/// block grown by the final ghost, one build_into and, for complete cells,
/// one canonicalize per site, each under its own span.
void replay_block(const std::vector<diy::Particle>& all, const diy::Bounds& block,
                  double ghost, double domain, bool periodic, Output& out) {
  Span span("replay");
  const auto seed = block.grown(ghost);
  std::vector<Vec3> pts;
  std::vector<std::int64_t> ids;
  for (const auto& p : all)
    if (block.contains(p.pos)) {
      pts.push_back(p.pos);
      ids.push_back(p.id);
    }
  const std::size_t sites = pts.size();
  const int reach = periodic ? 1 : 0;
  for (const auto& p : all)
    for (int i = -reach; i <= reach; ++i)
      for (int j = -reach; j <= reach; ++j)
        for (int k = -reach; k <= reach; ++k) {
          const Vec3 q = p.pos + Vec3{i * domain, j * domain, k * domain};
          if ((i || j || k || !block.contains(q)) && seed.contains(q)) {
            pts.push_back(q);
            ids.push_back(p.id);
          }
        }
  std::optional<geom::CellBuilder> builder;
  {
    Span s("geom.CellBuilder");
    builder.emplace(std::move(pts), std::move(ids), seed.min, seed.max, kBackend);
  }
  geom::VoronoiCell cell({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  geom::ClipScratch scratch;
  std::uint64_t complete = 0;
  for (std::size_t i = 0; i < sites; ++i) {
    {
      Span s("geom.build_into");
      builder->build_into(cell, scratch, static_cast<int>(i), seed.min, seed.max);
    }
    if (!cell.complete()) continue;
    ++complete;
    Span s("geom.canonicalize");
    cell.canonicalize();
  }
  JsonObj r;
  r.num("sites", static_cast<std::uint64_t>(sites)).num("canonicalized", complete)
      .num("points", static_cast<std::uint64_t>(builder->num_points()))
      .num("ghost", ghost);
  out.extra.raw("replay", r.text());
}

// ---------------------------------------------------------------------------
// evolved_insitu

hacc::SimConfig evolved_config(std::uint64_t seed) {
  hacc::SimConfig cfg;
  cfg.np = kEvolvedNp;
  cfg.ng = kEvolvedNp;
  cfg.nsteps = kEvolvedSteps;
  cfg.seed = seed;
  return cfg;
}

core::TessOptions evolved_options(const hacc::SimConfig& cfg) {
  core::TessOptions opt;
  opt.ghost = kEvolvedGhostSpacings * cfg.box() / cfg.np;
  opt.threads = 1;
  opt.backend = kBackend;
  return opt;
}

/// One set-up on `nranks` ranks; with `loop` set, the timed steps follow.
void evolved_run(const Args& a, int nranks, const StepLoop* loop, bool replay,
                 Output& out) {
  const auto cfg = evolved_config(a.seed);
  const double box = cfg.box();
  const std::size_t n_sites = static_cast<std::size_t>(cfg.np) * cfg.np * cfg.np;
  Shared sh(nranks);
  serve::QueryService service(service_config(1));
  comm::Runtime::run(nranks, [&](comm::Comm& c) {
    insitu::t_rank = c.rank();
    c.barrier();
    const double t0 = now_s();
    hacc::Simulation sim(c, cfg);
    sim.run_until(kEvolvedStart);
    core::Tessellator tess(c, sim.decomposition(), evolved_options(cfg));
    c.barrier();
    if (c.rank() == 0 && nranks == kRanks) out.setup_s.push_back(now_s() - t0);
    if (loop == nullptr) return;

    StepLoop l = *loop;
    l.domain = box;
    l.check_margin = kPeriodicCheckMargin;
    l.n_sites = n_sites;
    l.max_steps = std::min(l.max_steps, cfg.nsteps - kEvolvedStart);
    l.produce = [&](int) {
      {
        Span s("hacc.step");
        sim.step();
      }
      Span s("hacc.local_tess_particles");
      return sim.local_tess_particles();
    };
    l.inputs = [&] { return sim.local_tess_particles(); };
    l.check = [&](comm::Comm& cc, const core::BlockMesh&, const StepRecord&) {
      std::vector<std::string> f;
      if (cc.rank() != 0) return f;
      double vol = 0.0;
      std::size_t cells = 0;
      std::vector<std::uint8_t> seen(n_sites, 0);
      for (const auto& k : sh.kept)
        for (const auto& [id, v] : k) {
          vol += v;
          ++cells;
          if (id >= 0 && static_cast<std::size_t>(id) < n_sites) ++seen[static_cast<std::size_t>(id)];
        }
      const double expect = box * box * box;
      if (std::abs(vol - expect) > 1e-9 * expect) {
        std::ostringstream m;
        m.precision(17);
        m << "kept volume " << vol << " != box volume " << expect;
        f.push_back(m.str());
      }
      if (cells != n_sites ||
          std::any_of(seen.begin(), seen.end(), [](std::uint8_t s) { return s != 1; }))
        f.push_back(std::to_string(cells) + " cells for " + std::to_string(n_sites) +
                    " sites, not one each");
      return f;
    };
    run_steps(c, tess, service, sh, l, sim.step_index() + 1, out);

    if (replay) {
      c.barrier();
      if (c.rank() == 0) {
        std::vector<diy::Particle> all;
        for (const auto& in : sh.inputs) all.insert(all.end(), in.begin(), in.end());
        SpanLog::instance().set_enabled(true);
        replay_block(all, tess.active_decomposition().block_bounds(0),
                     tess.stats().ghost_used, box, true, out);
        SpanLog::instance().set_enabled(false);
      }
      c.barrier();
    }
  });
}

// ---------------------------------------------------------------------------
// clustered_open

/// 20^3 sites: half in a tight Gaussian blob, a quarter in a looser one, the
/// rest uniform; blob centres are fixed, the draws come from the seed.
std::vector<diy::Particle> clustered_cloud(std::uint64_t seed) {
  const double L = kClusteredDomain;
  const int n = kClusteredNp * kClusteredNp * kClusteredNp;
  auto rng = rng_for(seed, 3, 0);
  const Vec3 c1{0.30 * L, 0.62 * L, 0.40 * L};
  const Vec3 c2{0.72 * L, 0.22 * L, 0.66 * L};
  std::vector<diy::Particle> ps;
  ps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec3 p;
    if (i % 2 == 0) {
      p = {c1.x + rng.normal(0.0, 0.05 * L), c1.y + rng.normal(0.0, 0.05 * L),
           c1.z + rng.normal(0.0, 0.05 * L)};
    } else if (i % 4 == 1) {
      p = {c2.x + rng.normal(0.0, 0.08 * L), c2.y + rng.normal(0.0, 0.08 * L),
           c2.z + rng.normal(0.0, 0.08 * L)};
    } else {
      p = {rng.uniform(0.0, L), rng.uniform(0.0, L), rng.uniform(0.0, L)};
    }
    p.x = std::clamp(p.x, 0.0, L * (1.0 - 1e-12));
    p.y = std::clamp(p.y, 0.0, L * (1.0 - 1e-12));
    p.z = std::clamp(p.z, 0.0, L * (1.0 - 1e-12));
    ps.push_back({p, i});
  }
  return ps;
}

void clustered_run(const Args& a, int nranks, const StepLoop* loop, bool replay,
                   Output& out) {
  const double L = kClusteredDomain;
  const std::size_t n_sites =
      static_cast<std::size_t>(kClusteredNp) * kClusteredNp * kClusteredNp;
  Shared sh(nranks);
  serve::QueryService service(service_config(1));
  std::vector<diy::Particle> cloud;
  std::uint64_t digest = 0;
  comm::Runtime::run(nranks, [&](comm::Comm& c) {
    insitu::t_rank = c.rank();
    auto pos_of = [](diy::Particle& p) -> Vec3& { return p.pos; };
    c.barrier();
    const double t0 = now_s();
    if (c.rank() == 0) cloud = clustered_cloud(a.seed);
    const diy::Decomposition grid({0, 0, 0}, {L, L, L},
                                  diy::Decomposition::factor(nranks), false);
    auto mine = diy::migrate_items(
        c, grid, c.rank() == 0 ? cloud : std::vector<diy::Particle>{}, pos_of);
    const auto kd = diy::collective_kd(c, grid, mine);
    mine = diy::migrate_items(c, *kd, std::move(mine), pos_of);
    core::TessOptions opt;
    opt.ghost = kClusteredGhostSpacings * L / kClusteredNp;
    opt.auto_ghost = true;
    opt.incremental = true;
    opt.threads = 1;
    opt.backend = kBackend;
    core::Tessellator tess(c, *kd, opt);
    c.barrier();
    if (c.rank() == 0 && nranks == kRanks) out.setup_s.push_back(now_s() - t0);
    if (loop == nullptr) return;

    StepLoop l = *loop;
    l.domain = L;
    l.check_margin = 0.0;
    l.n_sites = n_sites;
    l.produce = [&](int) { return mine; };
    l.inputs = [&] { return mine; };
    l.check = [&](comm::Comm& cc, const core::BlockMesh& mesh, const StepRecord& rec) {
      std::vector<std::string> f;
      const auto merged = core::merged_mesh_bytes(cc, mesh);
      if (cc.rank() != 0) return f;
      const auto& s = rec.stats;
      const std::size_t accounted = s.cells_kept + s.cells_incomplete +
                                    s.cells_culled_early + s.cells_culled_volume;
      if (accounted != n_sites)
        f.push_back("kept+incomplete+culled = " + std::to_string(accounted) +
                    " for " + std::to_string(n_sites) + " sites");
      const std::uint64_t h = fnv1a(merged);
      if (digest == 0) digest = h;
      if (h != digest) f.push_back("merged mesh digest changed between steps");
      return f;
    };
    run_steps(c, tess, service, sh, l, 0, out);

    if (replay) {
      c.barrier();
      if (c.rank() == 0) {
        SpanLog::instance().set_enabled(true);
        replay_block(cloud, tess.active_decomposition().block_bounds(0),
                     tess.stats().ghost_used, L, false, out);
        SpanLog::instance().set_enabled(false);
      }
      c.barrier();
    }
  });
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  if (loop != nullptr && nranks == kRanks) out.extra.str("merged_digest", hex);
}

bool more_setups(const std::vector<double>& setup_s) {
  const auto n = static_cast<int>(setup_s.size());
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return n + 1 < kMinSetups || (total < kSetupBudgetS && n + 1 < kMaxSetups);
}

/// Repeated set-ups (more_setups); the last one runs the timed loop. With
/// --trace 1, one more 1-rank step gives the strong-scaling figure.
template <class RunFn>
void step_workload(const Args& a, RunFn run, Output& out) {
  StepLoop loop;
  loop.args = &a;
  loop.seconds = a.seconds;
  loop.max_steps = std::numeric_limits<int>::max();
  loop.alternate_trace = a.trace;
  loop.dir = a.out;
  while (more_setups(out.setup_s)) run(a, kRanks, nullptr, false, out);
  run(a, kRanks, &loop, a.trace, out);
  if (!a.trace) return;
  Output one;
  StepLoop single = loop;
  single.seconds = 0.0;
  single.max_steps = 1;
  single.alternate_trace = false;
  run(a, 1, &single, false, one);
  out.attempted += one.attempted;
  out.failures.insert(out.failures.end(), one.failures.begin(), one.failures.end());
  if (!one.steps.empty()) {
    JsonObj r;
    r.num("one_rank_step_s", one.steps.front().wall)
        .num("step", one.steps.front().step);
    out.extra.raw("parallel", r.text());
  }
}

// ---------------------------------------------------------------------------
// snapshot_queries

struct SnapshotInfo {
  std::string path;
  std::uint64_t file_bytes = 0;
  std::size_t cells = 0;
  SiteTruth truth;
};

/// Writes the six evolved snapshots (steps 41..46 of the 4-rank run).
std::vector<SnapshotInfo> write_snapshots(const Args& a) {
  const auto cfg = evolved_config(a.seed);
  const std::size_t n_sites = static_cast<std::size_t>(cfg.np) * cfg.np * cfg.np;
  std::vector<SnapshotInfo> snaps(kSnapshots);
  Shared sh(kRanks);
  comm::Runtime::run(kRanks, [&](comm::Comm& c) {
    insitu::t_rank = c.rank();
    hacc::Simulation sim(c, cfg);
    sim.run_until(kEvolvedStart);
    core::Tessellator tess(c, sim.decomposition(), evolved_options(cfg));
    for (int s = 0; s < kSnapshots; ++s) {
      sim.step();
      const auto mesh = tess.tessellate_step(sim.step_index(), sim.local_tess_particles());
      diy::Buffer buf;
      mesh.serialize(buf);
      auto& info = snaps[static_cast<std::size_t>(s)];
      const std::string path = a.out + "/snapshot-" + std::to_string(s) + ".tess";
      const auto bytes = diy::write_blocks(c, path, buf);
      publish_rank(sh, c.rank(), sim.local_tess_particles(), mesh, tess.stats());
      c.barrier();
      if (c.rank() == 0) {
        info.path = path;
        info.file_bytes = bytes;
        info.truth = gather_truth(sh, n_sites);
        for (const auto& k : sh.kept) info.cells += k.size();
      }
      c.barrier();
    }
  });
  return snaps;
}

/// The batch plan: per cycle of kCycle batches a seeded order of kinds and
/// of which batches go to a snapshot the cache does not hold.
struct Plan {
  std::string kind;
  bool cold = false;
};

std::vector<Plan> plan_cycle(util::Rng& rng) {
  auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size() - 1; i > 0; --i)
      std::swap(v[i], v[static_cast<std::size_t>(rng.uniform_index(i + 1))]);
  };
  std::vector<std::string> kinds(kCycle, "locate");
  kinds[0] = "void";
  kinds[1] = "region";
  std::vector<int> cold(kCycle, 0);
  std::fill(cold.begin(), cold.begin() + kColdPerCycle, 1);
  shuffle(kinds);
  shuffle(cold);
  std::vector<Plan> cycle;
  for (std::size_t i = 0; i < kinds.size(); ++i) cycle.push_back({kinds[i], cold[i] != 0});
  return cycle;
}

void snapshot_queries(const Args& a, Output& out) {
  const double box = evolved_config(a.seed).box();
  std::vector<SnapshotInfo> snaps;
  std::unique_ptr<serve::QueryService> service;
  std::list<int> resident;  ///< mirror of the cache's LRU order, front = newest
  auto touch = [&](int s) {
    resident.remove(s);
    resident.push_front(s);
    if (resident.size() > kCacheSnapshots) resident.pop_back();
  };
  for (bool last = false; !last;) {
    last = !more_setups(out.setup_s);
    service.reset();
    resident.clear();
    const double t0 = now_s();
    snaps = write_snapshots(a);
    // Fill the cache: one warm batch on each of the last three snapshots.
    service = std::make_unique<serve::QueryService>(service_config(kCacheSnapshots));
    auto rng = rng_for(a.seed, 4, 0);
    for (int s = kSnapshots - static_cast<int>(kCacheSnapshots); s < kSnapshots; ++s) {
      (void)service->point_locate(snaps[static_cast<std::size_t>(s)].path,
                                  random_points(rng, kBatchPoints, 0.0, box));
      touch(s);
    }
    out.setup_s.push_back(now_s() - t0);
  }
  const auto warm_stats = service->cache().stats();

  std::uint64_t planned_cold = 0;
  auto plan_rng = rng_for(a.seed, 5, 0);
  std::vector<Plan> cycle;
  const double loop_start = now_s();
  for (int b = 0;; ++b) {
    const double elapsed = now_s() - loop_start;
    if (elapsed >= a.seconds && (b >= kMinSamples || elapsed >= 2.0 * a.seconds)) break;
    if (b % kCycle == 0) cycle = plan_cycle(plan_rng);
    const Plan& plan = cycle[static_cast<std::size_t>(b % kCycle)];
    auto rng = rng_for(a.seed, 6, static_cast<std::uint64_t>(b));
    std::vector<int> choices;
    for (int s = 0; s < kSnapshots; ++s) {
      const bool cached = std::find(resident.begin(), resident.end(), s) != resident.end();
      if (cached != plan.cold) choices.push_back(s);
    }
    const int s = choices[static_cast<std::size_t>(rng.uniform_index(choices.size()))];
    const auto& snap = snaps[static_cast<std::size_t>(s)];
    const auto points = random_points(rng, kBatchPoints, 0.0, box);
    const Vec3 corner{rng.uniform(0.0, box - kRegionSide), rng.uniform(0.0, box - kRegionSide),
                      rng.uniform(0.0, box - kRegionSide)};
    const diy::Bounds region{corner, corner + Vec3{kRegionSide, kRegionSide, kRegionSide}};
    planned_cold += plan.cold ? 1 : 0;
    touch(s);

    BatchRecord rec;
    rec.kind = plan.kind;
    rec.cold = plan.cold;
    rec.traced = a.trace && b % 2 == 1;
    std::vector<serve::PointLocation> locs;
    std::vector<std::int64_t> labels;
    core::BlockMesh extracted;
    insitu::t_step = b;
    SpanLog::instance().set_enabled(rec.traced);
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    {
      Span span("batch");
      if (plan.kind == "locate") {
        Span q("serve.point_locate");
        locs = service->point_locate(snap.path, points);
      } else if (plan.kind == "void") {
        Span q("serve.void_lookup");
        labels = service->void_lookup(snap.path, points, kVoidMinVolume);
      } else {
        Span q("serve.extract_region");
        extracted = service->extract_region(snap.path, region);
      }
    }
    rec.wall = now_s() - t0;
    rec.cpu = process_cpu_s() - cpu0;
    SpanLog::instance().set_enabled(false);
    insitu::t_step = -1;

    // Checks, outside the timed region.
    std::string failure;
    const auto sample = check_sample(points, 0.0, box, kPeriodicCheckMargin,
                                     rng_for(a.seed, 7, static_cast<std::uint64_t>(b)));
    if (plan.kind == "locate") {
      rec.queries = locs.size();
      for (const auto& l : locs) {
        rec.walk_steps += l.walk_steps;
        rec.fallbacks += l.grid_fallback ? 1 : 0;
      }
      failure = check_locations(snap.truth, points, locs, sample);
    } else if (plan.kind == "void") {
      rec.queries = labels.size();
      if (labels.size() != points.size()) failure = "void_lookup returned a short batch";
      for (std::size_t k = 0; failure.empty() && k < sample.size(); ++k) {
        const auto i = sample[k];
        double d2 = 0.0;
        const auto id = brute_nearest(snap.truth, points[i], &d2);
        const bool in_void = snap.truth.volume[static_cast<std::size_t>(id)] >= kVoidMinVolume;
        if (in_void != (labels[i] >= 0))
          failure = "void_lookup label disagrees with the nearest site's volume";
      }
    } else {
      rec.queries = 1;
      std::size_t expect = 0;
      for (std::size_t i = 0; i < snap.truth.pos.size(); ++i)
        if (!std::isnan(snap.truth.volume[i]) && region.contains(snap.truth.pos[i])) ++expect;
      if (extracted.cells.size() != expect)
        failure = "extract_region returned " + std::to_string(extracted.cells.size()) +
                  " cells, brute force counts " + std::to_string(expect);
      for (const auto& cell : extracted.cells)
        if (failure.empty() &&
            !region.contains(snap.truth.pos[static_cast<std::size_t>(cell.site_id)]))
          failure = "extract_region returned a cell whose site is outside the box";
    }
    ++out.attempted;
    if (!failure.empty())
      out.failures.push_back("batch " + std::to_string(b) + " (" + plan.kind + "): " + failure);
    out.batches.push_back(std::move(rec));
  }

  const auto stats = service->cache().stats();
  const std::uint64_t misses = stats.misses - warm_stats.misses;
  const std::uint64_t hits = stats.hits - warm_stats.hits;
  if (misses != planned_cold) {
    ++out.attempted;
    out.failures.push_back("cache missed " + std::to_string(misses) + " times, the plan has " +
                           std::to_string(planned_cold) + " cold batches");
  }
  std::uint64_t bytes = 0;
  std::size_t cells = 0;
  for (const auto& s : snaps) {
    bytes += s.file_bytes;
    cells += s.cells;
    ++out.attempted;
    if (s.cells != s.truth.pos.size())
      out.failures.push_back(s.path + " holds " + std::to_string(s.cells) + " cells for " +
                             std::to_string(s.truth.pos.size()) + " sites");
  }
  JsonObj c;
  c.num("hits", hits).num("misses", misses).num("evictions", stats.evictions);
  out.extra.raw("cache", c.text());
  JsonObj s;
  s.num("count", kSnapshots).num("file_bytes", bytes).num("cells", static_cast<std::uint64_t>(cells));
  out.extra.raw("snapshots", s.text());
  service.reset();
  for (const auto& sn : snaps) std::remove(sn.path.c_str());
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val.c_str());
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--out") a.out = val;
    else return false;
  }
  return (argc % 2) == 1 && !a.out.empty() && a.seconds > 0.0 &&
         (a.workload == "evolved_insitu" || a.workload == "clustered_open" ||
          a.workload == "snapshot_queries");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: insitu_bench --workload evolved_insitu|clustered_open|"
                 "snapshot_queries --seed N --seconds S --trace 0|1 --out DIR\n");
    return 2;
  }
  tess::bench::warn_if_debug_build();
  Output out;
  try {
    if (a.workload == "evolved_insitu")
      step_workload(a, evolved_run, out);
    else if (a.workload == "clustered_open")
      step_workload(a, clustered_run, out);
    else
      snapshot_queries(a, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "insitu_bench: %s\n", e.what());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::vector<std::string> steps, batches;
  for (const auto& s : out.steps) steps.push_back(step_json(s));
  for (const auto& b : out.batches) batches.push_back(batch_json(b));
  JsonObj r;
  r.str("workload", a.workload).num("seed", a.seed).num("seconds", a.seconds)
      .boolean("trace", a.trace).num("ranks", kRanks)
      .str("build_type", TESS_BENCH_BUILD_TYPE)
      .str("compiled_as", tess::bench::build_type())
      .str("compiler", TESS_BENCH_COMPILER)
      .str("backend", geom::to_string(kBackend))
      .num("cpus", static_cast<int>(std::thread::hardware_concurrency()))
      .nums("setup_s", out.setup_s)
      .num("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss))
      .num("attempted", static_cast<std::uint64_t>(out.attempted))
      .strs("failures", out.failures)
      .raw("extra", out.extra.text())
      .objs("steps", steps)
      .objs("batches", batches);
  const std::string path = a.out + "/result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(r.text().c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "insitu_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  if (a.trace && !SpanLog::instance().write_jsonl(a.out + "/spans.jsonl")) {
    std::fprintf(stderr, "insitu_bench: cannot write spans\n");
    return 1;
  }
  return 0;
}
