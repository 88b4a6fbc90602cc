#include "core/tessellator.hpp"

#include <cmath>
#include <numbers>
#include <numeric>
#include <optional>

#include "comm/fault.hpp"
#include "diy/blockio.hpp"
#include "diy/repartition.hpp"
#include "geom/cell_builder.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace tess::core {

namespace {
/// Consecutive collective exchange failures tolerated (fault injector armed)
/// before tessellation gives up. Each failed pass already represents a full
/// bounded-retry receive budget on every incomplete rank, so reaching this
/// streak means the missing data is effectively unrecoverable.
constexpr int kMaxFailedExchangePasses = 8;

/// Adaptive-mode particle migration into the active decomposition; kept
/// off the ghost/migrate tags so the fault injector can target it
/// independently.
constexpr int kTagAdaptiveMigrate = 103;
}  // namespace

Tessellator::Tessellator(comm::Comm& comm, const diy::Decomposition& decomp,
                         const TessOptions& options)
    : comm_(&comm),
      decomp_(&decomp),
      options_(options),
      backend_(geom::resolve_backend(options.backend)),
      active_(&decomp),
      exchanger_(std::make_unique<diy::Exchanger>(comm, decomp)),
      pool_(std::make_unique<util::ThreadPool>(options.threads)) {}

namespace {

/// Emit the per-pass geom.backend.* metrics from the builder's counter
/// deltas — on every run, not just parity runs, so production traces always
/// carry the filter hit rate and batch occupancy.
void emit_backend_metrics(geom::TessBackend backend,
                          const geom::CellBuilder::BackendStats& before,
                          const geom::CellBuilder::BackendStats& after) {
  const std::uint64_t seen = after.cand_seen - before.cand_seen;
  const std::uint64_t kept = after.cand_kept - before.cand_kept;
  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t lanes = after.lanes - before.lanes;
  TESS_COUNT("geom.backend.cand_seen", seen);
  TESS_COUNT("geom.backend.cand_kept", kept);
  TESS_COUNT("geom.backend.batches", batches);
  TESS_GAUGE_SET("geom.backend.simd",
                 backend == geom::TessBackend::kSimd ? 1.0 : 0.0);
  if (seen > 0)
    TESS_GAUGE_SET("geom.backend.filter_hit_rate",
                   static_cast<double>(kept) / static_cast<double>(seen));
  if (batches > 0)
    TESS_GAUGE_SET("geom.backend.batch_occupancy",
                   static_cast<double>(lanes) /
                       (4.0 * static_cast<double>(batches)));
}

}  // namespace

void TessStats::finalize_from_iterations() {
  ghost_sent = 0;
  ghost_received = 0;
  for (const auto& it : iterations) {
    ghost_sent += it.ghost_sent;
    ghost_received += it.ghost_received;
  }
}

BlockMesh Tessellator::tessellate(const std::vector<diy::Particle>& mine) {
  TESS_SPAN("tess.tessellate");
  TESS_COUNT("tess.runs", 1);
  stats_ = TessStats{};
  stats_.local_particles = mine.size();

  BlockMesh mesh = run_passes(mine);
  stats_.finalize_from_iterations();
  TESS_COUNT("tess.cells_kept", stats_.cells_kept);
  TESS_COUNT("tess.cells_incomplete", stats_.cells_incomplete);
  TESS_COUNT("tess.cells_culled_early", stats_.cells_culled_early);
  TESS_COUNT("tess.cells_culled_volume", stats_.cells_culled_volume);
  TESS_COUNT("tess.cells_uncertified", stats_.cells_uncertified);
  TESS_GAUGE_SET("tess.ghost_used", stats_.ghost_used);
  return mesh;
}

BlockMesh Tessellator::tessellate_step(int step,
                                       std::vector<diy::Particle> particles) {
  TESS_SPAN_ARG("tess.step", step);
  // Own the snapshot for the whole pass: incremental auto-ghost retries
  // re-read `mine` after the exchange, so it must stay alive and stable
  // even though the caller (the pipeline's simulation thread) has moved on.
  retained_ = std::move(particles);
  current_step_ = step;
  if (options_.adaptive) adaptive_prepare(step);
  BlockMesh mesh = tessellate(retained_);
  if (options_.adaptive) adaptive_decide(step);
  current_step_ = -1;
  return mesh;
}

void Tessellator::adaptive_prepare(int step) {
  if (repart_pending_) {
    // Step N-1's imbalance scheduled this rebuild: a fresh mass-weighted
    // k-d tree over the current global particle distribution, identical on
    // every rank (built collectively), then a fresh exchanger against it.
    TESS_SPAN("tess.repartition.build");
    repart_pending_ = false;
    adaptive_decomp_ = diy::collective_kd(*comm_, *decomp_, retained_);
    active_ = adaptive_decomp_.get();
    exchanger_ = std::make_unique<diy::Exchanger>(*comm_, *active_);
    ++repartitions_;
    last_repart_step_ = step;
    TESS_COUNT("tess.repartition.count", 1);
  }
  if (active_ != decomp_) {
    // The caller still hands particles over in the simulation's layout;
    // route them to their adaptive owners before tessellating.
    TESS_SPAN("tess.repartition.migrate");
    retained_ = diy::migrate_items(
        *comm_, *active_, std::move(retained_),
        [](diy::Particle& p) -> geom::Vec3& { return p.pos; },
        kTagAdaptiveMigrate);
    TESS_GAUGE_SET("tess.repartition.local_particles",
                   static_cast<double>(retained_.size()));
  }
}

void Tessellator::adaptive_decide(int step) {
  TESS_SPAN("tess.repartition.decide");
  // Every rank sees every rank's cell-build seconds, so the hysteresis
  // decision below is a pure function of shared data — collective and
  // divergence-free even under the pipelined driver.
  const auto seconds = comm_->allgather(stats_.compute_seconds);
  last_imbalance_ = obs::imbalance_factor(seconds);
  TESS_GAUGE_SET("tess.repartition.imbalance", last_imbalance_);
  const bool cooled = static_cast<long long>(step) >=
                      static_cast<long long>(last_repart_step_) +
                          options_.repart_cooldown;
  repart_pending_ = cooled && last_imbalance_ >= options_.repart_trigger;
  if (repart_pending_) TESS_COUNT("tess.repartition.scheduled", 1);
}

BlockMesh Tessellator::run_passes(const std::vector<diy::Particle>& mine) {
  // The per-block pipeline of paper Figure 5 — exchange ghosts, build
  // cells, drop incomplete cells, cull, assemble — as a loop over ghost
  // passes. Fixed ghost is its one-pass case: the cap is options.ghost and
  // no verdict runs.
  //
  // Automatic ghost-size determination (paper §V future work) repeats the
  // pass with a doubled ghost zone until every cell is both complete and
  // certified by its security radius — at that point no particle outside
  // the ghost zone could have altered any cell, so the result equals the
  // serial one.
  //
  // With options.incremental, the loop reuses everything a pass has proved:
  // pass k exchanges only the ghost annulus (g_{k-1}, g_k], appends it to
  // the existing CellBuilder grid, and rebuilds only the sites not yet
  // complete AND certified. A cell certified at ghost g is exact — no
  // particle beyond g can cut it — so its geometry at any larger ghost is
  // the same cell, and VoronoiCell::canonicalize() makes the stored bytes
  // independent of which pass built it. With incremental = false every pass
  // re-exchanges and rebuilds everything; the two modes emit byte-identical
  // meshes (asserted by tests), differing only in work done.
  //
  // Thread CPU time: models this rank's own work even when thread-ranks
  // oversubscribe the host cores (see util/timer.hpp).
  util::ThreadCpuTimer timer;
  const bool auto_ghost = options_.auto_ghost;
  const geom::Vec3 dsize = active_->domain_size();
  const double ghost_cap =
      auto_ghost ? options_.auto_ghost_max_fraction *
                       std::min({dsize.x, dsize.y, dsize.z})
                 : options_.ghost;
  double ghost = std::min(std::max(options_.ghost, 1e-12), ghost_cap);
  const bool reuse = options_.incremental;
  const auto bounds = exchanger_->my_bounds();
  const std::size_t n = mine.size();

  // Early-cull bound: a cell whose largest vertex separation is below the
  // diameter of the sphere of volume `min_volume` cannot reach the
  // threshold volume.
  double early_diam2 = 0.0;
  if (options_.min_volume > 0.0) {
    const double r = std::cbrt(options_.min_volume * 3.0 / (4.0 * std::numbers::pi));
    early_diam2 = 4.0 * r * r;
  }

  // Per-site state carried across passes. A site is terminal once its cell
  // is complete AND certified; until then it stays on the pending list.
  // Classification is recorded every pass, so a cap-stopped run reports
  // the last pass's answer for uncertified cells. A kept cell lives in the
  // chunk shard `slot` names until the site-order assembly.
  enum : std::uint8_t { kIncomplete = 0, kKept, kCulledEarly, kCulledVolume };
  std::vector<std::uint8_t> state(n, kIncomplete);
  std::vector<std::uint8_t> certified(n, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slot(n);
  std::vector<BlockMesh> shards;
  std::vector<std::size_t> pending(n);

  // Per-cell work is sharded over the intra-rank pool in chunks of a fixed
  // grain that does NOT depend on the thread count, so the output is
  // byte-identical for any options.threads. Chunks are handed out
  // dynamically (clustered inputs make per-cell cost very uneven); each
  // worker owns one reusable cell/scratch pair, which keeps the clipping
  // kernel allocation-free in steady state.
  std::optional<geom::CellBuilder> builder;
  const int nthreads = pool_->size();
  const geom::VoronoiCell proto({0, 0, 0}, {-1, -1, -1}, {1, 1, 1});
  std::vector<geom::VoronoiCell> cells(static_cast<std::size_t>(nthreads), proto);
  std::vector<geom::ClipScratch> scratches(static_cast<std::size_t>(nthreads));
  constexpr std::size_t kGrain = 64;

  // Collective verdicts are wait from this rank's point of view: the
  // `.wait` suffix makes obs::analyze_imbalance charge them as such.
  const auto verdict = [this](std::size_t local) {
    TESS_SPAN("tess.verdict.wait");
    return comm_->allreduce_sum(local);
  };

  // Graceful-degradation state (fault injector armed only). A pass whose
  // exchange stays incomplete after the bounded retries is abandoned by
  // *every* rank — the verdict is collective, so the symmetric message
  // pattern and the ghost trajectory stay identical across ranks — and the
  // same pass is re-attempted: ghost/prev_ghost do not advance, the sites
  // it would have resolved remain pending (re-requested), and a rank that
  // did receive everything carries its ghosts to the retry instead of
  // re-exchanging (nothing may be sent twice).
  int failed_streak = 0;
  std::optional<std::vector<diy::Particle>> carried;
  bool builder_fresh_done = false;

  double prev_ghost = 0.0;
  while (true) {
    // Named and counted by completed passes: an abandoned attempt is
    // repeated under the same name.
    TESS_SPAN(stats_.iterations.empty() ? "tess.pass" : "tess.retry_pass");
    const auto seed = bounds.grown(ghost);

    // 1. Ghost exchange: full ball on the first pass (and every pass when
    // not reusing), the (prev_ghost, ghost] annulus afterwards. The annuli
    // partition the ball exactly — distances are computed by the same
    // expressions every call — so the union of all arrivals equals a single
    // from-scratch exchange at the current ghost.
    timer.reset();
    timer.start();
    // Stable across retries of a failed pass: the builder's fresh append
    // must happen exactly once, however many attempts the pass takes.
    const bool fresh = !reuse || !builder_fresh_done;
    std::vector<diy::Particle> ghosts;
    bool have = true;
    if (carried) {
      ghosts = std::move(*carried);
      carried.reset();
    } else {
      TESS_SPAN(fresh ? "tess.exchange" : "tess.exchange_delta");
      ghosts = fresh
                   ? exchanger_->exchange_ghost(mine, ghost)
                   : exchanger_->exchange_ghost_delta(mine, prev_ghost, ghost);
      have = exchanger_->last_exchange_complete();
    }
    timer.stop();

    if (comm::faults().armed()) {
      // Collective verdict on the pass: if any rank is missing a neighbor's
      // message, all ranks abandon the pass together and retry it — cells
      // are never built from a partial ghost set.
      const std::size_t missing = verdict(have ? 0 : 1);
      if (missing > 0) {
        TESS_COUNT("tess.exchange_failed_passes", 1);
        TESS_COUNT("tess.cells_rerequested", pending.size());
        if (have) carried = std::move(ghosts);
        if (++failed_streak >= kMaxFailedExchangePasses)
          throw comm::CommTimeoutError(
              "tessellate: ghost exchange failed on " +
              std::to_string(missing) + " rank(s) for " +
              std::to_string(failed_streak) + " consecutive passes");
        continue;
      }
      failed_streak = 0;
    }
    if (fresh) builder_fresh_done = true;
    TESS_COUNT("tess.passes", 1);
    if (!stats_.iterations.empty()) TESS_COUNT("tess.retries", 1);
    IterationStats iter;
    iter.ghost = ghost;
    iter.exchange_seconds = timer.seconds();
    iter.ghost_sent = exchanger_->last_sent();
    iter.ghost_received = ghosts.size();

    // 2. Builder: construct fresh or append the annulus to the existing
    // grid. Either way the final-pass builder indexes the same particle
    // multiset over the same grown box, and the canonical candidate order
    // makes its cut sequences independent of how the arrays were assembled.
    timer.reset();
    timer.start();
    std::vector<geom::Vec3> pts;
    std::vector<std::int64_t> ids;
    pts.reserve(mine.size() + ghosts.size());
    ids.reserve(mine.size() + ghosts.size());
    if (fresh) {
      for (const auto& p : mine) {
        pts.push_back(p.pos);
        ids.push_back(p.id);
      }
    }
    for (const auto& g : ghosts) {
      pts.push_back(g.pos);
      ids.push_back(g.id);
    }
    if (fresh) {
      builder.emplace(std::move(pts), std::move(ids), seed.min, seed.max,
                      backend_);
      // A fresh pass rebuilds every site, so no earlier shard stays live.
      shards.clear();
      pending.resize(n);
      std::iota(pending.begin(), pending.end(), std::size_t{0});
    } else {
      builder->add_points(pts, ids, seed.min, seed.max);
    }

    // 3. Build the pending sites (all sites on a fresh pass). Every write
    // goes to a per-chunk shard and counter or to a slot owned by exactly
    // one pending site, so the result is deterministic for any thread
    // count. A shard takes only cells that reach the output: certified
    // cells, or any kept cell of the pass at the cap. An uncertified cell
    // below the cap is always rebuilt, because the verdict counts it. The
    // site-order re-weld at assembly then picks each shared vertex's first
    // occurrence in site order, as welding the final cells directly would.
    const bool at_cap = ghost >= ghost_cap;
    const std::size_t np = pending.size();
    const std::size_t num_chunks = (np + kGrain - 1) / kGrain;
    const std::size_t shard_base = shards.size();
    shards.resize(shard_base + num_chunks);
    struct ChunkStat {
      std::size_t incomplete = 0, proven = 0, uncertified = 0;
      double cpu_seconds = 0.0;
    };
    std::vector<ChunkStat> chunk_stats(num_chunks);
    const std::uint64_t cuts_before = builder->cuts_attempted();
    const std::uint64_t noop_before = builder->clips_noop();
    const auto backend_stats_before = builder->backend_stats();
    // Pause the serial timer over the parallel loop: the calling thread
    // works chunks too, and that CPU is already accounted per chunk.
    timer.stop();

    {
      TESS_SPAN("tess.build_cells");
      util::parallel_for(
          *pool_, np, kGrain,
          [&](std::size_t begin, std::size_t end, int chunk, int worker) {
            TESS_SPAN("tess.cell_chunk");
            util::ThreadCpuTimer chunk_timer;
            chunk_timer.start();
            ChunkStat& cs = chunk_stats[static_cast<std::size_t>(chunk)];
            const std::size_t shard_id =
                shard_base + static_cast<std::size_t>(chunk);
            auto& cell = cells[static_cast<std::size_t>(worker)];
            auto& scratch = scratches[static_cast<std::size_t>(worker)];
            for (std::size_t pi = begin; pi < end; ++pi) {
              const std::size_t i = pending[pi];
              certified[i] = 0;
              // A cell proven to keep a seed-box face would be built only
              // to be dropped as incomplete: record it as such, unbuilt.
              // The proof is sound (CellBuilder::proves_incomplete), so
              // states, counts and bytes are those of building it.
              if (builder->proves_incomplete(static_cast<int>(i), seed.min,
                                             seed.max)) {
                ++cs.proven;
                ++cs.incomplete;
                state[i] = kIncomplete;
                continue;
              }
              builder->build_into(cell, scratch, static_cast<int>(i),
                                  seed.min, seed.max);
              if (!cell.complete()) {
                ++cs.incomplete;
                state[i] = kIncomplete;
                continue;
              }
              // Finish the cell before any decision. Auto mode's canonical
              // form makes every classification below depend only on the
              // cell's true geometry, never on the pass that built it — the
              // retained-cell bytes and the would-be-rebuilt bytes coincide.
              // A single fixed pass only needs the compacted cell.
              auto_ghost ? cell.canonicalize() : cell.compact();
              // Security-radius certificate: every potential cutter of this
              // cell lies within 2*Rmax of the site; if that ball fits
              // inside the ghost-grown region, the cell is provably exact.
              certified[i] = 4.0 * cell.max_radius2() <= ghost * ghost ? 1 : 0;
              if (!certified[i]) ++cs.uncertified;
              if (early_diam2 > 0.0 &&
                  cell.max_vertex_separation2() < early_diam2) {
                state[i] = kCulledEarly;
                continue;
              }
              const double volume = cell.volume();
              if ((options_.min_volume > 0.0 && volume < options_.min_volume) ||
                  (options_.max_volume > 0.0 && volume > options_.max_volume)) {
                state[i] = kCulledVolume;
                continue;
              }
              state[i] = kKept;
              if (certified[i] || at_cap) {
                BlockMesh& shard = shards[shard_id];
                slot[i] = {static_cast<std::uint32_t>(shard_id),
                           static_cast<std::uint32_t>(shard.cells.size())};
                shard.add_cell(mine[i].id, cell, volume, cell.area());
              }
            }
            chunk_timer.stop();
            cs.cpu_seconds = chunk_timer.seconds();
          });
    }

    timer.start();
    std::size_t pass_incomplete = 0, pass_proven = 0, pass_uncertified = 0;
    double loop_cpu = 0.0;
    for (const auto& cs : chunk_stats) {
      pass_incomplete += cs.incomplete;
      pass_proven += cs.proven;
      pass_uncertified += cs.uncertified;
      loop_cpu += cs.cpu_seconds;
    }
    timer.stop();
    // Model the per-rank critical path: serial sections on this thread,
    // plus the cell loop's total CPU divided by the pool width (== the
    // loop CPU itself when threads == 1).
    iter.compute_seconds =
        timer.seconds() + loop_cpu / static_cast<double>(nthreads);
    iter.cells_built = np;
    iter.cells_incomplete = pass_incomplete;
    iter.cells_proven_incomplete = pass_proven;
    iter.cells_uncertified = pass_uncertified;
    TESS_COUNT("tess.ghost_sent", iter.ghost_sent);
    TESS_COUNT("tess.ghost_received", iter.ghost_received);
    TESS_COUNT("tess.cells_built", np);
    TESS_COUNT("tess.cells_proven_incomplete", pass_proven);
    TESS_COUNT("geom.cuts", builder->cuts_attempted() - cuts_before);
    TESS_COUNT("geom.clips_noop", builder->clips_noop() - noop_before);
    emit_backend_metrics(backend_, backend_stats_before,
                         builder->backend_stats());

    stats_.exchange_seconds += iter.exchange_seconds;
    stats_.compute_seconds += iter.compute_seconds;
    // Cumulative ghost traffic is NOT accumulated here: the per-pass entries
    // are the single source of truth, folded once by finalize_from_iterations().
    stats_.iterations.push_back(iter);
    stats_.auto_iterations = static_cast<int>(stats_.iterations.size());
    stats_.ghost_used = ghost;

    // Live-stream heartbeat per ghost pass, interval-gated: a long
    // auto-ghost escalation is visible (growing ghost, shrinking pending
    // set) instead of silent until the step record lands.
    if (auto* stream = obs::stream();
        stream != nullptr && stream->interval_elapsed()) {
      obs::StreamSample sample;
      sample.step = current_step_;
      sample.rank = comm_->rank();
      sample.values = {
          {"tess.pass.iteration", static_cast<double>(stats_.auto_iterations)},
          {"tess.pass.ghost", ghost},
          {"tess.pass.pending", static_cast<double>(pending.size())},
      };
      stream->emit(sample);
    }

    if (!auto_ghost) break;
    // Incomplete cells only count against certification when the domain is
    // periodic (in open domains, hull cells are unbounded and are dropped
    // exactly as in fixed-ghost mode). Sites already retired contribute
    // nothing — a certified cell stays complete and certified at any larger
    // ghost — so this count matches what a full rebuild would report. The
    // verdict runs even at the cap, so every pass issues the same
    // collectives.
    std::size_t unresolved = pass_uncertified;
    if (active_->periodic()) unresolved += pass_incomplete;
    if (verdict(unresolved) == 0 || at_cap) break;

    std::vector<std::size_t> next_pending;
    next_pending.reserve(pending.size());
    for (const std::size_t i : pending)
      if (!certified[i]) next_pending.push_back(i);
    pending = std::move(next_pending);
    prev_ghost = ghost;
    ghost = std::min(2.0 * ghost, ghost_cap);
  }

  // Final assembly in site order — the order and the welded-vertex
  // numbering are therefore mode- and thread-independent.
  TESS_SPAN("tess.assemble");
  timer.reset();
  timer.start();
  BlockMesh mesh;
  mesh.bounds = bounds;
  for (std::size_t i = 0; i < n; ++i) {
    switch (state[i]) {
      case kKept:
        mesh.append_cell(shards[slot[i].first], slot[i].second);
        ++stats_.cells_kept;
        break;
      case kCulledEarly:
        ++stats_.cells_culled_early;
        break;
      case kCulledVolume:
        ++stats_.cells_culled_volume;
        break;
      default:
        ++stats_.cells_incomplete;
        continue;
    }
    if (!certified[i]) ++stats_.cells_uncertified;
  }
  timer.stop();
  stats_.compute_seconds += timer.seconds();
  return mesh;
}

std::uint64_t Tessellator::write(const std::string& path, const BlockMesh& mesh) {
  TESS_SPAN("tess.write");
  util::ThreadCpuTimer timer;
  timer.start();
  diy::Buffer buf;
  mesh.serialize(buf);
  const auto total = diy::write_blocks(*comm_, path, buf);
  timer.stop();
  stats_.output_seconds += timer.seconds();
  stats_.output_bytes = total;
  return total;
}

TessStats Tessellator::reduced_stats() const {
  TessStats r = stats_;
  // Times: max across ranks (critical path); counters: sums.
  r.exchange_seconds = comm_->allreduce_max(stats_.exchange_seconds);
  r.compute_seconds = comm_->allreduce_max(stats_.compute_seconds);
  r.output_seconds = comm_->allreduce_max(stats_.output_seconds);
  r.local_particles = comm_->allreduce_sum(stats_.local_particles);
  r.ghost_received = comm_->allreduce_sum(stats_.ghost_received);
  r.ghost_sent = comm_->allreduce_sum(stats_.ghost_sent);
  r.cells_kept = comm_->allreduce_sum(stats_.cells_kept);
  r.cells_incomplete = comm_->allreduce_sum(stats_.cells_incomplete);
  r.cells_culled_early = comm_->allreduce_sum(stats_.cells_culled_early);
  r.cells_culled_volume = comm_->allreduce_sum(stats_.cells_culled_volume);
  r.output_bytes = stats_.output_bytes;  // already global (file size)
  r.ghost_used = comm_->allreduce_max(stats_.ghost_used);
  r.auto_iterations = comm_->allreduce_max(stats_.auto_iterations);
  r.cells_uncertified = comm_->allreduce_sum(stats_.cells_uncertified);
  // Per-pass entries reduce element-wise; the loop is collective, so every
  // rank holds the same number of iterations.
  for (std::size_t k = 0; k < r.iterations.size(); ++k) {
    auto& it = r.iterations[k];
    const auto& mine = stats_.iterations[k];
    it.ghost = comm_->allreduce_max(mine.ghost);
    it.exchange_seconds = comm_->allreduce_max(mine.exchange_seconds);
    it.compute_seconds = comm_->allreduce_max(mine.compute_seconds);
    it.ghost_sent = comm_->allreduce_sum(mine.ghost_sent);
    it.ghost_received = comm_->allreduce_sum(mine.ghost_received);
    it.cells_built = comm_->allreduce_sum(mine.cells_built);
    it.cells_incomplete = comm_->allreduce_sum(mine.cells_incomplete);
    it.cells_proven_incomplete =
        comm_->allreduce_sum(mine.cells_proven_incomplete);
    it.cells_uncertified = comm_->allreduce_sum(mine.cells_uncertified);
  }
  return r;
}

}  // namespace tess::core
