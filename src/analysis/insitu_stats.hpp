// In situ summary statistics (paper §V: "we are also considering moving
// more postprocessing tasks in situ, such as ... histogram summary
// statistics"): cross-rank reduction of histograms and moment accumulators
// so every rank (or just the root) sees the global distribution without
// any particle or cell data leaving the node.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "util/stats.hpp"

namespace tess::analysis {

/// Merge per-rank moment accumulators; result valid on every rank.
util::Moments reduce_moments(comm::Comm& comm, const util::Moments& local);

/// Merge per-rank histograms (must share lo/hi/bins); result valid on every
/// rank.
util::Histogram reduce_histogram(comm::Comm& comm, const util::Histogram& local);

/// Global cell-volume summary for one simulation step — what the pipeline
/// streams to disk instead of the mesh itself.
struct StepStats {
  int step = 0;
  long long cells = 0;         ///< global surviving-cell count
  util::Moments volume;        ///< global volume moments
  util::Histogram volume_hist; ///< global volume histogram

  StepStats(int step_index, double lo, double hi, std::size_t bins)
      : step(step_index), volume_hist(lo, hi, bins) {}
};

/// Collective: bin this rank's cell volumes into [lo, hi) x bins and
/// reduce across ranks. Result valid on every rank.
StepStats reduce_step_stats(comm::Comm& comm, int step,
                            const std::vector<double>& volumes, double lo,
                            double hi, std::size_t bins);

/// One live-stream record for a StepStats: a {"k":"step","v":2,"t_ms":...}
/// JSON object (no trailing newline), ready for
/// obs::StreamWriter::append_record(). The stream parser flattens the
/// numeric payload into dotted names ("volume.mean", "hist.lo", ...); the
/// counts array is skipped by design.
std::string step_stats_record(const StepStats& s);

/// Ready-made pipeline hook (core::PipelineOptions::on_step is exactly
/// this signature, but the dependency points analysis -> core only at the
/// call site): when the live telemetry stream (obs/stream.hpp) is armed,
/// reduces the step's cell volumes and, on rank 0, appends one
/// {"k":"step"} record per step to it. Records land in step order because
/// the pipeline's write stage invokes hooks in submission order. With no
/// stream armed the hook does nothing on any rank (the stream is
/// process-global, so every rank agrees).
std::function<void(comm::Comm&, int step, const std::vector<double>& volumes)>
make_stats_streamer(double lo, double hi, std::size_t bins);

}  // namespace tess::analysis
