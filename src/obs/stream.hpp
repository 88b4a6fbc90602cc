// Live telemetry streaming (DESIGN.md §4.13): a low-overhead streamer that
// appends one crash-consistent JSONL record per emission point — per
// pipeline step per rank, per auto-ghost pass, per query-service interval —
// so an in-situ run or a long-lived query server is observable WHILE it
// runs, not only from its exit-time exports.
//
// Crash consistency: every record is serialized into one buffer and
// appended with a single write(2) on an O_APPEND descriptor, so records
// from concurrent rank threads interleave whole, never fragmented, and a
// kill -9 can leave at most one torn record at the tail — which the reader
// detects (missing newline or malformed JSON in the final line) and drops
// without losing anything earlier. No fsync: the page cache survives
// process death, and machine-crash durability is not this layer's job.
//
// Absolute records: a snap record carries the values at its emission time
// — non-zero counters, gauges, histogram n/sum/bins with p50/p90/p99, and
// span aggregates — so every line stands alone. A reader that joins late,
// or skips a malformed line, loses that line and nothing else. A counter
// back at 0, or a span the tracer no longer holds, is simply absent.
//
// Record kinds (one JSON object per line, schema version "v":2; the reader
// treats a line of any other version as malformed):
//   {"k":"meta", ...}   stream header: pid, interval_ms — written at open
//   {"k":"snap", ...}   metric/span snapshot for one rank (-1 = global)
//   {"k":"step", ...}   per-step reduced StepStats (analysis/insitu_stats)
//   {"k":"final",...}   dying gasp flushed by the flight recorder on a
//                       watchdog stall or crash signal (signal-safe path:
//                       integers + a sanitized reason string, one write)
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace tess::obs {

struct StreamConfig {
  std::string path;                  ///< JSONL output file (appended to)
  std::uint64_t interval_ms = 1000;  ///< gate for interval_elapsed()
};

/// One emission request. `values` is a free-form scalar payload (dotted
/// names, e.g. "stage.write_s") for quantities the metrics registry does
/// not carry per rank, such as a pipeline stage's per-step seconds.
/// Counters and gauges (the rank's slice, or totals) always ride along.
struct StreamSample {
  int step = -1;  ///< simulation step (-1 = not step-scoped)
  int rank = -1;  ///< whose registry slice to emit (-1 = global totals)
  std::map<std::string, double> values;
  bool with_hists = false;   ///< histograms + p50/p90/p99 (global values)
  bool with_spans = false;   ///< span aggregates (drains tracer w/o reset)
};

class StreamWriter {
 public:
  explicit StreamWriter(StreamConfig config);
  ~StreamWriter();
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }

  /// Emit one "snap" record from the live registry (and tracer, when
  /// with_spans). Thread-safe; one write(2) per record.
  void emit(const StreamSample& sample);
  /// Same, but counters/gauges come from an externally reduced snapshot
  /// (obs/reduce.hpp) instead of the live registry; histograms still read
  /// the live registry (the reduction strips bins, and ranks share one
  /// process here, so the global bins ARE the reduced bins).
  void emit(const StreamSample& sample, const MetricsSnapshot& metrics);

  /// Append one caller-serialized record (must be a full JSON object
  /// including its "k" kind; no trailing newline). Used by the StepStats
  /// record kind.
  void append_record(const std::string& json_object);

  /// True (and arms the gate) when interval_ms has elapsed since the last
  /// interval emission — the rate limit for non-step-scoped emitters
  /// (auto-ghost passes, query service).
  bool interval_elapsed();

  /// Signal-safe dying gasp: one write(2) of a {"k":"final"} record built
  /// from integers and a sanitized copy of `reason` — no allocation, no
  /// locks. Safe to call from the flight recorder's crash handler.
  void emit_final(const char* reason) noexcept;

  /// Milliseconds since the process trace epoch (now_ns()/1e6).
  [[nodiscard]] static double now_ms();

 private:
  void emit_impl(const StreamSample& sample,
                 const MetricsSnapshot& metric_src,
                 const MetricsSnapshot& hist_src);
  /// Append one already-terminated line with a single write(2).
  void append_record_line(const std::string& line);
  StreamConfig config_;
  int fd_ = -1;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> last_interval_ns_{0};
  /// Serializes record writes, so seq and t_ms rise in file order.
  std::mutex write_mutex_;
};

/// Process-global streamer: non-null once configured (configure_stream or
/// the TESS_OBS_STREAM / TESS_OBS_STREAM_MS environment variables,
/// evaluated before main like the flight recorder). The pointer load is
/// lock-free, so emission points can probe it on hot-ish paths and the
/// flight recorder can reach it from a signal handler.
[[nodiscard]] StreamWriter* stream() noexcept;

/// Install (or replace) the global streamer. An empty path disables it.
void configure_stream(StreamConfig config);
void shutdown_stream();

/// TESS_OBS_STREAM names the stream file; setting only TESS_OBS_STREAM_MS
/// also enables streaming, to "<TESS_OBS_EXPORT or tess>.stream.jsonl".
/// Returns whether a streamer was installed.
bool configure_stream_from_env();

// ---------------------------------------------------------------------------
// Reader side: torn-tail-tolerant decode, used by tools/tess_top and tests.
// ---------------------------------------------------------------------------

struct StreamHist {
  double count = 0.0, sum = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  std::map<std::uint64_t, double> bins;  ///< bucket floor -> count
};

/// One decoded record. "snap" records fill the metric maps with the values
/// at emission; for "step"/"meta"/"final" records the numeric payload is
/// flattened into `values` with dotted names ("volume.mean", "cells";
/// "reason" excluded).
struct StreamRecord {
  std::string kind;
  std::uint64_t seq = 0;
  double t_ms = 0.0;
  int step = -1;
  int rank = -1;
  std::map<std::string, double> values;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, StreamHist> hists;
  /// Span aggregates: name -> (count, total_s).
  std::map<std::string, std::pair<double, double>> spans;
};

/// Parse one line (without its newline). Returns false on malformed input
/// (a torn tail, or a schema version other than 2).
bool parse_stream_record(const std::string& line, StreamRecord& out);

struct StreamFile {
  std::vector<StreamRecord> records;
  std::size_t dropped = 0;  ///< torn/malformed lines dropped (tail or not)
};

/// Incremental decoder: feed it raw bytes as they appear (tailing) and it
/// yields complete decoded records, holding back a trailing partial line
/// until its newline arrives.
class StreamDecoder {
 public:
  /// Decode every complete record in `bytes` (appended to any held-back
  /// partial line). Malformed complete lines bump dropped() and are
  /// skipped.
  std::vector<StreamRecord> feed(const std::string& bytes);
  /// Count of malformed complete lines seen so far.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Bytes of an unterminated tail currently held back (a torn tail iff
  /// the stream is known to be complete).
  [[nodiscard]] std::size_t pending_bytes() const { return partial_.size(); }

 private:
  std::string partial_;
  std::size_t dropped_ = 0;
};

/// Read and decode a whole stream file. A trailing line without a newline,
/// or any malformed line, is dropped and counted — every complete record
/// survives (the crash-consistency contract).
StreamFile read_stream_file(const std::string& path);

// ---------------------------------------------------------------------------
// Drift detection (tess_top --check): EWMA baseline + ratio threshold.
// ---------------------------------------------------------------------------

struct DriftOptions {
  double alpha = 0.3;       ///< EWMA smoothing factor
  double threshold = 1.75;  ///< sample drifts when > baseline * threshold
  int sustain = 3;          ///< consecutive drifting samples required
  int warmup = 3;           ///< samples seeding the baseline (never flag)
  double min_value = 1e-9;  ///< baseline floor (avoids 0-baseline blowups)
};

struct DriftResult {
  bool drifted = false;
  std::size_t first_index = 0;  ///< start of the sustained run
  double value = 0.0;           ///< last sample of the run
  double baseline = 0.0;        ///< EWMA the run was judged against
  [[nodiscard]] double ratio() const {
    return baseline > 0.0 ? value / baseline : 0.0;
  }
};

/// Flag a sustained upward drift: after `warmup` samples seed the EWMA,
/// a sample exceeding baseline*threshold starts (or extends) a run;
/// `sustain` consecutive such samples trip the detector. The baseline
/// does NOT absorb drifting samples — otherwise it would chase the
/// regression and un-flag it.
DriftResult detect_drift(const std::vector<double>& series,
                         const DriftOptions& options);

struct StreamCheckOptions {
  DriftOptions drift{};
};

struct StreamCheckReport {
  bool ok = true;
  std::size_t records = 0;
  std::size_t dropped = 0;
  /// rank -> count of its step-scoped snap records (those carrying
  /// "stage.step_s"); ranks that only sent heartbeats are absent.
  std::map<int, std::size_t> rank_records;
  /// Distinct steps across rank records that carry "stage.step_s" (the
  /// pipeline's per-step records; mid-step heartbeats don't count).
  int steps_seen = 0;
  bool quantiles_seen = false;  ///< any histogram with p99 present
  std::vector<std::string> findings;  ///< one line per sustained drift
};

/// Cross-step drift detection over a decoded stream: per-rank step
/// wall-time (t_ms deltas between a rank's step-scoped snap records),
/// per-step imbalance factor (max/mean across ranks of "stage.step_s"),
/// and global stall fraction (delta of pipeline.stall.* span seconds per
/// second of wall, from span-bearing global records). `ok` is false when
/// any series shows sustained drift.
StreamCheckReport check_stream(const StreamFile& file,
                               const StreamCheckOptions& options);

}  // namespace tess::obs
