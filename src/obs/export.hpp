// Exporters for the observability layer: chrome://tracing JSON (one lane
// per rank×thread) and a flat machine-readable summary JSON of per-phase
// span totals plus every registered metric — the format the bench
// binaries emit natively and CI uploads for trend inspection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tess::obs {

/// Per-name span aggregate across every lane of a dump.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed wall-clock duration
  double min_s = 0.0;
  double max_s = 0.0;
  [[nodiscard]] double mean_s() const {
    return count == 0 ? 0.0 : total_s / static_cast<double>(count);
  }
};

/// Aggregate spans by name, sorted by name.
[[nodiscard]] std::vector<SpanAgg> aggregate_spans(const TraceDump& dump);

/// chrome://tracing "trace event" JSON: complete ("X") events with
/// pid = rank + 1 (0 = unranked threads) and tid = the process-unique
/// thread ordinal, plus process/thread name metadata — load the file via
/// chrome://tracing or https://ui.perfetto.dev.
[[nodiscard]] std::string chrome_trace_json(const TraceDump& dump);

/// Flat summary JSON: {"spans": {...}, "counters": {...}, "gauges": {...},
/// "histograms": {...}, "lanes": N, "dropped_spans": N}. Per-phase span
/// totals are wall-clock seconds summed over all lanes; histogram entries
/// carry count/sum/p50/p90/p99 plus the raw bucket counts, so quantiles
/// survive the round-trip through parse_summary_json.
[[nodiscard]] std::string summary_json(const TraceDump& dump,
                                       const MetricsSnapshot& metrics);

struct SummaryRow {
  std::string kind;
  std::string name;
  double count = 0.0;
  double total = 0.0;
  double min = 0.0;  ///< histogram rows: p50
  double max = 0.0;  ///< histogram rows: p99
  /// Histogram rows: lowest/highest occupied bucket floor (-1 = unknown,
  /// e.g. an empty histogram). compare_summaries uses these to flag
  /// bucket-layout changes between two summaries.
  double bins_lo = -1.0;
  double bins_hi = -1.0;
};

/// Parse a google-benchmark `--benchmark_format=json` file into rows of
/// kind "bench": one row per benchmark, `count` = iterations, `total` =
/// per-iteration real time in seconds, `min`/`max` = per-iteration CPU
/// time in seconds (aggregate rows from repetitions are skipped). When
/// `build_type` is non-null it receives the context's "tess_build_type"
/// (falling back to google-benchmark's own "library_build_type", empty if
/// neither is present) so callers can flag debug-build numbers. Feeds the
/// same compare_summaries gate as span summaries — pass --min-seconds 0 to
/// obs_compare, since per-iteration times sit far below the span noise
/// floor.
[[nodiscard]] std::vector<SummaryRow> parse_benchmark_json(
    const std::string& text, std::string* build_type = nullptr);

/// Parse summary_json output into rows (spans keep count/total/min/max;
/// counters and gauges surface their value as `total`; histograms surface
/// sample count as `count`, sample sum as `total`, p50/p99 as `min`/`max`,
/// and the occupied bucket-floor range as `bins_lo`/`bins_hi`). Minimal parser for the summary schema — unknown
/// keys are skipped, malformed JSON throws.
[[nodiscard]] std::vector<SummaryRow> parse_summary_json(
    const std::string& text);

void write_text_file(const std::string& path, const std::string& text);

inline void write_chrome_trace(const std::string& path,
                               const TraceDump& dump) {
  write_text_file(path, chrome_trace_json(dump));
}
inline void write_summary_json(const std::string& path, const TraceDump& dump,
                               const MetricsSnapshot& metrics) {
  write_text_file(path, summary_json(dump, metrics));
}

}  // namespace tess::obs
