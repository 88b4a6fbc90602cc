#include "obs/stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace tess::obs {

namespace {

using detail::json_escape;
using detail::json_number;

/// Append `"name":` to a record under construction.
void append_key(std::string& out, const std::string& name) {
  out += '"';
  out += json_escape(name);
  out += "\":";
}

/// Append `,"section":{...}` holding one `"name":<value>` member per entry
/// of `entries`; nothing when it is empty.
template <class Map, class Fn>
void append_section(std::string& out, const char* section,
                    const Map& entries, Fn&& value) {
  if (entries.empty()) return;
  out += ",\"";
  out += section;
  out += "\":{";
  bool first = true;
  for (const auto& [name, v] : entries) {
    if (!first) out += ',';
    first = false;
    append_key(out, name);
    value(out, v);
  }
  out += '}';
}

}  // namespace

double StreamWriter::now_ms() {
  return static_cast<double>(now_ns()) / 1e6;
}

StreamWriter::StreamWriter(StreamConfig config) : config_(std::move(config)) {
  if (config_.path.empty()) return;
  fd_ = ::open(config_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return;
  std::string line = "{\"k\":\"meta\",\"v\":2,\"seq\":";
  line += json_number(static_cast<double>(seq_.fetch_add(1)));
  line += ",\"t_ms\":";
  line += json_number(now_ms());
  line += ",\"pid\":";
  line += json_number(static_cast<double>(::getpid()));
  line += ",\"interval_ms\":";
  line += json_number(static_cast<double>(config_.interval_ms));
  line += "}\n";
  append_record_line(line);
}

StreamWriter::~StreamWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void StreamWriter::append_record_line(const std::string& line) {
  // One write(2) per record: on a short write (not expected for regular
  // files at these sizes) the remainder still goes out, trading the
  // atomic-interleave guarantee for not losing the record.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

void StreamWriter::append_record(const std::string& json_object) {
  if (fd_ < 0) return;
  std::string line;
  line.reserve(json_object.size() + 1);
  line += json_object;
  line += '\n';
  std::lock_guard<std::mutex> lock(write_mutex_);
  append_record_line(line);
}

bool StreamWriter::interval_elapsed() {
  if (fd_ < 0) return false;
  const std::uint64_t now = now_ns();
  std::uint64_t last = last_interval_ns_.load(std::memory_order_relaxed);
  const std::uint64_t gap = config_.interval_ms * 1000000ull;
  // last == 0 means "never": the first probe always passes, even when the
  // process is younger than one interval (now_ns is the trace epoch).
  while (last == 0 || now - last >= gap) {
    if (last_interval_ns_.compare_exchange_weak(last, now,
                                                std::memory_order_relaxed))
      return true;
  }
  return false;
}

void StreamWriter::emit(const StreamSample& sample) {
  if (fd_ < 0) return;
  const MetricsSnapshot snap = metrics().snapshot();
  emit_impl(sample, snap, snap);
}

void StreamWriter::emit(const StreamSample& sample,
                        const MetricsSnapshot& metrics_snapshot) {
  if (fd_ < 0) return;
  MetricsSnapshot hist_snapshot;
  if (sample.with_hists) hist_snapshot = metrics().snapshot();
  emit_impl(sample, metrics_snapshot, hist_snapshot);
}

void StreamWriter::emit_impl(const StreamSample& sample,
                             const MetricsSnapshot& metric_src,
                             const MetricsSnapshot& hist_src) {
  // The body is built outside the lock (snapshot, span drain and
  // formatting are the expensive parts); only the seq/t_ms header and the
  // write are serialized.
  const auto number = [](std::string& out, double v) {
    out += json_number(v);
  };
  std::string body;
  if (sample.step >= 0) {
    body += ",\"step\":";
    number(body, sample.step);
  }
  body += ",\"rank\":";
  number(body, sample.rank);
  append_section(body, "val", sample.values, number);

  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  for (const auto& s : metric_src.samples) {
    if (s.kind == 'h') continue;
    double v = s.value;
    if (sample.rank >= 0) {
      const auto it = std::find_if(
          s.per_rank.begin(), s.per_rank.end(),
          [&](const auto& slot) { return slot.first == sample.rank; });
      if (it == s.per_rank.end()) continue;
      v = it->second;
    }
    if (s.kind == 'g')
      gauges[s.name] = v;
    else if (v != 0.0)
      counters[s.name] = v;
  }
  append_section(body, "ctr", counters, number);
  append_section(body, "gauge", gauges, number);

  if (sample.with_hists) {
    std::map<std::string, const MetricSample*> hists;
    for (const auto& s : hist_src.samples)
      if (s.kind == 'h' && s.value != 0.0) hists[s.name] = &s;
    append_section(body, "hist", hists,
                   [](std::string& out, const MetricSample* h) {
                     out += "{\"n\":" + json_number(h->value) +
                            ",\"sum\":" + json_number(h->sum) +
                            ",\"p50\":" +
                            json_number(histogram_quantile(h->bins, 0.50)) +
                            ",\"p90\":" +
                            json_number(histogram_quantile(h->bins, 0.90)) +
                            ",\"p99\":" +
                            json_number(histogram_quantile(h->bins, 0.99)) +
                            ",\"bins\":{";
                     bool first = true;
                     for (const auto& [floor_v, n] : h->bins) {
                       if (!first) out += ',';
                       first = false;
                       append_key(out, std::to_string(floor_v));
                       out += json_number(static_cast<double>(n));
                     }
                     out += "}}";
                   });
  }

  if (sample.with_spans) {
    // Non-destructive drain, so the exit-time trace/summary exporters and
    // the flight recorder still see every span.
    std::map<std::string, std::pair<double, double>> spans;
    for (const auto& a : aggregate_spans(Tracer::instance().drain(false)))
      spans[a.name] = {static_cast<double>(a.count), a.total_s};
    append_section(body, "span", spans,
                   [](std::string& out, const std::pair<double, double>& cs) {
                     out += "{\"n\":" + json_number(cs.first) +
                            ",\"s\":" + json_number(cs.second) + "}";
                   });
  }

  std::lock_guard<std::mutex> lock(write_mutex_);
  std::string line = "{\"k\":\"snap\",\"v\":2,\"seq\":";
  line += json_number(static_cast<double>(seq_.fetch_add(1)));
  line += ",\"t_ms\":";
  line += json_number(now_ms());
  line += body;
  line += "}\n";
  append_record_line(line);
}

void StreamWriter::emit_final(const char* reason) noexcept {
  if (fd_ < 0) return;
  // Signal-safe: stack buffer, integer formatting, one write(2). No lock —
  // a record this path interleaves with is still whole (the mutex only
  // orders writers; each record leaves in a single write).
  char buf[640];
  std::size_t len = 0;
  const auto put_str = [&](const char* s) {
    while (*s != '\0' && len < sizeof buf) buf[len++] = *s++;
  };
  const auto put_u64 = [&](std::uint64_t v) {
    char tmp[24];
    int i = 24;
    do {
      tmp[--i] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i < 24 && len < sizeof buf) buf[len++] = tmp[i++];
  };
  put_str("{\"k\":\"final\",\"v\":2,\"seq\":");
  put_u64(seq_.fetch_add(1));
  put_str(",\"t_ms\":");
  // Millisecond value with microsecond fraction, via integers only (the
  // snap records carry fractional ms; whole-ms truncation here would let
  // the final record appear to predate the record before it).
  const std::uint64_t us = now_ns() / 1000ull;
  put_u64(us / 1000ull);
  put_str(".");
  const std::uint64_t frac = us % 1000ull;
  if (frac < 100) put_str("0");
  if (frac < 10) put_str("0");
  put_u64(frac);
  put_str(",\"reason\":\"");
  if (reason != nullptr) {
    for (const char* p = reason; *p != '\0' && len + 3 < sizeof buf; ++p) {
      const char c = *p;
      buf[len++] = (c == '"' || c == '\\' ||
                    static_cast<unsigned char>(c) < 0x20)
                       ? ' '
                       : c;
    }
  }
  put_str("\"}\n");
  if (len > sizeof buf - 1) len = sizeof buf - 1;  // keep the trailing \n
  buf[len - 1] = '\n';
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd_, buf + off, len - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Global streamer.
// ---------------------------------------------------------------------------

namespace {
std::atomic<StreamWriter*> g_stream{nullptr};
}  // namespace

StreamWriter* stream() noexcept {
  return g_stream.load(std::memory_order_acquire);
}

void configure_stream(StreamConfig config) {
  StreamWriter* next = nullptr;
  if (!config.path.empty()) {
    next = new StreamWriter(std::move(config));
    if (!next->ok()) {
      delete next;
      next = nullptr;
    }
  }
  // Swapping while emitters run would race on the old writer; (re)configure
  // only happens at startup or between test phases, never mid-run.
  StreamWriter* prev = g_stream.exchange(next, std::memory_order_acq_rel);
  delete prev;
}

void shutdown_stream() { configure_stream(StreamConfig{}); }

bool configure_stream_from_env() {
  const char* path_env = std::getenv("TESS_OBS_STREAM");
  const char* ms_env = std::getenv("TESS_OBS_STREAM_MS");
  StreamConfig config;
  if (path_env != nullptr && *path_env != '\0' &&
      std::strcmp(path_env, "0") != 0)
    config.path = path_env;
  if (ms_env != nullptr)
    if (const long v = std::atol(ms_env); v > 0)
      config.interval_ms = static_cast<std::uint64_t>(v);
  if (config.path.empty()) {
    // TESS_OBS_STREAM_MS alone enables streaming next to the obs exports.
    if (ms_env == nullptr || *ms_env == '\0' || std::atol(ms_env) <= 0)
      return false;
    const char* prefix = std::getenv("TESS_OBS_EXPORT");
    config.path = (prefix != nullptr && *prefix != '\0' ? prefix : "tess");
    config.path += ".stream.jsonl";
  }
  configure_stream(std::move(config));
  return stream() != nullptr;
}

namespace {
// `TESS_OBS_STREAM=run.jsonl ctest ...` streams from every binary without
// code changes: evaluated once before main(), like the flight recorder.
const bool g_stream_from_env = configure_stream_from_env();
}  // namespace

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

namespace {

/// Consume the value at the reader's position, flattening nested numeric
/// fields into `out` with dotted names. Strings, booleans, nulls, and
/// arrays are skipped (the step record's "hist.counts" array stays on the
/// wire for JSON readers; tess_top does not need it).
void flatten_value(detail::JsonReader& r, const std::string& prefix,
                   std::map<std::string, double>& out) {
  if (r.peek_object()) {
    r.object([&](const std::string& key) {
      flatten_value(r, prefix.empty() ? key : prefix + "." + key, out);
    });
  } else if (r.peek_number()) {
    out[prefix] = r.number();
  } else {
    r.skip_value();
  }
}

}  // namespace

bool parse_stream_record(const std::string& line, StreamRecord& out) {
  out = StreamRecord{};
  bool have_kind = false;
  double version = 0.0;
  try {
    detail::JsonReader r(line);
    r.object([&](const std::string& key) {
      // The writer puts "k" first, so the section dispatch below already
      // knows the record kind (a snap "hist" is a metric-histogram map; a
      // step "hist" is the StepStats volume histogram, flattened).
      if (key == "k") {
        out.kind = r.string();
        have_kind = true;
      } else if (key == "v") {
        version = r.number();
      } else if (key == "seq") {
        out.seq = static_cast<std::uint64_t>(r.number());
      } else if (key == "t_ms") {
        out.t_ms = r.number();
      } else if (key == "step") {
        out.step = static_cast<int>(r.number());
      } else if (key == "rank") {
        out.rank = static_cast<int>(r.number());
      } else if (out.kind == "snap" && key == "val") {
        r.object([&](const std::string& name) {
          out.values[name] = r.number();
        });
      } else if (out.kind == "snap" && key == "ctr") {
        r.object([&](const std::string& name) {
          out.counters[name] = r.number();
        });
      } else if (out.kind == "snap" && key == "gauge") {
        r.object([&](const std::string& name) {
          out.gauges[name] = r.number();
        });
      } else if (out.kind == "snap" && key == "hist") {
        r.object([&](const std::string& name) {
          StreamHist h;
          r.object([&](const std::string& field) {
            if (field == "n") {
              h.count = r.number();
            } else if (field == "sum") {
              h.sum = r.number();
            } else if (field == "p50") {
              h.p50 = r.number();
            } else if (field == "p90") {
              h.p90 = r.number();
            } else if (field == "p99") {
              h.p99 = r.number();
            } else if (field == "bins") {
              r.object([&](const std::string& floor_key) {
                h.bins[std::strtoull(floor_key.c_str(), nullptr, 10)] =
                    r.number();
              });
            } else {
              r.skip_value();
            }
          });
          out.hists[name] = std::move(h);
        });
      } else if (out.kind == "snap" && key == "span") {
        r.object([&](const std::string& name) {
          double n = 0.0;
          double s = 0.0;
          r.object([&](const std::string& field) {
            if (field == "n") {
              n = r.number();
            } else if (field == "s") {
              s = r.number();
            } else {
              r.skip_value();
            }
          });
          out.spans[name] = {n, s};
        });
      } else {
        flatten_value(r, key, out.values);
      }
    });
    if (!r.at_end()) return false;
  } catch (const std::exception&) {
    return false;
  }
  // Schema 1 carried deltas; reading one as absolute values would be
  // silently wrong, so any version but 2 is malformed.
  return have_kind && version == 2.0;
}

std::vector<StreamRecord> StreamDecoder::feed(const std::string& bytes) {
  partial_ += bytes;
  std::vector<StreamRecord> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t nl = partial_.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string line = partial_.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    StreamRecord rec;
    if (!parse_stream_record(line, rec)) {
      ++dropped_;
      continue;
    }
    out.push_back(std::move(rec));
  }
  partial_.erase(0, pos);
  return out;
}

StreamFile read_stream_file(const std::string& path) {
  StreamFile out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::ostringstream buf;
  buf << in.rdbuf();
  StreamDecoder decoder;
  out.records = decoder.feed(buf.str());
  out.dropped = decoder.dropped() + (decoder.pending_bytes() > 0 ? 1 : 0);
  return out;
}

// ---------------------------------------------------------------------------
// Drift detection.
// ---------------------------------------------------------------------------

DriftResult detect_drift(const std::vector<double>& series,
                         const DriftOptions& options) {
  DriftResult result;
  double ewma = 0.0;
  int seeded = 0;
  int run = 0;
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double x = series[i];
    if (seeded < options.warmup) {
      ewma = seeded == 0 ? x : ewma + options.alpha * (x - ewma);
      ++seeded;
      continue;
    }
    const double baseline = std::max(ewma, options.min_value);
    if (x > baseline * options.threshold) {
      if (run == 0) run_start = i;
      ++run;
      if (run >= options.sustain) {
        result.drifted = true;
        result.first_index = run_start;
        result.value = x;
        result.baseline = baseline;
        return result;
      }
      // Drifting samples do NOT update the EWMA: absorbing them would
      // raise the baseline toward the regression and un-flag it.
    } else {
      run = 0;
      ewma += options.alpha * (x - ewma);
    }
  }
  result.baseline = std::max(ewma, options.min_value);
  return result;
}

StreamCheckReport check_stream(const StreamFile& file,
                               const StreamCheckOptions& options) {
  StreamCheckReport report;
  report.records = file.records.size();
  report.dropped = file.dropped;

  std::set<int> steps;
  // rank -> t_ms of its step-scoped records, in stream order.
  std::map<int, std::vector<double>> rank_step_times;
  // step -> rank -> per-step seconds, for the imbalance factor.
  std::map<int, std::map<int, double>> step_rank_seconds;
  // (t_ms, cumulative pipeline.stall.* seconds) from global span records.
  std::vector<std::pair<double, double>> stall_points;

  for (const auto& rec : file.records) {
    if (!rec.hists.empty()) report.quantiles_seen = true;
    if (rec.kind != "snap") continue;
    if (rec.rank >= 0) {
      // Step-scoped records are the ones carrying a per-step wall time;
      // mid-step heartbeats (e.g. the tessellator's per-ghost-pass
      // records) also have a step tag but no stage breakdown, and must
      // count neither as a rank nor in the step-cadence series.
      const auto it = rec.values.find("stage.step_s");
      if (rec.step >= 0 && it != rec.values.end()) {
        ++report.rank_records[rec.rank];
        steps.insert(rec.step);
        rank_step_times[rec.rank].push_back(rec.t_ms);
        step_rank_seconds[rec.step][rec.rank] = it->second;
      }
    } else if (!rec.spans.empty()) {
      double stall_s = 0.0;
      for (const auto& [name, cs] : rec.spans)
        if (name.rfind("pipeline.stall.", 0) == 0) stall_s += cs.second;
      stall_points.emplace_back(rec.t_ms, stall_s);
    }
  }
  report.steps_seen = static_cast<int>(steps.size());

  const auto flag = [&](const DriftResult& d, const std::string& what,
                        const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "drifted to %.4g %s (baseline %.4g, x%.2f) from sample %zu",
                  d.value, unit, d.baseline, d.ratio(), d.first_index);
    report.findings.push_back(what + " " + buf);
  };

  for (const auto& [rank, times] : rank_step_times) {
    std::vector<double> wall_ms;
    for (std::size_t i = 1; i < times.size(); ++i)
      wall_ms.push_back(times[i] - times[i - 1]);
    const auto d = detect_drift(wall_ms, options.drift);
    if (d.drifted)
      flag(d, "rank " + std::to_string(rank) + " step wall-time", "ms");
  }

  std::vector<double> imbalance;
  for (const auto& [step, by_rank] : step_rank_seconds) {
    if (by_rank.size() < 2) continue;
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const auto& [rank, s] : by_rank) {
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    const double mean_s = sum_s / static_cast<double>(by_rank.size());
    if (mean_s > 0.0) imbalance.push_back(max_s / mean_s);
  }
  if (const auto d = detect_drift(imbalance, options.drift); d.drifted)
    flag(d, "imbalance factor (max/mean stage.step_s)", "x");

  const double nranks =
      static_cast<double>(std::max<std::size_t>(1, report.rank_records.size()));
  std::vector<double> stall_fraction;
  for (std::size_t i = 1; i < stall_points.size(); ++i) {
    const double wall_s =
        (stall_points[i].first - stall_points[i - 1].first) / 1000.0;
    if (wall_s <= 0.0) continue;
    const double stall_s =
        std::max(0.0, stall_points[i].second - stall_points[i - 1].second);
    stall_fraction.push_back(stall_s / (wall_s * nranks));
  }
  if (const auto d = detect_drift(stall_fraction, options.drift); d.drifted)
    flag(d, "pipeline stall fraction", "");

  report.ok = report.findings.empty();
  return report;
}

}  // namespace tess::obs
