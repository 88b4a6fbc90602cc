#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace tess::obs {

namespace {

using detail::json_escape;
using detail::json_number;
using detail::JsonReader;

void append_per_rank(std::ostringstream& os,
                     const std::vector<std::pair<int, double>>& per_rank) {
  os << "{";
  bool first = true;
  for (const auto& [rank, v] : per_rank) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rank << "\":" << json_number(v);
  }
  os << "}";
}

}  // namespace

std::vector<SpanAgg> aggregate_spans(const TraceDump& dump) {
  std::map<std::string_view, SpanAgg> by_name;
  for (const auto& lane : dump.lanes) {
    for (const auto& span : lane.spans) {
      const double dur =
          static_cast<double>(span.t1_ns - span.t0_ns) * 1e-9;
      auto [it, inserted] = by_name.try_emplace(span.name);
      SpanAgg& agg = it->second;
      if (inserted) {
        agg.name = span.name;
        agg.min_s = dur;
        agg.max_s = dur;
      }
      agg.count += 1;
      agg.total_s += dur;
      agg.min_s = std::min(agg.min_s, dur);
      agg.max_s = std::max(agg.max_s, dur);
    }
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) out.push_back(std::move(agg));
  return out;
}

std::string chrome_trace_json(const TraceDump& dump) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // One chrome "process" per rank (pid = rank + 1; 0 holds unranked
  // threads) and one chrome "thread" per lane: a rank×thread grid.
  std::map<int, bool> pids;
  for (const auto& lane : dump.lanes) {
    const int pid = lane.rank + 1;
    if (!pids.contains(pid)) {
      pids[pid] = true;
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid
         << ",\"name\":\"process_name\",\"args\":{\"name\":\""
         << (lane.rank < 0 ? std::string("unranked")
                           : "rank " + std::to_string(lane.rank))
         << "\"}}";
    }
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << lane.lane
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"thread "
       << lane.lane << "\"}}";
    for (const auto& span : lane.spans) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << lane.lane
         << ",\"name\":\"" << json_escape(span.name)
         << "\",\"ts\":" << json_number(static_cast<double>(span.t0_ns) * 1e-3)
         << ",\"dur\":"
         << json_number(static_cast<double>(span.t1_ns - span.t0_ns) * 1e-3)
         << ",\"args\":{\"depth\":" << span.depth;
      if (span.arg != kSpanNoArg) os << ",\"arg\":" << span.arg;
      os << "}}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

std::string summary_json(const TraceDump& dump,
                         const MetricsSnapshot& metrics) {
  std::ostringstream os;
  os << "{\n  \"spans\": {";
  const auto aggs = aggregate_spans(dump);
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const auto& a = aggs[i];
    os << (i == 0 ? "" : ",") << "\n    \"" << json_escape(a.name)
       << "\": {\"count\": " << a.count
       << ", \"total_s\": " << json_number(a.total_s)
       << ", \"min_s\": " << json_number(a.min_s)
       << ", \"max_s\": " << json_number(a.max_s)
       << ", \"mean_s\": " << json_number(a.mean_s()) << "}";
  }
  os << "\n  },\n";

  auto emit_kind = [&os, &metrics](char kind, const char* label,
                                   auto&& body) {
    os << "  \"" << label << "\": {";
    bool first = true;
    for (const auto& s : metrics.samples) {
      if (s.kind != kind) continue;
      os << (first ? "" : ",") << "\n    \"" << json_escape(s.name) << "\": ";
      body(s);
      first = false;
    }
    os << "\n  },\n";
  };
  emit_kind('c', "counters", [&os](const MetricSample& s) {
    os << "{\"total\": " << json_number(s.value) << ", \"per_rank\": ";
    append_per_rank(os, s.per_rank);
    os << "}";
  });
  emit_kind('g', "gauges", [&os](const MetricSample& s) {
    os << "{\"value\": " << json_number(s.value) << ", \"per_rank\": ";
    append_per_rank(os, s.per_rank);
    os << "}";
  });
  emit_kind('h', "histograms", [&os](const MetricSample& s) {
    os << "{\"count\": " << json_number(s.value)
       << ", \"sum\": " << json_number(s.sum)
       << ", \"p50\": " << json_number(histogram_quantile(s.bins, 0.50))
       << ", \"p90\": " << json_number(histogram_quantile(s.bins, 0.90))
       << ", \"p99\": " << json_number(histogram_quantile(s.bins, 0.99))
       << ", \"bins\": {";
    bool first = true;
    for (const auto& [floor, n] : s.bins) {
      os << (first ? "" : ",") << "\"" << floor << "\":" << n;
      first = false;
    }
    os << "}}";
  });

  os << "  \"lanes\": " << dump.lanes.size()
     << ",\n  \"dropped_spans\": " << dump.total_dropped() << "\n}\n";
  return os.str();
}

std::vector<SummaryRow> parse_summary_json(const std::string& text) {
  std::vector<SummaryRow> rows;
  JsonReader in(text);
  in.object([&](const std::string& section) {
    if (section != "spans" && section != "counters" && section != "gauges" &&
        section != "histograms") {
      in.skip_value();
      return;
    }
    const std::string kind = section.substr(0, section.size() - 1);
    in.object([&](const std::string& name) {
      double count = 0, total_s = 0, min_s = 0, max_s = 0;
      double total = 0, value = 0, sum = 0, p50 = 0, p99 = 0;
      double bins_lo = -1.0, bins_hi = -1.0;
      in.object([&](const std::string& field) {
        if (field == "count") count = in.number();
        else if (field == "total_s") total_s = in.number();
        else if (field == "min_s") min_s = in.number();
        else if (field == "max_s") max_s = in.number();
        else if (field == "total") total = in.number();
        else if (field == "value") value = in.number();
        else if (field == "sum") sum = in.number();
        else if (field == "p50") p50 = in.number();
        else if (field == "p99") p99 = in.number();
        else if (field == "bins")
          in.object([&](const std::string& floor_key) {
            const double floor_v = std::strtod(floor_key.c_str(), nullptr);
            if (bins_lo < 0.0 || floor_v < bins_lo) bins_lo = floor_v;
            if (floor_v > bins_hi) bins_hi = floor_v;
            in.skip_value();
          });
        else in.skip_value();
      });
      SummaryRow row;
      row.kind = kind;
      row.name = name;
      if (kind == "span") {
        row.count = count;
        row.total = total_s;
        row.min = min_s;
        row.max = max_s;
      } else if (kind == "counter") {
        row.count = 1;
        row.total = total;
      } else if (kind == "gauge") {
        row.count = 1;
        row.total = value;
      } else {  // histogram: quantiles ride the min/max columns
        row.count = count;
        row.total = sum;
        row.min = p50;
        row.max = p99;
        row.bins_lo = bins_lo;
        row.bins_hi = bins_hi;
      }
      rows.push_back(std::move(row));
    });
  });
  return rows;
}

std::vector<SummaryRow> parse_benchmark_json(const std::string& text,
                                             std::string* build_type) {
  std::vector<SummaryRow> rows;
  if (build_type != nullptr) build_type->clear();
  std::string context_build_type;  // library_build_type fallback
  JsonReader in(text);
  in.object([&](const std::string& section) {
    if (section == "context") {
      in.object([&](const std::string& key) {
        if (key == "tess_build_type") {
          if (build_type != nullptr) *build_type = in.string();
          else in.skip_value();
        } else if (key == "library_build_type") {
          context_build_type = in.string();
        } else {
          in.skip_value();
        }
      });
      return;
    }
    if (section != "benchmarks") {
      in.skip_value();
      return;
    }
    in.array([&] {
      SummaryRow row;
      row.kind = "bench";
      std::string run_type;
      double real_time = 0.0, cpu_time = 0.0, unit = 1e-9;  // default ns
      in.object([&](const std::string& field) {
        if (field == "name") row.name = in.string();
        else if (field == "run_type") run_type = in.string();
        else if (field == "iterations") row.count = in.number();
        else if (field == "real_time") real_time = in.number();
        else if (field == "cpu_time") cpu_time = in.number();
        else if (field == "time_unit") {
          const std::string u = in.string();
          unit = u == "s" ? 1.0 : u == "ms" ? 1e-3 : u == "us" ? 1e-6 : 1e-9;
        } else {
          in.skip_value();
        }
      });
      // Aggregate rows (mean/median/stddev of repetitions) would double
      // count against the per-iteration rows; keep iterations only.
      if (!run_type.empty() && run_type != "iteration") return;
      row.total = real_time * unit;  // per-iteration wall seconds
      row.min = cpu_time * unit;
      row.max = cpu_time * unit;
      rows.push_back(std::move(row));
    });
  });
  if (build_type != nullptr && build_type->empty())
    *build_type = context_build_type;
  return rows;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("obs: cannot open '" + path + "' for writing");
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (n != text.size())
    throw std::runtime_error("obs: short write to '" + path + "'");
}

}  // namespace tess::obs
