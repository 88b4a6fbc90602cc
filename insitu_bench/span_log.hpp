// The benchmark's own spans: name, start, end, parent, step and rank of
// every timed call into a layer, kept in memory per thread and written as
// JSON lines when the run ends. The program's internal tracer is never
// consulted; run.py derives per-layer self time and the step ledger from
// these records alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace insitu {

/// Seconds on the steady clock since the first call in this process.
inline double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

/// Rank and step the calling thread is working on; stamped into its spans.
inline thread_local int t_rank = 0;
inline thread_local int t_step = -1;

class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  /// Spans are recorded only while enabled. Toggle it only while no span is
  /// open (between barriers); a span opened while enabled is always closed.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Opens a span on the calling thread; `name` must be a string literal.
  /// Returns the index to pass to close().
  std::size_t open(const char* name) {
    Lane& l = lane();
    const std::int64_t parent =
        l.stack.empty() ? -1 : l.spans[l.stack.back()].id;
    l.spans.push_back({name, now_s(), 0.0,
                       next_id_.fetch_add(1, std::memory_order_relaxed), parent,
                       t_step, t_rank});
    l.stack.push_back(l.spans.size() - 1);
    return l.spans.size() - 1;
  }
  void close(std::size_t index) {
    Lane& l = lane();
    l.spans[index].end = now_s();
    l.stack.pop_back();
  }

  /// One JSON object per line. Call only after every recording thread has
  /// been joined.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& l : lanes_)
      for (const auto& s : l->spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%lld,"
                     "\"parent\":%lld,\"step\":%d,\"rank\":%d}\n",
                     s.name, s.start, s.end, static_cast<long long>(s.id),
                     static_cast<long long>(s.parent), s.step, s.rank);
    return std::fclose(f) == 0;
  }

 private:
  struct Record {
    const char* name;
    double start, end;
    std::int64_t id, parent;
    int step, rank;
  };
  struct Lane {
    std::vector<Record> spans;
    std::vector<std::size_t> stack;  ///< indices of the open spans
  };

  Lane& lane() {
    thread_local Lane* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      lanes_.push_back(std::make_unique<Lane>());
      mine = lanes_.back().get();
    }
    return *mine;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;  ///< guards lanes_ (not the lanes' contents)
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Scoped span around one call; a no-op while the log is disabled.
class Span {
 public:
  explicit Span(const char* name) {
    auto& log = SpanLog::instance();
    if (log.enabled()) index_ = static_cast<std::int64_t>(log.open(name));
  }
  ~Span() {
    if (index_ >= 0)
      SpanLog::instance().close(static_cast<std::size_t>(index_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

}  // namespace insitu
