#include "analysis/insitu_stats.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/stream.hpp"

namespace tess::analysis {

util::Moments reduce_moments(comm::Comm& comm, const util::Moments& local) {
  // Moments is trivially copyable; gather and merge in rank order so the
  // result is deterministic.
  static_assert(std::is_trivially_copyable_v<util::Moments>);
  auto all = comm.gather(local, 0);
  util::Moments merged;
  if (comm.rank() == 0)
    for (const auto& m : all) merged.merge(m);
  std::vector<util::Moments> box{merged};
  comm.broadcast(box, 0);
  return box[0];
}

util::Histogram reduce_histogram(comm::Comm& comm, const util::Histogram& local) {
  const auto bins = comm.allreduce_max(local.bins());
  const auto lo = comm.allreduce_min(local.lo());
  const auto hi = comm.allreduce_max(local.hi());
  // Consistency must be decided collectively: if only the disagreeing rank
  // threw, the others would deadlock inside the following collectives.
  const int ok =
      bins == local.bins() && lo == local.lo() && hi == local.hi() ? 1 : 0;
  if (comm.allreduce_min(ok) == 0)
    throw std::invalid_argument("reduce_histogram: ranks disagree on binning");

  // Sum the count arrays element-wise and merge the moments.
  auto counts = local.counts();
  auto all_counts = comm.gatherv(counts);
  std::vector<std::size_t> merged_counts(bins, 0);
  if (comm.rank() == 0) {
    for (std::size_t r = 0; r * bins < all_counts.size(); ++r)
      for (std::size_t b = 0; b < bins; ++b)
        merged_counts[b] += all_counts[r * bins + b];
  }
  comm.broadcast(merged_counts, 0);

  const auto underflow =
      comm.allreduce_sum(static_cast<std::uint64_t>(local.underflow()));
  const auto overflow =
      comm.allreduce_sum(static_cast<std::uint64_t>(local.overflow()));
  const auto moments = reduce_moments(comm, local.moments());
  return util::Histogram::from_state(lo, hi, std::move(merged_counts),
                                     static_cast<std::size_t>(underflow),
                                     static_cast<std::size_t>(overflow), moments);
}

StepStats reduce_step_stats(comm::Comm& comm, int step,
                            const std::vector<double>& volumes, double lo,
                            double hi, std::size_t bins) {
  StepStats out(step, lo, hi, bins);
  util::Histogram local(lo, hi, bins);
  for (double v : volumes) local.add(v);
  out.volume_hist = reduce_histogram(comm, local);
  out.volume = out.volume_hist.moments();
  out.cells = comm.allreduce_sum(static_cast<long long>(volumes.size()));
  return out;
}

std::string step_stats_record(const StepStats& s) {
  // Numbers as the snap records write them (%.9g), so a large t_ms or a
  // moment keeps its digits through the stream.
  using obs::detail::json_number;
  std::ostringstream os;
  os << "{\"k\":\"step\",\"v\":2,\"t_ms\":"
     << json_number(obs::StreamWriter::now_ms()) << ",\"step\":" << s.step
     << ",\"cells\":" << s.cells
     << ",\"volume\":{\"mean\":" << json_number(s.volume.mean())
     << ",\"stddev\":" << json_number(s.volume.stddev())
     << ",\"min\":" << json_number(s.volume.min())
     << ",\"max\":" << json_number(s.volume.max())
     << ",\"skewness\":" << json_number(s.volume.skewness())
     << ",\"kurtosis\":" << json_number(s.volume.kurtosis()) << "}"
     << ",\"hist\":{\"lo\":" << json_number(s.volume_hist.lo())
     << ",\"hi\":" << json_number(s.volume_hist.hi())
     << ",\"underflow\":" << s.volume_hist.underflow()
     << ",\"overflow\":" << s.volume_hist.overflow() << ",\"counts\":[";
  for (std::size_t b = 0; b < s.volume_hist.bins(); ++b) {
    if (b > 0) os << ',';
    os << s.volume_hist.count(b);
  }
  os << "]}}";
  return os.str();
}

std::function<void(comm::Comm&, int, const std::vector<double>&)>
make_stats_streamer(double lo, double hi, std::size_t bins) {
  return [lo, hi, bins](comm::Comm& comm, int step,
                        const std::vector<double>& volumes) {
    auto* stream = obs::stream();
    if (stream == nullptr) return;
    const auto stats = reduce_step_stats(comm, step, volumes, lo, hi, bins);
    if (comm.rank() == 0) stream->append_record(step_stats_record(stats));
  };
}

}  // namespace tess::analysis
