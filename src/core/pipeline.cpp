#include "core/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "diy/blockio.hpp"
#include "obs/metrics.hpp"
#include "obs/reduce.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tess::core {

InSituPipeline::InSituPipeline(comm::Comm& comm,
                               const diy::Decomposition& decomp,
                               PipelineOptions options)
    : comm_(&comm),
      options_(std::move(options)),
      tess_comm_(comm.plane(1000)),
      write_comm_(comm.plane(2000)),
      tess_(tess_comm_, decomp, options_.tess),
      tess_in_(static_cast<std::size_t>(
                   options_.queue_depth > 0 ? options_.queue_depth : 1),
               "pipeline.stall.submit", "pipeline.stall.tess.input",
               "pipeline.queue.tess.depth"),
      write_in_(static_cast<std::size_t>(
                    options_.queue_depth > 0 ? options_.queue_depth : 1),
                "pipeline.stall.tess.output", "pipeline.stall.write.input",
                "pipeline.queue.write.depth") {
  const int rank = comm.rank();
  tess_thread_ = std::thread([this, rank] {
    obs::set_thread_rank(rank);
    tess_loop();
  });
  write_thread_ = std::thread([this, rank] {
    obs::set_thread_rank(rank);
    write_loop();
  });
}

InSituPipeline::~InSituPipeline() {
  if (!finished_) {
    // Abnormal teardown (caller unwinding without finish()): retire this
    // rank BEFORE joining, so stage threads blocked mid-collective on a
    // peer — or peers blocked on us — unwind via RankRetiredError instead
    // of deadlocking the join across ranks.
    fail(std::make_exception_ptr(
        std::runtime_error("pipeline: destroyed before finish()")));
  }
  if (tess_thread_.joinable()) tess_thread_.join();
  if (write_thread_.joinable()) write_thread_.join();
}

void InSituPipeline::submit(int step, std::vector<diy::Particle> particles) {
  if (finished_)
    throw std::logic_error("pipeline: submit() after finish()");
  rethrow_if_failed();
  const int n = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n > max_in_flight_) max_in_flight_ = n;
  if (!tess_in_.push(TessItem{step, std::move(particles)})) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    rethrow_if_failed();
    throw std::logic_error("pipeline: submit() after shutdown");
  }
}

std::vector<PipelineStepResult> InSituPipeline::finish() {
  if (!finished_) {
    finished_ = true;
    // Close the head queue only: the tess stage drains what was submitted,
    // then its exit closes nothing further — we close the write queue once
    // the tess thread is done so every meshed step still gets written.
    tess_in_.close();
    if (tess_thread_.joinable()) tess_thread_.join();
    write_in_.close();
    if (write_thread_.joinable()) write_thread_.join();
  }
  rethrow_if_failed();
  return std::move(results_);
}

void InSituPipeline::tess_loop() {
  try {
    while (!failed_.load(std::memory_order_relaxed)) {
      auto item = tess_in_.pop();
      if (!item) break;
      TESS_SPAN_ARG("pipeline.stage.tess", item->step);
      WriteItem out;
      out.step = item->step;
      BlockMesh mesh =
          tess_.tessellate_step(item->step, std::move(item->particles));
      out.stats = tess_.stats();
      mesh.serialize(out.block);
      out.volumes.reserve(mesh.cells.size());
      for (const auto& c : mesh.cells) out.volumes.push_back(c.volume);
      if (options_.keep_meshes) out.mesh = std::move(mesh);
      if (!write_in_.push(std::move(out))) break;
    }
  } catch (...) {
    fail(std::current_exception());
  }
}

void InSituPipeline::write_loop() {
  try {
    while (!failed_.load(std::memory_order_relaxed)) {
      auto item = write_in_.pop();
      if (!item) break;
      TESS_SPAN_ARG("pipeline.stage.write", item->step);
      PipelineStepResult res;
      res.step = item->step;
      res.stats = std::move(item->stats);
      res.cell_volumes = std::move(item->volumes);
      res.mesh = std::move(item->mesh);
      util::ThreadCpuTimer timer;
      timer.start();
      if (!options_.output_pattern.empty()) {
        res.path = diy::step_path(options_.output_pattern, item->step);
        res.file_bytes = diy::write_blocks(write_comm_, res.path, item->block);
      }
      if (options_.on_step) options_.on_step(write_comm_, res);
      timer.stop();
      res.write_seconds = timer.seconds();
      const TessStats step_stats = res.stats;
      const double write_seconds = res.write_seconds;
      results_.push_back(std::move(res));
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      TESS_COUNT("pipeline.steps", 1);
      if (auto* stream = obs::stream()) {
        // One per-rank record per step: this rank's stage times for the
        // step and its counter/gauge slices. Then the collective
        // rank-0 reduction record with histograms + quantiles — safe here
        // because the write plane runs collectives in submission order on
        // every rank, and streaming on/off is process-global.
        obs::StreamSample sample;
        sample.step = item->step;
        sample.rank = comm_->rank();
        sample.values = {
            {"stage.exchange_s", step_stats.exchange_seconds},
            {"stage.compute_s", step_stats.compute_seconds},
            {"stage.write_s", write_seconds},
            {"stage.step_s", step_stats.total_seconds() + write_seconds},
        };
        stream->emit(sample);
        obs::stream_reduced_step(write_comm_, item->step);
      }
    }
  } catch (...) {
    fail(std::current_exception());
  }
}

void InSituPipeline::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = error;
  }
  failed_.store(true, std::memory_order_relaxed);
  // Wake every peer blocked on this rank — in the simulation plane, the
  // tess plane, the write plane, or the central barrier — so the whole
  // group unwinds instead of waiting on collectives we will never join.
  comm_->retire_self();
  tess_in_.close();
  write_in_.close();
}

void InSituPipeline::rethrow_if_failed() {
  if (!failed_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (error_) std::rethrow_exception(error_);
}

}  // namespace tess::core
