// Tests for the asynchronous in-situ pipeline (core/pipeline.hpp) and its
// bounded hand-off queue: byte-identity of pipelined vs serial per-step
// output across thread counts, boundary modes, and rank counts;
// backpressure under a slow writer; and clean exception propagation —
// including a seeded fault-injector kill mid-pipeline — instead of hangs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "core/pipeline.hpp"
#include "core/tessellator.hpp"
#include "diy/blockio.hpp"
#include "diy/exchange.hpp"
#include "diy/serialize.hpp"
#include "obs/obs.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"

using tess::comm::Comm;
using tess::comm::CommError;
using tess::comm::FaultPlan;
using tess::comm::faults;
using tess::comm::Runtime;
using tess::core::InSituPipeline;
using tess::core::PipelineOptions;
using tess::core::PipelineStepResult;
using tess::core::TessOptions;
using tess::core::Tessellator;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::BoundedQueue;
using tess::util::Rng;

namespace {

namespace diy = tess::diy;

constexpr double kDomain = 10.0;

/// Deterministic per-step snapshot: the same sequence for every run, so
/// serial and pipelined loops see identical inputs.
std::vector<Particle> snapshot(int step, int n) {
  Rng rng(7700 + static_cast<std::uint64_t>(step));
  std::vector<Particle> ps;
  for (int i = 0; i < n; ++i)
    ps.push_back({{rng.uniform(0, kDomain), rng.uniform(0, kDomain),
                   rng.uniform(0, kDomain)},
                  i});
  return ps;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct LoopConfig {
  int nranks = 2;
  int threads = 1;
  bool periodic = true;
  int steps = 3;
  int particles = 250;
  int queue_depth = 1;
  std::string pattern;  ///< per-step output path pattern
  PipelineOptions::StepHook hook;  ///< pipelined mode only
};

/// Run the in-situ loop over deterministic snapshots and return the bytes
/// of each step's blocked file. Serial mode is the reference
/// tessellate+write sequence; pipelined mode routes the same snapshots
/// through InSituPipeline.
std::vector<std::vector<char>> run_loop(const LoopConfig& cfg, bool pipelined,
                                        int* max_in_flight = nullptr) {
  Runtime::run(cfg.nranks, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                    Decomposition::factor(cfg.nranks), cfg.periodic);
    TessOptions topt;
    topt.ghost = 3.0;
    topt.threads = cfg.threads;
    auto pos = [](Particle& p) -> Vec3& { return p.pos; };
    if (pipelined) {
      PipelineOptions opt;
      opt.tess = topt;
      opt.output_pattern = cfg.pattern;
      opt.queue_depth = cfg.queue_depth;
      opt.on_step = cfg.hook;
      InSituPipeline pipe(c, d, opt);
      for (int s = 1; s <= cfg.steps; ++s) {
        auto mine = diy::migrate_items(
            c, d, c.rank() == 0 ? snapshot(s, cfg.particles)
                                : std::vector<Particle>{},
            pos);
        pipe.submit(s, std::move(mine));
      }
      const auto results = pipe.finish();
      EXPECT_EQ(results.size(), static_cast<std::size_t>(cfg.steps));
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].step, static_cast<int>(i) + 1);
        EXPECT_FALSE(results[i].cell_volumes.empty());
        EXPECT_GT(results[i].file_bytes, 0u);
      }
      if (max_in_flight != nullptr && c.rank() == 0)
        *max_in_flight = pipe.max_in_flight();
    } else {
      Tessellator t(c, d, topt);
      for (int s = 1; s <= cfg.steps; ++s) {
        auto mine = diy::migrate_items(
            c, d, c.rank() == 0 ? snapshot(s, cfg.particles)
                                : std::vector<Particle>{},
            pos);
        auto mesh = t.tessellate_step(s, std::move(mine));
        tess::diy::Buffer buf;
        mesh.serialize(buf);
        tess::diy::write_blocks(c, tess::diy::step_path(cfg.pattern, s), buf);
      }
    }
  });
  std::vector<std::vector<char>> files;
  for (int s = 1; s <= cfg.steps; ++s)
    files.push_back(slurp(tess::diy::step_path(cfg.pattern, s)));
  return files;
}

void remove_steps(const std::string& pattern, int steps) {
  for (int s = 1; s <= steps; ++s)
    std::remove(tess::diy::step_path(pattern, s).c_str());
}

}  // namespace

// ---------------------------------------------------------------------------
// BoundedQueue semantics
// ---------------------------------------------------------------------------

TEST(BoundedQueue, FifoAndCloseDrains) {
  BoundedQueue<int> q(4, "test.q.push", "test.q.pop", "test.q.depth");
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3)) << "push after close must fail";
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::nullopt) << "closed and drained";
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilPop) {
  BoundedQueue<int> q(1, "test.q.push", "test.q.pop", "test.q.depth");
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // must block until the consumer pops
    second_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_pushed) << "push must backpressure at capacity";
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(second_pushed);
  EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, PopBlocksUntilPushOrClose) {
  BoundedQueue<int> q(2, "test.q.push", "test.q.pop", "test.q.depth");
  std::optional<int> got = std::optional<int>(-1);
  std::thread consumer([&] { got = q.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_EQ(got, std::nullopt);
}

// ---------------------------------------------------------------------------
// Byte-identity: pipelined output == serial output
// ---------------------------------------------------------------------------

// gtest names each case after the bytes of its parameter, so the struct
// must have no padding: a bool here would leave three uninitialised bytes
// in every name and rename the cases from one build to the next.
struct IdentityCase {
  int nranks;
  int threads;
  int periodic;  // 0 or 1
};
static_assert(sizeof(IdentityCase) == 3 * sizeof(int),
              "IdentityCase must have no padding bytes");

class PipelineIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(PipelineIdentity, PipelinedFilesMatchSerial) {
  const auto p = GetParam();
  LoopConfig cfg;
  cfg.nranks = p.nranks;
  cfg.threads = p.threads;
  cfg.periodic = p.periodic != 0;
  // Per-config path: ctest may run the parameterized cases concurrently.
  const std::string tag = "r" + std::to_string(p.nranks) + "t" +
                          std::to_string(p.threads) +
                          (p.periodic ? "p" : "o");

  cfg.pattern = "/tmp/tess_pipe_serial_" + tag + "_%d.bin";
  const auto serial = run_loop(cfg, false);
  remove_steps(cfg.pattern, cfg.steps);

  cfg.pattern = "/tmp/tess_pipe_async_" + tag + "_%d.bin";
  const auto pipelined = run_loop(cfg, true);
  remove_steps(cfg.pattern, cfg.steps);

  ASSERT_EQ(serial.size(), pipelined.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    ASSERT_FALSE(serial[s].empty());
    EXPECT_EQ(serial[s], pipelined[s])
        << "step " << s + 1 << " file differs (ranks=" << p.nranks
        << " threads=" << p.threads << " periodic=" << p.periodic << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineIdentity,
    ::testing::Values(IdentityCase{2, 1, 1}, IdentityCase{2, 1, 0},
                      IdentityCase{2, 4, 1}, IdentityCase{2, 4, 0},
                      IdentityCase{4, 1, 1}, IdentityCase{4, 1, 0},
                      IdentityCase{4, 4, 1}, IdentityCase{4, 4, 0}));

// ---------------------------------------------------------------------------
// Backpressure: a slow writer bounds in-flight snapshots
// ---------------------------------------------------------------------------

TEST(Pipeline, SlowWriterBoundsInFlightSnapshots) {
  LoopConfig cfg;
  cfg.nranks = 2;
  cfg.steps = 6;
  cfg.particles = 60;
  cfg.queue_depth = 1;
  cfg.pattern = "/tmp/tess_pipe_slow_%d.bin";
  cfg.hook = [](Comm&, const PipelineStepResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  int max_in_flight = 0;
  run_loop(cfg, true, &max_in_flight);
  remove_steps(cfg.pattern, cfg.steps);
  // queue_depth per edge + one per stage in execution + one blocked in
  // submit() against the full head queue.
  EXPECT_LE(max_in_flight, 2 * cfg.queue_depth + 3);
  EXPECT_GE(max_in_flight, 1);
}

// ---------------------------------------------------------------------------
// Failure paths: exceptions propagate, nothing hangs
// ---------------------------------------------------------------------------

TEST(Pipeline, HookExceptionPropagatesToEveryRank) {
  const auto start = std::chrono::steady_clock::now();
  LoopConfig cfg;
  cfg.nranks = 2;
  cfg.steps = 4;
  cfg.particles = 60;
  cfg.pattern = "/tmp/tess_pipe_throw_%d.bin";
  cfg.hook = [](Comm&, const PipelineStepResult& r) {
    if (r.step == 2) throw std::runtime_error("hook boom");
  };
  EXPECT_THROW(run_loop(cfg, true), std::exception);
  remove_steps(cfg.pattern, cfg.steps);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 60) << "stage failure took too long to unwind";
}

TEST(Pipeline, SubmitAfterFinishThrows) {
  Runtime::run(1, [](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                    Decomposition::factor(1), true);
    PipelineOptions opt;
    opt.tess.ghost = 3.0;
    InSituPipeline pipe(c, d, opt);
    pipe.submit(1, snapshot(1, 50));
    (void)pipe.finish();
    EXPECT_THROW(pipe.submit(2, snapshot(2, 50)), std::logic_error);
  });
}

TEST(Pipeline, SeededKillMidPipelineFailsFastOnEveryRank) {
  const auto start = std::chrono::steady_clock::now();
  LoopConfig cfg;
  cfg.nranks = 2;
  cfg.steps = 4;
  cfg.particles = 120;
  cfg.pattern = "/tmp/tess_pipe_kill_%d.bin";
  // The same spec TESS_FAULT_SPEC would arm from the environment: rank 1
  // dies after its 60th comm operation — mid-pipeline, with steps queued
  // in every stage.
  faults().arm(FaultPlan::parse("kill:rank=1,at=60"));
  EXPECT_THROW(run_loop(cfg, true), CommError);
  faults().disarm();
  remove_steps(cfg.pattern, cfg.steps);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 60) << "kill took too long to cascade";
}

// ---------------------------------------------------------------------------
// Observability: stage spans and step counters appear
// ---------------------------------------------------------------------------

TEST(Pipeline, EmitsStageSpansAndStepCounter) {
  tess::obs::Tracer::instance().set_enabled(true);
  tess::obs::Tracer::instance().clear();
  tess::obs::metrics().reset();

  LoopConfig cfg;
  cfg.nranks = 2;
  cfg.steps = 3;
  cfg.particles = 80;
  cfg.pattern = "/tmp/tess_pipe_obs_%d.bin";
  run_loop(cfg, true);
  remove_steps(cfg.pattern, cfg.steps);

  const auto dump = tess::obs::Tracer::instance().drain();
  tess::obs::Tracer::instance().set_enabled(false);
  int tess_spans = 0, write_spans = 0;
  bool arg_tagged = false;
  for (const auto& lane : dump.lanes)
    for (const auto& span : lane.spans) {
      const std::string_view name(span.name);
      if (name == "pipeline.stage.tess") {
        ++tess_spans;
        if (span.arg == 2) arg_tagged = true;
      }
      if (name == "pipeline.stage.write") ++write_spans;
    }
  // One span per step per rank, tagged with the step index.
  EXPECT_EQ(tess_spans, cfg.steps * cfg.nranks);
  EXPECT_EQ(write_spans, cfg.steps * cfg.nranks);
  EXPECT_TRUE(arg_tagged) << "stage spans must carry the step index";

  const auto snap = tess::obs::metrics().snapshot();
  EXPECT_EQ(snap.value("pipeline.steps"), cfg.steps * cfg.nranks);
  EXPECT_NE(snap.find("pipeline.queue.tess.depth"), nullptr);
  EXPECT_NE(snap.find("pipeline.queue.write.depth"), nullptr);
}
