// Tests for the live telemetry streamer (obs/stream.hpp): crash-consistent
// append/decode round trips, torn-tail tolerance at every byte offset,
// absolute records that each decode alone, histogram quantile accuracy,
// EWMA drift detection, env-var arming, the StepStats stream record, and a
// 2-rank pipelined integration run producing one record per step per rank.
//
// Tests that install the process-global streamer rely on each TEST running
// in its own process (gtest_discover_tests registers them individually);
// they still shutdown_stream() on exit to stay direct-run friendly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/insitu_stats.hpp"
#include "comm/comm.hpp"
#include "core/pipeline.hpp"
#include "diy/exchange.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace obs = tess::obs;
namespace diy = tess::diy;

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::core::InSituPipeline;
using tess::core::PipelineOptions;
using tess::diy::Decomposition;
using tess::diy::Particle;
using tess::geom::Vec3;
using tess::util::Rng;

namespace {

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem + ".stream.jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(ObsStream, WriterEmitsMetaThenDecodableSnapRecords) {
  const std::string path = temp_path("tess_stream_basic");
  std::remove(path.c_str());
  {
    obs::StreamWriter w({path, 1000});
    ASSERT_TRUE(w.ok());
    obs::StreamSample s;
    s.step = 1;
    s.rank = 0;
    s.values = {{"stage.step_s", 0.25}, {"stage.write_s", 0.05}};
    w.emit(s);
    s.step = 2;
    s.values = {{"stage.step_s", 0.30}, {"stage.write_s", 0.06}};
    w.emit(s);
  }
  const auto file = obs::read_stream_file(path);
  EXPECT_EQ(file.dropped, 0u);
  ASSERT_EQ(file.records.size(), 3u);
  EXPECT_EQ(file.records[0].kind, "meta");
  EXPECT_EQ(file.records[1].kind, "snap");
  EXPECT_EQ(file.records[1].step, 1);
  EXPECT_EQ(file.records[1].rank, 0);
  EXPECT_DOUBLE_EQ(file.records[1].values.at("stage.step_s"), 0.25);
  EXPECT_EQ(file.records[2].step, 2);
  EXPECT_DOUBLE_EQ(file.records[2].values.at("stage.write_s"), 0.06);
  EXPECT_LT(file.records[1].seq, file.records[2].seq);
  // t_ms is monotone within a writer.
  EXPECT_LE(file.records[1].t_ms, file.records[2].t_ms);
}

TEST(ObsStream, TornTailToleratedAtEveryByteOffset) {
  const std::string path = temp_path("tess_stream_torn");
  std::remove(path.c_str());
  {
    obs::StreamWriter w({path, 1000});
    obs::StreamSample s;
    s.rank = 0;
    for (int i = 1; i <= 3; ++i) {
      s.step = i;
      s.values = {{"stage.step_s", 0.1 * i}};
      w.emit(s);
    }
  }
  const std::string full = read_file(path);
  const auto whole = obs::read_stream_file(path);
  ASSERT_EQ(whole.records.size(), 4u);  // meta + 3 snaps
  EXPECT_EQ(whole.dropped, 0u);

  // Truncate inside the LAST record, at every byte offset: every earlier
  // (complete) record must survive, and nothing malformed may leak out.
  const std::size_t last_start = full.rfind('\n', full.size() - 2) + 1;
  const std::string cut_path = temp_path("tess_stream_torn_cut");
  for (std::size_t cut = last_start; cut < full.size(); ++cut) {
    write_file(cut_path, full.substr(0, cut));
    const auto got = obs::read_stream_file(cut_path);
    ASSERT_EQ(got.records.size(), 3u) << "cut at byte " << cut;
    EXPECT_EQ(got.dropped, cut > last_start ? 1u : 0u) << "cut " << cut;
    EXPECT_EQ(got.records[2].step, 2);
    EXPECT_DOUBLE_EQ(got.records[2].values.at("stage.step_s"), 0.2);
  }
  std::remove(cut_path.c_str());
}

namespace {

/// Stream numbers travel as "%.9g": a decoded value matches to 9 digits.
void expect_9_digits(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-8 * std::max(1.0, std::abs(want))) << what;
}

/// A global (rank -1) snap record holds exactly the registry's values:
/// every gauge, every non-zero counter, every non-empty histogram.
void expect_matches_registry(const obs::StreamRecord& rec,
                             const obs::MetricsSnapshot& snap) {
  std::size_t counters = 0, gauges = 0, hists = 0;
  for (const auto& s : snap.samples) {
    if (s.kind == 'g') {
      ++gauges;
      ASSERT_EQ(rec.gauges.count(s.name), 1u) << s.name;
      expect_9_digits(rec.gauges.at(s.name), s.value, s.name);
    } else if (s.value == 0.0) {
      continue;
    } else if (s.kind == 'c') {
      ++counters;
      ASSERT_EQ(rec.counters.count(s.name), 1u) << s.name;
      expect_9_digits(rec.counters.at(s.name), s.value, s.name);
    } else {
      ++hists;
      ASSERT_EQ(rec.hists.count(s.name), 1u) << s.name;
      const auto& h = rec.hists.at(s.name);
      expect_9_digits(h.count, s.value, s.name + " n");
      expect_9_digits(h.sum, s.sum, s.name + " sum");
      expect_9_digits(h.p50, obs::histogram_quantile(s.bins, 0.50), "p50");
      expect_9_digits(h.p90, obs::histogram_quantile(s.bins, 0.90), "p90");
      expect_9_digits(h.p99, obs::histogram_quantile(s.bins, 0.99), "p99");
      ASSERT_EQ(h.bins.size(), s.bins.size()) << s.name;
      for (const auto& [floor_v, n] : s.bins) {
        ASSERT_EQ(h.bins.count(floor_v), 1u) << s.name << " bin " << floor_v;
        expect_9_digits(h.bins.at(floor_v), static_cast<double>(n), s.name);
      }
    }
  }
  EXPECT_EQ(rec.counters.size(), counters);
  EXPECT_EQ(rec.gauges.size(), gauges);
  EXPECT_EQ(rec.hists.size(), hists);
}

void expect_same_metrics(const obs::StreamRecord& a,
                         const obs::StreamRecord& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.hists.size(), b.hists.size());
  for (const auto& [name, h] : a.hists) {
    ASSERT_EQ(b.hists.count(name), 1u) << name;
    const auto& o = b.hists.at(name);
    EXPECT_EQ(h.count, o.count) << name;
    EXPECT_EQ(h.sum, o.sum) << name;
    EXPECT_EQ(h.p50, o.p50) << name;
    EXPECT_EQ(h.p90, o.p90) << name;
    EXPECT_EQ(h.p99, o.p99) << name;
    EXPECT_EQ(h.bins, o.bins) << name;
  }
}

}  // namespace

TEST(ObsStream, EveryRecordIsAbsoluteAndStandalone) {
  const std::string path = temp_path("tess_stream_absolute");
  std::remove(path.c_str());
  auto& ctr = obs::metrics().counter("stream.test.ctr");
  auto& gauge = obs::metrics().gauge("stream.test.gauge");
  auto& hist = obs::metrics().histogram("stream.test.hist");
  ctr.reset();
  hist.reset();
  std::vector<obs::MetricsSnapshot> at_emission;
  {
    obs::StreamWriter w({path, 1000});
    obs::StreamSample s;  // rank -1: global totals
    s.with_hists = true;
    const auto emit = [&] {
      at_emission.push_back(obs::metrics().snapshot());
      w.emit(s);
    };
    ctr.add(5);
    gauge.set(2.5);
    for (int i = 1; i <= 100; ++i) hist.add(static_cast<std::uint64_t>(i));
    emit();
    ctr.add(7);
    gauge.set(4.5);
    for (int i = 1; i <= 100; ++i) hist.add(static_cast<std::uint64_t>(i));
    emit();
    emit();  // nothing changed: the record still carries every value
    ctr.reset();
    emit();  // a counter back at 0 leaves the record
  }

  const auto file = obs::read_stream_file(path);
  EXPECT_EQ(file.dropped, 0u);
  ASSERT_EQ(file.records.size(), 5u);  // meta + 4 snaps
  std::istringstream lines(read_file(path));
  std::vector<std::string> all;
  for (std::string line; std::getline(lines, line);) all.push_back(line);
  ASSERT_EQ(all.size(), file.records.size());
  for (std::size_t i = 1; i < all.size(); ++i) {
    SCOPED_TRACE("snap record " + std::to_string(i));
    obs::StreamRecord alone;
    ASSERT_TRUE(obs::parse_stream_record(all[i], alone));
    ASSERT_EQ(alone.kind, "snap");
    expect_same_metrics(alone, file.records[i]);
    expect_matches_registry(alone, at_emission[i - 1]);
    expect_matches_registry(file.records[i], at_emission[i - 1]);
  }
  EXPECT_DOUBLE_EQ(file.records[2].counters.at("stream.test.ctr"), 12.0);
  EXPECT_DOUBLE_EQ(file.records[3].counters.at("stream.test.ctr"), 12.0);
  EXPECT_DOUBLE_EQ(file.records[3].gauges.at("stream.test.gauge"), 4.5);
  EXPECT_DOUBLE_EQ(file.records[3].hists.at("stream.test.hist").count, 200.0);
  EXPECT_EQ(file.records[4].counters.count("stream.test.ctr"), 0u);

  // A schema-1 line (delta encoded) must never be read as absolute values.
  std::string v1 = all[2];
  const std::size_t at = v1.find("\"v\":2");
  ASSERT_NE(at, std::string::npos);
  v1.replace(at, 5, "\"v\":1");
  obs::StreamRecord rejected;
  EXPECT_FALSE(obs::parse_stream_record(v1, rejected));
  const std::string mixed_path = temp_path("tess_stream_absolute_v1");
  write_file(mixed_path, v1 + "\n" + all[2] + "\n");
  const auto mixed = obs::read_stream_file(mixed_path);
  EXPECT_EQ(mixed.dropped, 1u);
  ASSERT_EQ(mixed.records.size(), 1u);
  expect_same_metrics(mixed.records[0], file.records[2]);
  std::remove(mixed_path.c_str());
  ctr.reset();
  hist.reset();
}

TEST(ObsStream, QuantilesInterpolateCloseToExactPercentiles) {
  obs::ExpHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  // Uniform 1..1000: interpolation inside power-of-two buckets lands
  // within a few percent of the exact percentile.
  EXPECT_NEAR(p50, 500.0, 0.10 * 500.0);
  EXPECT_NEAR(p90, 900.0, 0.10 * 900.0);
  EXPECT_NEAR(p99, 990.0, 0.10 * 990.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Hard bucket bound: never off by more than the 2x bucket width.
  EXPECT_GE(p99, 990.0 / 2.0);
  EXPECT_LE(p99, 990.0 * 2.0);

  obs::ExpHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  obs::ExpHistogram zeros;
  zeros.add(0);
  zeros.add(0);
  EXPECT_DOUBLE_EQ(zeros.quantile(0.5), 0.0);
}

TEST(ObsStream, DriftDetectorFlagsSustainedRegressionOnly) {
  obs::DriftOptions opt;  // threshold 1.75, sustain 3, warmup 3
  // True positive: steady baseline, then a sustained 3x regression.
  std::vector<double> bad{1.0, 1.0, 1.1, 0.9, 1.0, 1.0, 3.0, 3.1, 3.2};
  const auto hit = obs::detect_drift(bad, opt);
  EXPECT_TRUE(hit.drifted);
  EXPECT_EQ(hit.first_index, 6u);
  EXPECT_GT(hit.ratio(), opt.threshold);

  // A single spike (< sustain) must not trip.
  std::vector<double> spike{1.0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0};
  EXPECT_FALSE(obs::detect_drift(spike, opt).drifted);

  // Noisy-but-flat stays quiet.
  std::vector<double> noisy{1.0, 1.3, 0.8, 1.2, 0.9, 1.4, 1.1, 0.95, 1.25};
  EXPECT_FALSE(obs::detect_drift(noisy, opt).drifted);

  // Warmup samples never flag, even when huge.
  std::vector<double> early{9.0, 9.0, 9.0};
  EXPECT_FALSE(obs::detect_drift(early, opt).drifted);
}

TEST(ObsStream, CheckStreamFlagsStepWallTimeDrift) {
  // Synthetic per-step records for one rank: ~100 ms steps, then a
  // sustained 4x slowdown — check_stream must flag the wall-time series.
  auto make = [](int step, double t_ms, double step_s) {
    obs::StreamRecord r;
    r.kind = "snap";
    r.step = step;
    r.rank = 0;
    r.t_ms = t_ms;
    r.values["stage.step_s"] = step_s;
    return r;
  };
  obs::StreamFile healthy, drifting;
  double t = 0.0;
  for (int s = 1; s <= 12; ++s) {
    t += 100.0;
    healthy.records.push_back(make(s, t, 0.1));
  }
  t = 0.0;
  for (int s = 1; s <= 12; ++s) {
    t += s <= 8 ? 100.0 : 400.0;
    drifting.records.push_back(make(s, t, s <= 8 ? 0.1 : 0.4));
  }
  const auto ok = obs::check_stream(healthy, {});
  EXPECT_TRUE(ok.ok) << (ok.findings.empty() ? "" : ok.findings[0]);
  EXPECT_EQ(ok.steps_seen, 12);
  EXPECT_EQ(ok.rank_records.at(0), 12u);
  EXPECT_FALSE(ok.quantiles_seen);

  const auto bad = obs::check_stream(drifting, {});
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.findings.empty());
  EXPECT_NE(bad.findings[0].find("rank 0"), std::string::npos);
}

TEST(ObsStream, CheckStreamCountsRanksFromStepRecords) {
  // Two ranks send step-scoped records; global records carry a stall
  // series that drifts from 10% to 50% of two ranks' wall time. A third
  // rank that only sends mid-step heartbeats (no "stage.step_s", like the
  // tessellator's per-pass records) must change neither the rank count
  // nor the stall fraction that the drift finding reports.
  obs::StreamFile file;
  double stall_s = 0.0;
  for (int s = 1; s <= 10; ++s) {
    const double t = 100.0 * s;
    for (int rank = 0; rank < 2; ++rank) {
      obs::StreamRecord r;
      r.kind = "snap";
      r.step = s;
      r.rank = rank;
      r.t_ms = t;
      r.values["stage.step_s"] = 0.1;
      file.records.push_back(r);
    }
    stall_s += (s <= 5 ? 0.1 : 0.5) * 0.1 * 2.0;
    obs::StreamRecord g;
    g.kind = "snap";
    g.step = s;
    g.t_ms = t;
    g.spans["pipeline.stall.write"] = {1.0, stall_s};
    file.records.push_back(g);
  }
  obs::StreamFile with_heartbeats = file;
  for (int s = 1; s <= 10; ++s) {
    obs::StreamRecord h;
    h.kind = "snap";
    h.step = s;
    h.rank = 2;
    h.t_ms = 100.0 * s + 50.0;
    h.counters["tess.pass.cells_built"] = 10.0 * s;
    with_heartbeats.records.push_back(h);
  }

  const auto base = obs::check_stream(file, {});
  const auto report = obs::check_stream(with_heartbeats, {});
  EXPECT_EQ(base.rank_records.size(), 2u);
  EXPECT_EQ(report.rank_records.size(), 2u);
  EXPECT_EQ(report.rank_records.count(2), 0u);
  ASSERT_EQ(base.findings.size(), 1u);
  EXPECT_NE(base.findings[0].find("stall fraction drifted to 0.5 "),
            std::string::npos)
      << base.findings[0];
  EXPECT_EQ(report.findings, base.findings);
}

TEST(ObsStream, FinalRecordParsesAfterNormalRecords) {
  const std::string path = temp_path("tess_stream_final");
  std::remove(path.c_str());
  {
    obs::StreamWriter w({path, 1000});
    obs::StreamSample s;
    s.rank = 0;
    s.values = {{"stage.step_s", 0.1}};
    w.emit(s);
    w.emit_final("watchdog stall: rank 1 \"quoted\"\n");
  }
  const auto file = obs::read_stream_file(path);
  ASSERT_EQ(file.records.size(), 3u);
  EXPECT_EQ(file.records.back().kind, "final");
  // t_ms is ms since the process trace epoch: may be 0 this early in the
  // process, but never behind the records before it.
  EXPECT_GE(file.records.back().t_ms, file.records[1].t_ms);
  // The sanitized reason survives as raw text (quotes/newline -> spaces).
  EXPECT_NE(read_file(path).find("watchdog stall: rank 1"),
            std::string::npos);
}

TEST(ObsStream, EnvArmingInstallsAndDisablesGlobalStreamer) {
  const std::string path = temp_path("tess_stream_env");
  std::remove(path.c_str());
  ::unsetenv("TESS_OBS_STREAM");
  ::unsetenv("TESS_OBS_STREAM_MS");
  EXPECT_FALSE(obs::configure_stream_from_env());

  ::setenv("TESS_OBS_STREAM", "0", 1);
  EXPECT_FALSE(obs::configure_stream_from_env());

  ::setenv("TESS_OBS_STREAM", path.c_str(), 1);
  ::setenv("TESS_OBS_STREAM_MS", "50", 1);
  ASSERT_TRUE(obs::configure_stream_from_env());
  ASSERT_NE(obs::stream(), nullptr);
  EXPECT_EQ(obs::stream()->config().path, path);
  EXPECT_EQ(obs::stream()->config().interval_ms, 50u);
  // First interval gate always opens; immediately after, it is shut.
  EXPECT_TRUE(obs::stream()->interval_elapsed());
  EXPECT_FALSE(obs::stream()->interval_elapsed());
  obs::shutdown_stream();
  EXPECT_EQ(obs::stream(), nullptr);

  // TESS_OBS_STREAM_MS alone arms a derived path next to the export
  // prefix.
  ::unsetenv("TESS_OBS_STREAM");
  const std::string prefix = testing::TempDir() + "tess_stream_env_prefix";
  ::setenv("TESS_OBS_EXPORT", prefix.c_str(), 1);
  ASSERT_TRUE(obs::configure_stream_from_env());
  EXPECT_EQ(obs::stream()->config().path, prefix + ".stream.jsonl");
  obs::shutdown_stream();
  ::unsetenv("TESS_OBS_STREAM_MS");
  ::unsetenv("TESS_OBS_EXPORT");
}

TEST(ObsStream, StepStatsRecordRidesStream) {
  const std::string stream_path = temp_path("tess_stream_stats");
  std::remove(stream_path.c_str());
  obs::configure_stream({stream_path, 1000});
  auto hook = tess::analysis::make_stats_streamer(0.0, 8.0, 16);
  // Numbers that need more than six significant digits (a t_ms after
  // about 1000 s looks like hist.hi here).
  auto wide = tess::analysis::make_stats_streamer(0.0, 1234567.5, 16);
  Runtime::run(2, [&](Comm& c) {
    std::vector<double> volumes =
        c.rank() == 0 ? std::vector<double>{1.0, 2.0, 3.0}
                      : std::vector<double>{4.0, 5.0};
    hook(c, 1, volumes);
    hook(c, 2, volumes);
    wide(c, 3, c.rank() == 0 ? std::vector<double>{1.0000012}
                             : std::vector<double>{1.0000034});
  });
  obs::shutdown_stream();

  // The per-step payload arrives as {"k":"step"} records, flattened.
  const auto file = obs::read_stream_file(stream_path);
  std::vector<const obs::StreamRecord*> steps;
  for (const auto& r : file.records)
    if (r.kind == "step") steps.push_back(&r);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0]->step, 1);
  EXPECT_EQ(steps[1]->step, 2);
  EXPECT_DOUBLE_EQ(steps[0]->values.at("cells"), 5.0);
  EXPECT_DOUBLE_EQ(steps[0]->values.at("volume.mean"), 3.0);
  EXPECT_DOUBLE_EQ(steps[0]->values.at("hist.lo"), 0.0);
  EXPECT_GE(steps[1]->t_ms, steps[0]->t_ms);
  EXPECT_EQ(steps[2]->values.at("hist.hi"), 1234567.5);
  EXPECT_NEAR(steps[2]->values.at("volume.mean"), 1.0000023, 1e-12);
  EXPECT_NEAR(steps[2]->values.at("volume.min"), 1.0000012, 1e-12);
}

TEST(ObsStream, PipelinedTwoRanksEmitOneRecordPerStepPerRank) {
  const std::string path = temp_path("tess_stream_pipeline");
  std::remove(path.c_str());
  obs::configure_stream({path, /*interval_ms=*/0});

  constexpr double kDomain = 10.0;
  constexpr int kSteps = 3;
  Runtime::run(2, [&](Comm& c) {
    Decomposition d({0, 0, 0}, {kDomain, kDomain, kDomain},
                    Decomposition::factor(2), true);
    PipelineOptions opt;
    opt.tess.ghost = 3.0;
    opt.output_pattern = testing::TempDir() + "tess_stream_pipe_%d.bin";
    InSituPipeline pipe(c, d, opt);
    auto pos = [](Particle& p) -> Vec3& { return p.pos; };
    for (int s = 1; s <= kSteps; ++s) {
      Rng rng(7700 + static_cast<std::uint64_t>(s));
      std::vector<Particle> ps;
      if (c.rank() == 0)
        for (int i = 0; i < 200; ++i)
          ps.push_back({{rng.uniform(0, kDomain), rng.uniform(0, kDomain),
                         rng.uniform(0, kDomain)},
                        i});
      pipe.submit(s, diy::migrate_items(c, d, std::move(ps), pos));
    }
    (void)pipe.finish();
  });
  obs::shutdown_stream();

  const auto file = obs::read_stream_file(path);
  EXPECT_EQ(file.dropped, 0u);
  // Exactly one per-rank record per (step, rank), plus one reduced global
  // record per step carrying histograms with quantiles.
  std::map<std::pair<int, int>, int> per_step_rank;
  int global_steps = 0;
  bool quantiles = false;
  for (const auto& r : file.records) {
    if (r.kind != "snap" || r.step < 0) continue;
    if (r.rank >= 0 && r.values.count("stage.step_s") != 0)
      ++per_step_rank[{r.step, r.rank}];
    if (r.rank < 0) {
      ++global_steps;
      for (const auto& [name, h] : r.hists)
        if (h.count > 0 && h.p99 > 0.0) quantiles = true;
    }
  }
  EXPECT_EQ(per_step_rank.size(), static_cast<std::size_t>(kSteps * 2));
  for (const auto& [key, n] : per_step_rank)
    EXPECT_EQ(n, 1) << "step " << key.first << " rank " << key.second;
  EXPECT_EQ(global_steps, kSteps);

  const auto report = obs::check_stream(file, {});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.steps_seen, kSteps);
  EXPECT_EQ(report.rank_records.size(), 2u);
#if TESS_OBS_ENABLED
  // With metrics compiled in, the comm layer's message-size histogram
  // reaches the reduced global records, quantiles attached.
  EXPECT_TRUE(quantiles) << "no histogram quantiles on global records";
  EXPECT_TRUE(report.quantiles_seen);
#else
  (void)quantiles;
#endif
}
