// Differential tests for the analytic planner (ROADMAP item 3): the
// no-replay critical-path plan must track the discrete-event trace replay
// the way the incremental FlowNet is tested against Mode::Reference — same
// inputs, independent implementations, bounded disagreement.
#include "dperf/analytic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dperf/summary.hpp"
#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace pdc::scenario {
namespace {

RunSpec smoke_run(int peers) {
  RunSpec run;
  run.peers = peers;
  run.grid_n = 66;
  run.iters = 24;
  run.rcheck = 4;
  run.bench_n = 34;
  run.bench_iters = 6;
  run.bench_rcheck = 3;
  return run;
}

RunRecord both_analytic(PlatformSpec platform, ir::OptLevel level,
                        const char* name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.platform = std::move(platform);
  spec.run = smoke_run(4);
  spec.run.level = level;
  spec.run.mode = Mode::BothAnalytic;
  return Runner{spec}.run();
}

// The ISSUE gate: analytic solve time within 10% relative error of replay on
// the three paper platforms (fig. 9/10/11 scenarios at smoke sizing).
TEST(Analytic, TracksReplayOnGrid5000) {
  const RunRecord rec = both_analytic(PlatformSpec::grid5000(), ir::OptLevel::O3,
                                      "analytic-grid5000");
  ASSERT_TRUE(rec.predicted.has_value());
  ASSERT_TRUE(rec.analytic.has_value());
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10)
      << "predicted " << rec.predicted->solve_seconds << " vs analytic "
      << rec.analytic->solve_seconds;
}

TEST(Analytic, TracksReplayOnLan) {
  const RunRecord rec =
      both_analytic(PlatformSpec::lan(), ir::OptLevel::O0, "analytic-lan");
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10)
      << "predicted " << rec.predicted->solve_seconds << " vs analytic "
      << rec.analytic->solve_seconds;
}

TEST(Analytic, TracksReplayOnXdsl) {
  const RunRecord rec =
      both_analytic(PlatformSpec::xdsl(), ir::OptLevel::O0, "analytic-xdsl");
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10)
      << "predicted " << rec.predicted->solve_seconds << " vs analytic "
      << rec.analytic->solve_seconds;
}

// Every protocol variant must plan without deadlocking and stay within the
// bound: the async scheme exercises the latest-value receive model, flat
// allocation the sequential submitter fan-out.
TEST(Analytic, TracksReplayAsyncScheme) {
  ScenarioSpec spec;
  spec.name = "analytic-async";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.scheme = p2psap::Scheme::Asynchronous;
  spec.run.mode = Mode::BothAnalytic;
  const RunRecord rec = Runner{spec}.run();
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10);
}

TEST(Analytic, TracksReplayFlatAllocation) {
  ScenarioSpec spec;
  spec.name = "analytic-flat";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.allocation = p2pdc::AllocationMode::Flat;
  spec.run.mode = Mode::BothAnalytic;
  const RunRecord rec = Runner{spec}.run();
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10);
}

// Mode::Analytic alone runs no replay at all: the record has an analytic
// phase, no predicted/reference phases, and no error metric.
TEST(Analytic, AnalyticOnlyModeSkipsReplay) {
  ScenarioSpec spec;
  spec.name = "analytic-only";
  spec.platform = PlatformSpec::grid5000();
  spec.run = smoke_run(4);
  spec.run.mode = Mode::Analytic;
  const RunRecord rec = Runner{spec}.run();
  EXPECT_FALSE(rec.reference.has_value());
  EXPECT_FALSE(rec.predicted.has_value());
  ASSERT_TRUE(rec.analytic.has_value());
  EXPECT_FALSE(rec.analytic_error.has_value());
  EXPECT_GT(rec.analytic->solve_seconds, 0);
  EXPECT_GT(rec.analytic->total_seconds, rec.analytic->solve_seconds);
  // Planner milestones read through the usual ComputationResult accessors.
  EXPECT_GT(rec.analytic->computation.collection_time(), 0);
  EXPECT_GT(rec.analytic->computation.allocation_time(), 0);
}

TEST(Analytic, RecordJsonRoundTrips) {
  const RunRecord rec = both_analytic(PlatformSpec::grid5000(), ir::OptLevel::O3,
                                      "analytic-json");
  const JsonValue doc = parse_json(rec.to_json());
  EXPECT_EQ(doc.at("run").at("mode").as_string(), "both-analytic");
  ASSERT_TRUE(doc.has("analytic"));
  EXPECT_NEAR(doc.at("analytic").at("solve_seconds").as_double(),
              rec.analytic->solve_seconds, 1e-12);
  EXPECT_NEAR(doc.at("analytic_error").as_double(), *rec.analytic_error, 1e-12);
  EXPECT_FALSE(doc.has("reference"));
}

// Specs that do not use the new modes must render byte-identically to what
// they rendered before the enum grew: canonical text is the campaign resume
// key and the serve memo key, so any drift would orphan existing records.
TEST(Analytic, PreAnalyticSpecRenderUnchanged) {
  ScenarioSpec spec;
  spec.name = "stability";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.mode = Mode::Both;
  const std::string text = render_scenario(spec);
  EXPECT_NE(text.find("mode both\n"), std::string::npos);
  EXPECT_EQ(text.find("analytic"), std::string::npos);
  // Round-trip through the parser preserves the mode.
  const ScenarioSpec back = parse_scenario(text, RunSpec{});
  EXPECT_EQ(back.run.mode, Mode::Both);
  EXPECT_EQ(render_scenario(back), text);
}

TEST(Analytic, NewModesParseAndRender) {
  for (const Mode m : {Mode::Analytic, Mode::BothAnalytic}) {
    ScenarioSpec spec;
    spec.name = "modes";
    spec.platform = PlatformSpec::lan();
    spec.run.mode = m;
    const std::string text = render_scenario(spec);
    const ScenarioSpec back = parse_scenario(text, RunSpec{});
    EXPECT_EQ(back.run.mode, m) << mode_name(m);
  }
}

// plan_on fails soft (ok = false, message) instead of throwing.
TEST(Analytic, PlannerFailsSoftOnMismatchedSummaries) {
  auto d = deploy(PlatformSpec::lan(), smoke_run(4));
  dperf::Trace a;
  a.rank = 0;
  a.nprocs = 2;
  a.events.push_back({dperf::TraceEvent::Kind::Allreduce});
  dperf::Trace b = a;
  b.rank = 1;
  b.events.clear();  // rank 1 never reaches the collective
  const std::vector<dperf::TraceSummary> summaries = {dperf::summarize_trace(a),
                                                      dperf::summarize_trace(b)};
  p2pdc::TaskSpec spec;
  spec.peers_needed = 2;
  const dperf::AnalyticReport rep =
      dperf::plan_on(*d->env, d->submitter, spec, summaries, d->workers);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.failure.find("collective"), std::string::npos) << rep.failure;
}

TEST(Analytic, PlannerFailsSoftOnTooFewWorkers) {
  auto d = deploy(PlatformSpec::lan(), smoke_run(2));
  std::vector<dperf::TraceSummary> summaries(4);
  for (int r = 0; r < 4; ++r) {
    summaries[static_cast<std::size_t>(r)].rank = r;
    summaries[static_cast<std::size_t>(r)].nprocs = 4;
  }
  p2pdc::TaskSpec spec;
  spec.peers_needed = 4;
  const dperf::AnalyticReport rep =
      dperf::plan_on(*d->env, d->submitter, spec, summaries, d->workers);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.failure.find("peers"), std::string::npos) << rep.failure;
}

// The summary layer on its own: RLE compression of extrapolated traces and
// the aggregate counters.
TEST(TraceSummary, CompressesRepeatedIterations) {
  dperf::Trace t;
  t.rank = 0;
  t.nprocs = 2;
  t.host_hz = 2e9;
  using K = dperf::TraceEvent::Kind;
  t.events.push_back({K::Compute, 500});
  for (int i = 0; i < 10; ++i) {
    dperf::TraceEvent mark{K::IterMark};
    mark.iter_id = i;
    t.events.push_back(mark);
    dperf::TraceEvent send{K::Send};
    send.peer = 1;
    send.bytes = 64;
    send.tag = 7;
    t.events.push_back(send);
    t.events.push_back({K::Compute, 1000});
  }
  const dperf::TraceSummary s = dperf::summarize_trace(t);
  EXPECT_EQ(s.iterations, 10u);
  ASSERT_EQ(s.blocks.size(), 1u);  // identical bodies collapse to one block
  EXPECT_EQ(s.blocks[0].repeats, 10u);
  EXPECT_EQ(s.pre.size(), 1u);
  EXPECT_EQ(s.op_count(), 1u + 10u * 2u);
  EXPECT_EQ(s.total_compute_ns, 500u + 10u * 1000u);
  EXPECT_EQ(s.span_ns, 1000u);
  ASSERT_EQ(s.send_to.size(), 1u);  // only the peer actually sent to
  EXPECT_EQ(s.send_to[0].peer, 1);
  EXPECT_DOUBLE_EQ(s.send_to[0].bytes, 640.0);
  EXPECT_EQ(s.send_to[0].count, 10u);
}

// Send volumes list only the peers a rank talks to, in ascending rank
// order, however large the computation: a full-population trace set must
// not grow with ranks squared.
TEST(TraceSummary, SendVolumesListOnlyPeersSentTo) {
  dperf::Trace t;
  t.rank = 5;
  t.nprocs = 10000;
  using K = dperf::TraceEvent::Kind;
  for (int peer : {7, 2, 7, -1, 10000}) {
    dperf::TraceEvent send{K::Send};
    send.peer = peer;
    send.bytes = 8;
    t.events.push_back(send);
  }
  const dperf::TraceSummary s = dperf::summarize_trace(t);
  ASSERT_EQ(s.send_to.size(), 2u);
  EXPECT_EQ(s.send_to[0].peer, 2);
  EXPECT_EQ(s.send_to[0].count, 1u);
  EXPECT_EQ(s.send_to[1].peer, 7);
  EXPECT_DOUBLE_EQ(s.send_to[1].bytes, 16.0);
  EXPECT_EQ(s.send_to[1].count, 2u);
}

TEST(TraceSummary, MarkerFreeTraceIsPreOnly) {
  dperf::Trace t;
  t.events.push_back({dperf::TraceEvent::Kind::Compute, 42});
  const dperf::TraceSummary s = dperf::summarize_trace(t);
  EXPECT_EQ(s.iterations, 0u);
  EXPECT_TRUE(s.blocks.empty());
  EXPECT_EQ(s.pre.size(), 1u);
  EXPECT_EQ(s.op_count(), 1u);
}

}  // namespace
}  // namespace pdc::scenario
