// scenario::Runner: deployment across every platform kind, the paper §IV
// invariant (mode=both on Bordeplage: prediction ~= reference), and the
// RunRecord JSON contract.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "net/platfile.hpp"
#include "support/json.hpp"

namespace pdc::scenario {
namespace {

/// Small-but-real sizing: a few seconds of simulated work, < 1 s of wall
/// clock, identical pipeline to the paper runs.
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

TEST(ScenarioRunner, DeploysEveryPlatformKind) {
  const RunSpec run = smoke_run(4);
  const PlatformSpec kinds[] = {PlatformSpec::grid5000(), PlatformSpec::lan(),
                                PlatformSpec::xdsl(), PlatformSpec::federation(),
                                PlatformSpec::wan()};
  for (const auto& platform : kinds) {
    auto d = deploy(platform, run);
    ASSERT_NE(d->env, nullptr) << platform.label;
    EXPECT_GE(d->platform.host_count(), run.peers + 3) << platform.label;
    EXPECT_EQ(static_cast<int>(d->workers.size()), run.peers) << platform.label;
    EXPECT_GE(d->submitter, 0) << platform.label;
  }
}

TEST(ScenarioRunner, StarPlatformAutoSizesToRun) {
  const net::Platform p = build_platform(PlatformSpec::grid5000(), smoke_run(6));
  EXPECT_EQ(p.host_count(), 6 + 3);
}

TEST(ScenarioRunner, FederationSpreadsWorkersAcrossSites) {
  PlatformSpec fed = PlatformSpec::federation();
  auto& spec = std::get<net::FederationSpec>(fed.spec);
  spec.clusters = 3;
  spec.hosts_per_cluster = 4;
  auto d = deploy(fed, smoke_run(6));
  // Host indices are site-major (site = idx / hosts_per_cluster): the
  // round-robin placement must touch every site.
  std::set<int> sites;
  for (net::NodeIdx w : d->workers) {
    for (int i = 0; i < d->platform.host_count(); ++i)
      if (d->platform.host(i) == w) sites.insert(i / 4);
  }
  EXPECT_EQ(sites.size(), 3u);
}

// Regression: the admin hosts (global indices 0..2) spill across sites when
// sites are small; worker placement must not re-boot them.
TEST(ScenarioRunner, FederationSmallSitesDontDoubleBootAdmins) {
  PlatformSpec fed = PlatformSpec::federation();
  auto& spec = std::get<net::FederationSpec>(fed.spec);
  spec.clusters = 3;
  spec.hosts_per_cluster = 2;  // admins occupy all of site 0 plus one site-1 host
  auto d = deploy(fed, smoke_run(2));
  EXPECT_EQ(d->workers.size(), 2u);
  std::set<net::NodeIdx> distinct(d->workers.begin(), d->workers.end());
  distinct.insert(d->submitter);
  EXPECT_EQ(distinct.size(), 3u);

  spec.hosts_per_cluster = 0;  // auto-size: ceil((2+3)/3) = 2 per site
  auto d2 = deploy(fed, smoke_run(2));
  EXPECT_EQ(d2->workers.size(), 2u);
}

TEST(ScenarioRunner, WanIsSeedDeterministic) {
  const RunSpec run = smoke_run(4);
  const net::Platform a = build_platform(PlatformSpec::wan(), run);
  const net::Platform b = build_platform(PlatformSpec::wan(), run);
  EXPECT_EQ(net::render_platform(a), net::render_platform(b));
  RunSpec other = run;
  other.seed = 7;
  const net::Platform c = build_platform(PlatformSpec::wan(), other);
  EXPECT_NE(net::render_platform(a), net::render_platform(c));
}

TEST(ScenarioRunner, InlinePlatformDeploys) {
  std::string plat;
  for (int i = 0; i < 5; ++i) {
    plat += "host h" + std::to_string(i) + " speed 3GHz ip 10.0.0." +
            std::to_string(i + 1) + "\n";
    plat += "link l" + std::to_string(i) + " bw 1Gbps lat 100us\n";
  }
  plat += "router sw\n";
  for (int i = 0; i < 5; ++i)
    plat += "edge h" + std::to_string(i) + " sw l" + std::to_string(i) + "\n";
  auto d = deploy(PlatformSpec::from_text(plat), smoke_run(2));
  EXPECT_EQ(d->platform.host_count(), 5);
  EXPECT_EQ(d->workers.size(), 2u);
}

TEST(ScenarioRunner, MissingPlatformFileThrows) {
  EXPECT_THROW(deploy(PlatformSpec::from_file("/nonexistent/x.plat"), smoke_run(2)),
               std::runtime_error);
}

TEST(ScenarioRunner, TooSmallPlatformThrows) {
  PlatformSpec star = PlatformSpec::grid5000();
  std::get<net::StarSpec>(star.spec).hosts = 4;  // needs peers+3 = 5
  EXPECT_THROW(deploy(star, smoke_run(2)), std::runtime_error);
}

// More workers than the xDSL grid has free hosts used to spin the Daisy
// placement forever; it must fail like every other too-small platform. (A
// few ranks keep the trace phase before the deployment cheap.)
TEST(ScenarioRunner, XdslPlatformTooSmallFailsPromptly) {
  RunSpec run;
  run.peers = 1500;
  run.ranks = 4;
  run.mode = Mode::Predict;
  run.grid_n = 130;
  run.iters = 40;
  const auto t0 = std::chrono::steady_clock::now();
  const RunRecord rec = Runner{{"xdsl-too-small", PlatformSpec::xdsl(), run}}.try_run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.error.rfind("[predicted] platform has 1024 hosts, run needs ", 0), 0u)
      << rec.error;
  EXPECT_LT(seconds, 10.0);
}

// Paper §IV invariant (Fig. 10): on the identical platform, the dPerf
// prediction must land on the reference execution. mode=both runs both
// phases and reports the relative error in one record.
TEST(ScenarioRunner, BordeplagePredictionMatchesReference) {
  RunSpec run = smoke_run(4);
  run.level = ir::OptLevel::O2;
  run.mode = Mode::Both;
  const Runner runner{{"smoke-both", PlatformSpec::grid5000(), run}};
  const RunRecord rec = runner.run();
  ASSERT_TRUE(rec.reference.has_value());
  ASSERT_TRUE(rec.predicted.has_value());
  EXPECT_GT(rec.reference->solve_seconds, 0);
  EXPECT_GT(rec.predicted->solve_seconds, 0);
  EXPECT_EQ(rec.reference->computation.peers, 4);
  ASSERT_TRUE(rec.prediction_error.has_value());
  EXPECT_LT(*rec.prediction_error, 0.05)
      << "reference " << rec.reference->solve_seconds << " vs predicted "
      << rec.predicted->solve_seconds;
}

TEST(ScenarioRunner, ModeSelectsPhases) {
  RunSpec run = smoke_run(2);
  run.mode = Mode::Reference;
  const RunRecord ref_only = Runner{{"r", PlatformSpec::grid5000(), run}}.run();
  EXPECT_TRUE(ref_only.reference.has_value());
  EXPECT_FALSE(ref_only.predicted.has_value());
  EXPECT_FALSE(ref_only.prediction_error.has_value());
  run.mode = Mode::Predict;
  const RunRecord pred_only = Runner{{"p", PlatformSpec::grid5000(), run}}.run();
  EXPECT_FALSE(pred_only.reference.has_value());
  EXPECT_TRUE(pred_only.predicted.has_value());
}

TEST(ScenarioRunner, RunRecordJsonParsesBack) {
  RunSpec run = smoke_run(2);
  run.mode = Mode::Both;
  const RunRecord rec = Runner{{"json-smoke", PlatformSpec::lan(), run}}.run();
  const std::string json = rec.to_json();
  const JsonValue doc = parse_json(json);  // throws on malformed output
  EXPECT_EQ(doc.at("scenario").as_string(), "json-smoke");
  EXPECT_EQ(doc.at("platform").at("kind").as_string(), "star");
  EXPECT_EQ(doc.at("platform").at("label").as_string(), "lan");
  EXPECT_DOUBLE_EQ(doc.at("run").at("peers").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("reference").at("solve_seconds").as_double(),
                   rec.reference->solve_seconds);
  EXPECT_DOUBLE_EQ(doc.at("predicted").at("solve_seconds").as_double(),
                   rec.predicted->solve_seconds);
  EXPECT_TRUE(doc.has("prediction_error"));
  EXPECT_GT(doc.at("reference").at("flownet").at("flows_completed").as_double(), 0);
}

TEST(ScenarioRunner, FlatAllocationRunsThroughRunner) {
  RunSpec run = smoke_run(4);
  run.allocation = p2pdc::AllocationMode::Flat;
  run.mode = Mode::Reference;
  const RunRecord rec = Runner{{"flat", PlatformSpec::grid5000(), run}}.run();
  ASSERT_TRUE(rec.reference.has_value());
  // Flat allocation: no coordinator groups, every peer served directly.
  EXPECT_GT(rec.reference->solve_seconds, 0);
}

}  // namespace
}  // namespace pdc::scenario
