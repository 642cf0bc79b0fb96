// Campaign executor: aggregation, persistence + resume, structured errors
// for bad grid points, and report serialization.
#include "campaign/executor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace pdc::campaign {
namespace {

namespace fs = std::filesystem;

/// Tiny, fast grid: 1 point x 2 repetitions on the LAN model (~10 ms/run).
CampaignSpec tiny_campaign() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.base.name = "tiny";
  spec.base.platform = scenario::PlatformSpec::lan();
  spec.base.run.mode = scenario::Mode::Reference;
  spec.base.run.peers = 2;
  spec.base.run.grid_n = 34;
  spec.base.run.iters = 6;
  spec.base.run.bench_n = 18;
  spec.base.run.bench_iters = 3;
  spec.base.run.bench_rcheck = 2;
  spec.repetitions = 2;
  return spec;
}

/// Fresh scratch directory under the test's working dir.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const char* name) : path(fs::path("campaign_test_out") / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

TEST(CampaignExecutor, AggregatesRepetitionsPerPoint) {
  Executor executor{tiny_campaign()};
  const CampaignReport report = executor.execute();
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(report.errors, 0u);
  ASSERT_EQ(report.points.size(), 1u);
  const PointReport& p = report.points[0];
  EXPECT_EQ(p.repetitions, 2);
  EXPECT_EQ(p.errors, 0);
  ASSERT_TRUE(p.metrics.count("reference_solve_seconds"));
  const Summary& s = p.metrics.at("reference_solve_seconds");
  EXPECT_EQ(s.n, 2u);
  EXPECT_GT(s.mean, 0.0);
  // The simulator is deterministic: identical repetitions, zero spread.
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, s.max);
  EXPECT_EQ(s.min, s.mean);
}

TEST(CampaignExecutor, PersistsAndResumes) {
  ScratchDir dir{"resume"};
  ExecutorOptions opts;
  opts.out_dir = dir.path.string();

  Executor first{tiny_campaign(), opts};
  const CampaignReport r1 = first.execute();
  EXPECT_EQ(r1.executed, 2u);
  EXPECT_EQ(r1.skipped, 0u);
  for (const CampaignRun& run : first.runs())
    EXPECT_TRUE(fs::exists(dir.path / "runs" / (run.key + ".json"))) << run.key;
  EXPECT_TRUE(fs::exists(dir.path / "report.json"));
  EXPECT_TRUE(fs::exists(dir.path / "report.csv"));

  // Restart: every completed record is loaded, nothing re-executes, and the
  // aggregate is identical.
  Executor second{tiny_campaign(), opts};
  const CampaignReport r2 = second.execute();
  EXPECT_EQ(r2.executed, 0u);
  EXPECT_EQ(r2.skipped, 2u);
  EXPECT_EQ(r2.errors, 0u);
  ASSERT_EQ(r2.points.size(), 1u);
  EXPECT_EQ(r2.points[0].metrics.at("reference_solve_seconds").mean,
            r1.points[0].metrics.at("reference_solve_seconds").mean);
  for (const Outcome& out : second.outcomes()) EXPECT_TRUE(out.skipped);

  // A record with an error (or a truncated file) is not trusted on resume.
  const fs::path victim = dir.path / "runs" / (second.runs()[0].key + ".json");
  std::ofstream(victim, std::ios::trunc) << "{ \"scenario\": ";
  Executor third{tiny_campaign(), opts};
  const CampaignReport r3 = third.execute();
  EXPECT_EQ(r3.executed, 1u);
  EXPECT_EQ(r3.skipped, 1u);

  // A parseable record whose metrics do not extract (older format) is
  // re-executed and must not stay counted as skipped.
  std::ofstream(victim, std::ios::trunc)
      << "{\"scenario\": \"tiny/" << third.runs()[0].key
      << "\", \"reference\": {\"total_seconds\": 1.0}}";
  Executor fourth{tiny_campaign(), opts};
  const CampaignReport r4 = fourth.execute();
  EXPECT_EQ(r4.executed, 1u);
  EXPECT_EQ(r4.skipped, 1u);
  EXPECT_FALSE(fourth.outcomes()[0].skipped);
}

TEST(CampaignExecutor, ResumeRejectsRecordsFromDifferentBaseScenario) {
  ScratchDir dir{"stale"};
  ExecutorOptions opts;
  opts.out_dir = dir.path.string();
  Executor first{tiny_campaign(), opts};
  EXPECT_EQ(first.execute().executed, 2u);

  // Editing the base scenario (bigger grid, different mode) changes every
  // result; the old records must be re-executed, not silently resumed.
  CampaignSpec edited = tiny_campaign();
  edited.base.run.grid_n = 66;
  Executor second{edited, opts};
  const CampaignReport r2 = second.execute();
  EXPECT_EQ(r2.executed, 2u);
  EXPECT_EQ(r2.skipped, 0u);

  // Unchanged spec still resumes the (rewritten) records.
  Executor third{edited, opts};
  EXPECT_EQ(third.execute().skipped, 2u);

  // Platform parameter edits (same kind, same label, different speed)
  // invalidate records too — the canonical spec text is the identity.
  CampaignSpec retuned = edited;
  std::get<net::StarSpec>(retuned.base.platform.spec).host_speed_hz = 2e9;
  Executor fourth{retuned, opts};
  const CampaignReport r4 = fourth.execute();
  EXPECT_EQ(r4.executed, 2u);
  EXPECT_EQ(r4.skipped, 0u);
}

TEST(CampaignExecutor, RecordWriteFailureIsARunErrorNotACrash) {
  ScratchDir dir{"writefail"};
  ExecutorOptions opts;
  opts.out_dir = dir.path.string();
  opts.jobs = 2;  // the failure happens inside a pooled worker
  CampaignSpec spec = tiny_campaign();
  spec.repetitions = 1;
  Executor executor{spec, opts};
  // Occupy the record's temp path with a directory: the atomic write
  // cannot open it, and the failure must come back as a structured error.
  fs::create_directories(dir.path / "runs" /
                         (executor.runs()[0].key + ".json.tmp"));
  const CampaignReport report = executor.execute();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_FALSE(executor.outcomes()[0].ok());
}

TEST(CampaignExecutor, NoResumeReexecutesEverything) {
  ScratchDir dir{"noresume"};
  ExecutorOptions opts;
  opts.out_dir = dir.path.string();
  Executor first{tiny_campaign(), opts};
  first.execute();
  opts.resume = false;
  Executor second{tiny_campaign(), opts};
  const CampaignReport r2 = second.execute();
  EXPECT_EQ(r2.executed, 2u);
  EXPECT_EQ(r2.skipped, 0u);
}

TEST(CampaignExecutor, BadGridPointRecordsErrorInsteadOfThrowing) {
  CampaignSpec spec = tiny_campaign();
  spec.repetitions = 1;
  // One healthy platform, one platform file that cannot be opened: the bad
  // cell must fail structurally without killing the campaign.
  spec.platforms = {scenario::PlatformSpec::lan(),
                    scenario::PlatformSpec::from_file("does_not_exist.plat")};
  Executor executor{spec};
  const CampaignReport report = executor.execute();
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.errors, 1u);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].errors, 0);
  EXPECT_EQ(report.points[1].errors, 1);
  EXPECT_EQ(report.points[1].repetitions, 0);
  const Outcome& bad = executor.outcomes()[1];
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("does_not_exist.plat"), std::string::npos) << bad.error;
  // The failed record itself carries the error field through JSON.
  const JsonValue doc = parse_json(bad.record_json);
  EXPECT_TRUE(doc.has("error"));
  EXPECT_FALSE(doc.has("reference"));
  // The all-failed point still surfaces in the CSV (placeholder metric row).
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find(report.points[1].key + ",file:does_not_exist.plat,file,2,O0,"
                                            "sync,hierarchical,42,0,1,-,0,"),
            std::string::npos)
      << csv;
}

// Pooled workers share the process-wide trace memo with no pre-warm pass:
// with `ranks` below `peers`, every cell of a peers x platform grid has one
// trace key, so four concurrent workers must derive it exactly once.
TEST(CampaignExecutor, ParallelWorkersDeriveEachTraceSetOnce) {
  CampaignSpec spec = tiny_campaign();
  spec.base.run.mode = scenario::Mode::Predict;
  spec.base.run.ranks = 2;
  spec.base.run.grid_n = 38;  // a workload no other test here memoizes
  spec.repetitions = 1;
  spec.peers = {3, 4, 5, 6};
  spec.platforms = {scenario::PlatformSpec::lan(), scenario::PlatformSpec::grid5000()};
  const support::MemoCounters before = scenario::memo_stats().traces;
  ExecutorOptions opts;
  opts.jobs = 4;
  Executor executor{spec, opts};
  const CampaignReport report = executor.execute();
  EXPECT_EQ(report.executed, 8u);
  EXPECT_EQ(report.errors, 0u);
  const support::MemoCounters after = scenario::memo_stats().traces;
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 7u);  // every other run reused it
}

TEST(CampaignExecutor, ReportSerializesAsJsonAndCsv) {
  CampaignSpec spec = tiny_campaign();
  spec.base.run.mode = scenario::Mode::Both;  // exercise every metric
  spec.repetitions = 1;
  Executor executor{spec};
  const CampaignReport report = executor.execute();

  const JsonValue doc = parse_json(report.to_json());
  EXPECT_EQ(doc.at("campaign").as_string(), "tiny");
  EXPECT_EQ(doc.at("total_runs").as_double(), 1.0);
  const JsonValue& point = doc.at("points").as_array().at(0);
  EXPECT_EQ(point.at("peers").as_double(), 2.0);
  const JsonValue& metrics = point.at("metrics");
  for (const char* key : {"reference_solve_seconds", "predicted_solve_seconds",
                          "prediction_error"}) {
    ASSERT_TRUE(metrics.has(key)) << key;
    EXPECT_EQ(metrics.at(key).at("n").as_double(), 1.0);
    // n == 1: spread and confidence interval are exactly zero.
    EXPECT_EQ(metrics.at(key).at("stddev").as_double(), 0.0);
    EXPECT_EQ(metrics.at(key).at("ci95_half").as_double(), 0.0);
  }

  const std::string csv = report.to_csv();
  std::istringstream lines(csv);
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header,
            "campaign,point,platform,kind,peers,opt,scheme,alloc,seed,repetitions,"
            "errors,metric,n,mean,stddev,min,max,p50,p95,ci95_half");
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, report.points[0].metrics.size());
}

TEST(CampaignExecutor, RecordMetricsExtraction) {
  const JsonValue doc = parse_json(R"({
    "scenario": "x",
    "reference": {"solve_seconds": 1.5, "total_seconds": 2.0},
    "predicted": {"solve_seconds": 1.25, "total_seconds": 1.75},
    "prediction_error": 0.1
  })");
  const auto m = record_metrics(doc);
  EXPECT_DOUBLE_EQ(m.at("reference_solve_seconds"), 1.5);
  EXPECT_DOUBLE_EQ(m.at("reference_total_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("predicted_solve_seconds"), 1.25);
  EXPECT_DOUBLE_EQ(m.at("predicted_total_seconds"), 1.75);
  EXPECT_DOUBLE_EQ(m.at("prediction_error"), 0.1);
  EXPECT_EQ(record_metrics(parse_json("{\"scenario\": \"y\"}")).size(), 0u);
}

}  // namespace
}  // namespace pdc::campaign
