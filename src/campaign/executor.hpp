// Executes an expanded campaign run matrix across a support/ThreadPool,
// aggregates per-grid-point statistics over repetitions, and serializes a
// CampaignReport as JSON and CSV. Each run is fully independent — it owns
// its own sim engine, platform and booted p2pdc::Environment via
// scenario::Runner — so runs parallelize without sharing simulator state;
// the only cross-run state is the process-wide dPerf memos (support::Memo:
// each key derived once, by whichever worker asks first, while workers
// needing it wait and other keys proceed) and the logger (thread-safe, lines
// tagged with the run key).
//
// Resumability: with an output directory set, every completed run is
// persisted as <out_dir>/runs/<key>.json (written to a temp name and
// renamed, so partial files are never trusted). On restart, records that
// parse cleanly and carry no error are loaded instead of re-executed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "scenario/runner.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"

namespace pdc::campaign {

struct ExecutorOptions {
  /// Concurrent runs. 1 executes inline on the calling thread with no pool,
  /// preserving exact sequential semantics.
  int jobs = 1;
  /// Where run records and the report land; empty = in-memory only
  /// (no persistence, no resume).
  std::string out_dir;
  /// Skip runs whose completed record already sits in out_dir/runs/.
  bool resume = true;
  /// Live per-run progress lines on stderr.
  bool progress = false;
  /// Deterministic shard of the run matrix this executor owns (--shard i/n):
  /// only runs with index % shard_count == shard_index are executed. Shard
  /// processes may share one out_dir — the atomic temp-write+rename record
  /// protocol makes runs/ a lock-free work queue (records land whole or not
  /// at all, and resume skips work another process finished) — or write to
  /// separate directories merged afterwards. Sharded sessions write their
  /// partial report as report-shard<i>of<n>.json so concurrent shards never
  /// race on report.json; campaign::merge builds the full report.
  int shard_index = 0;
  int shard_count = 1;
  /// Write a Chrome-trace JSON per executed run as <trace_dir>/<key>.trace.json
  /// (--trace-dir / PDC_TRACE_DIR; empty = untraced). Purely an execution
  /// knob: run keys, records and the report are unaffected.
  std::string trace_dir;
};

/// One run's outcome: the serialized RunRecord (written to or loaded from
/// the output directory) plus the numeric metrics extracted from it. The
/// extraction goes through the JSON round-trip for executed and resumed
/// runs alike, so aggregation sees one representation.
struct Outcome {
  CampaignRun run;
  bool skipped = false;        // loaded from a previous session's record
  std::string error;           // non-empty when the run failed
  double wall_seconds = 0;     // this session's execution time (0 if skipped)
  std::string record_json;     // complete RunRecord document
  std::map<std::string, double> metrics;  // e.g. "reference_solve_seconds"

  bool ok() const { return error.empty(); }
};

/// Aggregation of one grid point over its repetitions.
struct PointReport {
  std::string key;
  std::string platform_label;
  std::string platform_kind;
  int peers = 0;
  std::string opt;
  std::string scheme;
  std::string alloc;
  std::uint64_t seed = 0;
  int repetitions = 0;  // runs that completed without error
  int errors = 0;
  std::map<std::string, Summary> metrics;
};

struct CampaignReport {
  std::string name;
  int jobs = 1;
  std::size_t total = 0;     // expanded grid size
  std::size_t executed = 0;  // runs executed this session
  std::size_t skipped = 0;   // resumed from existing records
  std::size_t errors = 0;
  double wall_seconds = 0;   // this session's wall-clock
  std::vector<PointReport> points;

  /// `canonical` omits the session-dependent fields (jobs, executed,
  /// skipped, wall_seconds), leaving a document that is a pure function of
  /// the run records — any complete partition of the matrix (one -j1
  /// process, two shard processes, a resumed session) merges to the same
  /// bytes. The merge path writes this form.
  std::string to_json(bool canonical = false) const;
  /// Long format: one row per (grid point, metric); see examples/README.md
  /// for the column list. Contains no session fields, so it is already
  /// canonical.
  std::string to_csv() const;
};

/// Aggregates per-run outcomes (in expansion order) into a report: grid
/// points in first-appearance order, per-point metric summaries over the
/// successful repetitions, error counts. Shared by the live executor, the
/// shard-merge path and the serve daemon's campaign handler.
CampaignReport aggregate_outcomes(const std::string& campaign_name,
                                  const std::vector<Outcome>& outcomes, int jobs,
                                  double wall_seconds);

class Executor {
 public:
  explicit Executor(CampaignSpec spec, ExecutorOptions opts = {});

  const CampaignSpec& spec() const { return spec_; }
  const std::vector<CampaignRun>& runs() const { return runs_; }

  /// Executes (or resumes) the whole matrix, writes records/report when an
  /// output directory is configured, and returns the aggregated report.
  /// Individual run failures — including a failed record write inside a
  /// worker — are recorded, not thrown; only setup errors (cannot create
  /// the output directory, unwritable report) throw.
  CampaignReport execute();

  /// Merges completed run directories into the full, unsharded report:
  /// every record of the expanded matrix is loaded from the first of
  /// `input_dirs` that holds it (a directory or its runs/ subdirectory;
  /// failed records are loaded too and counted as errors, a missing record
  /// becomes a synthetic "missing record" error), copied into
  /// out_dir/runs/ when an output directory is configured, and aggregated
  /// exactly like a live session. Writes report.json / report.csv in the
  /// canonical form, which is byte-identical to the canonical report of a
  /// single-process -j1 execution of the same campaign. Requires
  /// shard_count == 1 (the merge spans the whole matrix); throws
  /// std::logic_error otherwise.
  CampaignReport merge(const std::vector<std::string>& input_dirs);

  /// Per-run outcomes in expansion order; valid after execute() / merge().
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  std::string record_path(const CampaignRun& run) const;
  bool try_resume(const CampaignRun& run, Outcome& out) const;
  void execute_one(const CampaignRun& run, Outcome& out) const;

  CampaignSpec spec_;
  ExecutorOptions opts_;
  std::vector<CampaignRun> runs_;
  std::vector<Outcome> outcomes_;
};

/// Extracts the aggregatable numeric metrics from one RunRecord document
/// (reference/predicted solve+total seconds, prediction_error). Exposed for
/// tests and report tooling.
std::map<std::string, double> record_metrics(const JsonValue& record);

}  // namespace pdc::campaign
