// Executes declarative ScenarioSpecs: owns deployment (engine + platform +
// booted p2pdc::Environment), drives the reference execution and/or the
// dPerf prediction the spec asks for, and returns a structured RunRecord
// that serializes to JSON through the shared support writer.
//
// Every bench, example and service drives scenarios through this Runner
// (or campaign::Executor over it) instead of hand-rolled drivers.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "churn/spec.hpp"
#include "dperf/dperf.hpp"
#include "obstacle/distributed.hpp"
#include "p2pdc/environment.hpp"
#include "scenario/spec.hpp"
#include "support/memo.hpp"

namespace pdc::scenario {

/// A deployed simulation: engine + platform + booted P2PDC overlay. One
/// deployment drives one simulated computation (simulation state is
/// single-use); the Runner creates a fresh one per phase.
struct Deployment {
  sim::Engine engine;
  net::Platform platform;
  std::unique_ptr<p2pdc::Environment> env;
  net::NodeIdx submitter = -1;
  std::vector<net::NodeIdx> workers;
  /// Churn provisioning (empty without a churn spec): trackers the injector
  /// may crash — the deployment's primary tracker(s) first, then the extra
  /// failover trackers booted so orphaned peers keep a zone to re-join —
  /// unbooted hosts that absorb join events, and the expanded event stream
  /// shared by every phase of this scenario.
  std::vector<net::NodeIdx> crashable_trackers;
  std::vector<net::NodeIdx> spare_hosts;
  std::vector<churn::ChurnEvent> churn_timeline;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
};

/// Builds the platform a spec describes, auto-sizing generators whose host
/// count is 0 so `run.peers` workers plus server/tracker/submitter (plus
/// `extra_hosts` churn provisioning) fit. Platform-file specs read their
/// file here; throws on parse errors.
net::Platform build_platform(const PlatformSpec& spec, const RunSpec& run,
                             int extra_hosts = 0);

/// Builds the platform and boots server + tracker(s) + submitter + workers.
/// Placement is platform-aware: Daisy spreads workers across the desktop
/// grid (seed-deterministic), the federation round-robins workers over
/// sites, everything else fills hosts in order. Throws std::runtime_error
/// when the platform is too small for the run.
std::unique_ptr<Deployment> deploy(const PlatformSpec& spec, const RunSpec& run);

/// dPerf block-benchmark cost profile for a level (memoized per process,
/// keyed on level + bench sizing; the dPerf memos never evict, so the
/// reference stays valid for the life of the process).
const obstacle::CostProfile& cost_profile(ir::OptLevel level, const RunSpec& run);

/// Counters of the process-wide dPerf memos (cost profiles, trace sets and
/// trace summaries) that stay hot across runs — what a resident server keeps
/// warm so repeated what-if queries skip re-benchmarking. Byte counts are
/// estimates of the dominant storage (event vectors, profile structs), not
/// allocator truth. Each memo derives a key once: `misses` counts
/// derivations.
struct MemoStats {
  support::MemoCounters cost_profiles;
  support::MemoCounters traces;
  support::MemoCounters summaries;
};
MemoStats memo_stats();

/// Churn observability for one phase: what the injector applied, how many
/// submissions the computation needed, and the overlay failovers observed.
struct ChurnPhaseRecord {
  churn::ChurnStats stats;
  int attempts = 1;      // submissions (1 = completed without re-allocation)
  int reallocations() const { return attempts - 1; }
  int rejoins = 0;       // sum of PeerActor::rejoin_count over the deployment
};

/// One executed phase (reference or predicted).
struct PhaseRecord {
  double solve_seconds = 0;  // first rank start -> last rank end
  double total_seconds = 0;  // including collection / allocation / gathering
  int iterations = 0;        // reference only
  int platform_hosts = 0;    // hosts modelled in this phase's deployment
  p2pdc::ComputationResult computation;
  net::FlowNetStats net;
  /// Route-resolution counters for this phase's platform (routes computed
  /// vs. served from the bounded cache, evictions, resident entries) —
  /// the hierarchical-routing observability next to the FlowNet stats.
  net::RouteStats routes;
  /// Event-kernel counters for this phase's engine (events dispatched,
  /// inline-vs-heap closures, resumes, slot arms, peak queue depth) —
  /// the simulator-cost observability next to the FlowNet stats.
  sim::EngineStats engine;
  /// Present when the spec enables churn.
  std::optional<ChurnPhaseRecord> churn;
};

/// The structured result of one scenario run.
struct RunRecord {
  ScenarioSpec spec;
  std::string platform_kind;
  std::string platform_label;
  int platform_hosts = 0;
  std::optional<PhaseRecord> reference;
  std::optional<PhaseRecord> predicted;
  /// Critical-path plan with no engine replay (mode analytic / both-analytic).
  std::optional<PhaseRecord> analytic;
  /// |predicted - reference| / reference solve seconds; set when both ran.
  std::optional<double> prediction_error;
  /// |analytic - predicted| / predicted solve seconds; set when both-analytic
  /// runs both the replay and the plan (what `both` does for prediction).
  std::optional<double> analytic_error;
  /// Empty on success; the failure message when the run could not complete
  /// (platform file parse error, platform too small, solve failure, ...).
  /// Failed records keep the spec identification fields so a campaign can
  /// report which grid point failed.
  std::string error;

  bool ok() const { return error.empty(); }

  /// Serializes through support::JsonWriter; parses back with
  /// support::parse_json.
  std::string to_json() const;
};

/// Executes ScenarioSpecs. Stateless apart from the spec: each phase
/// deploys fresh, so a Runner can be re-run and phases can be driven
/// individually (the benches reuse traces across platforms this way).
class Runner {
 public:
  explicit Runner(ScenarioSpec spec) : spec_(std::move(spec)) {}

  const ScenarioSpec& spec() const { return spec_; }

  /// Fresh deployment for this scenario.
  std::unique_ptr<Deployment> deploy() const;

  /// Per-rank dPerf traces (sampled + scaled up) for the spec's workload.
  /// Platform-independent and memoized per process, so replaying one
  /// workload across many platforms runs the dPerf pipeline once. The dPerf
  /// memos never evict: the reference stays valid for the life of the
  /// process.
  const std::vector<dperf::Trace>& traces() const;

  /// Reference execution (Phantom values: full event schedule, no numerics).
  PhaseRecord run_reference() const;

  /// Trace replay on this scenario's platform.
  PhaseRecord run_predicted(std::vector<dperf::Trace> traces) const;

  /// Analytic plan on this scenario's platform: summaries x cost model, no
  /// engine replay (dperf::plan_on). The summaries are memoized per
  /// workload, derived from `traces` on first use. Throws on planner
  /// failure.
  PhaseRecord run_analytic(const std::vector<dperf::Trace>& traces) const;

  /// Executes the phases `spec().run.mode` asks for and assembles the record.
  /// Throws on failure (bad platform file, platform too small, ...).
  RunRecord run() const;

  /// Like run(), but never throws out of the call: any failure — including
  /// std::bad_alloc and std::system_error, whose text is captured together
  /// with the failing phase name ("[reference] ...") — comes back as a
  /// record with the `error` field set (and the spec identification intact)
  /// so one bad grid point cannot kill a campaign worker.
  RunRecord try_run() const noexcept;

 private:
  /// The shared phase sequence behind run()/try_run(); updates `phase` as it
  /// goes so a catcher can name the phase that threw.
  RunRecord run_phases(const char*& phase) const;
  /// The memoized trace set behind traces(), shared rather than copied.
  std::shared_ptr<const std::vector<dperf::Trace>> trace_set() const;
  PhaseRecord replay(std::shared_ptr<const std::vector<dperf::Trace>> traces) const;

  ScenarioSpec spec_;
};

}  // namespace pdc::scenario
