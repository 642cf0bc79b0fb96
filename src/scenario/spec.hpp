// Declarative scenario descriptions: one value type that says *everything*
// about a prediction experiment — which platform to model, how to run the
// workload on it, and under what name to record the result. Scenarios are
// plain data: they can be built in code (the benches), parsed from a small
// text format (the pdc_scenario CLI), rendered back, and extended with new
// platform generators without touching any call site.
//
// Text format (line oriented, '#' starts a comment):
//
//   scenario <name>
//   platform <preset>                    # grid5000 | lan | xdsl | federation | wan
//   platform star|daisy|federation|wan [key=value ...]
//   platform file <path>
//   platform inline                      # raw net::platfile lines until 'end'
//     host a speed 3GHz ip 10.0.0.1
//     ...
//   end
//   peers <n>
//   opt <0|1|2|3|s>
//   mode <reference|predict|both|analytic|both-analytic>
//   alloc <hierarchical|flat>
//   scheme <sync|async>
//   seed <n>
//   grid <n>            iters <n>          rcheck <n>
//   bench <n> <iters> <rcheck>
//   omega <x>
//   cmax <n>
//   churn ...                            # fault injection; see churn/spec.hpp
//   trace <path>                         # write a Chrome-trace JSON of the run
//
// Key=value platform parameters take the platfile units (speed 3GHz,
// bandwidth 1Gbps, latency 100us); `speeds=` takes a comma-separated list.
// See examples/scenarios/ for complete files.
#pragma once

#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "alloc/groups.hpp"
#include "churn/spec.hpp"
#include "ir/pipeline.hpp"
#include "net/builders.hpp"
#include "p2pdc/environment.hpp"

namespace pdc::scenario {

/// Platform given as a net::platfile description: a file path (read at
/// deploy time) or inline text (path empty).
struct PlatformFileSpec {
  std::string path;
  std::string text;
};

/// What to simulate on: a tagged union over every platform generator. New
/// generators extend the variant (and the spec.cpp parse/render/build
/// tables) without touching RunSpec or the Runner.
struct PlatformSpec {
  using Variant = std::variant<net::StarSpec, net::DaisySpec, PlatformFileSpec,
                               net::FederationSpec, net::WanSpec, net::ScaleFreeSpec,
                               net::SmallWorldSpec>;

  std::string label;  // display/record name, e.g. "grid5000"
  Variant spec;

  /// "star" | "daisy" | "file" | "federation" | "wan" | "scale_free" |
  /// "small_world".
  const char* kind() const;

  // The paper's evaluation platforms (§IV-A), auto-sized to the run's peer
  // count where the builder allows it (StarSpec.hosts == 0).
  static PlatformSpec grid5000();
  static PlatformSpec lan();
  static PlatformSpec xdsl();
  // The new generators, with their builder defaults.
  static PlatformSpec federation();
  static PlatformSpec wan();
  // Complex-network generators for scale studies (hosts auto-sized to the
  // run's peer count when 0).
  static PlatformSpec scale_free();
  static PlatformSpec small_world();
  static PlatformSpec from_file(std::string path);
  static PlatformSpec from_text(std::string platfile_text);
};

enum class Mode { Reference, Predict, Both, Analytic, BothAnalytic };
const char* mode_name(Mode m);

/// How to run the workload: everything the paper varies between experiments
/// plus the obstacle-problem sizing. Defaults are the paper's Stage-1 sizing;
/// `from_env()` applies the PDC_QUICK smoke shrink (see support/env.hpp).
struct RunSpec {
  int peers = 4;
  ir::OptLevel level = ir::OptLevel::O0;
  p2pdc::AllocationMode allocation = p2pdc::AllocationMode::Hierarchical;
  p2psap::Scheme scheme = p2psap::Scheme::Synchronous;
  Mode mode = Mode::Both;
  std::uint64_t seed = 42;
  int cmax = alloc::kCmax;
  /// Lazy worker boot (`boot lazy`): non-rank workers are registered as
  /// passive overlay peers — O(1) memory, zero idle events — instead of
  /// full actors. The scale lever for 10^5..10^6-peer platforms; the
  /// default (eager) keeps every worker a live PeerActor.
  bool lazy_boot = false;
  /// Core trackers to boot (`trackers <n>`): the zones peers spread over.
  /// More trackers shrink per-zone size on massive platforms.
  int trackers = 1;
  /// Computation ranks (`ranks <n>`; 0 = every peer). Decoupling rank count
  /// from overlay population is the other half of the scale story: a
  /// 10^5-peer overlay can serve a modest computation, and only the peers
  /// the allocation touches materialize any per-run state.
  int ranks = 0;

  /// Ranks the computation actually runs on (`ranks` when set, else all
  /// peers).
  int rank_count() const { return ranks > 0 ? ranks : peers; }

  // Obstacle problem sizing, calibrated so the simulated times land in the
  // paper's ranges (O0 on 2 peers ~= 42 s at 3 GHz with the measured
  // ~84 ns/point block cost).
  int grid_n = 1538;
  int iters = 428;
  int rcheck = 4;
  int bench_n = 66;
  int bench_iters = 9;
  int bench_rcheck = 3;
  double omega = 0.9;

  /// Volatility the run is subjected to (default: none — a static world).
  /// When enabled, deployment provisions failover trackers and replacement
  /// hosts, the expanded event stream is injected into both phases, and the
  /// Runner re-submits after churn aborts (up to churn.max_attempts).
  churn::ChurnSpec churn;

  /// Where the Runner writes a Chrome-trace-event JSON of this run
  /// (`trace <path>`; empty = untraced, unless PDC_TRACE_DIR supplies a
  /// directory). An *execution* knob, not part of the run's identity:
  /// parse_scenario accepts it but render_scenario never emits it, so memo
  /// keys, campaign resume identities and golden records are unchanged by
  /// tracing.
  std::string trace_path;

  /// Paper sizing, shrunk for smoke runs when PDC_QUICK is set.
  static RunSpec from_env();
};

/// A complete experiment: platform x run x name.
struct ScenarioSpec {
  std::string name = "scenario";
  PlatformSpec platform = PlatformSpec::grid5000();
  RunSpec run;
};

/// Error with 1-based line information.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(int line, const std::string& what)
      : std::runtime_error("scenario line " + std::to_string(line) + ": " + what),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses a scenario from the text format. Unset keys keep the defaults of
/// `base` (pass RunSpec::from_env() to honour PDC_QUICK). Throws
/// ScenarioError.
ScenarioSpec parse_scenario(const std::string& text, const RunSpec& base = RunSpec{});

/// Renders a scenario back to the text format; parse(render(s)) reproduces
/// the same spec (platform-file paths stay paths, inline text stays inline).
std::string render_scenario(const ScenarioSpec& spec);

// Building blocks shared with the campaign format (src/campaign/), which
// embeds scenario lines and platform descriptions in its own files.

/// Splits one spec line into whitespace-separated tokens; '#' starts a
/// comment that runs to the end of the line.
std::vector<std::string> tokenize_spec_line(const std::string& line);

/// Parses one tokenized `platform <kind> [key=value ...]` line
/// (tokens[0] == "platform"); handles presets and every generator kind
/// except `inline`. Throws ScenarioError with `line`.
PlatformSpec parse_platform_tokens(const std::vector<std::string>& tokens, int line);

/// Renders a non-file platform spec as its one-line text form (the inverse
/// of parse_platform_tokens).
std::string render_platform_line(const PlatformSpec& spec);

}  // namespace pdc::scenario
