// perfbench_probe: the benchmark's in-process helper. It links the same
// library as the scenario CLI and the daemon and answers four questions the
// black-box runs cannot:
//
//   perfbench_probe specs  <out.json> <spec>...
//       canonical text, trace key, rank count and fastest host speed of each
//       spec (cheap: parse, render, one deployment per spec).
//   perfbench_probe facts  <out.json> <spec>
//       facts about the trace set Runner::traces() produces for the spec's
//       workload key: the largest per-rank compute sum and the number of
//       sends without a matching receive (and the reverse).
//   perfbench_probe trace-facts <out.json> <trace>...
//       the same facts for a trace set in dPerf's save format (the
//       benchmark's tests feed it corrupted sets).
//   perfbench_probe traced <out.json> [--warm <setup-spec>] <spec>...
//       the traced run: executes each spec through the public calls of every
//       layer, with a steady_clock span around each call, and writes the
//       RunRecord next to the spec (`<spec>.traced.json`) so the caller can
//       compare it byte for byte with the untraced answer. With --warm the
//       setup spec fills the trace memo untimed and each spec is also run
//       untraced through Runner::run() for the overhead ratio.
//
// The traced path mirrors Runner::run_phases and Dperf::trace_for_rank as
// they are today. Churn-enabled phases are timed as whole Runner phase calls
// (their deployment included), because the injector wiring is internal to
// the runner.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "dperf/analytic.hpp"
#include "dperf/dperf.hpp"
#include "dperf/summary.hpp"
#include "obstacle/distributed.hpp"
#include "obstacle/minic_kernel.hpp"
#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace {

using namespace pdc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

// Parsed the way the scenario CLI and the daemon parse request text.
scenario::ScenarioSpec load_spec(const std::string& path) {
  return scenario::parse_scenario(read_file(path), scenario::RunSpec::from_env());
}

// The fields Runner::traces() keys its memo on.
std::string trace_key(const scenario::RunSpec& run) {
  std::ostringstream k;
  k << ir::opt_level_name(run.level) << "-rcheck" << run.rcheck << "-grid" << run.grid_n
    << "-iters" << run.iters << "-ranks" << run.rank_count() << "-omega" << run.omega;
  return k.str();
}

// ---------------------------------------------------------------- spans

/// Self time per layer: a span's duration minus the spans nested in it.
class Layers {
 public:
  bool enabled = true;
  std::map<std::string, double> seconds;
  std::map<std::string, double> counts;

  void count(const std::string& name, double n) {
    if (enabled) counts[name] += n;
  }

 private:
  friend class Span;
  std::vector<double> child_time_;
};

class Span {
 public:
  Span(Layers& layers, const char* name) : layers_(layers), name_(name), t0_(Clock::now()) {
    layers_.child_time_.push_back(0);
  }
  ~Span() {
    const double dur = since(t0_);
    const double child = layers_.child_time_.back();
    layers_.child_time_.pop_back();
    if (!layers_.child_time_.empty()) layers_.child_time_.back() += dur;
    if (layers_.enabled) layers_.seconds[name_] += dur - child;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers& layers_;
  const char* name_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------- facts

struct Facts {
  int ranks = 0;
  std::uint64_t max_compute_ns = 0;
  double host_hz = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t events = 0;
};

Facts facts_of(const std::vector<dperf::Trace>& traces) {
  Facts f;
  f.ranks = static_cast<int>(traces.size());
  // (sender, receiver, tag) -> sends minus receives
  std::map<std::tuple<int, int, int>, long long> balance;
  for (const dperf::Trace& t : traces) {
    f.max_compute_ns = std::max(f.max_compute_ns, t.total_compute_ns());
    f.host_hz = t.host_hz;
    f.events += t.events.size();
    for (const dperf::TraceEvent& e : t.events) {
      if (e.kind == dperf::TraceEvent::Kind::Send) ++balance[{t.rank, e.peer, e.tag}];
      if (e.kind == dperf::TraceEvent::Kind::Recv) --balance[{e.peer, t.rank, e.tag}];
    }
  }
  for (const auto& [k, b] : balance) f.unmatched += static_cast<std::uint64_t>(std::llabs(b));
  return f;
}

void facts_json(JsonWriter& w, const Facts& f) {
  w.begin_object();
  w.kv("ranks", f.ranks);
  w.kv("max_compute_ns", f.max_compute_ns);
  w.kv("host_hz", f.host_hz);
  w.kv("unmatched", f.unmatched);
  w.kv("events", f.events);
  w.end_object();
}

// ---------------------------------------------------------------- traced path

obstacle::ObstacleProblem problem_of(const scenario::RunSpec& run) {
  obstacle::ObstacleProblem p;
  p.n = run.grid_n;
  p.omega = run.omega;
  return p;
}

obstacle::DistributedConfig config_of(const scenario::RunSpec& run) {
  obstacle::DistributedConfig cfg;
  cfg.problem = problem_of(run);
  cfg.iters = run.iters;
  cfg.rcheck = run.rcheck;
  cfg.mode = obstacle::ValueMode::Phantom;
  cfg.scheme = run.scheme;
  cfg.allocation = run.allocation;
  cfg.cmax = run.cmax;
  return cfg;
}

/// Records communication calls and the compute segments between them, the
/// way dPerf's trace generator does.
class RecordingHooks : public vm::CommHooks {
 public:
  RecordingHooks(const dperf::Workload& w, int rank, int nprocs, double host_hz,
                 dperf::Trace& out)
      : workload_(w), rank_(rank), nprocs_(nprocs), host_hz_(host_hz), out_(out) {}

  int rank() override { return rank_; }
  int nprocs() override { return nprocs_; }
  long long param(int i) override {
    const auto idx = static_cast<std::size_t>(i);
    return idx < workload_.int_params.size() ? workload_.int_params[idx] : 0;
  }
  double param_f(int i) override {
    const auto idx = static_cast<std::size_t>(i);
    return idx < workload_.float_params.size() ? workload_.float_params[idx] : 0;
  }
  void send(int peer, int tag, vm::ArrayObj&, long long, long long n) override {
    dperf::TraceEvent e;
    e.kind = dperf::TraceEvent::Kind::Send;
    e.peer = peer;
    e.tag = tag;
    e.bytes = static_cast<double>(n) * 8;
    push(e);
  }
  void recv(int peer, int tag, vm::ArrayObj&, long long, long long) override {
    dperf::TraceEvent e;
    e.kind = dperf::TraceEvent::Kind::Recv;
    e.peer = peer;
    e.tag = tag;
    push(e);
  }
  double allreduce_max(double v) override {
    dperf::TraceEvent e;
    e.kind = dperf::TraceEvent::Kind::Allreduce;
    push(e);
    return v;
  }
  void iter_mark(long long id) override {
    dperf::TraceEvent e;
    e.kind = dperf::TraceEvent::Kind::IterMark;
    e.iter_id = id;
    push(e);
  }

  void flush_compute() {
    const double cycles = vm_->cycles();
    if (cycles > last_cycles_) {
      dperf::TraceEvent e;
      e.kind = dperf::TraceEvent::Kind::Compute;
      e.ns = static_cast<std::uint64_t>((cycles - last_cycles_) / host_hz_ * 1e9 + 0.5);
      if (e.ns > 0) out_.events.push_back(e);
      last_cycles_ = cycles;
    }
  }

 private:
  void push(const dperf::TraceEvent& e) {
    flush_compute();
    out_.events.push_back(e);
  }

  const dperf::Workload& workload_;
  int rank_, nprocs_;
  double host_hz_;
  dperf::Trace& out_;
  double last_cycles_ = 0;
};

dperf::Trace generate(const dperf::Dperf& dp, const dperf::Workload& w, int rank, int nprocs,
                      Layers& L) {
  ir::IrProgram prog;
  {
    Span s(L, "ir.compile_s");
    prog = ir::compile(dp.instrumented().program, dp.options().level);
  }
  L.count("ir.compiles", 1);
  dperf::Trace trace;
  trace.rank = rank;
  trace.nprocs = nprocs;
  trace.host_hz = dp.options().ref_host_hz;
  vm::Vm m{prog};
  RecordingHooks hooks{w, rank, nprocs, trace.host_hz, trace};
  m.set_hooks(&hooks);
  {
    Span s(L, "vm.exec_s");
    m.run_main();
  }
  hooks.flush_compute();
  L.count("vm.cycles", m.cycles());
  L.count("dperf.trace_runs", 1);
  return trace;
}

// Dperf::trace_for_rank's sampling and scale-up around generate().
dperf::Trace trace_rank(const dperf::Dperf& dp, const dperf::Workload& full, int rank,
                        int nprocs, Layers& L) {
  const dperf::DperfOptions& opt = dp.options();
  const auto idx = static_cast<std::size_t>(opt.iters_param_index);
  if (dp.instrumented().iter_loops == 0 || idx >= full.int_params.size())
    return generate(dp, full, rank, nprocs, L);
  const int target = static_cast<int>(full.int_params[idx]);
  int sample = std::min(opt.sample_iters, target);
  if (target <= 3 * opt.chunk || sample < 3 * opt.chunk) return generate(dp, full, rank, nprocs, L);
  sample = 3 * opt.chunk + (target - 3 * opt.chunk) % opt.chunk;
  dperf::Workload sampled = full;
  sampled.int_params[idx] = sample;
  return dperf::extrapolate(generate(dp, sampled, rank, nprocs, L), sample, target, opt.chunk);
}

std::vector<dperf::Trace> generate_traces(const scenario::RunSpec& run, Layers& L) {
  dperf::DperfOptions opt;
  opt.level = run.level;
  opt.chunk = run.rcheck;
  opt.sample_iters = 3 * run.rcheck;
  std::optional<dperf::Dperf> dp;
  {
    Span s(L, "minic.frontend_s");
    dp.emplace(obstacle::minic_kernel_source(), opt);
  }
  Span s(L, "dperf.trace_s");
  const dperf::Workload w = obstacle::kernel_workload(problem_of(run), run.iters, run.rcheck);
  std::vector<dperf::Trace> out;
  out.reserve(static_cast<std::size_t>(run.rank_count()));
  for (int r = 0; r < run.rank_count(); ++r)
    out.push_back(trace_rank(*dp, w, r, run.rank_count(), L));
  return out;
}

std::size_t summary_bytes(const std::vector<dperf::TraceSummary>& set) {
  std::size_t b = 0;
  for (const dperf::TraceSummary& s : set) {
    b += sizeof(s) + s.pre.capacity() * sizeof(dperf::TraceEvent) +
         s.send_to.capacity() * sizeof(dperf::PeerVolume);
    for (const dperf::IterBlock& blk : s.blocks)
      b += sizeof(blk) + blk.ops.capacity() * sizeof(dperf::TraceEvent);
  }
  return b;
}

scenario::PhaseRecord phase_from(const scenario::Deployment& d) {
  scenario::PhaseRecord ph;
  ph.platform_hosts = d.platform.host_count();
  return ph;
}

class TracedRunner {
 public:
  Layers layers;
  std::map<std::string, Facts> facts;

  /// `warm`: traces come from the runner's process-wide memo (filled by the
  /// setup request), as in the daemon; otherwise they are generated here.
  explicit TracedRunner(bool warm) : warm_(warm) {}

  std::string run(const scenario::ScenarioSpec& spec) {
    const scenario::RunSpec& run = spec.run;
    const scenario::Runner runner{spec};
    const scenario::Mode mode = run.mode;
    scenario::RunRecord rec;
    rec.spec = spec;
    rec.platform_kind = spec.platform.kind();
    rec.platform_label = spec.platform.label;
    if (mode == scenario::Mode::Reference || mode == scenario::Mode::Both)
      rec.reference = reference(runner);
    if (mode != scenario::Mode::Reference) {
      std::vector<dperf::Trace> traces = get_traces(runner);
      if (mode == scenario::Mode::Predict || mode == scenario::Mode::Both)
        rec.predicted = predicted(runner, std::move(traces));
      else {
        if (mode == scenario::Mode::BothAnalytic) rec.predicted = predicted(runner, traces);
        rec.analytic = analytic(runner, traces);
      }
    }
    rec.platform_hosts = rec.reference   ? rec.reference->platform_hosts
                         : rec.predicted ? rec.predicted->platform_hosts
                                         : rec.analytic->platform_hosts;
    if (rec.reference && rec.predicted && rec.reference->solve_seconds > 0)
      rec.prediction_error =
          std::abs(rec.predicted->solve_seconds - rec.reference->solve_seconds) /
          rec.reference->solve_seconds;
    if (rec.analytic && rec.predicted && rec.predicted->solve_seconds > 0)
      rec.analytic_error = std::abs(rec.analytic->solve_seconds - rec.predicted->solve_seconds) /
                           rec.predicted->solve_seconds;
    Span s(layers, "scenario.render_s");
    return rec.to_json();
  }

 private:
  std::vector<dperf::Trace> get_traces(const scenario::Runner& runner) {
    const std::string key = trace_key(runner.spec().run);
    if (warm_) {
      Span s(layers, "dperf.trace_s");
      return runner.traces();
    }
    std::vector<dperf::Trace> traces = generate_traces(runner.spec().run, layers);
    for (const dperf::Trace& t : traces) layers.count("dperf.trace_events", t.events.size());
    facts[key] = facts_of(traces);
    return traces;
  }

  scenario::PhaseRecord reference(const scenario::Runner& runner) {
    const scenario::RunSpec& run = runner.spec().run;
    obstacle::DistributedConfig cfg = config_of(run);
    {
      Span s(layers, "dperf.profile_s");
      cfg.cost = scenario::cost_profile(run.level, run);
    }
    if (run.churn.enabled()) {
      Span s(layers, "sim.reference_s");
      return runner.run_reference();
    }
    std::unique_ptr<scenario::Deployment> d;
    {
      Span s(layers, "scenario.deploy_s");
      d = runner.deploy();
    }
    obstacle::SolveReport rep;
    {
      Span s(layers, "sim.reference_s");
      rep = obstacle::run_distributed(*d->env, d->submitter, cfg, run.rank_count());
    }
    if (!rep.ok) throw std::runtime_error("reference run failed: " + rep.failure);
    scenario::PhaseRecord ph = phase_from(*d);
    ph.solve_seconds = rep.solve_seconds;
    ph.total_seconds = rep.computation.total_time();
    ph.iterations = rep.iterations;
    ph.computation = rep.computation;
    ph.net = d->env->flownet().stats();
    ph.routes = d->platform.route_stats();
    ph.engine = d->engine.stats();
    return ph;
  }

  scenario::PhaseRecord predicted(const scenario::Runner& runner,
                                  std::vector<dperf::Trace> traces) {
    const scenario::RunSpec& run = runner.spec().run;
    if (run.churn.enabled()) {
      Span s(layers, "sim.replay_s");
      return runner.run_predicted(std::move(traces));
    }
    std::unique_ptr<scenario::Deployment> d;
    {
      Span s(layers, "scenario.deploy_s");
      d = runner.deploy();
    }
    dperf::Prediction pred;
    {
      Span s(layers, "sim.replay_s");
      pred = dperf::replay_on(*d->env, d->submitter,
                              obstacle::make_task_spec(config_of(run), run.rank_count()),
                              std::move(traces));
    }
    if (!pred.computation.ok) throw std::runtime_error("replay failed: " + pred.computation.failure);
    scenario::PhaseRecord ph = phase_from(*d);
    ph.solve_seconds = pred.solve_seconds;
    ph.total_seconds = pred.total_seconds;
    ph.computation = pred.computation;
    ph.net = d->env->flownet().stats();
    ph.routes = d->platform.route_stats();
    ph.engine = d->engine.stats();
    return ph;
  }

  scenario::PhaseRecord analytic(const scenario::Runner& runner,
                                 const std::vector<dperf::Trace>& traces) {
    const scenario::RunSpec& run = runner.spec().run;
    scenario::RunSpec lazy = run;
    lazy.lazy_boot = true;
    std::unique_ptr<scenario::Deployment> d;
    {
      Span s(layers, "scenario.deploy_s");
      d = scenario::deploy(runner.spec().platform, lazy);
    }
    std::vector<dperf::TraceSummary> summaries;
    {
      // Summaries are memoized per trace key, as the runner memoizes them.
      Span s(layers, "dperf.summarize_s");
      auto it = summaries_.find(trace_key(run));
      if (it == summaries_.end()) {
        std::vector<dperf::TraceSummary> fresh;
        fresh.reserve(traces.size());
        for (const dperf::Trace& t : traces) fresh.push_back(dperf::summarize_trace(t));
        it = summaries_.emplace(trace_key(run), std::move(fresh)).first;
      }
      summaries = it->second;
    }
    layers.count("dperf.summary_mb", static_cast<double>(summary_bytes(summaries)) / (1 << 20));
    dperf::AnalyticReport rep;
    {
      Span s(layers, "dperf.plan_s");
      rep = dperf::plan_on(*d->env, d->submitter,
                           obstacle::make_task_spec(config_of(run), run.rank_count()), summaries,
                           d->workers);
    }
    if (!rep.ok) throw std::runtime_error("analytic plan failed: " + rep.failure);
    layers.count("dperf.plan_ops", static_cast<double>(rep.ops_evaluated));
    layers.count("dperf.plan_queries", static_cast<double>(rep.rate_queries));
    scenario::PhaseRecord ph = phase_from(*d);
    ph.solve_seconds = rep.solve_seconds;
    ph.total_seconds = rep.total_seconds;
    ph.computation.ok = true;
    ph.computation.peers = rep.peers;
    ph.computation.groups = rep.groups;
    ph.computation.t_submit = 0;
    ph.computation.t_collected = rep.collection_seconds;
    ph.computation.t_allocated = rep.collection_seconds + rep.allocation_seconds;
    ph.computation.t_finished = rep.total_seconds;
    ph.net = d->env->flownet().stats();
    ph.routes = d->platform.route_stats();
    ph.engine = d->engine.stats();
    return ph;
  }

  bool warm_;
  std::map<std::string, std::vector<dperf::TraceSummary>> summaries_;
};

// ---------------------------------------------------------------- commands

int cmd_specs(const std::string& out, const std::vector<std::string>& files) {
  JsonWriter w;
  w.begin_array();
  for (const std::string& f : files) {
    const scenario::ScenarioSpec spec = load_spec(f);
    const std::unique_ptr<scenario::Deployment> d = scenario::deploy(spec.platform, spec.run);
    double fastest = 0;
    for (int i = 0; i < d->platform.host_count(); ++i)
      fastest = std::max(fastest, d->platform.node(d->platform.host(i)).speed_hz);
    w.begin_object();
    w.kv("file", f);
    w.kv("canonical", scenario::render_scenario(spec));
    w.kv("key", trace_key(spec.run));
    w.kv("ranks", spec.run.rank_count());
    w.kv("fastest_hz", fastest);
    w.end_object();
  }
  w.end_array();
  write_file(out, w.str());
  return 0;
}

int cmd_facts(const std::string& out, const std::string& file) {
  const scenario::ScenarioSpec spec = load_spec(file);
  const Facts f = facts_of(scenario::Runner{spec}.traces());
  JsonWriter w;
  w.begin_object();
  w.kv("key", trace_key(spec.run));
  w.key("facts");
  facts_json(w, f);
  w.end_object();
  write_file(out, w.str());
  return 0;
}

int cmd_trace_facts(const std::string& out, const std::vector<std::string>& files) {
  std::vector<dperf::Trace> traces;
  for (const std::string& f : files) traces.push_back(dperf::load_trace(read_file(f)));
  JsonWriter w;
  w.begin_object();
  w.key("facts");
  facts_json(w, facts_of(traces));
  w.end_object();
  write_file(out, w.str());
  return 0;
}

int cmd_traced(const std::string& out, const std::string& setup,
               const std::vector<std::string>& files) {
  const bool warm = !setup.empty();
  TracedRunner tr{warm};
  std::vector<double> untraced(files.size(), 0), traced(files.size(), 0);
  if (warm) {
    const scenario::ScenarioSpec s = load_spec(setup);
    (void)scenario::Runner{s}.traces();
    tr.layers.enabled = false;
    (void)tr.run(s);
    tr.layers.enabled = true;
    for (std::size_t i = 0; i < files.size(); ++i) {
      const scenario::ScenarioSpec spec = load_spec(files[i]);
      const auto t0 = Clock::now();
      const std::string json = scenario::Runner{spec}.run().to_json();
      untraced[i] = since(t0);
      write_file(files[i] + ".untraced.json", json);
    }
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto t0 = Clock::now();
    const scenario::ScenarioSpec spec = load_spec(files[i]);
    const std::string json = tr.run(spec);
    traced[i] = since(t0);
    write_file(files[i] + ".traced.json", json);
  }
  JsonWriter w;
  w.begin_object();
  w.key("requests").begin_array();
  for (std::size_t i = 0; i < files.size(); ++i) {
    w.begin_object();
    w.kv("file", files[i]);
    w.kv("traced_seconds", traced[i]);
    if (warm) w.kv("untraced_seconds", untraced[i]);
    w.end_object();
  }
  w.end_array();
  w.key("seconds").begin_object();
  for (const auto& [k, v] : tr.layers.seconds) w.kv(k, v);
  w.end_object();
  w.key("counts").begin_object();
  for (const auto& [k, v] : tr.layers.counts) w.kv(k, v);
  w.end_object();
  w.key("facts").begin_object();
  for (const auto& [k, f] : tr.facts) {
    w.key(k);
    facts_json(w, f);
  }
  w.end_object();
  w.end_object();
  write_file(out, w.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: perfbench_probe specs|facts|trace-facts|traced <out.json> [--warm <setup>] "
                 "<spec>...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const std::string out = argv[2];
  std::string setup;
  std::vector<std::string> files;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warm") == 0 && i + 1 < argc) setup = argv[++i];
    else files.emplace_back(argv[i]);
  }
  try {
    if (cmd == "specs") return cmd_specs(out, files);
    if (cmd == "facts" && files.size() == 1) return cmd_facts(out, files[0]);
    if (cmd == "trace-facts") return cmd_trace_facts(out, files);
    if (cmd == "traced") return cmd_traced(out, setup, files);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_probe: bad command '%s'\n", cmd.c_str());
  return 2;
}
