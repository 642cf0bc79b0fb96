// MiniC VM throughput microbench: IR instructions per wall-clock second on
// the work the cold prediction path waits on.
//
// Rows:
//  * kernel_o0 / kernel_o3 — dPerf trace generation of the instrumented
//    obstacle kernel at O0 and O3: grid 1538, 12 sampled iterations, rank 1
//    of 4, i.e. one of the four trace runs of a paper-sized request;
//  * toy_loop — a 10^5-iteration integer accumulation loop at O2, run
//    repeatedly (pure dispatch, no memory traffic or hooks).
//
// Each row records the IR instructions and model cycles of one run, the
// median wall time of the timed runs, instructions per second, and the
// FNV-1a digest of the run's trace in dPerf's save format. The program is
// compiled before the clock starts; the timed call is generate_trace.
//
// Emits BENCH_vm.json (pass a path as argv[1] to redirect). Pass
// --baseline=FILE with a previously emitted JSON to embed per-row speedups;
// the run then fails if any trace digest differs from the baseline's, since
// the VM must stay bit-exact. PDC_QUICK shrinks the grid and the repetitions
// for smoke and sanitizer runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dperf/dperf.hpp"
#include "obstacle/minic_kernel.hpp"
#include "obstacle/problem.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "vm/vm.hpp"

namespace {

using namespace pdc;

struct Row {
  std::string name;
  std::uint64_t instructions = 0;
  double cycles = 0;
  double wall_seconds = 0;  // per run, median over the timed reps
  double instructions_per_sec = 0;
  std::string digest;
};

std::string fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Workload parameters and rank identity, no-op communication: what the
/// trace recorder's hooks present to the program, minus the recording.
class ParamHooks : public vm::CommHooks {
 public:
  ParamHooks(const dperf::Workload& w, int rank, int nprocs)
      : w_(w), rank_(rank), nprocs_(nprocs) {}
  int rank() override { return rank_; }
  int nprocs() override { return nprocs_; }
  long long param(int i) override {
    const auto idx = static_cast<std::size_t>(i);
    return idx < w_.int_params.size() ? w_.int_params[idx] : 0;
  }
  double param_f(int i) override {
    const auto idx = static_cast<std::size_t>(i);
    return idx < w_.float_params.size() ? w_.float_params[idx] : 0;
  }

 private:
  const dperf::Workload& w_;
  int rank_, nprocs_;
};

/// `runs_per_rep` back-to-back trace generations per timed rep.
Row measure(std::string name, const ir::IrProgram& prog, const dperf::Workload& w, int rank,
            int nprocs, int reps, int runs_per_rep) {
  constexpr double kHz = 3e9;
  Row row;
  row.name = std::move(name);
  {
    vm::Vm m{prog};
    ParamHooks hooks{w, rank, nprocs};
    m.set_hooks(&hooks);
    m.run_main();
    row.instructions = m.papi().instructions;
    row.cycles = m.cycles();
  }
  std::vector<double> walls;
  std::string text;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < runs_per_rep; ++k)
      text = dperf::save_trace(dperf::generate_trace(prog, w, rank, nprocs, kHz));
    walls.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() /
                    runs_per_rep);
  }
  std::sort(walls.begin(), walls.end());
  row.wall_seconds = walls[walls.size() / 2];
  row.instructions_per_sec = static_cast<double>(row.instructions) / row.wall_seconds;
  row.digest = fnv1a(text);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_vm.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0)
      baseline_path = argv[i] + 11;
    else
      out_path = argv[i];
  }

  const bool quick = env_flag("PDC_QUICK");
  const int grid = quick ? 130 : 1538;
  const int reps = quick ? 1 : 3;
  constexpr int kIters = 12, kRcheck = 4, kRank = 1, kProcs = 4;

  std::vector<Row> rows;
  obstacle::ObstacleProblem p;
  p.n = grid;
  const dperf::Workload kernel = obstacle::kernel_workload(p, kIters, kRcheck);
  for (ir::OptLevel lvl : {ir::OptLevel::O0, ir::OptLevel::O3}) {
    dperf::DperfOptions opt;
    opt.level = lvl;
    const dperf::Dperf pipeline{obstacle::minic_kernel_source(), opt};
    rows.push_back(measure(lvl == ir::OptLevel::O0 ? "kernel_o0" : "kernel_o3",
                           pipeline.program(), kernel, kRank, kProcs, reps, 1));
  }
  const ir::IrProgram toy = ir::compile_source(
      "int main() { int s = 0; for (int i = 0; i < 100000; i = i + 1) { s = s + i; } return s; }",
      ir::OptLevel::O2);
  rows.push_back(measure("toy_loop", toy, {}, 0, 1, reps, quick ? 10 : 200));

  JsonValue baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    baseline = parse_json(buf.str());
  }
  auto baseline_row = [&baseline](const std::string& name) -> const JsonValue* {
    if (!baseline.has("rows")) return nullptr;
    for (const JsonValue& r : baseline.at("rows").as_array())
      if (r.at("name").as_string() == name) return &r;
    return nullptr;
  };

  bool digests_match = true;
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "vm_instructions_per_sec");
  w.kv("quick", quick);
  w.kv("grid", grid);
  w.kv("iters", kIters);
  w.kv("rank", kRank);
  w.kv("nprocs", kProcs);
  w.kv("reps", reps);
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("instructions", r.instructions);
    w.kv("cycles", r.cycles);
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("instructions_per_sec", r.instructions_per_sec);
    w.kv("trace_digest", r.digest);
    std::printf("%-10s %12llu instrs  %14.0f cycles  %8.4f s  %6.1f M instrs/s  %s",
                r.name.c_str(), static_cast<unsigned long long>(r.instructions), r.cycles,
                r.wall_seconds, r.instructions_per_sec / 1e6, r.digest.c_str());
    if (const JsonValue* b = baseline_row(r.name)) {
      const double before = b->at("instructions_per_sec").as_double();
      const bool same = b->at("trace_digest").as_string() == r.digest;
      digests_match = digests_match && same;
      w.kv("baseline_instructions_per_sec", before);
      w.kv("baseline_wall_seconds", b->at("wall_seconds").as_double());
      w.kv("speedup", r.instructions_per_sec / before);
      w.kv("digest_matches_baseline", same);
      std::printf("  %5.2fx vs baseline%s", r.instructions_per_sec / before,
                  same ? "" : "  DIGEST MISMATCH");
    }
    w.end_object();
    std::printf("\n");
    std::fflush(stdout);
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  if (!digests_match) {
    std::fprintf(stderr, "trace digests differ from the baseline's\n");
    return 1;
  }
  return 0;
}
