// Compiler + VM tests: lowering correctness, each optimization pass, the
// O0..O3/Os pipelines and the cycle/vPAPI accounting.
#include <gtest/gtest.h>

#include "ir/ast_opt.hpp"
#include "ir/pipeline.hpp"
#include "minic/parser.hpp"
#include "minic/token.hpp"
#include "vm/vm.hpp"

namespace pdc {
namespace {

using ir::OptLevel;

long long run_int(const std::string& src, OptLevel lvl = OptLevel::O0) {
  const ir::IrProgram prog = ir::compile_source(src, lvl);
  vm::Vm m{prog};
  return m.run_main();
}

double run_cycles(const std::string& src, OptLevel lvl) {
  const ir::IrProgram prog = ir::compile_source(src, lvl);
  vm::Vm m{prog};
  m.run_main();
  return m.cycles();
}

TEST(Vm, ArithmeticAndControlFlow) {
  EXPECT_EQ(run_int("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(run_int("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(run_int("int main() { return 17 % 5; }"), 2);
  EXPECT_EQ(run_int("int main() { return -7 / 2; }"), -3);
  EXPECT_EQ(run_int("int main() { if (3 < 4) { return 1; } return 0; }"), 1);
  EXPECT_EQ(run_int("int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"),
            45);
  EXPECT_EQ(run_int("int main() { int i = 0; while (i * i < 50) { i = i + 1; } return i; }"), 8);
}

TEST(Vm, DoubleMathAndBuiltins) {
  EXPECT_EQ(run_int("int main() { double d = sqrt(16.0); if (d == 4.0) { return 1; } return 0; }"), 1);
  EXPECT_EQ(run_int("int main() { double d = fmax(1.5, fmin(9.0, 2.5)); if (d == 2.5) { return 1; } return 0; }"), 1);
  EXPECT_EQ(run_int("int main() { double d = fabs(0.0 - 3.5); if (d == 3.5) { return 1; } return 0; }"), 1);
  // int -> double promotion.
  EXPECT_EQ(run_int("int main() { double d = 1; d = d / 2; if (d == 0.5) { return 1; } return 0; }"), 1);
}

TEST(Vm, ShortCircuitSemantics) {
  // The rhs would divide by zero; && must skip it.
  EXPECT_EQ(run_int("int main() { int z = 0; if (z != 0 && 10 / z > 0) { return 1; } return 2; }"), 2);
  EXPECT_EQ(run_int("int main() { int z = 0; if (z == 0 || 10 / z > 0) { return 3; } return 4; }"), 3);
}

TEST(Vm, ArraysAndFunctions) {
  const char* src = R"(
double sum(double a[], int n) {
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
  return s;
}
int main() {
  double a[10];
  for (int i = 0; i < 10; i = i + 1) { a[i] = 1.0 * i; }
  if (sum(a, 10) == 45.0) { return 1; }
  return 0;
}
)";
  EXPECT_EQ(run_int(src), 1);
}

TEST(Vm, ArraysPassByReference) {
  const char* src = R"(
void fill(double a[], int n, double v) {
  for (int i = 0; i < n; i = i + 1) { a[i] = v; }
}
int main() {
  double a[4];
  fill(a, 4, 7.0);
  if (a[3] == 7.0) { return 1; }
  return 0;
}
)";
  EXPECT_EQ(run_int(src), 1);
}

TEST(Vm, Recursion) {
  const char* src = R"(
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { return fib(12); }
)";
  EXPECT_EQ(run_int(src), 144);
}

TEST(Vm, TrapsOnOutOfBounds) {
  EXPECT_THROW(run_int("int main() { double a[3]; a[3] = 1.0; return 0; }"), vm::TrapError);
  EXPECT_THROW(run_int("int main() { double a[3]; double x = a[0-1]; return 0; }"), vm::TrapError);
}

TEST(Vm, TrapsOnDivisionByZero) {
  EXPECT_THROW(run_int("int main() { int z = 0; return 1 / z; }"), vm::TrapError);
  EXPECT_THROW(run_int("int main() { int z = 0; return 1 % z; }"), vm::TrapError);
}

TEST(Vm, CycleLimitStopsRunaways) {
  const ir::IrProgram prog =
      ir::compile_source("int main() { int x = 1; while (x > 0) { x = x + 1; } return x; }",
                         OptLevel::O0);
  vm::Vm m{prog};
  m.set_cycle_limit(1e6);
  EXPECT_THROW(m.run_main(), vm::TrapError);
}

TEST(Vm, CommHooksReceiveCalls) {
  struct Recorder : vm::CommHooks {
    int rank() override { return 3; }
    int nprocs() override { return 8; }
    long long param(int i) override { return 10 + i; }
    std::vector<std::pair<int, long long>> sends;
    void send(int peer, int, vm::ArrayObj&, long long, long long n) override {
      sends.emplace_back(peer, n);
    }
    void recv(int, int, vm::ArrayObj& arr, long long off, long long n) override {
      for (long long k = 0; k < n; ++k) arr.data[static_cast<std::size_t>(off + k)].f = 9.0;
    }
  };
  const char* src = R"(
int main() {
  int me = p2p_rank();
  int np = p2p_nprocs();
  int n = p2p_param(0);
  double a[n];
  p2p_send(me + 1, 5, a, 0, n);
  p2p_recv(me - 1, 5, a, 2, 3);
  if (a[2] == 9.0 && a[4] == 9.0 && a[5] == 0.0) { return me * 100 + np + n; }
  return 0-1;
}
)";
  const ir::IrProgram prog = ir::compile_source(src, OptLevel::O2);
  vm::Vm m{prog};
  Recorder rec;
  m.set_hooks(&rec);
  EXPECT_EQ(m.run_main(), 3 * 100 + 8 + 10);
  ASSERT_EQ(rec.sends.size(), 1u);
  EXPECT_EQ(rec.sends[0], (std::pair<int, long long>{4, 10}));
}

TEST(Vm, BlockTimersAccumulate) {
  const char* src = R"(
int main() {
  int s = 0;
  for (int k = 0; k < 5; k = k + 1) {
    dperf_block_begin(7);
    for (int i = 0; i < 100; i = i + 1) { s = s + i; }
    dperf_block_end(7);
  }
  return s;
}
)";
  const ir::IrProgram prog = ir::compile_source(src, OptLevel::O0);
  vm::Vm m{prog};
  m.run_main();
  const auto& stat = m.papi().blocks.at(7);
  EXPECT_EQ(stat.executions, 5u);
  EXPECT_GT(stat.cycles, 5 * 100.0);  // at least one cycle per iteration
  EXPECT_GT(m.papi().mean_cycles(7), 100.0);
}

TEST(Vm, MismatchedBlockEndTraps) {
  EXPECT_THROW(run_int("int main() { dperf_block_end(3); return 0; }"), vm::TrapError);
}

TEST(Vm, CyclesScaleWithWork) {
  const double c1 = run_cycles(
      "int main() { int s = 0; for (int i = 0; i < 100; i = i + 1) { s = s + i; } return s; }",
      OptLevel::O0);
  const double c2 = run_cycles(
      "int main() { int s = 0; for (int i = 0; i < 1000; i = i + 1) { s = s + i; } return s; }",
      OptLevel::O0);
  EXPECT_GT(c2, 5 * c1);
  EXPECT_LT(c2, 15 * c1);
}

// --- pinned cycle accounting ---
//
// The constants are those of charging one instruction at a time, in program
// order. The VM may group its charges, but every hook, block timer and
// counter must read exactly these values.

const char* kPinnedProgram = R"(
double wsum(double a[], int n, double w) {
  dperf_block_begin(11);
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) { s = s + w * a[i]; }
  dperf_block_end(11);
  return s;
}
void scale(double a[], int n, double f) {
  for (int i = 0; i < n; i = i + 1) { a[i] = floor(a[i] * f); }
}
int main() {
  int me = p2p_rank();
  int np = p2p_nprocs();
  int n = p2p_param(0);
  double f = p2p_param_f(0);
  double a[n];
  int q = n / 3 + n % 7;
  double acc = 0.0;
  dperf_block_begin(1);
  for (int i = 0; i < n; i = i + 1) { a[i] = sqrt(1.0 * i) + fabs(f - i); }
  dperf_block_end(1);
  for (int it = 0; it < 6; it = it + 1) {
    dperf_iter_mark(3);
    p2p_send(me + 1, 1, a, 0, n);
    p2p_recv(me - 1, 2, a, 1, q);
    dperf_block_begin(2);
    scale(a, n, 1.5);
    acc = fmax(acc, wsum(a, n, 0.5));
    acc = fmin(acc, 1.0e9);
    dperf_block_end(2);
    if (it % 3 == 2) { acc = acc + p2p_allreduce_max(acc); }
  }
  if (acc > 0.0) { return me * 10 + np; }
  return 0;
}
)";

/// Records the cycle count every hook observes.
struct CycleProbe : vm::CommHooks {
  std::vector<double> seen;
  int rank() override { return 1; }
  int nprocs() override { return 4; }
  long long param(int i) override { return 40 + i; }
  double param_f(int i) override { return 2.5 + i; }
  void send(int, int, vm::ArrayObj&, long long, long long) override {
    seen.push_back(vm_->cycles());
  }
  void recv(int, int, vm::ArrayObj& arr, long long off, long long n) override {
    for (long long k = 0; k < n; ++k) arr.data[static_cast<std::size_t>(off + k)].f = 0.5 * k;
    seen.push_back(vm_->cycles());
  }
  double allreduce_max(double v) override {
    seen.push_back(vm_->cycles());
    return v + 1;
  }
  void iter_mark(long long) override { seen.push_back(vm_->cycles()); }

  double seen_sum() const {
    double sum = 0;
    for (double c : seen) sum += c;
    return sum;
  }
};

struct PinnedRun {
  long long ret;
  double cycles;
  std::uint64_t instructions;
  double hook_cycle_sum;
  std::uint64_t block_cycles[3];  // blocks 1, 2 and 11 (nested in 2)
};

TEST(Vm, PinnedCountersAtO0AndO3) {
  const std::pair<OptLevel, PinnedRun> cases[] = {
      {OptLevel::O0, {14, 36420, 9040, 385940, {4534, 25056, 10428}}},
      {OptLevel::O3, {14, 22076, 3551, 240152, {3035, 12462, 3888}}},
  };
  for (const auto& [lvl, want] : cases) {
    SCOPED_TRACE(ir::opt_level_name(lvl));
    const ir::IrProgram prog = ir::compile_source(kPinnedProgram, lvl);
    vm::Vm m{prog};
    CycleProbe probe;
    m.set_hooks(&probe);
    EXPECT_EQ(m.run_main(), want.ret);
    EXPECT_EQ(m.cycles(), want.cycles);
    EXPECT_EQ(m.papi().instructions, want.instructions);
    EXPECT_EQ(m.papi().iter_marks, 6u);
    EXPECT_EQ(probe.seen.size(), 20u);
    EXPECT_EQ(probe.seen_sum(), want.hook_cycle_sum);
    ASSERT_EQ(m.papi().blocks.size(), 3u);
    const int ids[] = {1, 2, 11};
    const std::uint64_t execs[] = {1, 6, 6};
    for (int k = 0; k < 3; ++k) {
      const auto& stat = m.papi().blocks.at(ids[k]);
      EXPECT_EQ(stat.executions, execs[k]) << "block " << ids[k];
      EXPECT_EQ(stat.cycles, static_cast<double>(want.block_cycles[k])) << "block " << ids[k];
    }
  }
}

TEST(Vm, PinnedCountersUnderNonDyadicCostModel) {
  // Costs that are not multiples of 1/4 make the rounding of every addition
  // into the cycle counter observable: the pinned values are those of
  // charging one instruction at a time, in program order.
  vm::CostModel odd = vm::CostModel::default_model();
  odd.set_op_cost(ir::Op::AddF, 3.1);
  odd.set_op_cost(ir::Op::LoadIdx, 4.3);
  odd.call_overhead = 12.3;
  const ir::IrProgram prog = ir::compile_source(kPinnedProgram, OptLevel::O0);
  vm::Vm m{prog, odd};
  CycleProbe probe;
  m.set_hooks(&probe);
  m.run_main();
  EXPECT_EQ(m.cycles(), 36700.79999999969);
  EXPECT_EQ(m.papi().instructions, 9040u);
  EXPECT_EQ(probe.seen_sum(), 388791.199999996);
  EXPECT_EQ(m.papi().blocks.at(2).cycles, 25303.199999999691);
  EXPECT_EQ(m.papi().blocks.at(11).cycles, 10523.999999999769);
}

TEST(Vm, CycleLimitTripsAtTheSameHookCall) {
  const char* src = R"(
int main() {
  int n = p2p_param(0);
  double a[n];
  double s = 0.0;
  for (int it = 0; it < 1000; it = it + 1) {
    dperf_iter_mark(3);
    for (int i = 0; i < n; i = i + 1) { s = s + sqrt(1.0 * i); a[i] = s; }
    p2p_send(1, 1, a, 0, n);
  }
  return 0;
}
)";
  struct Case {
    double limit;
    std::size_t calls;  // hook calls made before the trap
    double last;        // cycles seen by the last of them
  };
  // Around the sixth hook call (a send: 417 cycles of call overhead and
  // builtin cost are charged after the limit check that precedes it), the
  // seventh (an iteration mark) and the eighth.
  const std::pair<OptLevel, std::vector<Case>> cases[] = {
      {OptLevel::O0,
       {{12241.75, 5, 8502}, {12242, 6, 12659}, {12658.75, 6, 12659}, {12659, 6, 12659},
        {12659.25, 6, 12659}, {12676, 6, 12659}, {12677, 7, 12677}, {14755.5, 7, 12677},
        {16833.75, 8, 16834}, {16834, 8, 16834}}},
      {OptLevel::O3,
       {{7847.75, 5, 5563}, {7848, 6, 8265}, {8264.75, 6, 8265}, {8265, 6, 8265},
        {8265.25, 6, 8265}, {8272, 6, 8265}, {8273, 7, 8273}, {9624, 7, 8273},
        {10974.75, 8, 10975}, {10975, 8, 10975}}},
  };
  for (const auto& [lvl, rows] : cases) {
    const ir::IrProgram prog = ir::compile_source(src, lvl);
    for (const Case& c : rows) {
      SCOPED_TRACE(std::string(ir::opt_level_name(lvl)) + " limit " + std::to_string(c.limit));
      vm::Vm m{prog};
      CycleProbe probe;
      m.set_hooks(&probe);
      m.set_cycle_limit(c.limit);
      EXPECT_THROW(m.run_main(), vm::TrapError);
      ASSERT_EQ(probe.seen.size(), c.calls);
      EXPECT_EQ(probe.seen.back(), c.last);
    }
  }
}

// --- optimization pipelines ---

const char* kKernel = R"(
int main() {
  int n = 40;
  double u[n * n];
  for (int i = 0; i < n * n; i = i + 1) { u[i] = 0.5; }
  double acc = 0.0;
  for (int i = 1; i < n - 1; i = i + 1) {
    for (int j = 1; j < n - 1; j = j + 1) {
      int idx = i * n + j;
      double v = 0.25 * (u[idx - 1] + u[idx + 1] + u[idx - n] + u[idx + n]);
      u[idx] = v * 1.0 + 0.0;
      acc = acc + v * 2.0;
    }
  }
  if (acc > 0.0) { return 1; }
  return 0;
}
)";

TEST(Pipeline, AllLevelsAgreeOnSemantics) {
  for (OptLevel lvl : ir::all_opt_levels()) EXPECT_EQ(run_int(kKernel, lvl), 1)
      << ir::opt_level_name(lvl);
}

TEST(Pipeline, HigherLevelsExecuteFewerCycles) {
  const double o0 = run_cycles(kKernel, OptLevel::O0);
  const double o1 = run_cycles(kKernel, OptLevel::O1);
  const double o2 = run_cycles(kKernel, OptLevel::O2);
  const double o3 = run_cycles(kKernel, OptLevel::O3);
  const double os = run_cycles(kKernel, OptLevel::Os);
  EXPECT_LT(o1, o0 * 0.8) << "promotion should cut memory traffic";
  EXPECT_LE(o2, o1) << "CSE should not regress";
  EXPECT_LT(o3, o2 * 1.001) << "unroll+LICM should not regress";
  EXPECT_LE(os, o2 * 1.001);
  // The overall O0/O3 spread matches the paper's Fig. 9 character (the O0
  // curve is roughly 3x the optimized ones).
  EXPECT_GT(o0 / o3, 1.8);
}

TEST(Pipeline, OsIsNotLargerThanO3Code) {
  const ir::IrProgram o3 = ir::compile_source(kKernel, OptLevel::O3);
  const ir::IrProgram os = ir::compile_source(kKernel, OptLevel::Os);
  EXPECT_LE(os.instr_count(), o3.instr_count());
}

TEST(Passes, ConstantFoldingFoldsLiterals) {
  const ir::IrProgram prog =
      ir::compile_source("int main() { return 2 + 3 * 4 - 1; }", OptLevel::O1);
  // After folding, main should contain no arithmetic at all.
  for (const auto& blk : prog.functions[0].blocks)
    for (const auto& in : blk.instrs) {
      EXPECT_NE(in.op, ir::Op::AddI);
      EXPECT_NE(in.op, ir::Op::MulI);
      EXPECT_NE(in.op, ir::Op::SubI);
    }
  EXPECT_EQ(run_int("int main() { return 2 + 3 * 4 - 1; }", OptLevel::O1), 13);
}

TEST(Passes, PromotionRemovesScalarMemoryTraffic) {
  const ir::IrProgram prog = ir::compile_source(
      "int main() { int s = 0; for (int i = 0; i < 9; i = i + 1) { s = s + i; } return s; }",
      OptLevel::O1);
  for (const auto& blk : prog.functions[0].blocks)
    for (const auto& in : blk.instrs) {
      EXPECT_NE(in.op, ir::Op::LoadVar);
      EXPECT_NE(in.op, ir::Op::StoreVar);
    }
}

TEST(Passes, CseDeduplicatesIndexArithmetic) {
  const char* src = R"(
int main() {
  int n = 10;
  double a[n * n];
  int i = 3; int j = 4;
  a[i * n + j] = 1.0;
  double x = a[i * n + j];
  if (x == 1.0) { return 1; }
  return 0;
}
)";
  EXPECT_EQ(run_int(src, OptLevel::O2), 1);
  const double o1 = run_cycles(src, OptLevel::O1);
  const double o2 = run_cycles(src, OptLevel::O2);
  EXPECT_LT(o2, o1);
}

TEST(Passes, LicmHoistsInvariantMultiplication) {
  const char* src = R"(
int main() {
  int n = 50;
  int s = 0;
  for (int i = 0; i < 200; i = i + 1) { s = s + n * n; }
  return s;
}
)";
  EXPECT_EQ(run_int(src, OptLevel::Os), 200 * 2500);
  const double o2 = run_cycles(src, OptLevel::O2);
  const double os = run_cycles(src, OptLevel::Os);
  EXPECT_LT(os, o2) << "n*n should be hoisted out of the loop";
}

TEST(Passes, LicmDoesNotHoistFirstIterationObservableDefs) {
  // x is read before being redefined inside the loop; hoisting x = a*b
  // would corrupt the first iteration.
  const char* src = R"(
int main() {
  int a = 6; int b = 7;
  int x = 1;
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) {
    s = s + x;
    x = a * b;
  }
  return s;  // 1 + 42 + 42 = 85
}
)";
  for (OptLevel lvl : ir::all_opt_levels()) EXPECT_EQ(run_int(src, lvl), 85)
      << ir::opt_level_name(lvl);
}

TEST(Passes, UnrollPreservesTripCountsIncludingRemainder) {
  for (int n : {0, 1, 3, 4, 5, 7, 8, 9, 17}) {
    const std::string src =
        "int main() { int s = 0; for (int i = 0; i < " + std::to_string(n) +
        "; i = i + 1) { s = s + i; } return s; }";
    const long long want = static_cast<long long>(n) * (n - 1) / 2;
    EXPECT_EQ(run_int(src, OptLevel::O3), want) << "n=" << n;
  }
}

TEST(Passes, UnrollSkipsLoopsWithCalls) {
  minic::Program p = minic::parse(R"(
int f(int x) { return x + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) { s = f(s); }
  return s;
}
)");
  EXPECT_EQ(ir::unroll_loops(p, 4), 0);
}

TEST(Passes, UnrollTransformsEligibleLoops) {
  minic::Program p = minic::parse(
      "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }");
  EXPECT_EQ(ir::unroll_loops(p, 4), 1);
}

TEST(Pipeline, ParseOptLevelNames) {
  EXPECT_EQ(ir::parse_opt_level("0"), OptLevel::O0);
  EXPECT_EQ(ir::parse_opt_level("O3"), OptLevel::O3);
  EXPECT_EQ(ir::parse_opt_level("s"), OptLevel::Os);
  EXPECT_THROW(ir::parse_opt_level("fast"), std::invalid_argument);
}

}  // namespace
}  // namespace pdc
