// The MiniC virtual machine: an IR interpreter with a deterministic cycle
// cost model and vPAPI virtual hardware counters.
//
// This replaces the paper's PAPI/hardware-counter measurement layer: block
// timings come from a per-opcode cycle model instead of performance-counter
// registers, giving noise-free "measurements" with the same interface role
// (per-block durations in nanoseconds at a given core frequency).
//
// Execution model. The constructor decodes every ir::IrFunction once into
// flat code: builtins resolve to their own opcodes, block ids to code
// offsets, callees to decoded functions. The interpreter then charges the
// cost model once per *segment*, not per instruction. A segment is a run of
// instructions that ends at a terminator, a BlockBegin, BlockEnd or
// IterMark, an AllocArr, a user call, or a p2p_send, p2p_recv or
// p2p_allreduce_max call. Its static cost (op costs, plus the call overhead,
// per-argument and builtin costs of the builtins inside it) and its
// instruction count are added at its start, where the cycle limit is
// checked; a segment-ending call adds its own call costs just before it
// runs. Those ends are the only points where anything reads cycles(): block
// timers, the iteration-mark and communication hooks, a callee's first
// segment. They see exactly the value that charging one instruction at a
// time, in program order, would give, and a cycle limit trips before the
// same hook call. The p2p_rank, p2p_nprocs, p2p_param and p2p_param_f hooks
// run mid-segment and must not read cycles().
//
// Equality holds because the additions are exact: the decoder takes the
// segment path only when every cost of the model is a non-negative multiple
// of 1/4 no larger than 2^20, so partial sums are exact while the counter
// stays below 2^51 cycles (8.7 days of model time at 3 GHz).
// CostModel::default_model() qualifies. For any other model the same
// decoder ends a segment after every instruction, which reproduces the
// per-instruction rounding. After a trap, cycles() and the instruction count
// may include the rest of the trapping segment, and a cycle-limit trap may
// pre-empt another trap later in the same segment.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace pdc::vm {

struct Value {
  long long i = 0;
  double f = 0;

  static Value of_i(long long v) {
    Value x;
    x.i = v;
    return x;
  }
  static Value of_f(double v) {
    Value x;
    x.f = v;
    return x;
  }
};

struct ArrayObj {
  ir::IrType elem = ir::IrType::F64;
  std::vector<Value> data;
};

/// Cycle costs per operation; see default_model() for the Xeon-era numbers.
class CostModel {
 public:
  static CostModel default_model();

  double op_cost(ir::Op op) const { return op_cost_[static_cast<std::size_t>(op)]; }
  void set_op_cost(ir::Op op, double cycles) { op_cost_[static_cast<std::size_t>(op)] = cycles; }
  double builtin_cost(const std::string& name) const;
  /// True when every cost is a non-negative multiple of 1/4 no larger than
  /// 2^20: the precondition for charging cycles once per segment.
  bool quarter_exact() const;
  double call_overhead = 12;
  double per_arg_cost = 1;
  double alloc_base = 100;
  double alloc_per_elem = 0.25;

 private:
  std::vector<double> op_cost_ = std::vector<double>(64, 1.0);
  std::map<std::string, double> builtin_cost_;
};

/// Virtual PAPI counters.
struct VPapi {
  struct BlockStat {
    std::uint64_t executions = 0;
    double cycles = 0;
  };
  std::uint64_t instructions = 0;
  std::map<int, BlockStat> blocks;
  std::uint64_t iter_marks = 0;

  /// Mean cycles per execution of an instrumented block.
  double mean_cycles(int block_id) const {
    auto it = blocks.find(block_id);
    if (it == blocks.end() || it->second.executions == 0) return 0;
    return it->second.cycles / static_cast<double>(it->second.executions);
  }
};

class Vm;

/// Host hooks for the communication intrinsics and workload parameters.
/// The default implementation is a single-process, zero-parameter world.
class CommHooks {
 public:
  virtual ~CommHooks() = default;
  virtual int rank() { return 0; }
  virtual int nprocs() { return 1; }
  virtual long long param(int /*i*/) { return 0; }
  virtual double param_f(int /*i*/) { return 0; }
  virtual void send(int /*peer*/, int /*tag*/, ArrayObj& /*arr*/, long long /*off*/,
                    long long /*n*/) {}
  virtual void recv(int /*peer*/, int /*tag*/, ArrayObj& /*arr*/, long long /*off*/,
                    long long /*n*/) {}
  virtual double allreduce_max(double v) { return v; }
  virtual void iter_mark(long long /*id*/) {}

 protected:
  friend class Vm;
  Vm* vm_ = nullptr;  // set by Vm::set_hooks; hooks may query cycles()
};

/// Runtime trap (out-of-bounds, division by zero, cycle limit, ...).
class TrapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by hooks to stop execution early (dPerf's sampled trace runs).
class StopExecution : public std::runtime_error {
 public:
  StopExecution() : std::runtime_error("execution stopped by hooks") {}
};

class Vm {
 public:
  /// Decodes `program`, which must outlive the Vm.
  explicit Vm(const ir::IrProgram& program, CostModel model = CostModel::default_model());
  ~Vm();
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  void set_hooks(CommHooks* hooks);

  /// Calls a function by name. Scalar arguments only (top-level entry).
  Value call(const std::string& name, const std::vector<Value>& args = {});

  /// Runs int main() and returns its value.
  long long run_main();

  double cycles() const { return cycles_; }
  /// Simulated nanoseconds at `hz` core frequency.
  double ns_at(double hz) const { return cycles_ / hz * 1e9; }
  const VPapi& papi() const { return papi_; }
  VPapi& papi() { return papi_; }

  void set_cycle_limit(double limit) { cycle_limit_ = limit; }

 private:
  struct Function;  // one ir::IrFunction decoded to flat code (vm.cpp)

  /// Runs `fn` with argument i in register i; array parameters bind to
  /// `array_args[param_index]`.
  Value exec(Function& fn, const Value* args, std::size_t nargs,
             const std::shared_ptr<ArrayObj>* array_args, int depth);

  const ir::IrProgram* prog_;
  CostModel model_;
  std::vector<Function> functions_;  // parallel to prog_->functions
  CommHooks default_hooks_;
  CommHooks* hooks_;
  double cycles_ = 0;
  double cycle_limit_ = 1e18;
  VPapi papi_;
  std::vector<std::pair<int, double>> block_stack_;
};

}  // namespace pdc::vm
