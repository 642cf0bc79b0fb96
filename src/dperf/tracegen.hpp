// Trace generation: runs the instrumented program in the VM per rank,
// recording computation segments (cycle deltas converted to ns at the
// reference host frequency) and communication calls.
#pragma once

#include "dperf/blocks.hpp"
#include "dperf/trace.hpp"
#include "ir/pipeline.hpp"
#include "vm/vm.hpp"

namespace pdc::dperf {

/// Workload parameters exposed to MiniC through p2p_param / p2p_param_f.
struct Workload {
  std::vector<long long> int_params;
  std::vector<double> float_params;
};

/// Per-block timing measurements from a benchmarking run (the paper's
/// "time for each block of instructions").
struct BlockTimings {
  struct Entry {
    BlockInfo info;
    std::uint64_t executions = 0;
    double mean_ns = 0;
  };
  std::vector<Entry> entries;
  double host_hz = 3e9;

  const Entry* find(int id) const {
    for (const auto& e : entries)
      if (e.info.id == id) return &e;
    return nullptr;
  }
  /// Total ns of blocks outside communication loops (executed O(1) times).
  double once_ns() const;
  /// Sum of per-execution means of blocks inside communication loops
  /// (~ the compute cost of one outer iteration).
  double per_iteration_ns() const;
};

/// Executes `program`, the compiled instrumented program, with no-op
/// communication and returns the vPAPI statistics of its `blocks`.
BlockTimings benchmark_blocks(const ir::IrProgram& program, const std::vector<BlockInfo>& blocks,
                              const Workload& workload, double host_hz, int rank = 0,
                              int nprocs = 1);

/// Executes `program` for one rank and records its trace. Computation times
/// are expressed at `host_hz`.
Trace generate_trace(const ir::IrProgram& program, const Workload& workload, int rank,
                     int nprocs, double host_hz);

}  // namespace pdc::dperf
