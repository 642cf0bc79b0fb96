#include "dperf/tracegen.hpp"

namespace pdc::dperf {

namespace {

/// Hooks providing workload parameters and rank identity; communication is
/// a no-op (data is irrelevant to timing in fixed-iteration kernels).
class ParamHooks : public vm::CommHooks {
 public:
  ParamHooks(const Workload& w, int rank, int nprocs)
      : workload_(&w), rank_(rank), nprocs_(nprocs) {}

  int rank() override { return rank_; }
  int nprocs() override { return nprocs_; }
  long long param(int i) override {
    const auto idx = static_cast<std::size_t>(i);
    return idx < workload_->int_params.size() ? workload_->int_params[idx] : 0;
  }
  double param_f(int i) override {
    const auto idx = static_cast<std::size_t>(i);
    return idx < workload_->float_params.size() ? workload_->float_params[idx] : 0;
  }

 private:
  const Workload* workload_;
  int rank_, nprocs_;
};

/// Records communication calls and computation segments between them.
class RecorderHooks : public ParamHooks {
 public:
  RecorderHooks(const Workload& w, int rank, int nprocs, double host_hz, Trace& out)
      : ParamHooks(w, rank, nprocs), host_hz_(host_hz), out_(&out) {}

  void send(int peer, int tag, vm::ArrayObj&, long long, long long n) override {
    flush_compute();
    TraceEvent e;
    e.kind = TraceEvent::Kind::Send;
    e.peer = peer;
    e.tag = tag;
    e.bytes = static_cast<double>(n) * 8;  // doubles on the wire
    out_->events.push_back(e);
  }
  void recv(int peer, int tag, vm::ArrayObj&, long long, long long) override {
    flush_compute();
    TraceEvent e;
    e.kind = TraceEvent::Kind::Recv;
    e.peer = peer;
    e.tag = tag;
    out_->events.push_back(e);
  }
  double allreduce_max(double v) override {
    flush_compute();
    TraceEvent e;
    e.kind = TraceEvent::Kind::Allreduce;
    out_->events.push_back(e);
    return v;  // single-process view; values do not steer fixed-iteration kernels
  }
  void iter_mark(long long id) override {
    flush_compute();
    TraceEvent e;
    e.kind = TraceEvent::Kind::IterMark;
    e.iter_id = id;
    out_->events.push_back(e);
  }

  void flush_compute() {
    const double cycles = vm_->cycles();
    if (cycles > last_cycles_) {
      TraceEvent e;
      e.kind = TraceEvent::Kind::Compute;
      e.ns = static_cast<std::uint64_t>((cycles - last_cycles_) / host_hz_ * 1e9 + 0.5);
      if (e.ns > 0) out_->events.push_back(e);
      last_cycles_ = cycles;
    }
  }

 private:
  double host_hz_;
  Trace* out_;
  double last_cycles_ = 0;
};

}  // namespace

double BlockTimings::once_ns() const {
  double total = 0;
  for (const auto& e : entries)
    if (e.info.comm_loop_depth == 0) total += e.mean_ns * static_cast<double>(e.executions);
  return total;
}

double BlockTimings::per_iteration_ns() const {
  double total = 0;
  for (const auto& e : entries)
    if (e.info.comm_loop_depth > 0) total += e.mean_ns;
  return total;
}

BlockTimings benchmark_blocks(const ir::IrProgram& program, const std::vector<BlockInfo>& blocks,
                              const Workload& workload, double host_hz, int rank,
                              int nprocs) {
  vm::Vm m{program};
  ParamHooks hooks{workload, rank, nprocs};
  m.set_hooks(&hooks);
  m.run_main();

  BlockTimings out;
  out.host_hz = host_hz;
  for (const BlockInfo& info : blocks) {
    BlockTimings::Entry e;
    e.info = info;
    const auto it = m.papi().blocks.find(info.id);
    if (it != m.papi().blocks.end()) {
      e.executions = it->second.executions;
      if (e.executions > 0)
        e.mean_ns = it->second.cycles / static_cast<double>(e.executions) / host_hz * 1e9;
    }
    out.entries.push_back(e);
  }
  return out;
}

Trace generate_trace(const ir::IrProgram& program, const Workload& workload, int rank,
                     int nprocs, double host_hz) {
  Trace trace;
  trace.rank = rank;
  trace.nprocs = nprocs;
  trace.host_hz = host_hz;
  vm::Vm m{program};
  RecorderHooks hooks{workload, rank, nprocs, host_hz, trace};
  m.set_hooks(&hooks);
  m.run_main();
  hooks.flush_compute();
  return trace;
}

}  // namespace pdc::dperf
