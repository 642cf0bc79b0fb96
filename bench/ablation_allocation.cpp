// Ablation A1: hierarchical task allocation (coordinators, paper §III-C)
// versus the flat baseline where the submitter connects to every peer in
// succession and gathers all results itself. The paper's claim: hierarchy
// accelerates allocation and avoids the bottleneck at the submitter.
#include <cstdio>

#include "scenario/runner.hpp"
#include "support/table.hpp"

int main() {
  using namespace pdc;
  std::printf("Ablation A1 -- hierarchical vs flat task allocation on the cluster\n"
              "(64 KiB subtasks + 64 KiB results, trivial compute; times in ms)\n\n");

  TextTable table({"Peers", "Cmax", "hier alloc", "flat alloc", "hier total", "flat total"});
  for (int peers : {8, 16, 32}) {
    double alloc[2], total[2];
    int i = 0;
    for (auto mode : {p2pdc::AllocationMode::Hierarchical, p2pdc::AllocationMode::Flat}) {
      scenario::RunSpec run;
      run.peers = peers;
      auto d = scenario::deploy(scenario::PlatformSpec::grid5000(), run);
      p2pdc::TaskSpec spec;
      spec.peers_needed = peers;
      spec.cmax = 8;
      spec.allocation = mode;
      spec.subtask_bytes = 64e3;
      spec.result_bytes = 64e3;
      auto result = d->env->run_computation(d->submitter, spec,
                                            [](p2pdc::PeerContext& ctx) -> sim::Task<void> {
                                              co_await ctx.compute(0.001);
                                            });
      if (!result.ok) {
        std::printf("run failed: %s\n", result.failure.c_str());
        return 1;
      }
      alloc[i] = result.allocation_time() * 1e3;
      total[i] = result.total_time() * 1e3;
      ++i;
    }
    table.add_row({std::to_string(peers), "8", TextTable::num(alloc[0], 2),
                   TextTable::num(alloc[1], 2), TextTable::num(total[0], 2),
                   TextTable::num(total[1], 2)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
