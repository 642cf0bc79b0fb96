// Fig. 9 (paper §IV-B.1): Stage-1 reference execution time of the obstacle
// problem on the Bordeplage cluster for 2..32 peers at every GCC-equivalent
// optimization level {0, 1, 2, 3, s}, driven as one declarative campaign
// (peers x opt sweep) instead of a hand-rolled loop. PDC_CAMPAIGN_JOBS runs
// grid cells concurrently; the table is identical at any job count because
// every run is an independent deterministic simulation.
//
// Expected shape: times fall monotonically with peers; the O0 curve is
// roughly 3x the optimized ones; levels >= 1 are clustered together.
#include <cstdio>
#include <map>

#include "campaign/executor.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

int main() {
  using namespace pdc;
  const std::vector<int> paper_peers{2, 4, 8, 16, 32};  // the paper's 2^1..2^5
  const scenario::RunSpec base = scenario::RunSpec::from_env();
  std::printf("Fig. 9 -- Stage-1 reference execution time [s], obstacle problem %dx%d,\n"
              "%d iterations, P2PDC on the Bordeplage cluster model (1 Gbps NICs, 10 Gbps\n"
              "backbone, 3 GHz nodes)\n\n",
              base.grid_n, base.grid_n, base.iters);

  campaign::CampaignSpec camp;
  camp.name = "fig9";
  camp.base.name = "fig9";
  camp.base.platform = scenario::PlatformSpec::grid5000();
  camp.base.run = base;
  camp.base.run.mode = scenario::Mode::Reference;
  camp.peers = paper_peers;
  camp.levels = ir::all_opt_levels();

  campaign::ExecutorOptions opts;
  opts.jobs = env_int("PDC_CAMPAIGN_JOBS", 1);
  opts.progress = true;
  campaign::Executor executor{camp, opts};
  executor.execute();

  std::map<std::pair<int, int>, double> solve;
  for (const campaign::Outcome& out : executor.outcomes()) {
    if (!out.ok()) {
      std::fprintf(stderr, "run %s failed: %s\n", out.run.key.c_str(), out.error.c_str());
      return 1;
    }
    solve[{out.run.spec.run.peers, static_cast<int>(out.run.spec.run.level)}] =
        out.metrics.at("reference_solve_seconds");
  }

  TextTable table({"Peers", "opt 0", "opt 1", "opt 2", "opt 3", "opt s"});
  for (int peers : paper_peers) {
    std::vector<std::string> row{std::to_string(peers)};
    for (ir::OptLevel lvl : ir::all_opt_levels())
      row.push_back(TextTable::num(solve.at({peers, static_cast<int>(lvl)}), 2));
    table.add_row(std::move(row));
  }
  std::printf("\n%s\n", table.render().c_str());

  std::printf("Block-benchmark cost model (dPerf, ns per grid point):\n");
  TextTable costs({"Level", "init ns/pt", "iter ns/pt"});
  for (ir::OptLevel lvl : ir::all_opt_levels()) {
    const auto& c = scenario::cost_profile(lvl, base);
    costs.add_row({ir::opt_level_name(lvl), TextTable::num(c.init_ns_per_point, 2),
                   TextTable::num(c.iter_ns_per_point, 2)});
  }
  std::printf("%s\n", costs.render().c_str());
  return 0;
}
