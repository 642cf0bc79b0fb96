// Ablation A2: P2PSAP self-adaptation -- synchronous (reliable, acked) vs
// asynchronous (latest-value, unacknowledged) channel modes for the
// obstacle solver's halo exchanges, on LAN and xDSL link classes. One
// reference campaign: platform x scheme.
#include <cstdio>
#include <map>
#include <string>

#include "campaign/executor.hpp"
#include "support/table.hpp"

int main() {
  using namespace pdc;
  campaign::CampaignSpec camp;
  camp.name = "ablation-p2psap";
  camp.base.name = "ablation-p2psap";
  camp.base.run = scenario::RunSpec::from_env();
  // A shorter run suffices to expose the per-iteration channel overhead.
  camp.base.run.grid_n = 514;
  camp.base.run.iters = 200;
  camp.base.run.peers = 4;
  camp.base.run.mode = scenario::Mode::Reference;
  camp.platforms = {scenario::PlatformSpec::grid5000(), scenario::PlatformSpec::lan(),
                    scenario::PlatformSpec::xdsl()};
  camp.schemes = {p2psap::Scheme::Synchronous, p2psap::Scheme::Asynchronous};
  std::printf("Ablation A2 -- P2PSAP scheme adaptation, obstacle %dx%d, %d iterations,\n"
              "4 peers (solve seconds; async iterations overlap communication)\n\n",
              camp.base.run.grid_n, camp.base.run.grid_n, camp.base.run.iters);

  campaign::Executor executor{camp};
  executor.execute();
  std::map<std::pair<std::string, p2psap::Scheme>, double> solve;
  for (const campaign::Outcome& out : executor.outcomes()) {
    if (!out.ok()) {
      std::printf("run failed: %s\n", out.error.c_str());
      return 1;
    }
    solve[{out.run.spec.platform.label, out.run.spec.run.scheme}] =
        out.metrics.at("reference_solve_seconds");
  }

  TextTable table({"Topology", "sync scheme [s]", "async scheme [s]", "async speedup"});
  const std::pair<const char*, const char*> topologies[] = {
      {"grid5000", "Grid5000"}, {"lan", "LAN"}, {"xdsl", "xDSL"}};
  for (const auto& [label, name] : topologies) {
    const double sync = solve.at({label, p2psap::Scheme::Synchronous});
    const double async = solve.at({label, p2psap::Scheme::Asynchronous});
    table.add_row({name, TextTable::num(sync, 2), TextTable::num(async, 2),
                   TextTable::num(sync / async, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: async iterations use stale halo data and need more iterations to\n"
              "converge; this table isolates the per-iteration transport cost.\n");
  return 0;
}
