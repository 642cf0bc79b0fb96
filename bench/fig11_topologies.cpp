// Fig. 11 (paper §IV-B.4): reference time compared to dPerf predictions for
// the Grid5000 cluster, the Daisy xDSL desktop grid (Stage-2A) and the LAN
// (Stage-2B), all at optimization level 0 — two campaigns: one reference
// sweep on the cluster, one prediction sweep with a platform axis. dPerf
// traces depend only on the run spec (never on the platform) and are
// memoized in Runner::traces(), so all three platform cells of a peer
// count replay the same trace set — exactly the paper's methodology.
//
// Expected shape: the xDSL curve sits far above the others (communication
// dominates; adding peers does not pay), the LAN curve tracks the cluster
// within a modest factor.
#include <cstdio>
#include <map>
#include <string>

#include "campaign/executor.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

int main() {
  using namespace pdc;
  const std::vector<int> paper_peers{2, 4, 8, 16, 32};  // the paper's 2^1..2^5
  std::printf("Fig. 11 -- reference vs dPerf predictions [s], optimization level 0\n\n");

  scenario::RunSpec base = scenario::RunSpec::from_env();
  base.level = ir::OptLevel::O0;

  campaign::ExecutorOptions opts;
  opts.jobs = env_int("PDC_CAMPAIGN_JOBS", 1);
  opts.progress = true;

  // Campaign 1: the cluster reference curve.
  campaign::CampaignSpec ref;
  ref.name = "fig11-ref";
  ref.base.name = "fig11-ref";
  ref.base.platform = scenario::PlatformSpec::grid5000();
  ref.base.run = base;
  ref.base.run.mode = scenario::Mode::Reference;
  ref.peers = paper_peers;
  campaign::Executor ref_executor{ref, opts};
  ref_executor.execute();

  // Campaign 2: predictions across the platform axis.
  campaign::CampaignSpec pred;
  pred.name = "fig11";
  pred.base.name = "fig11";
  pred.base.run = base;
  pred.base.run.mode = scenario::Mode::Predict;
  pred.platforms = {scenario::PlatformSpec::grid5000(), scenario::PlatformSpec::xdsl(),
                    scenario::PlatformSpec::lan()};
  pred.peers = paper_peers;
  campaign::Executor pred_executor{pred, opts};
  pred_executor.execute();

  std::map<int, double> reference;
  for (const campaign::Outcome& out : ref_executor.outcomes()) {
    if (!out.ok()) {
      std::fprintf(stderr, "run %s failed: %s\n", out.run.key.c_str(), out.error.c_str());
      return 1;
    }
    reference[out.run.spec.run.peers] = out.metrics.at("reference_solve_seconds");
  }
  std::map<std::pair<std::string, int>, double> predicted;
  for (const campaign::Outcome& out : pred_executor.outcomes()) {
    if (!out.ok()) {
      std::fprintf(stderr, "run %s failed: %s\n", out.run.key.c_str(), out.error.c_str());
      return 1;
    }
    predicted[{out.run.spec.platform.label, out.run.spec.run.peers}] =
        out.metrics.at("predicted_solve_seconds");
  }

  TextTable table({"Peers", "reference", "dPerf Grid5000", "dPerf xDSL", "dPerf LAN"});
  for (int peers : paper_peers) {
    // Paper column order: Grid5000, xDSL, LAN.
    table.add_row({std::to_string(peers), TextTable::num(reference.at(peers), 2),
                   TextTable::num(predicted.at({"grid5000", peers}), 2),
                   TextTable::num(predicted.at({"xdsl", peers}), 2),
                   TextTable::num(predicted.at({"lan", peers}), 2)});
  }
  std::printf("\n%s\n", table.render().c_str());
  return 0;
}
