// Fig. 10 (paper §IV-B.3): Stage-1 comparison of the reference execution
// time against the dPerf prediction on the identical cluster platform, GCC
// optimization level 3. The two curves must nearly coincide ("the reference
// time and the prediction calculated with dPerf are very close").
//
// One campaign with a peers axis and mode=both: each grid cell executes the
// reference, replays the traces, and reports its own error.
#include <algorithm>
#include <cstdio>
#include <map>

#include "campaign/executor.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

int main() {
  using namespace pdc;
  const std::vector<int> paper_peers{2, 4, 8, 16, 32};  // the paper's 2^1..2^5
  std::printf("Fig. 10 -- Stage-1 reference vs dPerf prediction [s], optimization level 3\n\n");

  campaign::CampaignSpec camp;
  camp.name = "fig10";
  camp.base.name = "fig10";
  camp.base.platform = scenario::PlatformSpec::grid5000();
  camp.base.run = scenario::RunSpec::from_env();
  camp.base.run.level = ir::OptLevel::O3;
  camp.base.run.mode = scenario::Mode::Both;
  camp.peers = paper_peers;

  campaign::ExecutorOptions opts;
  opts.jobs = env_int("PDC_CAMPAIGN_JOBS", 1);
  opts.progress = true;
  campaign::Executor executor{camp, opts};
  executor.execute();

  std::map<int, const campaign::Outcome*> by_peers;
  for (const campaign::Outcome& out : executor.outcomes()) {
    if (!out.ok()) {
      std::fprintf(stderr, "run %s failed: %s\n", out.run.key.c_str(), out.error.c_str());
      return 1;
    }
    by_peers[out.run.spec.run.peers] = &out;
  }

  TextTable table({"Peers", "reference", "dPerf prediction", "error %"});
  double worst_err = 0;
  for (int peers : paper_peers) {
    const campaign::Outcome& out = *by_peers.at(peers);
    const auto& m = out.metrics;
    const auto it = m.find("prediction_error");
    const double err = 100.0 * (it != m.end() ? it->second : 0.0);
    worst_err = std::max(worst_err, err);
    table.add_row({std::to_string(peers),
                   TextTable::num(m.at("reference_solve_seconds"), 2),
                   TextTable::num(m.at("predicted_solve_seconds"), 2),
                   TextTable::num(err, 1)});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("worst prediction error: %.1f%% (paper: curves nearly coincide)\n", worst_err);
  return 0;
}
