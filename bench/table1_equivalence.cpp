// Table I (paper §IV-B.4): "comparing equivalent predictions and the
// corresponding computing power in Grid5000" -- for the paper's five
// comparisons, the predicted P2P desktop-grid time is matched against the
// cluster reference and classified the way the paper words it
// ("slightly lower than" = the P2P configuration performs slightly worse,
// "same as" = equivalent computing power). Three campaigns replace the
// hand-rolled loops: cluster references, LAN predictions, one xDSL point.
#include <cmath>
#include <cstdio>
#include <map>

#include "campaign/executor.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

namespace {

std::string classify(double p2p_seconds, double cluster_seconds) {
  const double ratio = p2p_seconds / cluster_seconds;
  if (ratio > 2.0) return "much lower than";
  if (ratio > 1.05) return "slightly lower than";
  if (ratio >= 0.95) return "same as";
  if (ratio >= 0.5) return "slightly higher than";
  return "much higher than";
}

}  // namespace

int main() {
  using namespace pdc;
  scenario::RunSpec base = scenario::RunSpec::from_env();
  base.level = ir::OptLevel::O0;
  std::printf("Table I -- equivalent computing power, optimization level 0\n"
              "(classification by predicted-time ratio; the paper's wording:\n"
              " 'performance slightly lower than' = P2P config slightly slower)\n\n");

  campaign::ExecutorOptions opts;
  opts.jobs = env_int("PDC_CAMPAIGN_JOBS", 1);
  opts.progress = true;

  auto make = [&base](const char* name, scenario::PlatformSpec platform,
                      scenario::Mode mode, std::vector<int> peers) {
    campaign::CampaignSpec c;
    c.name = name;
    c.base.name = name;
    c.base.platform = std::move(platform);
    c.base.run = base;
    c.base.run.mode = mode;
    c.peers = std::move(peers);
    return c;
  };

  // Reference cluster times at the peer counts the paper compares against,
  // and predicted desktop-grid times for the paper's configurations.
  campaign::Executor cluster_executor{
      make("table1-ref", scenario::PlatformSpec::grid5000(), scenario::Mode::Reference,
           {2, 4, 8}),
      opts};
  campaign::Executor lan_executor{make("table1-lan", scenario::PlatformSpec::lan(),
                                       scenario::Mode::Predict, {2, 4, 8, 32}),
                                  opts};
  campaign::Executor xdsl_executor{make("table1-xdsl", scenario::PlatformSpec::xdsl(),
                                        scenario::Mode::Predict, {4}),
                                   opts};

  std::map<int, double> cluster;
  std::map<std::pair<const char*, int>, double> p2p;
  auto collect = [](campaign::Executor& ex, const char* metric, auto&& sink) {
    ex.execute();
    for (const campaign::Outcome& out : ex.outcomes()) {
      if (!out.ok()) {
        std::fprintf(stderr, "run %s failed: %s\n", out.run.key.c_str(),
                     out.error.c_str());
        std::exit(1);
      }
      sink(out.run.spec.run.peers, out.metrics.at(metric));
    }
  };
  collect(cluster_executor, "reference_solve_seconds",
          [&](int peers, double t) { cluster[peers] = t; });
  collect(lan_executor, "predicted_solve_seconds",
          [&](int peers, double t) { p2p[{"LAN", peers}] = t; });
  collect(xdsl_executor, "predicted_solve_seconds",
          [&](int peers, double t) { p2p[{"xDSL", peers}] = t; });

  struct Row {
    int p2p_peers;
    const char* topo;
    int cluster_peers;
    const char* paper_says;
  };
  const Row rows[] = {
      {4, "xDSL", 2, "slightly lower than"},
      {2, "LAN", 2, "slightly lower than"},
      {4, "LAN", 4, "slightly lower than"},
      {8, "LAN", 4, "same as"},
      {32, "LAN", 8, "slightly lower than"},
  };

  TextTable table({"Processes", "topology", "measured", "(paper)", "than", "Grid5000"});
  for (const Row& r : rows) {
    const double pt = p2p.at({r.topo, r.p2p_peers});
    const double ct = cluster.at(r.cluster_peers);
    table.add_row({std::to_string(r.p2p_peers), r.topo, classify(pt, ct),
                   std::string("(") + r.paper_says + ")",
                   TextTable::num(pt, 1) + "s vs " + TextTable::num(ct, 1) + "s",
                   std::to_string(r.cluster_peers)});
  }
  std::printf("\n%s\n", table.render().c_str());

  // Our own equivalence search: for each cluster size, the smallest LAN
  // configuration that matches or beats it.
  std::printf("Measured equivalence (smallest LAN config with time <= cluster):\n");
  TextTable eq({"Grid5000 peers", "cluster [s]", "equivalent LAN peers", "LAN [s]"});
  for (int cpeers : {2, 4, 8}) {
    int best = -1;
    double best_t = 0;
    for (int peers : {2, 4, 8, 32}) {
      const double t = p2p.at({"LAN", peers});
      if (t <= cluster[cpeers] * 1.05) {
        best = peers;
        best_t = t;
        break;
      }
    }
    eq.add_row({std::to_string(cpeers), TextTable::num(cluster[cpeers], 1),
                best > 0 ? std::to_string(best) : "none",
                best > 0 ? TextTable::num(best_t, 1) : "-"});
  }
  std::printf("%s\n", eq.render().c_str());
  return 0;
}
