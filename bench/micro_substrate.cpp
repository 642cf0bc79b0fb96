// Ablation A4: substrate microbenchmarks (google-benchmark) -- the raw cost
// of the simulation kernel, the flow-level network model, P2PSAP channels,
// the proximity metric and the MiniC front end and compiler. VM throughput
// is measured by micro_vm.
#include <benchmark/benchmark.h>

#include "ir/pipeline.hpp"
#include "minic/parser.hpp"
#include "net/builders.hpp"
#include "net/flow.hpp"
#include "obstacle/minic_kernel.hpp"
#include "p2psap/p2psap.hpp"
#include "sim/mailbox.hpp"
#include "support/rng.hpp"

namespace {

using namespace pdc;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) eng.schedule_at(i * 0.001, [] {});
    eng.run();
    benchmark::DoNotOptimize(eng.dispatched_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Mailbox<int> a{eng}, b{eng};
    eng.spawn([](sim::Mailbox<int>& in, sim::Mailbox<int>& out) -> sim::Process {
      for (int i = 0; i < 500; ++i) {
        out.push(i);
        (void)co_await in.recv();
      }
    }(a, b));
    eng.spawn([](sim::Mailbox<int>& in, sim::Mailbox<int>& out) -> sim::Process {
      for (int i = 0; i < 500; ++i) {
        (void)co_await in.recv();
        out.push(i);
      }
    }(b, a));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MailboxPingPong);

void BM_FlowNetContendedTransfers(benchmark::State& state) {
  const net::Platform plat = net::build_star(net::bordeplage_cluster_spec(16));
  for (auto _ : state) {
    sim::Engine eng;
    net::FlowNet netw{eng, plat};
    for (int i = 0; i < 16; ++i)
      for (int j = 0; j < 16; ++j)
        if (i != j) netw.start_flow(plat.host(i), plat.host(j), 1e5, [] {});
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 240);
}
BENCHMARK(BM_FlowNetContendedTransfers);

void BM_DaisyRouteComputation(benchmark::State& state) {
  net::DaisySpec spec;
  Rng rng{42};
  const net::Platform plat = net::build_daisy(spec, rng);
  int i = 0;
  for (auto _ : state) {
    const auto& r = plat.route(plat.host(i % 1024), plat.host((i * 37 + 511) % 1024));
    benchmark::DoNotOptimize(r.hops.size());
    ++i;
  }
}
BENCHMARK(BM_DaisyRouteComputation);

void BM_P2psapSyncMessage(benchmark::State& state) {
  const net::Platform plat = net::build_star(net::bordeplage_cluster_spec(2));
  for (auto _ : state) {
    sim::Engine eng;
    net::FlowNet netw{eng, plat};
    p2psap::Fabric fabric{eng, netw, plat};
    auto& ch = fabric.channel(plat.host(0), plat.host(1), p2psap::Scheme::Synchronous);
    eng.spawn([](p2psap::Channel& c, const net::Platform& p) -> sim::Process {
      for (int i = 0; i < 100; ++i) co_await c.send(p.host(0), 1, 8192);
    }(ch, plat));
    eng.spawn([](p2psap::Channel& c, const net::Platform& p) -> sim::Process {
      for (int i = 0; i < 100; ++i) (void)co_await c.recv(p.host(1), 1);
    }(ch, plat));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_P2psapSyncMessage);

void BM_IpPrefixProximity(benchmark::State& state) {
  Rng rng{3};
  std::vector<Ipv4> addrs;
  for (int i = 0; i < 1024; ++i) addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        common_prefix_len(addrs[static_cast<std::size_t>(i % 1024)],
                          addrs[static_cast<std::size_t>((i * 7 + 13) % 1024)]));
    ++i;
  }
}
BENCHMARK(BM_IpPrefixProximity);

void BM_MinicParse(benchmark::State& state) {
  const std::string& src = obstacle::minic_kernel_source();
  for (auto _ : state) {
    auto prog = minic::parse(src);
    benchmark::DoNotOptimize(prog.functions.size());
  }
}
BENCHMARK(BM_MinicParse);

void BM_MinicCompileO3(benchmark::State& state) {
  const std::string& src = obstacle::minic_kernel_source();
  for (auto _ : state) {
    auto prog = ir::compile_source(src, ir::OptLevel::O3);
    benchmark::DoNotOptimize(prog.instr_count());
  }
}
BENCHMARK(BM_MinicCompileO3);

}  // namespace

BENCHMARK_MAIN();
