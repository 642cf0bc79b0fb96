// Bridges from the subsystem stats structs into an obs::Registry. The
// structs stay plain counters on the hot paths; a publish_* call snapshots
// one into registry series after the fact. Field registration order here IS
// the JSON field order of the RunRecord / ServeStats blocks rendered via
// Registry::json_fields — reorder only with the golden files.
#pragma once

namespace pdc::net {
struct FlowNetStats;
struct RouteStats;
}  // namespace pdc::net
namespace pdc::sim {
struct EngineStats;
}
namespace pdc::support {
struct MemoCounters;
}
namespace pdc::scenario {
struct MemoStats;
struct ChurnPhaseRecord;
}  // namespace pdc::scenario

namespace pdc::obs {

class Registry;

/// Group "flownet": flow/reshare counters of one simulated phase.
void publish_flownet(Registry& reg, const net::FlowNetStats& s);

/// Group "routes": the platform's route-cache counters.
void publish_routes(Registry& reg, const net::RouteStats& s);

/// Group "engine": event-kernel dispatch counters.
void publish_engine(Registry& reg, const sim::EngineStats& s);

/// Group "churn": injector counters plus the phase's recovery totals.
void publish_churn(Registry& reg, const scenario::ChurnPhaseRecord& c);

/// Group "memos": the process-wide dPerf memo footprint.
void publish_memos(Registry& reg, const scenario::MemoStats& s);

/// Group "cache": the serve layer's RunRecord memo cache.
void publish_cache(Registry& reg, const support::MemoCounters& s);

}  // namespace pdc::obs
