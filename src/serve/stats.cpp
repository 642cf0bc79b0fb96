#include "serve/stats.hpp"

#include "obs/publish.hpp"
#include "support/json.hpp"

namespace pdc::serve {

namespace {

/// Registers the whole snapshot. Registration order within each group is the
/// historical JSON field order of the STATS document; the prom_name overrides
/// keep the exposition names server-scoped where the JSON groups are not.
void publish_serve(obs::Registry& reg, const ServeStats& s) {
  reg.counter("serve", "requests", "Requests accepted, including pings").set(s.requests);
  reg.counter("serve", "scenario_requests", "RUN scenario requests")
      .set(s.scenario_requests);
  reg.counter("serve", "campaign_requests", "RUN campaign requests")
      .set(s.campaign_requests);
  reg.counter("serve", "spool_jobs", "Jobs picked up from the spool directory")
      .set(s.spool_jobs);
  reg.counter("serve", "stats_requests", "STATS requests").set(s.stats_requests);
  reg.counter("serve", "metrics_requests", "METRICS requests").set(s.metrics_requests);
  reg.counter("serve", "pings", "PING requests").set(s.pings);
  reg.counter("serve", "errors", "Malformed requests and failed runs").set(s.errors);
  obs::publish_cache(reg, s.cache);
  obs::publish_memos(reg, s.memos);
  reg.gauge("load", "in_flight", "Requests being processed right now")
      .set(s.in_flight);
  reg.rename_prom("serve_in_flight");
  reg.gauge("load", "queue_peak", "Maximum concurrent requests observed")
      .set(s.queue_peak);
  reg.rename_prom("serve_queue_peak");
  reg.gauge("load", "uptime_seconds", "Seconds since the server started")
      .set(s.uptime_seconds);
  reg.rename_prom("serve_uptime_seconds");
}

void latency_json(JsonWriter& w, const obs::Histogram& h) {
  w.begin_object();
  w.kv("n", static_cast<std::int64_t>(h.count()));
  w.kv("mean", h.mean());
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("p50", h.percentile(0.50));
  w.kv("p95", h.percentile(0.95));
  w.kv("p99", h.percentile(0.99));
  w.end_object();
}

}  // namespace

std::string ServeStats::to_json() const {
  obs::Registry reg;
  publish_serve(reg, *this);
  JsonWriter w;
  w.begin_object();
  reg.json_fields(w, "serve");
  w.key("cache").begin_object();
  reg.json_fields(w, "cache");
  w.end_object();
  w.key("memos").begin_object();
  reg.json_fields(w, "memos");
  w.end_object();
  reg.json_fields(w, "load");
  w.key("latency_hit");
  latency_json(w, latency_hit);
  w.key("latency_miss");
  latency_json(w, latency_miss);
  w.end_object();
  return w.str() + "\n";
}

std::string ServeStats::to_prometheus() const {
  obs::Registry reg;
  publish_serve(reg, *this);
  reg.histogram("serve", "latency_hit_seconds",
                "Request latency of memo-cache hits") = latency_hit;
  reg.histogram("serve", "latency_miss_seconds",
                "Request latency of memo-cache misses") = latency_miss;
  return reg.render_prometheus("pdc_");
}

void StatsCollector::count_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.requests;
}
void StatsCollector::count_scenario() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.scenario_requests;
}
void StatsCollector::count_campaign() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.campaign_requests;
}
void StatsCollector::count_spool_job() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.spool_jobs;
}
void StatsCollector::count_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.stats_requests;
}
void StatsCollector::count_metrics() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.metrics_requests;
}
void StatsCollector::count_ping() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.pings;
}
void StatsCollector::count_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.errors;
}

void StatsCollector::enter_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.in_flight;
  if (totals_.in_flight > totals_.queue_peak) totals_.queue_peak = totals_.in_flight;
}

void StatsCollector::leave_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  --totals_.in_flight;
}

void StatsCollector::record_latency(bool cache_hit, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  (cache_hit ? totals_.latency_hit : totals_.latency_miss).observe(seconds);
}

ServeStats StatsCollector::snapshot(const support::MemoCounters& cache,
                                    double uptime_seconds) const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = totals_;
  }
  s.cache = cache;
  s.memos = scenario::memo_stats();
  s.uptime_seconds = uptime_seconds;
  return s;
}

}  // namespace pdc::serve
