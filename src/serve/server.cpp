#include "serve/server.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/spec.hpp"
#include "scenario/runner.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"

namespace pdc::serve {

namespace fs = std::filesystem;

namespace {

double elapsed_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void write_file_atomic(const fs::path& path, const std::string& content) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// The response-cache budget: the explicit option, else the
/// PDC_SERVE_CACHE_BYTES knob. A non-positive knob disables caching outright
/// (every request simulates), the honest reading of "no cache budget".
std::size_t cache_budget(std::size_t option) {
  if (option != static_cast<std::size_t>(-1)) return option;
  const int v = env_int("PDC_SERVE_CACHE_BYTES", 64 << 20);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(cache_budget(opts_.cache_bytes),
             [](const std::string& key, const std::string& value) {
               return key.size() + value.size();
             }),
      start_(std::chrono::steady_clock::now()) {
  if (opts_.unix_path.empty() && opts_.tcp_port < 0 && opts_.spool_dir.empty())
    throw std::invalid_argument(
        "pdc_serve needs at least one request source: unix socket, tcp port or spool");
  if (!opts_.unix_path.empty()) unix_listener_ = listen_unix(opts_.unix_path);
  if (opts_.tcp_port >= 0) tcp_listener_ = listen_tcp(opts_.tcp_port);
  if (!opts_.spool_dir.empty()) {
    fs::create_directories(fs::path(opts_.spool_dir) / "work");
    fs::create_directories(fs::path(opts_.spool_dir) / "out");
    recover_spool();
  }
}

int Server::port() const {
  return tcp_listener_.valid() ? bound_tcp_port(tcp_listener_) : -1;
}

bool Server::stopping() const {
  if (stop_.load(std::memory_order_relaxed)) return true;
  return opts_.stop_flag != nullptr && *opts_.stop_flag != 0;
}

ServeStats Server::stats() const {
  return collector_.snapshot(cache_.stats(), elapsed_since(start_));
}

void Server::run() {
  const bool accepting = unix_listener_.valid() || tcp_listener_.valid();
  {
    // Pool scope: its destructor drains every queued and in-flight request
    // before the final stats are written — that is the graceful part of
    // graceful shutdown.
    ThreadPool pool(opts_.jobs);
    auto last_scan = std::chrono::steady_clock::now() -
                     std::chrono::hours(1);  // force an immediate first scan
    auto last_metrics = std::chrono::steady_clock::now();
    const bool metrics_enabled =
        opts_.metrics_interval_seconds > 0 && !opts_.spool_dir.empty();
    while (!stopping()) {
      if (accepting) {
        std::optional<Socket> conn =
            accept_ready(unix_listener_, tcp_listener_, opts_.poll_seconds);
        if (conn) {
          collector_.enter_request();
          // ThreadPool tasks are std::function (copyable); Socket is
          // move-only, so it rides in a shared_ptr.
          auto shared = std::make_shared<Socket>(std::move(*conn));
          pool.submit([this, shared] { handle_connection(std::move(*shared)); });
        }
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.poll_seconds));
      }
      if (!opts_.spool_dir.empty() &&
          elapsed_since(last_scan) >= opts_.poll_seconds) {
        scan_spool(pool);
        last_scan = std::chrono::steady_clock::now();
      }
      if (metrics_enabled &&
          elapsed_since(last_metrics) >= opts_.metrics_interval_seconds) {
        write_metrics_snapshot();
        last_metrics = std::chrono::steady_clock::now();
      }
    }
    // Stop accepting before draining: a client connecting now gets ECONNREFUSED
    // instead of a hung socket.
    unix_listener_.close();
    tcp_listener_.close();
  }
  if (!opts_.unix_path.empty()) {
    std::error_code ec;
    fs::remove(opts_.unix_path, ec);
  }
  if (opts_.metrics_interval_seconds > 0 && !opts_.spool_dir.empty())
    write_metrics_snapshot();  // in-flight work has drained; capture the end state
  write_final_stats();
}

void Server::write_metrics_snapshot() {
  try {
    write_file_atomic(fs::path(opts_.spool_dir) / "out" / "metrics.prom",
                      stats().to_prometheus());
  } catch (const std::exception& e) {
    PDC_LOG_WARN(std::string("serve: metrics snapshot failed: ") + e.what());
  }
}

void Server::write_final_stats() {
  if (opts_.stats_path.empty()) return;
  try {
    write_file_atomic(opts_.stats_path, stats().to_json() + "\n");
  } catch (const std::exception& e) {
    PDC_LOG_WARN(std::string("serve: final stats write failed: ") + e.what());
  }
}

void Server::handle_connection(Socket conn) {
  struct Leave {
    StatsCollector& c;
    ~Leave() { c.leave_request(); }
  } leave{collector_};
  try {
    conn.set_io_timeout(opts_.io_timeout_seconds);
    Request req;
    try {
      if (!read_request(conn, req)) return;  // client went away; not an error
    } catch (const std::exception& e) {
      collector_.count_request();
      collector_.count_error();
      write_response(conn, Response{false, "", e.what()});
      return;
    }
    const Response resp = dispatch(req);
    write_response(conn, resp);
    if (req.kind == RequestKind::Shutdown) request_stop();
  } catch (const std::exception& e) {
    // I/O failure talking to this client (timeout, reset). The request may
    // already have executed — its side effects (memo warmup) stand.
    PDC_LOG_WARN(std::string("serve: connection error: ") + e.what());
  }
}

Response Server::dispatch(const Request& req) {
  collector_.count_request();
  switch (req.kind) {
    case RequestKind::RunScenario: {
      collector_.count_scenario();
      return run_scenario(req.body);
    }
    case RequestKind::RunCampaign: {
      collector_.count_campaign();
      return run_campaign(req.body);
    }
    case RequestKind::Stats:
      collector_.count_stats();
      return Response{true, "stats", stats().to_json()};
    case RequestKind::Metrics:
      collector_.count_metrics();
      return Response{true, "metrics", stats().to_prometheus()};
    case RequestKind::Ping:
      collector_.count_ping();
      return Response{true, "pong", "pdc_serve"};
    case RequestKind::Shutdown:
      return Response{true, "bye", "draining"};
  }
  collector_.count_error();
  return Response{false, "", "unknown request"};
}

Response Server::run_scenario(const std::string& text) {
  const auto t0 = std::chrono::steady_clock::now();
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::parse_scenario(text, opts_.base);
  } catch (const std::exception& e) {
    collector_.count_error();
    return Response{false, "", e.what()};
  }
  const std::string key = "scn:" + scenario::render_scenario(spec);
  if (const auto memo = cache_.find(key)) {
    collector_.record_latency(true, elapsed_since(t0));
    return Response{true, "hit", *memo};
  }
  const scenario::RunRecord record = scenario::Runner{std::move(spec)}.try_run();
  std::string body = record.to_json();
  if (record.ok())
    cache_.put(key, body);
  else
    collector_.count_error();  // failed runs are served but never cached
  collector_.record_latency(false, elapsed_since(t0));
  return Response{true, "miss", std::move(body)};
}

Response Server::run_campaign(const std::string& text) {
  const auto t0 = std::chrono::steady_clock::now();
  campaign::CampaignSpec spec;
  try {
    spec = campaign::parse_campaign(text, opts_.base);
  } catch (const std::exception& e) {
    collector_.count_error();
    return Response{false, "", e.what()};
  }
  // Every cell goes through the same scenario memo cache a RUN scn request
  // uses, so a campaign warms the cache for later one-off queries (and vice
  // versa). Cells run sequentially in this worker; concurrency lives across
  // requests.
  std::vector<campaign::Outcome> outcomes;
  bool all_hits = true;
  std::size_t errors = 0;
  for (const campaign::CampaignRun& run : campaign::expand(spec)) {
    campaign::Outcome out;
    out.run = run;
    const std::string key = "scn:" + scenario::render_scenario(run.spec);
    std::string body;
    if (const auto memo = cache_.find(key)) {
      out.skipped = true;  // served from memory, not simulated
      body = *memo;
    } else {
      all_hits = false;
      const scenario::RunRecord record = scenario::Runner{run.spec}.try_run();
      body = record.to_json();
      if (record.ok()) cache_.put(key, body);
    }
    out.record_json = std::move(body);
    try {
      const JsonValue doc = parse_json(out.record_json);
      if (doc.has("error") && !doc.at("error").as_string().empty())
        out.error = doc.at("error").as_string();
      else
        out.metrics = campaign::record_metrics(doc);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    if (!out.ok()) ++errors;
    outcomes.push_back(std::move(out));
  }
  if (errors != 0) collector_.count_error();
  campaign::CampaignReport report =
      campaign::aggregate_outcomes(spec.name, outcomes, /*jobs=*/1,
                                   /*wall_seconds=*/0.0);
  // The canonical form is a pure function of the run records — a repeated
  // campaign request is byte-identical, wall-clock noise excluded.
  std::string body = report.to_json(/*canonical=*/true);
  const bool hit = all_hits && !outcomes.empty();
  collector_.record_latency(hit, elapsed_since(t0));
  return Response{true, hit ? "hit" : "miss", std::move(body)};
}

void Server::recover_spool() {
  // A previous daemon died holding claims: move its work files back into the
  // spool root so this daemon (or a peer) re-claims them. Leftover output
  // temp files are dropped.
  const fs::path work = fs::path(opts_.spool_dir) / "work";
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(work, ec)) {
    if (!entry.is_regular_file()) continue;
    std::error_code rec;
    fs::rename(entry.path(), fs::path(opts_.spool_dir) / entry.path().filename(),
               rec);
  }
  const fs::path out = fs::path(opts_.spool_dir) / "out";
  for (const fs::directory_entry& entry : fs::directory_iterator(out, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
}

void Server::scan_spool(ThreadPool& pool) {
  std::error_code ec;
  std::vector<fs::path> ready;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(opts_.spool_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".scn" || ext == ".cmp") ready.push_back(entry.path());
  }
  for (const fs::path& path : ready) {
    const fs::path claimed = fs::path(opts_.spool_dir) / "work" / path.filename();
    std::error_code rec;
    fs::rename(path, claimed, rec);  // atomic claim; a racing daemon loses
    if (rec) continue;
    collector_.enter_request();
    const std::string claimed_str = claimed.string();
    const std::string stem = path.stem().string();
    pool.submit([this, claimed_str, stem] { process_spool_file(claimed_str, stem); });
  }
}

void Server::process_spool_file(const std::string& claimed_path,
                                const std::string& stem) {
  struct Leave {
    StatsCollector& c;
    ~Leave() { c.leave_request(); }
  } leave{collector_};
  collector_.count_request();
  collector_.count_spool_job();
  const fs::path claimed(claimed_path);
  std::string text;
  Response resp;
  if (!read_file(claimed, text)) {
    collector_.count_error();
    resp = Response{false, "", "cannot read spool file"};
  } else if (claimed.extension() == ".cmp") {
    collector_.count_campaign();
    resp = run_campaign(text);
  } else {
    collector_.count_scenario();
    resp = run_scenario(text);
  }
  const fs::path out =
      fs::path(opts_.spool_dir) / "out" / (stem + ".json");
  try {
    if (resp.ok)
      write_file_atomic(out, resp.body + "\n");
    else
      write_file_atomic(out, "{\"error\": " + json_escape(resp.body) + "}\n");
    std::error_code ec;
    fs::remove(claimed, ec);  // job done; the claim file has served its purpose
  } catch (const std::exception& e) {
    // Leave the claim in work/ — a restart recovers and retries it.
    PDC_LOG_WARN("serve: spool output failed for " + stem + ": " + e.what());
  }
}

}  // namespace pdc::serve
