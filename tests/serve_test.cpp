// Prediction-as-a-service: wire-protocol framing and the full daemon round
// trip — the second request for one scenario must be a cache hit,
// byte-identical, and far cheaper than the first (the warm/cold split the
// serve layer exists for). The cache itself is support::Memo
// (tests/support_memo_test.cpp).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

namespace pdc::serve {
namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(Protocol, RoundTripsRequestsAndResponses) {
  Socket listener = listen_tcp(0);
  const int port = bound_tcp_port(listener);
  Socket client = connect_tcp("127.0.0.1", port);
  std::optional<Socket> server = accept_ready(listener, Socket{}, 1.0);
  ASSERT_TRUE(server.has_value());

  Request req{RequestKind::RunScenario, "scenario x\npeers 2\n"};
  write_request(client, req);
  Request got;
  ASSERT_TRUE(read_request(*server, got));
  EXPECT_EQ(got.kind, RequestKind::RunScenario);
  EXPECT_EQ(got.body, req.body);

  write_response(*server, Response{true, "miss", "{\"answer\": 42}"});
  const Response resp = read_response(client);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.tag, "miss");
  EXPECT_EQ(resp.body, "{\"answer\": 42}");
}

TEST(Protocol, BodylessKindsAndErrors) {
  Socket listener = listen_tcp(0);
  Socket client = connect_tcp("127.0.0.1", bound_tcp_port(listener));
  std::optional<Socket> server = accept_ready(listener, Socket{}, 1.0);
  ASSERT_TRUE(server.has_value());

  write_request(client, Request{RequestKind::Stats, ""});
  Request got;
  ASSERT_TRUE(read_request(*server, got));
  EXPECT_EQ(got.kind, RequestKind::Stats);
  EXPECT_TRUE(got.body.empty());

  write_response(*server, Response{false, "", "bad spec"});
  const Response resp = read_response(client);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.body, "bad spec");
}

TEST(Protocol, RejectsOversizedBodies) {
  Socket listener = listen_tcp(0);
  Socket client = connect_tcp("127.0.0.1", bound_tcp_port(listener));
  std::optional<Socket> server = accept_ready(listener, Socket{}, 1.0);
  ASSERT_TRUE(server.has_value());
  client.write_all("RUN scn 999999999999\n");
  Request got;
  EXPECT_THROW(read_request(*server, got), std::runtime_error);
}

/// A scenario whose cold path exercises the expensive machinery the daemon
/// keeps warm — dPerf block benchmark, trace sampling, reference run and
/// replay (`mode both`) — yet stays quick enough for a unit test.
const char* kServedScenario =
    "scenario served\n"
    "platform lan\n"
    "peers 2\n"
    "mode both\n"
    "grid 64\n"
    "iters 12\n"
    "bench 18 3 2\n";

struct TestServer {
  ServerOptions opts;
  Server* server = nullptr;
  std::thread thread;

  explicit TestServer(ServerOptions o) : opts(std::move(o)) {
    server = new Server{opts};
    thread = std::thread([this] { server->run(); });
  }
  ~TestServer() {
    server->request_stop();
    thread.join();
    delete server;
  }
};

Response roundtrip(int port, const Request& req) {
  Socket conn = connect_tcp("127.0.0.1", port);
  write_request(conn, req);
  return read_response(conn);
}

TEST(Serve, SecondRequestIsAByteIdenticalCacheHitAndMuchFaster) {
  ServerOptions opts;
  opts.tcp_port = 0;
  TestServer ts{opts};
  const int port = ts.server->port();
  ASSERT_GT(port, 0);

  const Request run{RequestKind::RunScenario, kServedScenario};

  const auto t_cold = std::chrono::steady_clock::now();
  const Response cold = roundtrip(port, run);
  const double cold_s = seconds_since(t_cold);
  ASSERT_TRUE(cold.ok) << cold.body;
  EXPECT_EQ(cold.tag, "miss");

  const auto t_warm = std::chrono::steady_clock::now();
  const Response warm = roundtrip(port, run);
  const double warm_s = seconds_since(t_warm);
  ASSERT_TRUE(warm.ok) << warm.body;
  EXPECT_EQ(warm.tag, "hit");

  // The entire point of the resident daemon: the memoized answer is the
  // same bytes, for orders of magnitude less work.
  EXPECT_EQ(warm.body, cold.body);
  EXPECT_GE(cold_s / warm_s, 50.0)
      << "cold=" << cold_s << "s warm=" << warm_s << "s";

  // A textual variant of the same scenario (comments, reordered lines)
  // lands on the same canonical cache entry.
  const Response variant = roundtrip(
      port, Request{RequestKind::RunScenario,
                    "# same thing, different text\nscenario served\n"
                    "platform lan\nmode both\nbench 18 3 2\n"
                    "iters 12\ngrid 64\npeers 2\n"});
  EXPECT_EQ(variant.tag, "hit");
  EXPECT_EQ(variant.body, cold.body);

  const Response stats = roundtrip(port, Request{RequestKind::Stats, ""});
  ASSERT_TRUE(stats.ok);
  const JsonValue doc = parse_json(stats.body);
  EXPECT_EQ(doc.at("scenario_requests").as_double(), 3.0);
  EXPECT_EQ(doc.at("cache").at("hits").as_double(), 2.0);
  EXPECT_EQ(doc.at("cache").at("misses").as_double(), 1.0);
  EXPECT_GE(doc.at("memos").at("trace_sets").as_double(), 0.0);
}

TEST(Serve, BadSpecsAreErrorsNotCrashes) {
  ServerOptions opts;
  opts.tcp_port = 0;
  TestServer ts{opts};
  const Response resp = roundtrip(ts.server->port(),
                                  Request{RequestKind::RunScenario, "peers banana\n"});
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.body.empty());
  const Response stats = roundtrip(ts.server->port(), Request{RequestKind::Stats, ""});
  EXPECT_EQ(parse_json(stats.body).at("errors").as_double(), 1.0);
}

TEST(Serve, CampaignRequestsShareTheScenarioCache) {
  ServerOptions opts;
  opts.tcp_port = 0;
  TestServer ts{opts};
  const int port = ts.server->port();
  const char* campaign =
      "campaign mini\n"
      "platform lan\n"
      "mode reference\n"
      "grid 34\niters 6\nbench 18 3 2\n"
      "sweep peers 2,3\n";
  const Response first = roundtrip(port, Request{RequestKind::RunCampaign, campaign});
  ASSERT_TRUE(first.ok) << first.body;
  EXPECT_EQ(first.tag, "miss");
  const Response second = roundtrip(port, Request{RequestKind::RunCampaign, campaign});
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.tag, "hit");  // every cell came from the memo
  EXPECT_EQ(second.body, first.body);
  // The campaign warmed the per-scenario cache: report has both points.
  const JsonValue doc = parse_json(first.body);
  EXPECT_EQ(doc.at("points").as_array().size(), 2u);
  // Canonical report: no session fields.
  EXPECT_FALSE(doc.has("wall_seconds"));
}

TEST(Serve, SpoolRoundTripAndFinalStats) {
  const fs::path root = fs::path("serve_test_out");
  fs::remove_all(root);
  fs::create_directories(root / "spool");
  const std::string stats_path = (root / "final_stats.json").string();
  {
    ServerOptions opts;
    opts.spool_dir = (root / "spool").string();
    opts.stats_path = stats_path;
    opts.poll_seconds = 0.05;
    TestServer ts{opts};
    {
      std::ofstream job(root / "spool" / "job.scn.part");
      job << "scenario spooled\nplatform lan\npeers 2\nmode reference\n"
             "grid 34\niters 6\nbench 18 3 2\n";
    }
    // Rename into place so the scanner never sees a half-written file.
    fs::rename(root / "spool" / "job.scn.part", root / "spool" / "job.scn");
    const fs::path answer = root / "spool" / "out" / "job.json";
    const auto t0 = std::chrono::steady_clock::now();
    while (!fs::exists(answer) && seconds_since(t0) < 30.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(fs::exists(answer));
    std::ifstream in(answer);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const JsonValue doc = parse_json(body);
    EXPECT_EQ(doc.at("scenario").as_string(), "spooled");
    EXPECT_FALSE(fs::exists(root / "spool" / "job.scn"));       // consumed
    EXPECT_FALSE(fs::exists(root / "spool" / "work" / "job.scn"));
  }  // ~TestServer: graceful stop, drains, writes final stats
  std::ifstream in(stats_path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const JsonValue doc = parse_json(body);
  EXPECT_EQ(doc.at("spool_jobs").as_double(), 1.0);
  EXPECT_EQ(doc.at("in_flight").as_double(), 0.0);
  fs::remove_all(root);
}

}  // namespace
}  // namespace pdc::serve
