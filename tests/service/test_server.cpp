/// SweepServer robustness tests (DESIGN.md §13): admission and explicit
/// overload rejection, per-client in-flight caps, deadline enforcement,
/// typed per-cell errors, protocol-violation isolation (malformed JSON,
/// bad length prefixes, truncated frames, slow writers, connect churn),
/// cross-client single-flight, and graceful stop. Real TCP on loopback —
/// nothing is mocked.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "resilience/journal.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sweep/cache.hpp"

namespace aqua::service {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Every test runs against a fresh ephemeral-port server with a quiet
/// sweep environment (no cache, no journal), so nothing leaks between
/// tests or from the developer's shell.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv(SweepJournal::kResumeEnv);
    ::unsetenv(SweepJournal::kPoisonEnv);
    sweep::SweepCache::instance().configure("");
  }

  SweepServer& start(ServerConfig config) {
    config.port = 0;  // ephemeral
    if (config.workers == 0) config.workers = 2;
    server_ = std::make_unique<SweepServer>(std::move(config));
    server_->start();
    return *server_;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  /// A cheap real cell: 1 chip on an 8x8 grid solves in a few ms.
  static std::map<std::string, std::string> cheap_cell(std::size_t chips) {
    return {{"chip", "low_power_cmp"},
            {"chips", std::to_string(chips)},
            {"cooling", "water"},
            {"nx", "8"},
            {"ny", "8"}};
  }

  std::unique_ptr<SweepServer> server_;
};

/// Raw TCP connection for protocol-violation tests — deliberately not the
/// SweepClient, which never sends malformed bytes.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) : sock_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    require(::connect(sock_.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0,
            "raw connect failed");
  }

  void send_bytes(const std::string& bytes) {
    ASSERT_TRUE(send_all(sock_.fd(), bytes.data(), bytes.size()));
  }

  /// Reads frames until one parses, or EOF. nullopt = connection closed.
  std::optional<Response> read_response() {
    char buffer[4096];
    for (;;) {
      if (auto payload = decoder_.next()) return parse_response(*payload);
      const ssize_t n = recv_some(sock_.fd(), buffer, sizeof(buffer));
      if (n <= 0) return std::nullopt;
      decoder_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

  /// True when the server has closed its side (EOF on recv).
  bool closed_by_server() { return !read_response().has_value(); }

 private:
  Socket sock_;
  FrameDecoder decoder_;
};

std::string ping_frame(std::uint64_t id) {
  Request ping;
  ping.op = Request::Op::kPing;
  ping.id = id;
  return encode_frame(encode_request(ping));
}

TEST_F(ServerTest, SubmitComputesThenServesSingleFlight) {
  SweepServer& server = start({});
  SweepClient client("127.0.0.1", server.port());

  const CellResult cold = client.submit("freq_cap", cheap_cell(1));
  ASSERT_TRUE(cold.ok()) << cold.message;
  EXPECT_EQ(cold.source, "computed");
  ASSERT_TRUE(cold.values.count("ghz"));
  ASSERT_TRUE(cold.values.count("feasible"));

  // Same canonical key from a second client: served from the shared
  // runner's memo, values exactly equal — the cross-client dedupe.
  SweepClient other("127.0.0.1", server.port());
  const CellResult warm = other.submit("freq_cap", cheap_cell(1));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.source, "single_flight");
  EXPECT_EQ(warm.values, cold.values);  // exact: the wire is bit-exact

  const auto stats = server.stats_snapshot();
  EXPECT_EQ(stats.at("accepted"), 2.0);
  EXPECT_EQ(stats.at("computed"), 1.0);
  EXPECT_EQ(stats.at("single_flight_hits"), 1.0);
}

TEST_F(ServerTest, OverloadRejectsExplicitlyWhileControlStaysResponsive) {
  ServerConfig config;
  config.workers = 1;
  config.queue_high_watermark = 2;
  config.queue_low_watermark = 1;
  config.debug_compute_delay_ms = 80;
  SweepServer& server = start(config);

  constexpr std::size_t kThreads = 5;
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      RetryPolicy once;
      once.max_attempts = 1;
      SweepClient client("127.0.0.1", server.port(), once);
      try {
        const CellResult cell =
            client.submit("freq_cap", cheap_cell(t + 1));
        if (cell.ok()) served.fetch_add(1);
      } catch (const Error&) {
        rejected.fetch_add(1);  // "overloaded" with retries of one
      }
    });
  }
  sleep_ms(30);  // land the probe inside the pile-up
  SweepClient control("127.0.0.1", server.port());
  const auto probe_start = std::chrono::steady_clock::now();
  EXPECT_TRUE(control.ping()) << "control connection lost under overload";
  const double probe_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - probe_start)
          .count();
  EXPECT_LT(probe_ms, 1000.0) << "ping must be answered inline, not queued";
  for (std::thread& th : pool) th.join();

  EXPECT_EQ(served.load() + rejected.load(), kThreads);
  EXPECT_GT(rejected.load(), 0u)
      << "a tiny admission window must reject explicitly";
  EXPECT_EQ(server.stats_snapshot().at("rejected_overload"),
            static_cast<double>(rejected.load()));
}

TEST_F(ServerTest, FigureOverInflightCapIsRejectedWhole) {
  ServerConfig config;
  config.per_client_inflight = 10;  // fig07 needs 70 slots
  SweepServer& server = start(config);
  RetryPolicy once;
  once.max_attempts = 1;
  SweepClient client("127.0.0.1", server.port(), once);
  EXPECT_THROW(client.submit_figure("fig07"), Error);
  // All-or-nothing admission: no partial figure may have leaked into the
  // queue — nothing computes afterwards.
  sleep_ms(50);
  EXPECT_EQ(server.stats_snapshot().at("accepted"), 0.0);
}

TEST_F(ServerTest, DeadlineExceededIsTypedAndCounted) {
  ServerConfig config;
  config.workers = 1;
  config.debug_compute_delay_ms = 100;
  SweepServer& server = start(config);
  SweepClient client("127.0.0.1", server.port());

  const CellResult cell =
      client.submit("freq_cap", cheap_cell(1), /*deadline_ms=*/15);
  EXPECT_FALSE(cell.ok());
  EXPECT_EQ(cell.status, error_code::kDeadlineExceeded);
  EXPECT_EQ(server.stats_snapshot().at("deadline_exceeded"), 1.0);

  // The same cell with room to breathe succeeds on the same connection.
  const CellResult retry = client.submit("freq_cap", cheap_cell(1));
  EXPECT_TRUE(retry.ok()) << retry.message;
}

TEST_F(ServerTest, BadRequestsAreTypedAndDoNotPoisonTheConnection) {
  SweepServer& server = start({});
  SweepClient client("127.0.0.1", server.port());

  const CellResult unknown = client.submit("no_such_family", {});
  EXPECT_EQ(unknown.status, error_code::kBadRequest);

  const CellResult missing = client.submit("freq_cap", {{"chip", "low_power_cmp"}});
  EXPECT_EQ(missing.status, error_code::kBadRequest);

  const CellResult out_of_range = client.submit(
      "freq_cap", {{"chip", "low_power_cmp"}, {"chips", "99999"},
                   {"cooling", "water"}});
  EXPECT_EQ(out_of_range.status, error_code::kBadRequest);

  // Three strikes and the connection still works fine.
  const CellResult good = client.submit("freq_cap", cheap_cell(1));
  EXPECT_TRUE(good.ok()) << good.message;
  EXPECT_EQ(server.stats_snapshot().at("bad_requests"), 3.0);
}

TEST_F(ServerTest, MalformedJsonGetsBadRequestAndTheStreamContinues) {
  SweepServer& server = start({});
  RawConn conn(server.port());
  conn.send_bytes(encode_frame("this is not json"));
  const auto error = conn.read_response();
  ASSERT_TRUE(error.has_value()) << "malformed JSON must be answered";
  EXPECT_EQ(error->op, Response::Op::kError);
  EXPECT_EQ(error->code, error_code::kBadRequest);

  // The framing is still in sync — a valid request on the same
  // connection is served normally.
  conn.send_bytes(ping_frame(2));
  const auto pong = conn.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->op, Response::Op::kPong);
}

// A maximum-size frame of '[' used to recurse the JSON reader once per byte
// and overflow the stack, killing the daemon. The nesting cap turns it into
// an ordinary bad_request on a connection that keeps working.
TEST_F(ServerTest, DeeplyNestedJsonGetsBadRequestAndTheStreamContinues) {
  SweepServer& server = start({});
  RawConn conn(server.port());
  conn.send_bytes(encode_frame(std::string(kMaxFrameBytes, '[')));
  const auto error = conn.read_response();
  ASSERT_TRUE(error.has_value()) << "deep nesting must be answered";
  EXPECT_EQ(error->op, Response::Op::kError);
  EXPECT_EQ(error->code, error_code::kBadRequest);

  conn.send_bytes(ping_frame(2));
  const auto pong = conn.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->op, Response::Op::kPong);
  EXPECT_EQ(server.stats_snapshot().at("bad_requests"), 1.0);
}

TEST_F(ServerTest, BadLengthPrefixClosesOnlyThatConnection) {
  SweepServer& server = start({});
  {
    RawConn zero(server.port());
    zero.send_bytes(std::string(4, '\0'));  // zero-length frame
    // The server may answer a final bad_request before closing; either
    // way the connection must end, not hang.
    for (int i = 0; i < 3; ++i) {
      if (zero.closed_by_server()) break;
    }
  }
  {
    RawConn huge(server.port());
    huge.send_bytes(std::string(4, '\xFF'));  // 4 GiB length prefix
    for (int i = 0; i < 3; ++i) {
      if (huge.closed_by_server()) break;
    }
  }
  // Other clients never noticed.
  SweepClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());
  const CellResult cell = client.submit("freq_cap", cheap_cell(1));
  EXPECT_TRUE(cell.ok()) << cell.message;
}

TEST_F(ServerTest, SlowLorisAndTruncatedFramesDoNotWedgeTheServer) {
  SweepServer& server = start({});
  // A writer dribbling a valid ping one byte at a time is served once the
  // frame completes.
  RawConn slow(server.port());
  const std::string frame = ping_frame(1);
  for (char byte : frame) {
    slow.send_bytes(std::string(1, byte));
    sleep_ms(1);
  }
  const auto pong = slow.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->op, Response::Op::kPong);

  // A frame cut mid-payload followed by disconnect leaves no debris.
  {
    RawConn truncated(server.port());
    truncated.send_bytes(frame.substr(0, frame.size() - 3));
  }
  sleep_ms(20);
  SweepClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());
}

TEST_F(ServerTest, ConnectDisconnectChurnLeavesNoDebris) {
  SweepServer& server = start({});
  for (int i = 0; i < 25; ++i) {
    RawConn churn(server.port());
    if (i % 3 == 0) churn.send_bytes(ping_frame(1).substr(0, 5));
    // destructor: abrupt close, sometimes mid-frame
  }
  SweepClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());
  // Reaping is asynchronous; poll rather than sleep a fixed amount so the
  // assertion holds even when the host is busy running other tests.
  std::map<std::string, double> stats;
  for (int i = 0; i < 200; ++i) {
    stats = server.stats_snapshot();
    if (stats.at("active_connections") <= 2.0) break;
    sleep_ms(10);
  }
  // A churn socket closed abruptly while still in the listen backlog can be
  // dropped by the kernel (RST before accept) and never reach the server, so
  // under load a few of the 25 never count. Most must, plus the live client.
  EXPECT_GE(stats.at("total_connections"), 20.0);
  EXPECT_LE(stats.at("active_connections"), 2.0)
      << "closed connections must be reaped";
}

TEST_F(ServerTest, FigureDoneReportsFailedCells) {
  // One poisoned fig07 cell: its typed failure must show up in the
  // figure_done tally, not just in the per-connection counters.
  ScopedEnv poison(SweepJournal::kPoisonEnv,
                   "service:chip=low_power_cmp;chips=1;cooling=air");
  ServerConfig config;
  config.workers = 4;
  SweepServer& server = start(config);
  SweepClient client("127.0.0.1", server.port());

  const FigureResult figure = client.submit_figure("fig07");
  EXPECT_EQ(figure.stats.at("cells"), 70.0);
  EXPECT_EQ(figure.stats.at("failed"), 1.0);
  EXPECT_EQ(figure.stats.at("cancelled"), 0.0);
  std::size_t ok = 0;
  for (const CellResult& cell : figure.cells) ok += cell.ok() ? 1 : 0;
  EXPECT_EQ(ok, 69u);
}

TEST_F(ServerTest, RejectedFigureIsNotRetried) {
  // bad_request is deterministic: the client must propagate it on the
  // first attempt instead of burning max_attempts with backoff.
  SweepServer& server = start({});
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_ms = 500;  // any retry backoff would dominate the elapsed time
  policy.max_ms = 500;
  SweepClient client("127.0.0.1", server.port(), policy);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.submit_figure("no_such_figure"), Error);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_ms, 400.0) << "a rejected figure must not be retried";
  EXPECT_EQ(server.stats_snapshot().at("bad_requests"), 1.0);
}

TEST_F(ServerTest, DrainTimeoutCancellationAnswersShuttingDownNotDeadline) {
  ServerConfig config;
  config.workers = 1;
  config.debug_compute_delay_ms = 200;
  config.drain_timeout_s = 0;  // stop() cancels in-flight work immediately
  SweepServer& server = start(config);

  std::string outcome;
  std::thread load([&] {
    RetryPolicy once;
    once.max_attempts = 1;
    SweepClient client("127.0.0.1", server.port(), once);
    try {
      outcome = client.submit("freq_cap", cheap_cell(1)).status;
    } catch (const Error& e) {
      outcome = e.what();  // retries exhausted carries the last error code
    }
  });
  sleep_ms(60);  // the cell is mid-compute when stop() cancels its token
  server.stop();
  load.join();

  // Shutdown-driven cancellation is retryable shutting_down; only a fired
  // per-request deadline may be answered deadline_exceeded.
  EXPECT_NE(outcome.find(error_code::kShuttingDown), std::string::npos)
      << outcome;
  EXPECT_EQ(server.stats_snapshot().at("deadline_exceeded"), 0.0);
}

TEST_F(ServerTest, GracefulStopDrainsAndRejectsLateSubmissions) {
  ServerConfig config;
  config.workers = 1;
  config.debug_compute_delay_ms = 40;
  config.drain_timeout_s = 5;
  SweepServer& server = start(config);

  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> refused{0};
  std::thread load([&] {
    RetryPolicy once;
    once.max_attempts = 1;
    SweepClient client("127.0.0.1", server.port(), once);
    for (std::size_t i = 0; i < 6; ++i) {
      try {
        const CellResult cell = client.submit("freq_cap", cheap_cell(i + 1));
        if (cell.ok()) {
          ok.fetch_add(1);
        } else if (cell.status == error_code::kShuttingDown) {
          refused.fetch_add(1);
        }
      } catch (const Error&) {
        refused.fetch_add(1);  // stream cut by shutdown
        break;
      }
    }
  });
  sleep_ms(60);  // let at least one cell land
  server.stop();
  load.join();

  EXPECT_GE(ok.load(), 1u) << "in-flight work must drain, not vanish";
  EXPECT_TRUE(server.draining());
  // The listener is down: new connections cannot be served.
  SweepClient late("127.0.0.1", server.port());
  EXPECT_FALSE(late.ping());
}

}  // namespace
}  // namespace aqua::service
