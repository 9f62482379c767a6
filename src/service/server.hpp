#pragma once

/// The sweep service daemon core (DESIGN.md §13): a TCP server that runs
/// every submitted cell through one shared, long-lived SweepRunner — which
/// is what turns the runner's single-flight memo into cross-client dedupe
/// and its content-addressed cache into a shared artifact store.
///
/// Robustness contract:
///   * admission control — a bounded job queue with high/low watermark
///     hysteresis: once depth reaches the high watermark new submissions
///     get an explicit `overloaded` rejection (with a retry_after_ms hint)
///     until the queue drains to the low watermark. Per-connection
///     in-flight caps stop one client from monopolizing the queue.
///     Figures are admitted atomically: all cells fit or the whole figure
///     is rejected.
///   * responsiveness — ping/stats are answered inline on the connection
///     thread and never queued, so a control connection sees the server
///     even at full overload.
///   * deadlines — a submission's deadline_ms becomes a CancelToken that
///     bounds the cell at the runner's chain boundaries; cells that
///     expire in the queue never start a solver.
///   * isolation — malformed/oversized/truncated frames poison only their
///     connection; a failing cell returns a typed `failed` error.
///   * graceful shutdown — stop() rejects new submissions
///     (`shutting_down`), drains queued + in-flight work (cancelling it
///     past drain_timeout_s), flushes run reports, then joins every
///     thread. The daemon maps SIGTERM/SIGINT onto stop() and exits 0.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/evaluator.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "sweep/interrupt.hpp"
#include "sweep/runner.hpp"

namespace aqua::service {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (tests); daemon default 7447
  std::size_t workers = 0;  ///< 0 = hardware_concurrency
  std::size_t queue_high_watermark = 256;
  std::size_t queue_low_watermark = 128;
  std::size_t per_client_inflight = 128;
  std::size_t max_connections = 64;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  std::uint64_t default_deadline_ms = 0;  ///< applied when a submit has none
  std::uint64_t drain_timeout_s = 30;
  std::string sweep_name = "service";
  /// Test/bench seam: every compute sleeps this long first, making
  /// overload drills deterministic on any machine. Not for production.
  std::uint64_t debug_compute_delay_ms = 0;

  /// Reads AQUA_SERVICE_{PORT,HOST,WORKERS,QUEUE_HIGH,QUEUE_LOW,
  /// INFLIGHT_CAP,MAX_CONNECTIONS,DEADLINE_MS,DRAIN_TIMEOUT_S} over
  /// `config`; an unset or empty variable keeps its field. Throws
  /// aqua::Error for a port that parse_port rejects, and, naming the
  /// variable, for a size that is not a decimal integer of at least 1 (at
  /// least 0 for WORKERS, 0 = hardware_concurrency, and DEADLINE_MS, 0 =
  /// none).
  static ServerConfig from_env(ServerConfig config);
};

/// `text` as a TCP port: a decimal integer in [0, 65535], else
/// aqua::Error naming `text`.
std::uint16_t parse_port(const char* text);

/// The CPUs the calling thread may run on (sched_getaffinity), in
/// ascending order; empty when the mask cannot be read.
std::vector<int> allowed_cpus();

/// The CPU worker slot `slot` pins itself to: the (slot mod n)-th of the
/// n CPUs in `allowed`, so up to n workers get distinct CPUs and more
/// wrap around. -1 (run unpinned) when `allowed` is empty.
int worker_cpu(const std::vector<int>& allowed, std::size_t slot);

class SweepServer {
 public:
  explicit SweepServer(ServerConfig config);
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Binds, listens and spawns the accept loop + worker pool. Worker slot
  /// i pins itself to worker_cpu(allowed_cpus(), i), read on the calling
  /// thread, and names itself `aqua-worker-<i>`; a worker whose pinning
  /// fails runs unpinned. Throws aqua::Error when the address cannot be
  /// bound.
  void start();

  /// The bound port (after start; useful with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful shutdown: reject new submissions, drain queued and
  /// in-flight cells (cancelling whatever is still running after
  /// drain_timeout_s), flush reports, join every thread. Idempotent.
  void stop();

  /// True once stop() began (new submissions get shutting_down).
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Live counter snapshot (also what a stats request returns), with
  /// `{queue_wait,compute,total}_{p50,p95,p99}_ms` per-cell latencies.
  [[nodiscard]] std::map<std::string, double> stats_snapshot() const;

 private:
  struct Connection;
  struct FigureTracker;
  struct Job;

  void accept_loop();
  void handle_connection(std::shared_ptr<Connection> conn);
  void dispatch(const Request& request, const std::shared_ptr<Connection>& conn);
  void handle_submit(const Request& request,
                     const std::shared_ptr<Connection>& conn);
  void handle_figure(const Request& request,
                     const std::shared_ptr<Connection>& conn);
  /// Atomic admission + enqueue under one queue lock (all cells fit or
  /// none are queued); fills `error` and returns false on rejection.
  bool admit_and_enqueue(const std::shared_ptr<Connection>& conn,
                         std::vector<Job>&& jobs, Response* error);
  /// Answers every queued (never started) job `shutting_down` and empties
  /// the queue. Caller holds queue_mutex_.
  void flush_queue_locked();
  void worker_loop(std::size_t slot);
  void run_job(Job& job, std::size_t slot);
  void send_response(const std::shared_ptr<Connection>& conn,
                     const Response& response);
  void send_error(const std::shared_ptr<Connection>& conn, std::uint64_t id,
                  const char* code, std::string message,
                  std::uint64_t retry_after_ms = 0);
  void finish_figure_cell(Job& job);
  void emit_connection_report(const Connection& conn) const;
  void emit_service_report() const;
  [[nodiscard]] std::uint64_t retry_after_hint() const;

  ServerConfig config_;
  sweep::SweepRunner runner_;
  std::uint16_t port_ = 0;

  Socket listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  /// Handler threads run detached (a joinable thread's stack is only
  /// released at join, so joining them all in stop() would leak one stack
  /// per connection ever accepted). This count + cv is what stop() waits
  /// on instead; both are guarded by conn_mutex_.
  std::size_t live_handlers_ = 0;
  std::condition_variable handlers_cv_;
  std::uint64_t next_conn_id_ = 1;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;       ///< workers wait for jobs
  std::condition_variable drain_cv_;       ///< stop() waits for drain
  std::deque<Job> queue_;
  std::atomic<std::size_t> queue_depth_{0};  ///< lock-free mirror for hints
  bool overloaded_ = false;  ///< watermark hysteresis state (queue lock)
  std::size_t jobs_in_flight_ = 0;         ///< popped, not yet finished
  std::vector<sweep::CancelToken> running_;  ///< per-worker-slot token
  bool workers_exit_ = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> single_flight_hits_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> failed_cells_{0};
  std::atomic<std::uint64_t> total_connections_{0};

  /// Per-cell latency in ms, one sample for every cell a worker picks up:
  /// queue wait (admitted -> picked up), compute (runner_.run) and total
  /// (admitted -> reply written). A client latency well above `total`
  /// is time spent on the wire, not in the server.
  obs::Histogram queue_wait_ms_;
  obs::Histogram compute_ms_;
  obs::Histogram total_ms_;
};

}  // namespace aqua::service
