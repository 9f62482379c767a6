#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace aqua::service {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const long long value = std::atoll(raw);
  return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

obs::Gauge& active_connections_gauge() {
  return obs::Registry::instance().gauge("service.active_connections");
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structs
// ---------------------------------------------------------------------------

/// One client connection. Workers write results straight to the socket
/// under write_mutex, so results stream as cells complete, interleaved
/// but never torn.
struct SweepServer::Connection {
  std::uint64_t id = 0;
  Socket sock;
  std::mutex write_mutex;
  std::atomic<std::size_t> inflight{0};
  std::atomic<bool> open{true};
  // Per-connection ledger for the service_conn run-report record.
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> results{0};
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> single_flight{0};
  std::atomic<std::uint64_t> failed{0};
};

/// Tracks a server-side figure expansion; the last finished cell sends
/// figure_done with the tally.
struct SweepServer::FigureTracker {
  std::uint64_t id = 0;
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::size_t cells = 0;
};

struct SweepServer::Job {
  std::shared_ptr<Connection> conn;
  std::uint64_t id = 0;
  std::string tag;
  CellJob cell;
  sweep::CancelToken token;
  std::shared_ptr<FigureTracker> figure;
};

// ---------------------------------------------------------------------------
// Config / lifecycle
// ---------------------------------------------------------------------------

ServerConfig ServerConfig::from_env() {
  ServerConfig config;
  if (const char* host = std::getenv("AQUA_SERVICE_HOST")) {
    if (*host != '\0') config.host = host;
  }
  config.port =
      static_cast<std::uint16_t>(env_size("AQUA_SERVICE_PORT", config.port));
  config.workers = env_size("AQUA_SERVICE_WORKERS", config.workers);
  config.queue_high_watermark =
      env_size("AQUA_SERVICE_QUEUE_HIGH", config.queue_high_watermark);
  config.queue_low_watermark =
      env_size("AQUA_SERVICE_QUEUE_LOW", config.queue_low_watermark);
  config.per_client_inflight =
      env_size("AQUA_SERVICE_INFLIGHT_CAP", config.per_client_inflight);
  config.max_connections =
      env_size("AQUA_SERVICE_MAX_CONNECTIONS", config.max_connections);
  config.default_deadline_ms =
      env_size("AQUA_SERVICE_DEADLINE_MS", config.default_deadline_ms);
  config.drain_timeout_s =
      env_size("AQUA_SERVICE_DRAIN_TIMEOUT_S", config.drain_timeout_s);
  config.debug_compute_delay_ms =
      env_size("AQUA_SERVICE_DEBUG_DELAY_MS", config.debug_compute_delay_ms);
  return config;
}

SweepServer::SweepServer(ServerConfig config)
    : config_(std::move(config)), runner_(config_.sweep_name) {
  require(config_.queue_low_watermark <= config_.queue_high_watermark,
          "queue low watermark must not exceed the high watermark");
  require(config_.queue_high_watermark >= 1, "queue watermark must be >= 1");
  if (config_.workers == 0) {
    config_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
}

SweepServer::~SweepServer() { stop(); }

void SweepServer::start() {
  require(!started_.exchange(true), "server already started");

  Socket listener(::socket(AF_INET, SOCK_STREAM, 0));
  require(listener.valid(), "cannot create the listen socket");
  const int one = 1;
  ::setsockopt(listener.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  require(::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1,
          "cannot parse the listen host: " + config_.host);
  require(::bind(listener.fd(), reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) == 0,
          "cannot bind " + config_.host + ":" + std::to_string(config_.port));
  require(::listen(listener.fd(), 64) == 0, "cannot listen");

  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  require(::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0,
          "cannot read the bound address");
  port_ = ntohs(bound.sin_port);
  listener_ = std::move(listener);

  running_.resize(config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t slot = 0; slot < config_.workers; ++slot) {
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SweepServer::stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);

  // Stop accepting: shutdown wakes the blocked accept(); the loop then
  // observes draining_ and exits.
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain: queued jobs keep flowing to workers and in-flight cells finish.
  // Past the timeout, cancel whatever still runs (cells observe the token
  // at their next chain boundary and are answered shutting_down, which
  // clients treat as retryable — not deadline_exceeded, which they don't).
  {
    std::unique_lock lock(queue_mutex_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(config_.drain_timeout_s);
    const bool drained = drain_cv_.wait_until(lock, deadline, [&] {
      return queue_.empty() && jobs_in_flight_ == 0;
    });
    if (!drained) {
      // Budget spent. Jobs still queued never started, so answering them
      // shutting_down is honest — and it bounds the remaining wait to the
      // in-flight cells reaching their next chain boundary, not to the
      // whole backlog executing.
      flush_queue_locked();
      for (sweep::CancelToken& token : running_) token.cancel();
      drain_cv_.wait(lock,
                     [&] { return queue_.empty() && jobs_in_flight_ == 0; });
    }
    workers_exit_ = true;
    queue_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }

  // A submission that raced the draining flag could have landed after the
  // drain wait: answer it honestly instead of dropping it silently.
  {
    std::lock_guard lock(queue_mutex_);
    flush_queue_locked();
  }

  // Unblock the connection handlers (their recv returns once the socket
  // is shut down) and wait for the last detached one to finish — they
  // reference this server, so stop() must not return before they do.
  {
    std::unique_lock lock(conn_mutex_);
    for (const auto& conn : connections_) conn->sock.shutdown_both();
    handlers_cv_.wait(lock, [&] { return live_handlers_ == 0; });
  }

  runner_.emit_report();
  emit_service_report();
}

// ---------------------------------------------------------------------------
// Accept / connection handling
// ---------------------------------------------------------------------------

void SweepServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop) or fatal: stop accepting
    }
    auto conn = std::make_shared<Connection>();
    conn->sock = Socket(fd);
    if (draining_.load(std::memory_order_relaxed)) {
      send_error(conn, 0, error_code::kShuttingDown, "server shutting down");
      continue;  // Socket closes with conn
    }
    {
      std::lock_guard lock(conn_mutex_);
      if (connections_.size() >= config_.max_connections) {
        // Over the connection cap: explicit rejection, never a hang.
        send_error(conn, 0, error_code::kOverloaded,
                   "connection limit reached", retry_after_hint());
        rejected_overload_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      conn->id = next_conn_id_++;
      connections_.push_back(conn);
      // Detached: the shared_ptr owns the socket, and stop() waits on
      // live_handlers_ before tearing the server down, so nothing keeps a
      // finished thread's stack alive until shutdown.
      ++live_handlers_;
      std::thread([this, conn] { handle_connection(conn); }).detach();
    }
    total_connections_.fetch_add(1, std::memory_order_relaxed);
    active_connections_gauge().add(1);
  }
}

void SweepServer::handle_connection(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder(config_.max_frame_bytes);
  char buffer[4096];
  bool poisoned = false;
  while (!poisoned) {
    const ssize_t n = recv_some(conn->sock.fd(), buffer, sizeof(buffer));
    if (n <= 0) break;  // orderly close, transport error, or shutdown
    try {
      decoder.feed(buffer, static_cast<std::size_t>(n));
      for (;;) {
        const std::optional<std::string> payload = decoder.next();
        if (!payload.has_value()) break;
        Request request;
        try {
          request = parse_request(*payload);
        } catch (const std::exception& e) {
          // Parsable framing but malformed JSON/shape: answer bad_request
          // and keep the connection — the stream is still in sync.
          conn->bad_requests.fetch_add(1, std::memory_order_relaxed);
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
          send_error(conn, 0, error_code::kBadRequest, e.what());
          continue;
        }
        dispatch(request, conn);
      }
    } catch (const std::exception& e) {
      // Framing violation (zero/oversized length): impossible to resync a
      // length-prefixed stream, so poison and close this connection only.
      send_error(conn, 0, error_code::kBadRequest, e.what());
      poisoned = true;
    }
  }
  conn->open.store(false, std::memory_order_relaxed);
  conn->sock.shutdown_both();  // in-flight cells see dead writes, not hangs
  active_connections_gauge().add(-1);
  emit_connection_report(*conn);
  std::lock_guard lock(conn_mutex_);
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), conn),
      connections_.end());
  if (--live_handlers_ == 0) handlers_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Dispatch / admission
// ---------------------------------------------------------------------------

void SweepServer::dispatch(const Request& request,
                           const std::shared_ptr<Connection>& conn) {
  conn->requests.fetch_add(1, std::memory_order_relaxed);
  switch (request.op) {
    case Request::Op::kPing: {
      // Answered inline, never queued: the control-responsiveness
      // guarantee under overload.
      Response pong;
      pong.op = Response::Op::kPong;
      pong.id = request.id;
      send_response(conn, pong);
      return;
    }
    case Request::Op::kStats: {
      Response stats;
      stats.op = Response::Op::kStats;
      stats.id = request.id;
      stats.stats = stats_snapshot();
      send_response(conn, stats);
      return;
    }
    case Request::Op::kSubmit:
      handle_submit(request, conn);
      return;
    case Request::Op::kFigure:
      handle_figure(request, conn);
      return;
  }
}

std::uint64_t SweepServer::retry_after_hint() const {
  // Rough service-time estimate: assume ~50ms per queued cell spread over
  // the worker pool, floored at 50ms and capped at 2s. A hint, not a
  // promise — the client's jittered backoff uses it as a floor.
  const std::size_t depth = queue_depth_.load(std::memory_order_relaxed);
  const std::uint64_t estimate =
      50 + (depth * 50) / std::max<std::size_t>(1, config_.workers);
  return std::min<std::uint64_t>(estimate, 2000);
}

bool SweepServer::admit_and_enqueue(const std::shared_ptr<Connection>& conn,
                                    std::vector<Job>&& jobs,
                                    Response* error) {
  const std::size_t count = jobs.size();
  const auto reject = [&](std::string message) {
    error->op = Response::Op::kError;
    error->code = error_code::kOverloaded;
    error->retry_after_ms = retry_after_hint();
    error->message = std::move(message);
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    conn->rejected_overload.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("service.rejected_overload").add(1);
    return false;
  };

  if (conn->inflight.load(std::memory_order_relaxed) + count >
      config_.per_client_inflight) {
    return reject("per-client in-flight cap (" +
                  std::to_string(config_.per_client_inflight) +
                  " cells) reached");
  }

  {
    std::lock_guard lock(queue_mutex_);
    // Watermark hysteresis: entering overload at the high watermark and
    // leaving it only at the low watermark prevents accept/reject
    // flapping at the boundary.
    if (queue_.size() >= config_.queue_high_watermark) overloaded_ = true;
    if (overloaded_ ||
        queue_.size() + count > config_.queue_high_watermark) {
      return reject("request queue is at its watermark");
    }
    for (Job& job : jobs) queue_.push_back(std::move(job));
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
  }
  conn->inflight.fetch_add(count, std::memory_order_relaxed);
  accepted_.fetch_add(count, std::memory_order_relaxed);
  obs::Registry::instance().counter("service.accepted").add(count);
  if (count == 1) {
    queue_cv_.notify_one();
  } else {
    queue_cv_.notify_all();
  }
  return true;
}

void SweepServer::handle_submit(const Request& request,
                                const std::shared_ptr<Connection>& conn) {
  if (draining_.load(std::memory_order_relaxed)) {
    send_error(conn, request.id, error_code::kShuttingDown,
               "server is draining");
    return;
  }

  Job job;
  try {
    job.cell = make_cell_job(request.family, request.params);
  } catch (const std::exception& e) {
    conn->bad_requests.fetch_add(1, std::memory_order_relaxed);
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, request.id, error_code::kBadRequest, e.what());
    return;
  }

  job.conn = conn;
  job.id = request.id;
  job.tag = request.tag;
  const std::uint64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms
                              : config_.default_deadline_ms;
  job.token = deadline_ms > 0
                  ? sweep::CancelToken::with_deadline(
                        std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms))
                  : sweep::CancelToken::cancellable();

  std::vector<Job> jobs;
  jobs.push_back(std::move(job));
  Response error;
  if (!admit_and_enqueue(conn, std::move(jobs), &error)) {
    error.id = request.id;
    send_response(conn, error);
  }
}

void SweepServer::handle_figure(const Request& request,
                                const std::shared_ptr<Connection>& conn) {
  if (draining_.load(std::memory_order_relaxed)) {
    send_error(conn, request.id, error_code::kShuttingDown,
               "server is draining");
    return;
  }

  std::vector<FigureCell> cells;
  std::vector<Job> jobs;
  try {
    cells = expand_figure(request.figure);
    jobs.reserve(cells.size());
    for (const FigureCell& cell : cells) {
      Job job;
      job.cell = make_cell_job(cell.family, cell.params);
      job.tag = cell.tag;
      jobs.push_back(std::move(job));
    }
  } catch (const std::exception& e) {
    conn->bad_requests.fetch_add(1, std::memory_order_relaxed);
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, request.id, error_code::kBadRequest, e.what());
    return;
  }

  auto tracker = std::make_shared<FigureTracker>();
  tracker->id = request.id;
  tracker->cells = jobs.size();
  tracker->remaining.store(jobs.size(), std::memory_order_relaxed);

  const std::uint64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms
                              : config_.default_deadline_ms;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  for (Job& job : jobs) {
    job.conn = conn;
    job.id = request.id;
    job.token = deadline_ms > 0 ? sweep::CancelToken::with_deadline(deadline)
                                : sweep::CancelToken::cancellable();
    job.figure = tracker;
  }
  Response error;
  if (!admit_and_enqueue(conn, std::move(jobs), &error)) {
    error.id = request.id;
    send_response(conn, error);
  }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void SweepServer::flush_queue_locked() {
  for (Job& job : queue_) {
    job.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    send_error(job.conn, job.id, error_code::kShuttingDown,
               "server shut down before this cell ran");
  }
  queue_.clear();
  queue_depth_.store(0, std::memory_order_relaxed);
}

void SweepServer::worker_loop(std::size_t slot) {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return workers_exit_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_exit_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
      if (overloaded_ && queue_.size() <= config_.queue_low_watermark) {
        overloaded_ = false;
      }
      ++jobs_in_flight_;
      running_[slot] = job.token;
    }
    run_job(job, slot);
    {
      std::lock_guard lock(queue_mutex_);
      --jobs_in_flight_;
      running_[slot] = sweep::CancelToken();
      if (queue_.empty() && jobs_in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

void SweepServer::run_job(Job& job, std::size_t /*slot*/) {
  const auto done = [&] {
    job.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    finish_figure_cell(job);
  };

  std::function<std::map<std::string, double>()> compute =
      std::move(job.cell.compute);
  if (config_.debug_compute_delay_ms > 0) {
    // Deterministic slowness for overload drills and drain tests.
    const auto delay =
        std::chrono::milliseconds(config_.debug_compute_delay_ms);
    auto inner = compute;
    compute = [inner, delay] {
      std::this_thread::sleep_for(delay);
      return inner();
    };
  }

  std::map<std::string, double> values;
  sweep::CellSource source = sweep::CellSource::kFailed;
  std::string failure;
  try {
    source = runner_.run(
        job.cell.config, job.cell.cell, job.cell.policy, compute,
        [&values](const std::map<std::string, double>& v) { values = v; },
        job.token);
  } catch (const std::exception& e) {
    source = sweep::CellSource::kFailed;
    failure = e.what();
  }

  switch (source) {
    case sweep::CellSource::kCancelled:
      if (job.figure) {
        job.figure->cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      // deadline_exceeded is a deterministic answer clients never retry, so
      // it is only sent when the request's own deadline actually fired.
      // Any other cancellation (the drain-timeout token cancel in stop(),
      // or the process-wide interrupt flag when embedded in a driver) is
      // shutdown-driven: answer shutting_down so the work stays retryable.
      if (std::chrono::steady_clock::now() >= job.token.deadline()) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        job.conn->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        obs::Registry::instance().counter("service.deadline_exceeded").add(1);
        send_error(job.conn, job.id, error_code::kDeadlineExceeded,
                   "deadline exceeded: " + job.cell.cell);
      } else {
        send_error(job.conn, job.id, error_code::kShuttingDown,
                   "server shut down before this cell finished");
      }
      done();
      return;
    case sweep::CellSource::kFailed:
      failed_cells_.fetch_add(1, std::memory_order_relaxed);
      job.conn->failed.fetch_add(1, std::memory_order_relaxed);
      if (job.figure) {
        job.figure->failed.fetch_add(1, std::memory_order_relaxed);
      }
      send_error(job.conn, job.id, error_code::kFailed,
                 failure.empty() ? "cell failed: " + job.cell.cell : failure);
      done();
      return;
    default:
      break;
  }

  Response result;
  result.op = Response::Op::kResult;
  result.id = job.id;
  result.cell = job.cell.cell;
  result.tag = job.tag;
  result.values = std::move(values);
  switch (source) {
    case sweep::CellSource::kMemo:
      // Cross-client single-flight: this cell was served by a concurrent
      // identical computation.
      result.source = "single_flight";
      single_flight_hits_.fetch_add(1, std::memory_order_relaxed);
      job.conn->single_flight.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::instance().counter("service.single_flight_hits").add(1);
      break;
    case sweep::CellSource::kCache:
      result.source = "cache";
      break;
    default:
      result.source = "computed";
      break;
  }
  job.conn->results.fetch_add(1, std::memory_order_relaxed);
  send_response(job.conn, result);
  done();
}

void SweepServer::finish_figure_cell(Job& job) {
  if (!job.figure) return;
  if (job.figure->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  Response done;
  done.op = Response::Op::kFigureDone;
  done.id = job.figure->id;
  done.stats["cells"] = static_cast<double>(job.figure->cells);
  done.stats["failed"] =
      static_cast<double>(job.figure->failed.load(std::memory_order_relaxed));
  done.stats["cancelled"] = static_cast<double>(
      job.figure->cancelled.load(std::memory_order_relaxed));
  send_response(job.conn, done);
}

// ---------------------------------------------------------------------------
// Responses / reports
// ---------------------------------------------------------------------------

void SweepServer::send_response(const std::shared_ptr<Connection>& conn,
                                const Response& response) {
  if (!conn->open.load(std::memory_order_relaxed)) return;
  const std::string frame =
      encode_frame(encode_response(response), config_.max_frame_bytes);
  std::lock_guard lock(conn->write_mutex);
  if (!send_all(conn->sock.fd(), frame.data(), frame.size())) {
    // Peer is gone; further writes on this connection are pointless.
    conn->open.store(false, std::memory_order_relaxed);
  }
}

void SweepServer::send_error(const std::shared_ptr<Connection>& conn,
                             std::uint64_t id, const char* code,
                             std::string message,
                             std::uint64_t retry_after_ms) {
  Response error;
  error.op = Response::Op::kError;
  error.id = id;
  error.code = code;
  error.message = std::move(message);
  error.retry_after_ms = retry_after_ms;
  send_response(conn, error);
}

std::map<std::string, double> SweepServer::stats_snapshot() const {
  const sweep::SweepRunner::Stats runner = runner_.stats();
  std::map<std::string, double> stats;
  stats["accepted"] =
      static_cast<double>(accepted_.load(std::memory_order_relaxed));
  stats["rejected_overload"] =
      static_cast<double>(rejected_overload_.load(std::memory_order_relaxed));
  stats["deadline_exceeded"] =
      static_cast<double>(deadline_exceeded_.load(std::memory_order_relaxed));
  stats["single_flight_hits"] =
      static_cast<double>(single_flight_hits_.load(std::memory_order_relaxed));
  stats["bad_requests"] =
      static_cast<double>(bad_requests_.load(std::memory_order_relaxed));
  stats["failed"] =
      static_cast<double>(failed_cells_.load(std::memory_order_relaxed));
  stats["computed"] = static_cast<double>(runner.computed);
  stats["cache_hits"] = static_cast<double>(runner.cache_hits);
  stats["total_connections"] =
      static_cast<double>(total_connections_.load(std::memory_order_relaxed));
  stats["draining"] = draining_.load(std::memory_order_relaxed) ? 1.0 : 0.0;
  {
    std::lock_guard lock(conn_mutex_);
    stats["active_connections"] = static_cast<double>(connections_.size());
  }
  return stats;
}

void SweepServer::emit_connection_report(const Connection& conn) const {
  obs::RunReport& report = obs::RunReport::instance();
  if (!report.enabled()) return;
  report.emit("service_conn", [&](obs::JsonWriter& w) {
    w.add("conn", conn.id)
        .add("requests", conn.requests.load(std::memory_order_relaxed))
        .add("results", conn.results.load(std::memory_order_relaxed))
        .add("rejected_overload",
             conn.rejected_overload.load(std::memory_order_relaxed))
        .add("deadline_exceeded",
             conn.deadline_exceeded.load(std::memory_order_relaxed))
        .add("bad_requests",
             conn.bad_requests.load(std::memory_order_relaxed))
        .add("single_flight",
             conn.single_flight.load(std::memory_order_relaxed))
        .add("failed", conn.failed.load(std::memory_order_relaxed));
  });
}

void SweepServer::emit_service_report() const {
  obs::RunReport& report = obs::RunReport::instance();
  if (!report.enabled()) return;
  const std::map<std::string, double> stats = stats_snapshot();
  report.emit("service", [&](obs::JsonWriter& w) {
    w.add("sweep", config_.sweep_name);
    for (const auto& [key, value] : stats) w.add(key, value);
  });
}

}  // namespace aqua::service
