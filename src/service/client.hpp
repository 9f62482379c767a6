#pragma once

/// C++ client for the sweep service (DESIGN.md §13). Submissions are
/// idempotent by cell key — a retried cell lands on the server's memo or
/// cache instead of recomputing — so the client retries
/// aggressively and safely:
///
///   * `overloaded` responses: jittered exponential backoff (deterministic
///     Xoshiro256 stream), with the server's retry_after_ms hint as the
///     floor of each delay.
///   * transport errors (server restart, dropped connection, torn frame):
///     reconnect and resubmit. A figure interrupted mid-stream is
///     resubmitted whole; the warm server re-serves the finished cells
///     from cache/memo, so only the missing ones compute.
///
/// Typed per-cell errors (`failed`, `bad_request`, `deadline_exceeded`)
/// are NOT retried — they are deterministic answers, returned in
/// CellResult::status.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"

namespace aqua::service {

struct RetryPolicy {
  std::size_t max_attempts = 6;  ///< total tries per operation
  std::uint64_t base_ms = 20;    ///< first backoff delay
  std::uint64_t max_ms = 2000;   ///< backoff ceiling
  std::uint64_t seed = 1;        ///< jitter stream seed (deterministic)
};

/// Delay before retry `attempt` (0-based): full jitter over the
/// exponential ceiling min(max_ms, base_ms * 2^attempt), floored by the
/// server's retry_after_ms hint. Exposed for deterministic tests.
std::uint64_t backoff_delay_ms(const RetryPolicy& policy, std::size_t attempt,
                               std::uint64_t retry_after_ms, Xoshiro256& rng);

struct CellResult {
  std::string status;  ///< "ok" or an error_code::* string
  std::string cell;
  std::string tag;
  std::string source;  ///< computed / cache / single_flight
  std::string message;
  std::map<std::string, double> values;
  [[nodiscard]] bool ok() const { return status == "ok"; }
};

struct FigureResult {
  std::vector<CellResult> cells;          ///< per-cell, arrival order
  std::map<std::string, double> stats;    ///< the figure_done tally
};

class SweepClient {
 public:
  SweepClient(std::string host, std::uint16_t port, RetryPolicy policy = {});
  ~SweepClient();

  SweepClient(const SweepClient&) = delete;
  SweepClient& operator=(const SweepClient&) = delete;

  /// Submits one cell and blocks for its result, retrying per the policy.
  /// Throws aqua::Error when retries are exhausted (still unreachable or
  /// still overloaded).
  CellResult submit(const std::string& family,
                    const std::map<std::string, std::string>& params,
                    std::uint64_t deadline_ms = 0, const std::string& tag = {});

  /// Submits a whole figure and blocks until figure_done, streaming cells
  /// into the result as they arrive. Retries overload rejections and
  /// transport interruptions by resubmitting the figure (cheap once warm;
  /// cells are merged by tag, latest wins).
  FigureResult submit_figure(const std::string& figure,
                             std::uint64_t deadline_ms = 0);

  /// Liveness probe; true when the server answered the ping. Never
  /// retries — it reports the here-and-now.
  bool ping();

  /// Server counter snapshot. Throws when unreachable.
  std::map<std::string, double> stats();

  void close();

 private:
  void ensure_connected();
  void send_request(const Request& request);
  Response read_response();  ///< next frame; throws on transport failure
  void backoff(std::size_t attempt, std::uint64_t retry_after_ms);

  std::string host_;
  std::uint16_t port_;
  RetryPolicy policy_;
  Xoshiro256 rng_;
  Socket sock_;
  FrameDecoder decoder_;
  std::uint64_t next_id_ = 1;
};

}  // namespace aqua::service
