#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"

namespace aqua::service {

std::uint64_t backoff_delay_ms(const RetryPolicy& policy, std::size_t attempt,
                               std::uint64_t retry_after_ms, Xoshiro256& rng) {
  // Full jitter: uniform in (0, ceiling], where the ceiling doubles per
  // attempt. Jitter decorrelates a fleet of rejected clients so they do
  // not re-arrive as the same thundering herd that got them rejected.
  std::uint64_t ceiling = policy.base_ms;
  for (std::size_t i = 0; i < attempt && ceiling < policy.max_ms; ++i) {
    ceiling *= 2;
  }
  ceiling = std::min(ceiling, policy.max_ms);
  const double unit =
      static_cast<double>(rng()) / static_cast<double>(Xoshiro256::max());
  const auto jittered =
      static_cast<std::uint64_t>(unit * static_cast<double>(ceiling)) + 1;
  // The server's hint is a floor, not a target: never come back sooner
  // than it asked, but keep the jitter above it.
  return std::max(jittered, retry_after_ms);
}

SweepClient::SweepClient(std::string host, std::uint16_t port,
                         RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      rng_(policy.seed) {}

SweepClient::~SweepClient() { close(); }

void SweepClient::close() {
  sock_.close_fd();
  decoder_ = FrameDecoder();
}

void SweepClient::ensure_connected() {
  if (sock_.valid()) return;
  sock_ = connect_tcp(host_, port_);
  decoder_ = FrameDecoder();
}

void SweepClient::send_request(const Request& request) {
  ensure_connected();
  const std::string frame = encode_frame(encode_request(request));
  if (!send_all(sock_.fd(), frame.data(), frame.size())) {
    close();
    throw Error("transport error sending to the sweep service");
  }
}

Response SweepClient::read_response() {
  char buffer[4096];
  for (;;) {
    const std::optional<std::string> payload = decoder_.next();
    if (payload.has_value()) return parse_response(*payload);
    const ssize_t n = recv_some(sock_.fd(), buffer, sizeof(buffer));
    if (n <= 0) {
      close();
      throw Error("transport error reading from the sweep service");
    }
    decoder_.feed(buffer, static_cast<std::size_t>(n));
  }
}

void SweepClient::backoff(std::size_t attempt, std::uint64_t retry_after_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(
      backoff_delay_ms(policy_, attempt, retry_after_ms, rng_)));
}

CellResult SweepClient::submit(
    const std::string& family,
    const std::map<std::string, std::string>& params,
    std::uint64_t deadline_ms, const std::string& tag) {
  Request request;
  request.op = Request::Op::kSubmit;
  request.family = family;
  request.params = params;
  request.deadline_ms = deadline_ms;
  request.tag = tag;

  std::string last_error = "no attempts made";
  // One backoff per retry, at the top of the loop; a rejection carries
  // the server's retry_after_ms hint into it (transport errors leave it
  // 0, so they get plain jitter).
  std::uint64_t retry_hint = 0;
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) backoff(attempt - 1, retry_hint);
    retry_hint = 0;
    request.id = next_id_++;
    try {
      send_request(request);
      const Response response = read_response();
      if (response.op == Response::Op::kResult) {
        CellResult result;
        result.status = "ok";
        result.cell = response.cell;
        result.tag = response.tag;
        result.source = response.source;
        result.values = response.values;
        return result;
      }
      if (response.op == Response::Op::kError) {
        if (response.code == error_code::kOverloaded ||
            response.code == error_code::kShuttingDown) {
          // Retryable: idempotent by cell key, and the cell likely lands
          // warm next time.
          last_error = response.code + ": " + response.message;
          retry_hint = response.retry_after_ms;
          continue;
        }
        // Deterministic answers are not retried.
        CellResult result;
        result.status = response.code;
        result.message = response.message;
        result.tag = tag;
        return result;
      }
      throw Error("unexpected response op for a submit");
    } catch (const Error& e) {
      last_error = e.what();  // transport: reconnect on the next attempt
    }
  }
  throw Error("submit retries exhausted: " + last_error);
}

FigureResult SweepClient::submit_figure(const std::string& figure,
                                        std::uint64_t deadline_ms) {
  Request request;
  request.op = Request::Op::kFigure;
  request.figure = figure;
  request.deadline_ms = deadline_ms;

  std::string last_error = "no attempts made";
  std::uint64_t retry_hint = 0;  // one backoff per retry, at the loop top
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) backoff(attempt - 1, retry_hint);
    retry_hint = 0;
    request.id = next_id_++;
    // Merged by tag so a resubmitted figure overwrites rather than
    // duplicates cells already received on a torn earlier attempt.
    std::map<std::string, CellResult> by_tag;
    // A bad_request rejection is deterministic and must not burn retries;
    // it is recorded here and thrown outside the try so the transport
    // catch below cannot swallow it into the retry loop.
    std::string rejected;
    try {
      send_request(request);
      for (;;) {
        const Response response = read_response();
        if (response.op == Response::Op::kResult && response.id == request.id) {
          CellResult cell;
          cell.status = "ok";
          cell.cell = response.cell;
          cell.tag = response.tag;
          cell.source = response.source;
          cell.values = response.values;
          by_tag[cell.tag] = std::move(cell);
          continue;
        }
        if (response.op == Response::Op::kFigureDone &&
            response.id == request.id) {
          FigureResult result;
          result.stats = response.stats;
          result.cells.reserve(by_tag.size());
          for (auto& [tag, cell] : by_tag) {
            result.cells.push_back(std::move(cell));
          }
          return result;
        }
        if (response.op == Response::Op::kError) {
          if (response.code == error_code::kOverloaded ||
              response.code == error_code::kShuttingDown) {
            last_error = response.code + ": " + response.message;
            retry_hint = response.retry_after_ms;
            break;  // next attempt resubmits the figure
          }
          if (response.code == error_code::kBadRequest) {
            rejected = "figure rejected: " + response.message;
            break;
          }
          // Per-cell failed/deadline_exceeded: record and keep streaming.
          CellResult cell;
          cell.status = response.code;
          cell.message = response.message;
          by_tag["error:" + std::to_string(by_tag.size())] = std::move(cell);
          continue;
        }
        throw Error("unexpected response op for a figure");
      }
    } catch (const Error& e) {
      last_error = e.what();  // transport: reconnect, resubmit whole figure
    }
    if (!rejected.empty()) throw Error(rejected);
  }
  throw Error("figure retries exhausted: " + last_error);
}

bool SweepClient::ping() {
  Request request;
  request.op = Request::Op::kPing;
  request.id = next_id_++;
  try {
    send_request(request);
    return read_response().op == Response::Op::kPong;
  } catch (const Error&) {
    return false;
  }
}

std::map<std::string, double> SweepClient::stats() {
  Request request;
  request.op = Request::Op::kStats;
  request.id = next_id_++;
  send_request(request);
  const Response response = read_response();
  require(response.op == Response::Op::kStats,
          "unexpected response op for stats");
  return response.stats;
}

}  // namespace aqua::service
