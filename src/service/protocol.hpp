#pragma once

/// Wire protocol of the sweep service (DESIGN.md §13).
///
/// Framing: every message is a 4-byte big-endian unsigned payload length
/// followed by exactly that many bytes of UTF-8 JSON. A frame with length
/// zero or above the configured maximum is a protocol violation — the
/// decoder throws and the server closes (only) that connection. Truncated
/// frames simply stay pending in the decoder until more bytes or EOF
/// arrive, so slow writers are fine and mid-frame disconnects are
/// detected by the transport, not the parser.
///
/// Requests (client → server), one JSON object per frame:
///   {"op":"submit","id":N,"family":"freq_cap","params":{"k":"v",...},
///    "deadline_ms":D,"tag":"..."}     one cell; params are strings and
///                                     the evaluator parses/validates
///   {"op":"figure","id":N,"figure":"fig07","deadline_ms":D}
///                                     a whole figure, expanded server-side
///   {"op":"ping","id":N}              liveness probe, never queued
///   {"op":"stats","id":N}             server counters, never queued
///
/// `deadline_ms` is relative to server receipt (0 = none); it bounds each
/// cell cooperatively via the SweepRunner cancellation token.
///
/// Responses (server → client):
///   {"op":"result","id":N,"cell":"...","tag":"...","source":"computed",
///    "values":{"k":1.0,...}}          source ∈ computed/cache/
///                                     single_flight
///   {"op":"error","id":N,"code":"overloaded","retry_after_ms":R,
///    "message":"..."}                 code ∈ overloaded/deadline_exceeded/
///                                     failed/bad_request/shutting_down
///   {"op":"pong","id":N}
///   {"op":"stats","id":N,"stats":{...}}
///   {"op":"figure_done","id":N,"stats":{"cells":...,"failed":...}}
///
/// Result values are serialized with format_double_exact (the cache's
/// round-trip-exact rendering), so a table assembled from service results
/// is byte-identical to one computed in process.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace aqua::service {

/// Default per-frame ceiling; generous for any real request, small enough
/// that a hostile length prefix cannot balloon a connection buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Prepends the 4-byte big-endian length. Throws on payloads over `max`.
std::string encode_frame(std::string_view payload,
                         std::uint32_t max = kMaxFrameBytes);

/// Incremental frame reassembly. feed() appends raw bytes; next() yields
/// complete payloads in order, nullopt when the buffer holds only a
/// partial frame. Zero or oversized lengths throw aqua::Error — the
/// connection is poisoned and must be closed (there is no way to resync a
/// length-prefixed stream after a bad prefix).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void feed(const char* data, std::size_t len);
  std::optional<std::string> next();

  /// Bytes sitting in the buffer (tests assert truncated frames pend).
  [[nodiscard]] std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::uint32_t max_frame_;
  std::string buffer_;
};

struct Request {
  enum class Op { kSubmit, kFigure, kPing, kStats };
  Op op = Op::kPing;
  std::uint64_t id = 0;
  std::string family;                          ///< submit
  std::map<std::string, std::string> params;   ///< submit
  std::string figure;                          ///< figure
  std::uint64_t deadline_ms = 0;               ///< 0 = no deadline
  std::string tag;                             ///< echoed on the result
};

std::string encode_request(const Request& request);

/// Parses a request payload; throws aqua::Error on malformed JSON or a
/// shape violation (missing op, wrong types) — the server answers
/// bad_request or closes, depending on whether an id was recoverable.
Request parse_request(std::string_view payload);

/// Typed error codes carried by error responses.
namespace error_code {
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kFailed = "failed";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kShuttingDown = "shutting_down";
}  // namespace error_code

struct Response {
  enum class Op { kResult, kError, kPong, kStats, kFigureDone };
  Op op = Op::kPong;
  std::uint64_t id = 0;
  std::string cell;                       ///< result
  std::string tag;                        ///< result
  std::string source;                     ///< result
  std::map<std::string, double> values;   ///< result
  std::string code;                       ///< error
  std::string message;                    ///< error
  std::uint64_t retry_after_ms = 0;       ///< error (overloaded)
  std::map<std::string, double> stats;    ///< stats / figure_done
};

std::string encode_response(const Response& response);

/// Parses a response payload; throws aqua::Error on malformed input.
Response parse_response(std::string_view payload);

}  // namespace aqua::service
