#include "perf/protocol.hpp"

namespace aqua {

namespace {

template <class Enum, std::size_t N>
const char* name_of(Enum value, const char* const (&names)[N]) {
  const auto i = static_cast<std::size_t>(value);
  return i < N ? names[i] : "?";
}

}  // namespace

const char* to_string(MsgType t) {
  static constexpr const char* kNames[] = {
      "GetS",    "GetM",    "PutS",  "PutM",                  // requests
      "FwdGetS", "FwdGetM", "Inv",   "WBAck",                 // forwards
      "Data",    "DataE",   "DataM", "InvAck",   "AckCount",  // responses
      "DowngradeAck",       "Unblock"};
  return name_of(t, kNames);
}

std::uint8_t vc_class_of(MsgType t) {
  // MsgType lists the requests, then the forwards, then the responses.
  if (t <= MsgType::kPutM) return 0;
  return t <= MsgType::kWBAck ? 1 : 2;
}

bool carries_data(MsgType t) {
  switch (t) {
    case MsgType::kPutM:
    case MsgType::kData:
    case MsgType::kDataE:
    case MsgType::kDataM:
      return true;
    case MsgType::kDowngradeAck:
      // Carries data only when dirty, but packets are sized by type; use
      // the conservative data size (an O owner's downgrade ships the line).
      return true;
    default:
      return false;
  }
}

const char* to_string(L1State s) {
  static constexpr const char* kNames[] = {"I", "S", "E", "O", "M"};
  return name_of(s, kNames);
}

const char* to_string(DirState s) {
  static constexpr const char* kNames[] = {"Uncached", "Shared", "Exclusive",
                                           "Owned", "Modified"};
  return name_of(s, kNames);
}

}  // namespace aqua
