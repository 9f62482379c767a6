/// The service_mix load generator: its own process, open loop. It sends the
/// seeded schedule over four pipelined connections at each op's due time,
/// whatever the replies are doing, and times every reply from that due
/// time. Built on the wire API (encode_request / FrameDecoder /
/// parse_response): SweepClient::submit blocks per request and would close
/// the loop. Writes one record per op to --out and prints a summary line.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <thread>

#include "common/error.hpp"
#include "proc.hpp"
#include "schedule.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::int64_t kSpinNs = 300'000;

aqua::service::Socket connect_loopback(std::uint16_t port) {
  aqua::service::Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  aqua::require(sock.valid(), "loadgen: cannot create a socket");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  aqua::require(::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                "loadgen: cannot connect to port " + std::to_string(port));
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

/// One op's fate. The sender writes sent_ns before the request leaves;
/// the connection's reader writes the rest when the reply arrives.
struct Slot {
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::string source = "-";
  std::string status = "none";
  std::string value = "-";
};

double mean(const std::vector<double>& v, std::size_t from, std::size_t to) {
  if (to <= from) return 0.0;
  double acc = 0.0;
  for (std::size_t i = from; i < to; ++i) acc += v[i];
  return acc / static_cast<double>(to - from);
}

}  // namespace

int loadgen_main(const std::map<std::string, std::string>& args) {
  const auto port = static_cast<std::uint16_t>(std::stoi(args.at("port")));
  const std::uint64_t seed = std::stoull(args.at("seed"));
  const double seconds = std::stod(args.at("seconds"));
  const std::vector<Op> ops = make_schedule(seed, seconds);

  std::vector<aqua::service::Socket> socks;
  for (std::size_t c = 0; c < kConnections; ++c) {
    socks.push_back(connect_loopback(port));
  }
  std::vector<Slot> slots(ops.size());
  std::atomic<std::size_t> received{0};
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      aqua::service::FrameDecoder decoder;
      char buffer[8192];
      for (;;) {
        const ssize_t n =
            aqua::service::recv_some(socks[c].fd(), buffer, sizeof(buffer));
        if (n <= 0) return;
        const std::int64_t t = now_ns();
        try {
          decoder.feed(buffer, static_cast<std::size_t>(n));
          while (std::optional<std::string> payload = decoder.next()) {
            const aqua::service::Response reply =
                aqua::service::parse_response(*payload);
            if (reply.id == 0 || reply.id > slots.size()) continue;
            const std::size_t i = reply.id - 1;
            Slot& slot = slots[i];
            slot.recv_ns = t;
            using ROp = aqua::service::Response::Op;
            if (reply.op == ROp::kResult) {
              slot.status = "ok";
              slot.source = reply.source;
              slot.value = ops[i].kind == OpKind::kFreqCap
                               ? render_freq_reply(reply.values)
                               : render_npb_reply(reply.values);
            } else if (reply.op == ROp::kPong) {
              slot.status = "ok";
              slot.source = "pong";
              slot.value = "pong";
            } else if (reply.op == ROp::kError) {
              slot.status = reply.code.empty() ? "error" : reply.code;
            } else {
              slot.status = "unexpected";
            }
            received.fetch_add(1, std::memory_order_release);
          }
        } catch (const std::exception&) {
          return;  // a torn stream: the ops stay unanswered and count failed
        }
      }
    });
  }

  const std::int64_t t0 = now_ns() + 50'000'000;  // connections settle first
  const auto clock_at = [](std::int64_t ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
  };
  std::vector<double> outstanding(ops.size(), 0.0);
  std::size_t outstanding_max = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(ops[i].due_s * 1e9);
    // Sleep to just short of the due time, then spin: a timer wake-up's
    // jitter would otherwise land in every request's latency.
    std::this_thread::sleep_until(clock_at(due - kSpinNs));
    while (now_ns() < due) {
    }
    const std::string frame = aqua::service::encode_frame(
        aqua::service::encode_request(make_request(ops[i], i + 1)));
    slots[i].sent_ns = now_ns();
    if (!aqua::service::send_all(socks[i % kConnections].fd(), frame.data(),
                                 frame.size())) {
      slots[i].status = "send_failed";
    }
    const std::size_t out = i + 1 - received.load(std::memory_order_acquire);
    outstanding[i] = static_cast<double>(out);
    outstanding_max = std::max(outstanding_max, out);
  }
  const std::int64_t give_up = now_ns() + 30'000'000'000;
  while (received.load(std::memory_order_acquire) < ops.size() &&
         now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool timed_out = received.load() < ops.size();
  for (aqua::service::Socket& sock : socks) sock.shutdown_both();
  for (std::thread& reader : readers) reader.join();

  std::int64_t last_recv = t0;
  std::vector<double> late_ms;
  std::ofstream out(args.at("out"));
  out << std::fixed << std::setprecision(4);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Slot& slot = slots[i];
    const double due_ms = ops[i].due_s * 1e3;
    const double sent_ms = static_cast<double>(slot.sent_ns - t0) / 1e6;
    const double recv_ms =
        slot.recv_ns > 0 ? static_cast<double>(slot.recv_ns - t0) / 1e6 : -1.0;
    last_recv = std::max(last_recv, slot.recv_ns);
    late_ms.push_back(sent_ms - due_ms);
    out << i << ' ' << static_cast<char>(ops[i].kind) << ' ' << ops[i].key
        << ' ' << due_ms << ' ' << sent_ms << ' ' << recv_ms << ' '
        << slot.source << ' ' << slot.status << ' ' << slot.value << '\n';
  }
  out.close();

  // A sustainable rate drains its backlog; one the server cannot keep up
  // with shows the outstanding count climbing through the run.
  const std::size_t n = ops.size();
  const bool growing =
      mean(outstanding, 3 * n / 4, n) > 2.0 * mean(outstanding, n / 4, n / 2) + 8.0;
  std::cout << "summary requests=" << n
            << " wall_s=" << static_cast<double>(last_recv - t0) / 1e9
            << " late_p99_ms=" << tail_percentile(late_ms).value
            << " outstanding_max=" << outstanding_max
            << " backlog_growing=" << (growing ? 1 : 0)
            << " timed_out=" << (timed_out ? 1 : 0) << std::endl;
  return 0;
}

}  // namespace perfbench
