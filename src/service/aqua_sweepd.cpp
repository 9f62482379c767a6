/// aqua_sweepd: the sweep service daemon (DESIGN.md §13). Serves the
/// length-prefixed JSON protocol on AQUA_SERVICE_HOST:AQUA_SERVICE_PORT
/// (default 127.0.0.1:7447), running every cell through one shared
/// SweepRunner so concurrent clients dedupe in flight and share the
/// content-addressed cache (AQUA_SWEEP_CACHE). SIGTERM/SIGINT drain
/// in-flight work, flush reports, and exit 0 — EXPERIMENTS.md documents
/// the runbook.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

#include "service/server.hpp"

namespace {

std::atomic<bool> g_stop_requested{false};

extern "C" void aqua_sweepd_signal_handler(int) {
  // Async-signal-safe: one lock-free store; the main loop below turns it
  // into a graceful server.stop().
  g_stop_requested.store(true, std::memory_order_relaxed);
}

// The daemon deliberately does NOT install the process-wide sweep
// interrupt handlers (sweep/interrupt.hpp): SweepRunner::run gates every
// cell on that flag, so raising it would instantly cancel all queued work
// and the documented drain (compute queued cells within drain_timeout_s)
// could never happen. The daemon's shutdown contract is stop()'s drain,
// driven by this local flag instead.
void install_daemon_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = aqua_sweepd_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt blocking I/O too
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [--port N]\n\n"
      << "Sweep service daemon. Configuration (env, flags win for port):\n"
      << "  AQUA_SERVICE_HOST             listen address (127.0.0.1)\n"
      << "  AQUA_SERVICE_PORT             listen port (7447; 0 = ephemeral)\n"
      << "  AQUA_SERVICE_WORKERS          worker threads (hw concurrency)\n"
      << "  AQUA_SERVICE_QUEUE_HIGH/_LOW  admission watermarks (256/128)\n"
      << "  AQUA_SERVICE_INFLIGHT_CAP     per-client in-flight cells (128)\n"
      << "  AQUA_SERVICE_MAX_CONNECTIONS  concurrent clients (64)\n"
      << "  AQUA_SERVICE_DEADLINE_MS      default per-cell deadline (none)\n"
      << "  AQUA_SERVICE_DRAIN_TIMEOUT_S  shutdown drain budget (30)\n"
      << "  AQUA_SWEEP_CACHE / AQUA_RUN_REPORT as usual\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  aqua::service::ServerConfig config = aqua::service::ServerConfig::from_env();
  if (config.port == 0) config.port = 7447;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      config.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else {
      return usage(argv[0]);
    }
  }

  install_daemon_signal_handlers();

  if (config.workers == 0) {
    config.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  aqua::service::SweepServer server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "aqua_sweepd: " << e.what() << "\n";
    return 1;
  }
  std::cout << "aqua_sweepd listening on " << config.host << ":"
            << server.port() << " (" << config.workers << " workers, queue "
            << config.queue_low_watermark << "/" << config.queue_high_watermark
            << ")" << std::endl;  // endl: scripts wait for this line

  while (!g_stop_requested.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "aqua_sweepd: signal received, draining" << std::endl;
  server.stop();
  std::cout << "aqua_sweepd: drained, exiting 0" << std::endl;
  return 0;
}
