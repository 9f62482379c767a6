#include "sweep/interrupt.hpp"

#include <atomic>
#include <csignal>

namespace aqua::sweep {

struct CancelToken::State {
  std::atomic<bool> cancelled{false};
  bool has_deadline = false;
  Clock::time_point deadline{};
};

CancelToken CancelToken::cancellable() {
  CancelToken token;
  token.state_ = std::make_shared<State>();
  return token;
}

CancelToken CancelToken::with_deadline(Clock::time_point deadline) {
  CancelToken token;
  token.state_ = std::make_shared<State>();
  token.state_->has_deadline = true;
  token.state_->deadline = deadline;
  return token;
}

void CancelToken::cancel() const {
  if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
}

bool CancelToken::cancelled() const {
  if (!state_) return false;
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  return state_->has_deadline && Clock::now() >= state_->deadline;
}

CancelToken::Clock::time_point CancelToken::deadline() const {
  return state_ && state_->has_deadline ? state_->deadline
                                        : Clock::time_point::max();
}

namespace {

std::atomic<bool> g_interrupted{false};

extern "C" void aqua_sweep_interrupt_handler(int) {
  // Async-signal-safe: one lock-free store. Everything else (cache
  // flushes, table output, exit codes) happens cooperatively on the
  // normal control path when the runner observes the flag.
  g_interrupted.store(true, std::memory_order_relaxed);
}

}  // namespace

void install_sweep_interrupt_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  struct sigaction action = {};
  action.sa_handler = aqua_sweep_interrupt_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt blocking I/O too
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

bool sweep_interrupted() {
  return g_interrupted.load(std::memory_order_relaxed);
}

void set_sweep_interrupted(bool interrupted) {
  g_interrupted.store(interrupted, std::memory_order_relaxed);
}

}  // namespace aqua::sweep
