#pragma once

/// Cooperative cancellation for sweep cells (DESIGN.md §13).
///
/// Two layers share one mechanism:
///
///   * `CancelToken` — per-request cancellation with an optional absolute
///     deadline. The sweep service hands every queued cell a token derived
///     from its client's deadline; `SweepRunner::run` checks it at the
///     precedence-chain boundaries (entry, memo wait, pre-compute,
///     post-compute) and returns `CellSource::kCancelled` instead of
///     computing past it. A cancelled cell is retryable by contract: it is
///     never reported as failed, never cached, and a cancelled
///     single-flight leader abandons its memo entry so waiters wake and
///     retry rather than inheriting a phantom failure.
///
///   * the process-wide sweep interrupt flag — set by the SIGINT/SIGTERM
///     handlers the long-running drivers install. The runner checks it on
///     every cell entry, so an interrupted sweep stops starting new work
///     within one cell, leaves the AQUA_SWEEP_CACHE file at a clean line
///     boundary (it is appended-and-flushed per cell), and the driver
///     exits cleanly instead of dying mid-write. Re-running on the same
///     cache then recomputes only the missing cells and the table is
///     bit-identical to an uninterrupted run.
///
/// Signal-safety: the handler only stores to a lock-free atomic flag.

#include <chrono>
#include <memory>

namespace aqua::sweep {

/// Shared-state cancellation token. Default-constructed tokens are inert
/// (never cancelled, zero-cost checks); tokens from `cancellable()` or
/// `with_deadline()` share one state with every copy.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Inert token: cancelled() is always false.
  CancelToken() = default;

  /// A token that can be cancelled explicitly (no deadline).
  static CancelToken cancellable();

  /// A token that reports cancelled once `deadline` passes (and can still
  /// be cancelled explicitly before that).
  static CancelToken with_deadline(Clock::time_point deadline);

  /// Cancels every copy of this token. No-op on an inert token.
  void cancel() const;

  /// True when cancel() was called or the deadline has passed.
  [[nodiscard]] bool cancelled() const;

  /// True for tokens that can ever report cancelled.
  [[nodiscard]] bool active() const { return state_ != nullptr; }

  /// The deadline, or Clock::time_point::max() when none was set. Memo
  /// waiters bound their condition-variable wait with it so a parked cell
  /// honors its deadline even while a slow leader holds the key.
  [[nodiscard]] Clock::time_point deadline() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Installs SIGINT/SIGTERM handlers that set the process-wide sweep
/// interrupt flag (idempotent; keeps already-installed handlers from being
/// stacked). The long-running sweep drivers call this before their sweep.
void install_sweep_interrupt_handlers();

/// True once a handled signal arrived (or a test raised the flag).
[[nodiscard]] bool sweep_interrupted();

/// Programmatic flag control for tests and drivers (clears or raises).
void set_sweep_interrupted(bool interrupted);

}  // namespace aqua::sweep
