#pragma once

/// Synthetic OpenMP-style workloads standing in for the NAS Parallel
/// Benchmarks (the gem5 full-system substitution, DESIGN.md Section 2).
///
/// Each profile fixes the characteristics that determine how execution time
/// responds to core frequency — memory intensity, working-set sizes,
/// sharing, streaming (capacity-miss) traffic and barrier structure. The
/// trace a thread executes is a deterministic function of (profile, thread
/// id, seed) and never depends on timing, so two runs at different clock
/// frequencies execute identical instruction streams.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "perf/params.hpp"

namespace aqua {

/// Longest per-thread instruction stream a caller may ask for (the
/// service's `instructions_per_thread` limit).
inline constexpr std::uint64_t kMaxInstructionsPerThread = 100'000'000;

/// Workload characterization knobs.
struct WorkloadProfile {
  std::string name;
  std::uint64_t instructions_per_thread = 120'000;
  double mem_fraction = 0.30;   ///< loads+stores per instruction
  double write_fraction = 0.30; ///< stores among memory ops
  double shared_fraction = 0.10;///< memory ops hitting the shared heap
  double streaming_fraction = 0.10;  ///< memory ops to never-reused lines
  /// Of the shared accesses, the fraction that target a *neighbor*
  /// thread's data (stencil halo exchange) rather than the global heap —
  /// the communication-locality contrast between BT/SP/LU (neighbor) and
  /// FT/IS (all-to-all).
  double neighbor_fraction = 0.0;
  /// Chip power under this program relative to the `stress` average the
  /// shipped curves are anchored at (paper Section 4.3: programs differ,
  /// stress sits at the middle). Used by the workload-power ablation.
  double power_activity = 1.0;
  std::uint64_t private_lines = 2048; ///< per-thread private working set
  std::uint64_t shared_lines = 32768; ///< global shared working set
  double stride_locality = 0.90; ///< P(next private access is sequential)
  std::size_t phases = 8;        ///< barrier count (OpenMP parallel loops)
  double imbalance = 0.05;       ///< per-phase work imbalance amplitude
};

/// The nine OpenMP NPB programs the paper simulates (BT CG EP FT IS LU MG
/// SP UA), characterized per published NPB analyses: EP is compute-bound,
/// CG/IS memory-bound and irregular, FT/MG streaming-heavy, BT/SP/LU
/// structured stencils, UA irregular with moderate memory traffic.
std::vector<WorkloadProfile> npb_suite();

/// Looks up one NPB profile by lower-case name (e.g. "cg").
WorkloadProfile npb_profile(const std::string& name);

/// One step of a thread's trace.
struct TraceOp {
  enum class Kind : std::uint8_t {
    kMemory,   ///< `compute_cycles` of ALU work, then one load/store
    kBarrier,  ///< synchronize with all threads
    kDone,     ///< thread finished
  };
  Kind kind = Kind::kDone;
  std::uint32_t compute_cycles = 0;
  bool is_store = false;
  LineAddr line = 0;
};

/// Abstract per-thread op stream: what a simulated core executes. The
/// synthetic generator below and the trace replayer (tracefile.hpp) both
/// implement it.
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// Next operation of this thread's stream (kDone forever once finished).
  virtual TraceOp next() = 0;
  /// Instructions represented by the ops issued so far.
  [[nodiscard]] virtual std::uint64_t instructions_issued() const = 0;
};

/// Deterministic per-thread trace generator.
class TraceGenerator final : public OpSource {
 public:
  TraceGenerator(const WorkloadProfile& profile, std::size_t thread_id,
                 std::size_t num_threads, std::uint64_t seed);

  /// Next operation of this thread's stream.
  TraceOp next() override;

  [[nodiscard]] std::uint64_t instructions_issued() const override {
    return instructions_;
  }

 private:
  [[nodiscard]] LineAddr next_address(bool& is_store);

  WorkloadProfile profile_;
  std::size_t thread_id_;
  std::size_t num_threads_;
  Xoshiro256 rng_;

  std::uint64_t instructions_ = 0;
  std::uint64_t total_instructions_;
  std::size_t phase_ = 0;
  // Precomputed phase boundaries (phases - 1 of them, strictly increasing,
  // all < total). Every thread emits exactly the same number of barriers —
  // anything else deadlocks the simulated barrier.
  std::vector<std::uint64_t> boundaries_;
  std::uint64_t element_ptr_ = 0;     // private-stream position (8B elems)
  std::uint64_t stream_counter_ = 0;  // unique streaming lines issued

  // Address-space bases (line addresses). Private regions are disjoint per
  // thread; the shared heap is common; streaming lines are never reused.
  LineAddr private_base_;
  LineAddr shared_base_;
  LineAddr stream_base_;
};

}  // namespace aqua
