#pragma once

/// The full-system CMP simulator: in-order cores with private L1s, a
/// distributed shared L2 with a blocking MOESI directory, the cycle-level
/// 3-D mesh NoC, and per-chip memory controllers. This is the gem5
/// substitute that turns (workload, frequency) into execution time.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pool.hpp"
#include "common/units.hpp"
#include "perf/cache.hpp"
#include "perf/event_queue.hpp"
#include "perf/faults.hpp"
#include "perf/noc.hpp"
#include "perf/params.hpp"
#include "perf/protocol.hpp"
#include "perf/tracefile.hpp"
#include "perf/workload.hpp"

namespace aqua {

/// Results of one simulated execution.
struct ExecStats {
  Cycle cycles = 0;                ///< cycle of the last thread's completion
  double seconds = 0.0;            ///< cycles / frequency
  std::uint64_t instructions = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_data_hits = 0;  ///< home requests served from L2 data
  std::uint64_t l2_data_misses = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t coherence_forwards = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t barriers = 0;
  std::uint64_t l2_overflow_inserts = 0;  ///< see DESIGN.md L2 note
  NocStats noc;

  // CPI stack: total core-cycles (summed over cores) spent in each state.
  // busy + stalls + barrier_wait ~= cycles * cores (idle tails aside).
  std::uint64_t stall_l2_cycles = 0;      ///< misses served by L2 data
  std::uint64_t stall_dram_cycles = 0;    ///< misses that went to memory
  std::uint64_t stall_forward_cycles = 0; ///< misses served by other caches
  std::uint64_t stall_upgrade_cycles = 0; ///< upgrades (acks only, no data)
  std::uint64_t barrier_wait_cycles = 0;  ///< waiting at the OpenMP barrier

  /// Fraction of the run each core spent issuing instructions (its
  /// instruction count over total cycles). Feeds the activity-aware power
  /// map (core/activity.hpp): stalled cores burn less dynamic power.
  std::vector<double> core_utilization;

  // Fault accounting (all zero / false on a fault-free run).
  std::uint64_t cores_failed = 0;       ///< dead-at-start + mid-run kills
  std::uint64_t noc_links_failed = 0;
  std::uint64_t noc_routers_failed = 0;
  bool degraded = false;                ///< any fault was injected

  [[nodiscard]] std::uint64_t total_stall_cycles() const {
    return stall_l2_cycles + stall_dram_cycles + stall_forward_cycles +
           stall_upgrade_cycles;
  }

  [[nodiscard]] double l1_hit_rate() const {
    const auto total = l1_hits + l1_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(l1_hits) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

/// One simulated chip-multiprocessor system executing one workload.
///
/// The system clock is the chip clock: all on-chip latencies are in cycles
/// and DRAM latency (fixed in nanoseconds) is converted at the supplied
/// frequency, which is exactly how a higher clock rate shifts the
/// compute/memory balance in the paper's gem5 runs.
///
/// Hot-path structure (see DESIGN.md "DES fast path"): the recurring event
/// shapes — core advance, message delivery, directory pending re-dispatch,
/// DRAM fills, NoC pumps — are typed EventQueue events (plain function
/// pointer + Message payload, no closure), directory pending queues are
/// pooled intrusive lists, and the NoC is self-scheduling: it reports its
/// next work cycle and full ticks only run on cycles that can move flits.
/// The pump event still fires every active-network cycle so the event
/// stream (and therefore every result) stays bit-identical to the original
/// per-cycle design.
class CmpSystem {
 public:
  CmpSystem(const CmpConfig& config, const WorkloadProfile& profile,
            Hertz frequency, std::uint64_t seed = 1);

  /// Replays an explicit trace bundle (tracefile.hpp). The bundle must
  /// carry exactly one thread per core and the same barrier count on every
  /// thread (anything else would deadlock the simulated barrier, so the
  /// constructor validates it).
  CmpSystem(const CmpConfig& config, const TraceBundle& bundle,
            Hertz frequency);

  /// Runs the workload to completion and returns the statistics.
  /// May be called once per instance.
  ExecStats run();

  /// Applies a fault plan (perf/faults.hpp) before run(). Dead-at-start
  /// cores shrink the thread count (live cores are re-ranked over the same
  /// per-thread workload); mid-run kills retire the core at its next
  /// quiesce point and flush its L1; NoC faults reroute around the loss.
  /// Must be called at most once, before run(); an empty plan is a no-op.
  /// Dead-at-start core faults require the workload-profile constructor
  /// (a trace bundle is pinned one-thread-per-core).
  void inject_faults(const PerfFaultPlan& plan);

  [[nodiscard]] const CmpConfig& config() const { return config_; }

 private:
  friend struct CmpSystemTestPeer;  ///< white-box hooks (tests/perf)

  // ---- L1 / core side ----
  struct L1Line {
    L1State state = L1State::kI;
  };

  struct WbEntry {
    bool dirty = false;
    // A line can be evicted again before the first WBAck returns; the entry
    // must survive until every outstanding PutM is acknowledged.
    std::int32_t pending_acks = 0;
  };

  struct Core {
    std::size_t index = 0;
    NodeId tile = 0;
    std::unique_ptr<SetAssocCache<L1Line>> l1;
    std::unique_ptr<OpSource> trace;

    bool finished = false;
    bool at_barrier = false;
    bool dying = false;  ///< mid-run kill pending; retires at next quiesce

    // In-flight miss (at most one: in-order core).
    bool miss_active = false;
    bool miss_is_store = false;
    bool miss_had_s = false;  ///< store upgrade from S/O (data already held)
    LineAddr miss_line = 0;
    bool data_received = false;
    MsgType data_kind = MsgType::kData;
    std::int32_t acks_expected = -1;
    std::int32_t acks_received = 0;
    Cycle miss_start = 0;                      ///< CPI-stack attribution
    DataSource miss_source = DataSource::kNone;
    Cycle barrier_arrive = 0;

    // Evicted dirty/exclusive lines awaiting WBAck; FwdGet* for these lines
    // are served from here.
    std::unordered_map<LineAddr, WbEntry> writeback_buffer;
  };

  // ---- L2 / directory side ----
  struct L2Line {
    bool dirty = false;
  };

  /// Node of a directory entry's pending-request list (pooled; see
  /// pending_pool_). Plain data so ObjectPool can recycle it freely.
  struct PendingNode {
    Message msg;
    PendingNode* next = nullptr;
  };

  struct DirEntry {
    DirState state = DirState::kUncached;
    std::uint32_t owner = 0;       ///< core index
    std::uint64_t sharers = 0;     ///< bitmask over core indices (<= 64)
    bool busy = false;
    bool l2_valid = false;         ///< L2 data array holds a valid copy
    // FwdGetS transactions complete on TWO messages that race on the
    // response class: the owner's DowngradeAck and the requestor's
    // Unblock. The transaction closes only when both have arrived.
    bool awaiting_downgrade = false;
    bool downgrade_received = false;
    bool unblock_received = false;
    // Blocked requests, FIFO (intrusive list of pooled nodes).
    PendingNode* pending_head = nullptr;
    PendingNode* pending_tail = nullptr;
    std::uint32_t pending_count = 0;
  };

  struct Bank {
    NodeId tile = 0;
    std::size_t chip = 0;
    std::unique_ptr<SetAssocCache<L2Line>> l2;
    std::unordered_map<LineAddr, DirEntry> directory;
  };

  struct MemoryController {
    Cycle next_free = 0;
  };

  struct Barrier {
    std::size_t waiting = 0;
    std::uint64_t generation = 0;
  };

  // ---- typed event thunks (EventQueue fast path) ----
  static void advance_event(void* ctx, void* target, const Message& msg);
  static void access_event(void* ctx, void* target, const Message& msg);
  static void core_event(void* ctx, void* target, const Message& msg);
  static void home_event(void* ctx, void* target, const Message& msg);
  static void pending_event(void* ctx, void* target, const Message& msg);
  static void dram_fill_event(void* ctx, void* target, const Message& msg);
  static void pump_event(void* ctx, void* target, const Message& msg);
  static void kill_event(void* ctx, void* target, const Message& msg);

  // ---- wiring ----
  void send(MsgType type, LineAddr line, NodeId from, NodeId to,
            NodeId requestor, bool dirty = false, std::int32_t acks = 0,
            DataSource source = DataSource::kNone);
  void deliver(const Packet& packet);

  // Core behavior.
  void advance_core(Core& core);
  void execute_access(Core& core, bool is_store, LineAddr line);
  void start_miss(Core& core, LineAddr line, bool is_store, bool had_s);
  void maybe_complete_miss(Core& core);
  void install_line(Core& core, LineAddr line, L1State state);
  void handle_core_message(Core& core, const Message& msg);
  void arrive_barrier(Core& core);
  void maybe_release_barrier();

  // Fault handling (inert unless inject_faults was called).
  void kill_core(Core& core);
  void retire_core(Core& core);
  void flush_l1(Core& core);

  // Home/directory behavior (runs after the bank's tag latency).
  void handle_home_message(Bank& bank, const Message& msg);
  void process_request(Bank& bank, const Message& msg);
  void finish_transaction(Bank& bank, LineAddr line);
  void pump_pending(Bank& bank, LineAddr line);
  void queue_pending_back(DirEntry& e, const Message& msg);
  void queue_pending_front(DirEntry& e, const Message& msg);
  void respond_with_data(Bank& bank, LineAddr line, NodeId requestor,
                         MsgType kind, std::int32_t acks,
                         DataSource source);
  /// Serves `request` (kGetS/kGetM, directory already busy) from the L2
  /// data array or DRAM; the grant kind is derived from request.type when
  /// the data arrives (finish_fill).
  void fetch_line(Bank& bank, const Message& request);
  void finish_fill(Bank& bank, const Message& request, DataSource source);

  [[nodiscard]] Core& core_at(NodeId tile);
  [[nodiscard]] std::size_t core_index_of(NodeId tile) const;
  [[nodiscard]] NodeId core_tile_of(std::size_t core_index) const;
  [[nodiscard]] NodeId home_tile_of(LineAddr line) const {
    return home_tiles_[line % home_tiles_.size()];
  }

  void init_topology();

  [[noreturn]] void report_deadlock();

  CmpConfig config_;
  WorkloadProfile profile_;
  Hertz frequency_;
  TraceBundle replay_bundle_;  ///< owned copy when replaying a trace
  Cycle dram_latency_cycles_ = 0;
  Cycle dram_service_cycles_ = 0;

  EventQueue events_;
  std::unique_ptr<Mesh3d> noc_;
  // NoC pump scheduling: one pump event per active-network cycle (the
  // legacy event stream) with a lazy mesh tick gated by noc_gate_ — cycles
  // below the gate only advance the arbitration clock.
  bool noc_pumping_ = false;  ///< a live pump event exists
  Cycle noc_gate_ = 0;        ///< earliest cycle a tick can move flits

  // Topology tables (built once): tile -> core index (-1 = not a core
  // tile) and line-interleaving -> home bank tile.
  std::vector<std::int32_t> core_of_tile_;
  std::vector<NodeId> home_tiles_;

  std::vector<Core> cores_;
  std::unordered_map<NodeId, std::size_t> bank_of_tile_;
  std::vector<Bank> banks_;
  std::vector<MemoryController> memory_;
  Barrier barrier_;
  /// Cores the barrier waits for: cores_.size() minus dead cores. Mid-run
  /// deaths decrement it and re-check release so survivors never hang.
  std::size_t barrier_participants_ = 0;
  ObjectPool<PendingNode> pending_pool_;
  std::uint64_t seed_ = 1;     ///< trace seed (re-rank on dead-at-start)
  bool replay_mode_ = false;   ///< trace-bundle constructor was used
  bool faults_injected_ = false;

  std::size_t finished_cores_ = 0;
  Cycle completion_cycle_ = 0;
  bool ran_ = false;
  ExecStats stats_;
};

}  // namespace aqua
