#pragma once

/// The full-system CMP simulator: in-order cores with private L1s, a
/// distributed shared L2 with a blocking MOESI directory, the cycle-level
/// 3-D mesh NoC, and per-chip memory controllers. This is the gem5
/// substitute that turns (workload, frequency) into execution time.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/pool.hpp"
#include "common/units.hpp"
#include "perf/cache.hpp"
#include "perf/coherence.hpp"
#include "perf/event_queue.hpp"
#include "perf/line_table.hpp"
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

  std::uint64_t noc_links_failed = 0;  ///< fail_link calls (0 fault-free)

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
/// Hot-path structure (see DESIGN.md "DES fast path"): every event — core
/// advance, message delivery, directory pending re-dispatch, DRAM fills,
/// NoC pumps — is a typed EventQueue entry (plain function pointer +
/// Message payload, no closure), directories are flat open-addressed
/// tables with pooled intrusive pending lists, caches are split tag/rank/
/// state arrays whose sets get storage on first fill, and the NoC is
/// pumped by one event per active-network cycle that ticks the mesh once.
/// A tick visits only routers holding flits and passes over those whose
/// wake lies ahead, so a quiet cycle costs one check per such router.
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

  /// Fails the bidirectional mesh link between adjacent tiles `a` and `b`
  /// (Mesh3d::fail_link): traffic reroutes around it from cycle 0, and both
  /// tiles keep running. Must be called before run().
  void fail_link(NodeId a, NodeId b);

  [[nodiscard]] const CmpConfig& config() const { return config_; }

  /// Bytes of simulator state: every L1 and L2 tag store, every directory
  /// table and the mesh (routers and packet slab). Cache sets and directory
  /// tables grow as lines are first touched, so this rises over run().
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  friend struct CmpSystemTestPeer;  ///< white-box hooks (tests/perf)

  // ---- L1 / core side ----
  struct Core {
    std::size_t index = 0;
    NodeId tile = 0;
    std::unique_ptr<SetAssocCache<L1State>> l1;
    std::unique_ptr<OpSource> trace;

    bool finished = false;
    bool at_barrier = false;

    coherence::Miss miss;
    Cycle miss_start = 0;  ///< CPI-stack attribution
    Cycle barrier_arrive = 0;

    // Evicted dirty/exclusive lines awaiting WBAck. A handful of entries at
    // most: a flat vector, searched linearly, unordered.
    std::vector<coherence::Writeback> writeback_buffer;
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

  /// A line at its home: the protocol's entry and its blocked requests,
  /// FIFO (an intrusive list of pooled nodes, `dir.pending_count` long).
  /// 32 bytes, so a directory slot (line + entry) is 40.
  struct HomeLine {
    coherence::DirEntry dir;
    PendingNode* pending_head = nullptr;
    PendingNode* pending_tail = nullptr;
  };
  static_assert(sizeof(HomeLine) == 32, "directory slots are 40 bytes");

  struct Bank {
    NodeId tile = 0;
    std::size_t chip = 0;
    std::unique_ptr<SetAssocCache<L2Line>> l2;
    // Never erased. Handlers insert only the line they are handling, so a
    // DirEntry& they hold stays valid (see line_table.hpp).
    LineTable<HomeLine> directory;
  };

  /// L2 victim filter: a line may leave a bank's data array only while its
  /// directory entry is idle and uncached (or it has none).
  struct L2Evictable {
    const Bank& bank;
    bool operator()(LineAddr line, const L2Line&) const {
      const HomeLine* h = bank.directory.find(line);
      return h == nullptr ||
             (!h->dir.busy && h->dir.state == DirState::kUncached);
    }
  };

  // The ports through which the coherence transitions (perf/coherence.hpp)
  // act on this system: a core's L1 side, and a bank's home side.
  struct CorePort;
  struct HomePort;

  struct MemoryController {
    Cycle next_free = 0;
  };

  struct Barrier {
    std::size_t waiting = 0;
    std::uint64_t generation = 0;
  };

  // ---- event thunks ----
  static void advance_event(void* ctx, void* target, const Message& msg);
  static void access_event(void* ctx, void* target, const Message& msg);
  static void core_event(void* ctx, void* target, const Message& msg);
  static void home_event(void* ctx, void* target, const Message& msg);
  static void pending_event(void* ctx, void* target, const Message& msg);
  static void dram_fill_event(void* ctx, void* target, const Message& msg);
  static void pump_event(void* ctx, void* target, const Message& msg);

  // ---- wiring ----
  void send(MsgType type, LineAddr line, NodeId from, NodeId to,
            NodeId requestor, bool dirty, std::int32_t acks,
            DataSource source);
  void deliver(const Packet& packet);

  // Core behavior.
  void advance_core(Core& core);
  void execute_access(Core& core, bool is_store, LineAddr line);
  void arrive_barrier(Core& core);

  // Home side: the request queue (the blocking directory's waiters) and
  // the L2 data array.
  void pump_pending(Bank& bank, LineAddr line);
  void queue_pending_back(HomeLine& h, const Message& msg);
  void queue_pending_front(HomeLine& h, const Message& msg);
  /// Inserts into the bank's L2 data array; an evicted line's directory
  /// entry loses its valid copy.
  void l2_insert(Bank& bank, LineAddr line, L2Line value);

  [[nodiscard]] std::size_t core_index_of(NodeId tile) const;
  [[nodiscard]] NodeId home_tile_of(LineAddr line) const {
    return home_tiles_[line % home_tiles_.size()];
  }

  void init_topology();

  [[noreturn]] void report_deadlock();

  CmpConfig config_;
  Hertz frequency_;
  TraceBundle replay_bundle_;  ///< owned copy when replaying a trace
  Cycle dram_latency_cycles_ = 0;
  Cycle dram_service_cycles_ = 0;

  EventQueue events_;
  std::unique_ptr<Mesh3d> noc_;
  // NoC pump: one event per active-network cycle, each ticking the mesh.
  bool noc_pumping_ = false;  ///< a live pump event exists

  // Topology tables (built once): tile -> core index and tile -> bank index
  // (-1 = no core / bank on that tile), line-interleaving -> home bank tile.
  std::vector<std::int32_t> core_of_tile_;
  std::vector<std::int32_t> bank_of_tile_;
  std::vector<NodeId> home_tiles_;

  std::vector<Core> cores_;
  std::vector<Bank> banks_;
  std::vector<MemoryController> memory_;
  Barrier barrier_;
  ObjectPool<PendingNode> pending_pool_;

  std::size_t finished_cores_ = 0;
  Cycle completion_cycle_ = 0;
  bool ran_ = false;
  ExecStats stats_;
};

}  // namespace aqua
