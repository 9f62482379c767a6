#pragma once

/// Cycle-level 3-D mesh network-on-chip.
///
/// Implements the Table 1 NoC: per chip a 4x4 mesh of wormhole routers with
/// a three-stage [RC][VSA][ST/LT] pipeline, three virtual channels (one per
/// message class), 5-flit VC buffers with credit flow control, and
/// dimension-order XYZ routing; corresponding tiles of adjacent chips are
/// joined by vertical links (TSV / ThruChip), giving each router up to
/// seven ports (local, +-x, +-y, up, down).
///
/// The mesh is ticked one cycle at a time, but only routers holding flits
/// do work, and `tick`/`inject` report the next cycle at which anything can
/// move. The host calls `skip_cycle` on the quiet cycles in between instead
/// of `tick`: it advances the round-robin arbitration state exactly as a
/// motionless tick would, without scanning any buffers
/// (`stats().cycles_skipped` counts those cycles).
///
/// VC buffers store flits as *runs*: consecutive flits of one packet that
/// arrived back-to-back collapse into a single {packet, start, count}
/// record, so the common 5-flit data packet moves through each hop with one
/// buffer record instead of five and only the head flit ever copies the
/// packet. Per-flit timing is preserved exactly — see the FlitRun note.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "perf/params.hpp"
#include "perf/protocol.hpp"

namespace aqua {

/// A packet in flight: routing header + coherence message payload.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint8_t vc = 0;      ///< message class == virtual channel
  std::uint8_t flits = 1;   ///< 1 control / 5 data (Table 1)
  Cycle injected = 0;       ///< stats: injection cycle
  std::uint64_t id = 0;     ///< unique per injection (run merging)
  Message msg{};            ///< opaque to the network
};

/// Aggregate network statistics.
struct NocStats {
  /// Log2 buckets of the per-packet latency distribution: bucket i counts
  /// deliveries with latency in [2^(i-1), 2^i) (bucket 0 = latency 0).
  /// Reported per run as the `noc_latency_hist` run-report field.
  static constexpr std::size_t kLatencyBuckets = 16;

  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t total_packet_latency = 0;  ///< sum of (deliver - inject)
  std::uint64_t total_hops = 0;
  std::uint64_t ticks = 0;  ///< mesh cycles actually simulated (not skipped)
  std::uint64_t cycles_skipped = 0;  ///< active-network cycles skip_cycle'd
  std::array<std::uint64_t, kLatencyBuckets> latency_hist{};

  /// Buckets `latency` into latency_hist.
  void observe_latency(std::uint64_t latency) {
    std::size_t bucket = 0;
    while (latency != 0 && bucket + 1 < kLatencyBuckets) {
      latency >>= 1;
      ++bucket;
    }
    ++latency_hist[bucket];
  }

  [[nodiscard]] double average_latency() const {
    return packets_delivered == 0
               ? 0.0
               : static_cast<double>(total_packet_latency) /
                     static_cast<double>(packets_delivered);
  }
  [[nodiscard]] double average_hops() const {
    return packets_delivered == 0
               ? 0.0
               : static_cast<double>(total_hops) /
                     static_cast<double>(packets_delivered);
  }
};

/// The 3-D wormhole mesh.
class Mesh3d {
 public:
  using DeliverFn = std::function<void(const Packet&)>;

  /// Sentinel "no work scheduled" cycle returned by inject/tick.
  static constexpr Cycle kIdle = ~Cycle{0};

  Mesh3d(const CmpConfig& config, DeliverFn deliver);

  /// Queues a packet at the source network interface at cycle `now`.
  /// Returns the earliest cycle at which a newly buffered flit could
  /// traverse its first switch, or kIdle if nothing new was buffered
  /// (tile-local delivery, or the packet queued entirely behind an NI
  /// backlog — in that case an earlier tick is already due).
  Cycle inject(Cycle now, Packet packet);

  /// True while any flit is buffered or queued anywhere in the network.
  [[nodiscard]] bool active() const { return flits_in_network_ > 0; }

  /// Advances the network one cycle. `now` must increase monotonically
  /// across calls (gaps are fine — quiet cycles need no tick). Returns the
  /// next cycle at which the mesh may have movable work (>= now + 1), or
  /// kIdle once the network has drained. Callers ticking every cycle may
  /// ignore the return value.
  Cycle tick(Cycle now);

  /// Stands in for a tick on a cycle where `tick` previously reported that
  /// nothing can move: replicates the only state change such a tick would
  /// make — advancing the round-robin arbitration offset of every active
  /// router — at O(active routers) instead of a full buffer scan. Keeps
  /// arbitration (and thus results) bit-identical to a host that ticks
  /// every active-network cycle.
  void skip_cycle(Cycle now);

  /// Test hook: verifies exact credit conservation on every live link —
  /// upstream credits + downstream buffered flits must equal the VC buffer
  /// depth. Returns false on any violation.
  [[nodiscard]] bool credit_invariants_ok() const;

  [[nodiscard]] const NocStats& stats() const { return stats_; }
  [[nodiscard]] const CmpConfig& config() const { return config_; }

  /// Ports of a router. kLocal is the NI/ejection port.
  enum Port : std::uint8_t {
    kLocal = 0,
    kXPos,
    kXNeg,
    kYPos,
    kYNeg,
    kUp,
    kDown,
    kPortCount
  };

  /// Dimension-order (X, then Y, then Z) output port toward `dst` from
  /// router `at`; kLocal when at == dst. Exposed for tests. After a
  /// fail_link/fail_router, routing switches to a precomputed minimal
  /// reroute table that follows dimension-order whenever the DOR port
  /// still lies on a shortest surviving path.
  [[nodiscard]] Port route(NodeId at, NodeId dst) const;

  /// Neighbor of router `at` through `port`; returns false if the port
  /// faces the mesh edge. Exposed for tests.
  [[nodiscard]] bool neighbor(NodeId at, Port port, NodeId& out) const;

  // -- Fault injection (cycle-0 only: must precede any traffic) ----------
  /// Removes the bidirectional link a<->b and rebuilds the reroute table.
  /// ensure()s the link exists and that live routers stay mutually
  /// reachable (a partitioned mesh cannot degrade gracefully).
  void fail_link(NodeId a, NodeId b);
  /// Removes router `tile` (all its links). Traffic must never source or
  /// sink at a dead router — the host kills the co-located core.
  void fail_router(NodeId tile);
  [[nodiscard]] bool router_dead(NodeId tile) const {
    return faulted_ && router_dead_[tile] != 0;
  }
  [[nodiscard]] bool faulted() const { return faulted_; }

 private:
  /// A run of consecutive flits of one packet inside a VC buffer.
  ///
  /// `ready` is the cycle the run's *front* flit may traverse the switch;
  /// it advances by one as each flit pops. This is exact, not an
  /// approximation: flits join a run only when they arrive on consecutive
  /// cycles (or together from the NI), so the j-th flit's true ready time
  /// is <= ready + j, and it cannot reach the run front before cycle
  /// ready + j anyway because at most one flit leaves per cycle.
  struct FlitRun {
    Packet pkt;
    std::uint8_t start = 0;    ///< index of the front flit within pkt
    std::uint8_t count = 0;    ///< live flits in the run
    Cycle ready = 0;           ///< earliest switch-traversal cycle (front)
    Cycle last_arrival = 0;    ///< arrival cycle of the newest flit
  };

  /// Upper bound on buffered flits per VC (=> runs per VC); the real limit
  /// is config_.vc_buffer_flits, validated <= this at construction.
  static constexpr std::size_t kMaxBufferFlits = 16;

  struct InputVc {
    std::array<FlitRun, kMaxBufferFlits> runs;  ///< circular, head first
    std::uint8_t head = 0;
    std::uint8_t nruns = 0;
    std::uint8_t flits = 0;  ///< total buffered flits (credit accounting)
    bool holds_output = false;
    std::uint8_t out_port = 0;
  };

  struct Router {
    // in[port][vc]
    std::array<std::array<InputVc, 3>, kPortCount> in;
    // Which input (encoded port*3+vc+1; 0 = free) owns each output VC.
    std::array<std::array<std::uint8_t, 3>, kPortCount> out_owner{};
    // Credits: free downstream buffer slots per output VC.
    std::array<std::array<std::uint8_t, 3>, kPortCount> credits{};
    std::uint8_t rr = 0;      // round-robin arbitration offset
    std::uint32_t occupancy = 0;  // buffered flits (activity filter)
    // Bit (port * 3 + vc) set iff that input VC holds at least one run;
    // the switch pass iterates set bits instead of probing all 21 slots
    // (each InputVc spans many cachelines, so empty probes are expensive).
    std::uint32_t vc_mask = 0;
  };

  /// An injected packet waiting in the (unbounded) NI queue; flits
  /// `next_flit..flits-1` have not yet entered the router.
  struct NiPacket {
    Packet pkt;
    std::uint8_t next_flit = 0;
  };

  /// "No router" sentinel in the precomputed neighbor table.
  static constexpr NodeId kNoNeighbor = ~NodeId{0};

  static Port opposite(Port p);

  [[nodiscard]] Port dor_port(NodeId at, NodeId dst) const;
  /// Recomputes reroute_ (BFS per destination over surviving links) and
  /// validates live-router connectivity. Called by fail_link/fail_router.
  void rebuild_reroute();

  bool drain_ni(Cycle now, NodeId node);
  void tick_router(Cycle now, NodeId id);
  void activate_router(NodeId id);
  void mark_ni_backlog(NodeId id);
  void append_flit(InputVc& in, const Packet& pkt, std::uint8_t index,
                   Cycle arrival, Cycle ready);
  void pop_front_flit(InputVc& in);

  CmpConfig config_;
  DeliverFn deliver_;
  std::vector<Router> routers_;
  // Topology tables built once at construction; the per-flit hot path does
  // no coordinate arithmetic.
  std::vector<TileCoord> coords_;                       ///< by NodeId
  std::vector<std::array<NodeId, kPortCount>> neighbors_;  ///< kNoNeighbor = edge
  // Per-node, per-class injection queues (unbounded NI).
  std::vector<std::array<std::deque<NiPacket>, 3>> ni_;
  // Fault state: empty/false until the first fail_* call, so the fault-free
  // hot path pays one predictable branch in route().
  bool faulted_ = false;
  std::vector<std::uint8_t> router_dead_;              ///< by NodeId
  std::vector<std::uint8_t> reroute_;  ///< [dst * tiles + at] -> Port
  std::uint64_t flits_in_network_ = 0;
  std::uint64_t next_packet_id_ = 0;
  Cycle last_tick_ = 0;
  Cycle activity_since_ = kIdle;  ///< first cycle of the current busy spell
  Cycle pass_next_ = kIdle;  ///< next-work accumulator of the current tick
  NocStats stats_;

  // Activity tracking: only routers holding flits and NIs with queued
  // backlog are visited per tick (the mesh is usually mostly quiet).
  std::vector<NodeId> active_routers_;
  std::vector<NodeId> router_work_;  // scratch, reused across ticks
  std::vector<std::uint8_t> router_active_flag_;
  std::vector<NodeId> ni_backlog_;
  std::vector<std::uint8_t> ni_backlog_flag_;
};

}  // namespace aqua
