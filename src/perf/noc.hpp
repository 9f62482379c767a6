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
/// The host ticks the mesh on every cycle while `active()`; only routers
/// holding flits are visited, and a quiet cycle costs one wake check per
/// such router (see the wake note below).
///
/// VC buffers store flits as *runs*: consecutive flits of one packet that
/// arrived back-to-back collapse into a single 32-byte {slot, start, count}
/// record, so the common 5-flit data packet moves through each hop with one
/// buffer record instead of five. Per-flit timing is preserved exactly —
/// see the FlitRun note.
///
/// Packets themselves never move: an injected packet is parked in a
/// per-mesh slab slot until its tail flit ejects, and runs carry only the
/// slot plus the two header fields routing needs (destination, length).
/// The packet is copied once, out of the slab, for delivery.
///
/// Each router also keeps a wake cycle — the earliest cycle any of its
/// buffered fronts could move — and a tick passes over routers whose wake
/// lies in the future without scanning their buffers (DESIGN.md "DES fast
/// path" explains why that is exact).

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
  std::uint64_t ticks = 0;  ///< active-network cycles ticked
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

  Mesh3d(const CmpConfig& config, DeliverFn deliver);

  /// Queues a packet at the source network interface at cycle `now`. A
  /// tile-local packet is delivered at once and never activates the mesh.
  void inject(Cycle now, Packet packet);

  /// True while any flit is buffered or queued anywhere in the network.
  [[nodiscard]] bool active() const { return flits_in_network_ > 0; }

  /// Advances the network one cycle. The host ticks every cycle while
  /// `active()`; `now` must not move backwards across calls.
  void tick(Cycle now);

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
  /// fail_link, routing switches to a precomputed minimal reroute table
  /// that follows dimension-order whenever the DOR port still lies on a
  /// shortest surviving path.
  [[nodiscard]] Port route(NodeId at, NodeId dst) const;

  /// Neighbor of router `at` through `port`; returns false if the port
  /// faces the mesh edge. Exposed for tests.
  [[nodiscard]] bool neighbor(NodeId at, Port port, NodeId& out) const;

  /// Fault injection (cycle 0 only: must precede any traffic). Removes the
  /// bidirectional link a<->b and rebuilds the reroute table. Requires the
  /// link to exist, and ensure()s that every router can still reach every
  /// other (a partitioned mesh cannot degrade gracefully).
  void fail_link(NodeId a, NodeId b);

  /// Bytes held by the routers' buffers and the packet slab.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  /// The wake of an empty router: no buffered front to move.
  static constexpr Cycle kIdle = ~Cycle{0};

  /// A run of consecutive flits of one packet inside a VC buffer.
  ///
  /// `ready` is the cycle the run's *front* flit may traverse the switch;
  /// it advances by one as each flit pops. This is exact, not an
  /// approximation: flits join a run only when they arrive on consecutive
  /// cycles (or together from the NI), so the j-th flit's true ready time
  /// is <= ready + j, and it cannot reach the run front before cycle
  /// ready + j anyway because at most one flit leaves per cycle.
  ///
  /// Runs merge on equal `slot`. A slot is recycled only after its
  /// packet's tail has ejected, when no buffer can still hold one of its
  /// flits, so equal slots in one buffer always mean one packet.
  struct FlitRun {
    std::uint32_t slot = 0;    ///< the packet's slab slot
    NodeId dst = 0;            ///< routing key (the packet's destination)
    std::uint8_t flits = 0;    ///< the packet's length
    std::uint8_t start = 0;    ///< index of the front flit within the packet
    std::uint8_t count = 0;    ///< live flits in the run
    Cycle ready = 0;           ///< earliest switch-traversal cycle (front)
    Cycle last_arrival = 0;    ///< arrival cycle of the newest flit
  };

  /// Upper bound on config_.vc_buffer_flits (validated at construction).
  static constexpr std::size_t kMaxBufferFlits = 16;
  static constexpr std::uint8_t kIvcCount = kPortCount * 3;

  /// An input VC's buffer bookkeeping. Its runs live in runs_, front first,
  /// in a block of vc_buffer_flits records (a run holds at least one flit,
  /// so the block never overflows while credits hold).
  struct InputVc {
    std::uint8_t nruns = 0;
    std::uint8_t flits = 0;  ///< total buffered flits (credit accounting)
    bool holds_output = false;
    std::uint8_t out_port = 0;
  };

  struct Router {
    // Earliest cycle any buffered front could traverse the switch: the
    // minimum of the fronts' ready cycles, or the cycle after a pass in
    // which a front lost arbitration, stalled on credit or moved with
    // flits behind it. Set by each switch pass, lowered when a flit lands
    // at the front of an empty VC. kIdle while the router is empty.
    Cycle wake = kIdle;
    std::uint32_t occupancy = 0;  // buffered flits (activity filter)
    // Bit (port * 3 + vc) set iff that input VC holds at least one run;
    // the switch pass iterates set bits instead of probing all 21 slots.
    std::uint32_t vc_mask = 0;
    std::uint8_t rr = 0;      // round-robin arbitration offset
    // Which input (encoded port*3+vc+1; 0 = free) owns each output VC.
    std::array<std::array<std::uint8_t, 3>, kPortCount> out_owner{};
    // Credits: free downstream buffer slots per output VC.
    std::array<std::array<std::uint8_t, 3>, kPortCount> credits{};
    // in[port][vc]
    std::array<std::array<InputVc, 3>, kPortCount> in{};
  };

  /// An injected packet waiting in the (unbounded) NI queue; flits
  /// `next_flit..flits-1` have not yet entered the router.
  struct NiPacket {
    std::uint32_t slot = 0;
    NodeId dst = 0;
    std::uint8_t flits = 0;
    std::uint8_t next_flit = 0;
  };

  /// "No router" sentinel in the precomputed neighbor table.
  static constexpr NodeId kNoNeighbor = ~NodeId{0};

  static Port opposite(Port p);

  [[nodiscard]] Port dor_port(NodeId at, NodeId dst) const;
  /// Recomputes route_ (BFS per destination over surviving links) and
  /// validates connectivity. Called by fail_link.
  void rebuild_reroute();

  void drain_ni(Cycle now, NodeId node);
  void tick_router(Cycle now, NodeId id);
  void activate_router(NodeId id);
  void mark_ni_backlog(NodeId id);
  /// The run block of input VC `ivc` (= port * 3 + vc) of router `id`.
  FlitRun* vc_runs(NodeId id, std::uint8_t ivc) {
    return &runs_[(static_cast<std::size_t>(id) * kIvcCount + ivc) *
                  run_cap_];
  }
  /// Buffers flit `index` of the packet in `slot`; returns true if it
  /// became the VC's front (the VC was empty).
  bool append_flit(InputVc& in, FlitRun* runs, std::uint32_t slot,
                   NodeId dst, std::uint8_t flits, std::uint8_t index,
                   Cycle arrival, Cycle ready);
  void pop_front_flit(InputVc& in, FlitRun* runs);

  CmpConfig config_;
  DeliverFn deliver_;
  std::vector<Router> routers_;
  std::vector<FlitRun> runs_;  ///< [router][ivc][run_cap_] run blocks
  std::uint8_t run_cap_;       ///< = config_.vc_buffer_flits
  // Topology tables built once at construction; the per-flit hot path does
  // no coordinate arithmetic.
  std::vector<TileCoord> coords_;                       ///< by NodeId
  std::vector<std::array<NodeId, kPortCount>> neighbors_;  ///< kNoNeighbor = edge
  /// Output port by [dst * tiles + at]: dimension order at construction,
  /// the fault reroute after fail_link.
  std::vector<std::uint8_t> route_;
  // Per-node, per-class injection queues (unbounded NI).
  std::vector<std::array<std::deque<NiPacket>, 3>> ni_;
  // Packets in flight, parked from injection until their tail ejects.
  std::vector<Packet> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t flits_in_network_ = 0;
  Cycle last_tick_ = 0;
  NocStats stats_;

  // Activity tracking: only routers holding flits and NIs with queued
  // backlog are visited per tick (the mesh is usually mostly quiet).
  std::vector<NodeId> active_routers_;
  std::vector<NodeId> router_work_;  // scratch, reused across ticks
  std::vector<std::uint8_t> router_active_flag_;
  std::vector<NodeId> ni_backlog_;
  std::vector<NodeId> ni_work_;  // scratch, reused across ticks
  std::vector<std::uint8_t> ni_backlog_flag_;
};

}  // namespace aqua
