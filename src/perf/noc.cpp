#include "perf/noc.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace aqua {

Mesh3d::Mesh3d(const CmpConfig& config, DeliverFn deliver)
    : config_(config),
      deliver_(std::move(deliver)),
      run_cap_(static_cast<std::uint8_t>(config.vc_buffer_flits)) {
  require(config_.num_vcs == 3, "Mesh3d is wired for 3 message classes");
  require(static_cast<bool>(deliver_), "Mesh3d needs a delivery callback");
  require(config_.vc_buffer_flits >= 1 &&
              config_.vc_buffer_flits <= kMaxBufferFlits,
          "vc_buffer_flits must be within 1..16");
  static_assert(sizeof(FlitRun) == 32, "a buffered run is half a cacheline");
  routers_.resize(config_.total_tiles());
  runs_.resize(config_.total_tiles() * kIvcCount * run_cap_);
  ni_.resize(config_.total_tiles());
  router_active_flag_.assign(config_.total_tiles(), 0);
  ni_backlog_flag_.assign(config_.total_tiles(), 0);
  for (Router& r : routers_) {
    for (auto& per_port : r.credits) {
      per_port.fill(static_cast<std::uint8_t>(config_.vc_buffer_flits));
    }
  }

  // Topology tables: routing and neighbor lookups in the switch pass are
  // table reads, never coordinate division.
  const auto tiles = static_cast<NodeId>(config_.total_tiles());
  coords_.resize(tiles);
  neighbors_.resize(tiles);
  for (NodeId id = 0; id < tiles; ++id) {
    coords_[id] = tile_coord(config_, id);
    neighbors_[id].fill(kNoNeighbor);
    for (std::uint8_t p = kXPos; p < kPortCount; ++p) {
      TileCoord c = coords_[id];
      bool ok = true;
      switch (static_cast<Port>(p)) {
        case kXPos: ok = ++c.x < config_.mesh_x; break;
        case kXNeg: ok = c.x-- > 0; break;
        case kYPos: ok = ++c.y < config_.mesh_y; break;
        case kYNeg: ok = c.y-- > 0; break;
        case kUp: ok = ++c.z < config_.chips; break;
        case kDown: ok = c.z-- > 0; break;
        default: ok = false; break;
      }
      if (ok) neighbors_[id][p] = tile_id(config_, c);
    }
  }
  route_.resize(static_cast<std::size_t>(tiles) * tiles);
  for (NodeId dst = 0; dst < tiles; ++dst) {
    for (NodeId at = 0; at < tiles; ++at) {
      route_[dst * tiles + at] = static_cast<std::uint8_t>(dor_port(at, dst));
    }
  }
}

void Mesh3d::activate_router(NodeId id) {
  if (!router_active_flag_[id]) {
    router_active_flag_[id] = 1;
    active_routers_.push_back(id);
  }
}

void Mesh3d::mark_ni_backlog(NodeId id) {
  if (!ni_backlog_flag_[id]) {
    ni_backlog_flag_[id] = 1;
    ni_backlog_.push_back(id);
  }
}

Mesh3d::Port Mesh3d::opposite(Port p) {
  switch (p) {
    case kXPos: return kXNeg;
    case kXNeg: return kXPos;
    case kYPos: return kYNeg;
    case kYNeg: return kYPos;
    case kUp: return kDown;
    case kDown: return kUp;
    default: return kLocal;
  }
}

Mesh3d::Port Mesh3d::dor_port(NodeId at, NodeId dst) const {
  const TileCoord a = coords_[at];
  const TileCoord b = coords_[dst];
  if (a.x != b.x) return a.x < b.x ? kXPos : kXNeg;
  if (a.y != b.y) return a.y < b.y ? kYPos : kYNeg;
  if (a.z != b.z) return a.z < b.z ? kUp : kDown;
  return kLocal;
}

Mesh3d::Port Mesh3d::route(NodeId at, NodeId dst) const {
  return static_cast<Port>(route_[dst * routers_.size() + at]);
}

void Mesh3d::fail_link(NodeId a, NodeId b) {
  require(flits_in_network_ == 0 && stats_.packets_delivered == 0,
          "NoC faults are cycle-0 only (no traffic yet)");
  require(a < routers_.size() && b < routers_.size(), "fail_link: bad tile");
  Port port = kPortCount;
  for (std::uint8_t p = kXPos; p < kPortCount; ++p) {
    if (neighbors_[a][p] == b) {
      port = static_cast<Port>(p);
      break;
    }
  }
  require(port != kPortCount, "fail_link: tiles are not adjacent");
  neighbors_[a][port] = kNoNeighbor;
  neighbors_[b][opposite(port)] = kNoNeighbor;
  rebuild_reroute();
}

void Mesh3d::fail_router(NodeId tile) {
  require(flits_in_network_ == 0 && stats_.packets_delivered == 0,
          "NoC faults are cycle-0 only (no traffic yet)");
  require(tile < routers_.size(), "fail_router: bad tile");
  if (router_dead_.empty()) router_dead_.assign(routers_.size(), 0);
  router_dead_[tile] = 1;
  for (std::uint8_t p = kXPos; p < kPortCount; ++p) {
    const NodeId nbr = neighbors_[tile][p];
    if (nbr == kNoNeighbor) continue;
    neighbors_[tile][p] = kNoNeighbor;
    neighbors_[nbr][opposite(static_cast<Port>(p))] = kNoNeighbor;
  }
  rebuild_reroute();
}

void Mesh3d::rebuild_reroute() {
  const std::size_t tiles = routers_.size();
  if (router_dead_.empty()) router_dead_.assign(tiles, 0);
  route_.assign(tiles * tiles, static_cast<std::uint8_t>(kLocal));
  std::vector<std::uint32_t> dist(tiles);
  std::vector<NodeId> queue;
  queue.reserve(tiles);
  constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

  for (NodeId dst = 0; dst < tiles; ++dst) {
    if (router_dead_[dst]) continue;
    // BFS from the destination over surviving links (the mesh is
    // undirected, so dist[] is the forward hop count too).
    dist.assign(tiles, kUnreached);
    dist[dst] = 0;
    queue.clear();
    queue.push_back(dst);
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const NodeId at = queue[qi];
      for (std::uint8_t p = kXPos; p < kPortCount; ++p) {
        const NodeId nbr = neighbors_[at][p];
        if (nbr == kNoNeighbor || dist[nbr] != kUnreached) continue;
        dist[nbr] = dist[at] + 1;
        queue.push_back(nbr);
      }
    }
    for (NodeId at = 0; at < tiles; ++at) {
      if (at == dst || router_dead_[at]) continue;
      ensure(dist[at] != kUnreached,
             "NoC fault partitioned the mesh (live routers unreachable)");
      // Prefer the dimension-order port whenever it still lies on a
      // shortest surviving path — unaffected flows route exactly as the
      // fault-free mesh would.
      Port pick = kPortCount;
      const Port dor = dor_port(at, dst);
      const NodeId dor_nbr = neighbors_[at][dor];
      if (dor_nbr != kNoNeighbor && dist[dor_nbr] + 1 == dist[at]) {
        pick = dor;
      } else {
        for (std::uint8_t p = kXPos; p < kPortCount; ++p) {
          const NodeId nbr = neighbors_[at][p];
          if (nbr != kNoNeighbor && dist[nbr] + 1 == dist[at]) {
            pick = static_cast<Port>(p);
            break;
          }
        }
      }
      ensure(pick != kPortCount, "reroute: no shortest-path port");
      route_[dst * tiles + at] = static_cast<std::uint8_t>(pick);
    }
  }
  faulted_ = true;
}

bool Mesh3d::neighbor(NodeId at, Port port, NodeId& out) const {
  if (port <= kLocal || port >= kPortCount) return false;
  const NodeId next = neighbors_[at][port];
  if (next == kNoNeighbor) return false;
  out = next;
  return true;
}

bool Mesh3d::append_flit(InputVc& in, FlitRun* runs, std::uint32_t slot,
                         NodeId dst, std::uint8_t flits, std::uint8_t index,
                         Cycle arrival, Cycle ready) {
  if (in.nruns > 0) {
    FlitRun& last = runs[in.nruns - 1];
    // Merge only back-to-back arrivals of consecutive flits of one packet;
    // the run front's ready then steps by exactly one per pop, matching
    // each flit's own ready (see the FlitRun note in the header).
    if (last.slot == slot &&
        static_cast<std::uint8_t>(last.start + last.count) == index &&
        arrival <= last.last_arrival + 1) {
      ++last.count;
      last.last_arrival = arrival;
      ++in.flits;
      return false;
    }
  }
  if (in.nruns >= run_cap_) {
    ensure(false, "VC run buffer overflow");
  }
  FlitRun& r = runs[in.nruns];
  r.slot = slot;
  r.dst = dst;
  r.flits = flits;
  r.start = index;
  r.count = 1;
  r.ready = ready;
  r.last_arrival = arrival;
  ++in.flits;
  return in.nruns++ == 0;
}

void Mesh3d::pop_front_flit(InputVc& in, FlitRun* runs) {
  FlitRun& f = runs[0];
  ++f.start;
  --f.count;
  ++f.ready;
  --in.flits;
  if (f.count == 0) {
    // Retire the front run; the few behind it shift down, so the front
    // always sits at the start of the VC's block.
    --in.nruns;
    std::copy(runs + 1, runs + 1 + in.nruns, runs);
  }
}

Cycle Mesh3d::inject(Cycle now, Packet packet) {
  if (packet.src >= routers_.size() || packet.dst >= routers_.size()) {
    require(false, "packet endpoints out of range");
  }
  if (packet.vc >= 3) require(false, "packet vc class out of range");
  if (faulted_ && (router_dead_[packet.src] || router_dead_[packet.dst])) {
    require(false, "packet endpoint is a dead router");
  }
  packet.injected = now;
  ++stats_.packets_injected;

  if (packet.src == packet.dst) {
    // Tile-local delivery bypasses the network after the local-port hop.
    ++stats_.packets_delivered;
    stats_.flits_delivered += packet.flits;
    stats_.total_packet_latency += 1;
    stats_.observe_latency(1);
    deliver_(packet);
    return kIdle;
  }

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(packet);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = packet;
  }
  if (flits_in_network_ == 0) activity_since_ = now;
  flits_in_network_ += packet.flits;
  ni_[packet.src][packet.vc].push_back(
      NiPacket{slot, packet.dst, packet.flits, 0});
  if (!drain_ni(now, packet.src)) return kIdle;
  // Freshly buffered flits clear the RC+VSA stages first; the earliest
  // tick that can move anything is their switch-traversal cycle.
  return std::max<Cycle>(now + 1, now + config_.router_pipeline - 1);
}

bool Mesh3d::drain_ni(Cycle now, NodeId node) {
  Router& r = routers_[node];
  // The router pipeline's RC+VSA stages precede switch traversal.
  const Cycle ready = now + (config_.router_pipeline - 1);
  bool backlog = false;
  bool buffered = false;
  for (std::uint8_t vc = 0; vc < 3; ++vc) {
    auto& queue = ni_[node][vc];
    InputVc& in = r.in[kLocal][vc];
    while (!queue.empty() && in.flits < config_.vc_buffer_flits) {
      NiPacket& head = queue.front();
      if (append_flit(in, vc_runs(node, vc), head.slot, head.dst, head.flits,
                      head.next_flit, now, ready) &&
          ready < r.wake) {
        r.wake = ready;
      }
      r.vc_mask |= 1u << vc;  // slot index of in[kLocal][vc] is just vc
      ++r.occupancy;
      buffered = true;
      if (++head.next_flit == head.flits) queue.pop_front();
    }
    if (!queue.empty()) backlog = true;
  }
  if (buffered && ready < pass_next_) pass_next_ = ready;
  if (r.occupancy > 0) activate_router(node);
  if (backlog) mark_ni_backlog(node);
  return buffered;
}

Cycle Mesh3d::tick(Cycle now) {
  if (now < last_tick_) {
    require(false, "NoC ticks must move forward in time");
  }
  // Account the active-network cycles this tick skipped over (none when
  // the host ticks or skip_cycles every cycle).
  if (flits_in_network_ > 0) {
    const Cycle from = std::max(last_tick_, activity_since_);
    if (now > from + 1) stats_.cycles_skipped += now - from - 1;
  }
  last_tick_ = now;
  ++stats_.ticks;
  pass_next_ = kIdle;

  // Visit only routers known to hold flits, in activation order: a credit
  // returned by one router's pass is visible to every router after it.
  // Routers that receive flits during this pass get activated for the next
  // tick (their flits are not ready before then anyway). A router whose
  // wake lies ahead would find every front still in its pipeline, so its
  // pass reduces to what happens here: the round-robin offset advances
  // and the wake feeds the next-work accumulator.
  router_work_.clear();
  router_work_.swap(active_routers_);
  for (NodeId id : router_work_) {
    Router& r = routers_[id];
    if (r.occupancy == 0) continue;
    if (r.wake > now) {
      if (++r.rr >= kIvcCount) r.rr = 0;
      if (r.wake < pass_next_) pass_next_ = r.wake;
      continue;
    }
    tick_router(now, id);
  }
  for (NodeId id : router_work_) {
    if (routers_[id].occupancy > 0) {
      active_routers_.push_back(id);  // flag already set
    } else {
      router_active_flag_[id] = 0;
    }
  }

  // NI queues with backlog drain into any buffer slots this cycle freed.
  if (!ni_backlog_.empty()) {
    std::vector<NodeId> backlog;
    backlog.swap(ni_backlog_);
    for (NodeId id : backlog) {
      ni_backlog_flag_[id] = 0;
      drain_ni(now, id);  // re-marks itself if still backed up
    }
  }

  if (flits_in_network_ == 0) {
    activity_since_ = kIdle;
    return kIdle;
  }
  // The switch pass accumulated, for every buffered front it saw (and every
  // flit it forwarded), the earliest cycle that flit could move; NI backlog
  // only drains when a move frees buffer space, so it cannot need an
  // earlier tick than the fronts themselves.
  if (pass_next_ == kIdle) {
    ensure(false, "active mesh reported no next work cycle");
  }
  return std::max(now + 1, pass_next_);
}

void Mesh3d::skip_cycle(Cycle now) {
  if (now < last_tick_) {
    require(false, "NoC ticks must move forward in time");
  }
  last_tick_ = now;
  ++stats_.cycles_skipped;
  for (NodeId id : active_routers_) {
    Router& r = routers_[id];
    if (r.occupancy == 0) continue;
    ++r.rr;
    if (r.rr >= kIvcCount) r.rr = 0;
  }
}

void Mesh3d::tick_router(Cycle now, NodeId id) {
  Router& r = routers_[id];
  const auto& nbr = neighbors_[id];
  // Ports that already moved a flit this cycle, one bit per port.
  std::uint32_t input_used = 0;
  std::uint32_t output_used = 0;
  // Earliest cycle one of this router's own fronts could move (its next
  // wake); flits forwarded downstream feed pass_next_ and the receiving
  // router's wake directly. A flit landing here mid-pass (a delivery
  // callback that injects) lowers r.wake, so the pass starts it at kIdle.
  Cycle own = kIdle;
  r.wake = kIdle;

  // One switch pass: every occupied input VC (in rotating priority order)
  // tries to move its front buffered flit; constraints are one flit per
  // input port and one per output port per cycle, wormhole output
  // ownership, and downstream credit. Fronts that stay put feed `own`:
  // a future `ready` directly, a this-cycle contention loss as now + 1.
  //
  // Rotating the occupancy mask right by rr makes ascending bit position
  // equal ascending priority k (idx == (rr + k) % kIvcCount), so iterating
  // set bits visits exactly the slots the full 0..20 scan would, in the
  // same order, without probing empty VCs.
  constexpr std::uint32_t kAllVcs = (1u << kIvcCount) - 1;
  std::uint32_t rot = r.rr == 0
                          ? r.vc_mask
                          : ((r.vc_mask >> r.rr) |
                             (r.vc_mask << (kIvcCount - r.rr))) &
                                kAllVcs;
  while (rot != 0) {
    const auto k = static_cast<std::uint8_t>(std::countr_zero(rot));
    rot &= rot - 1;
    std::uint8_t idx = static_cast<std::uint8_t>(r.rr + k);
    if (idx >= kIvcCount) idx = static_cast<std::uint8_t>(idx - kIvcCount);
    const auto port = static_cast<Port>(idx / 3);
    const std::uint8_t vc = idx % 3;
    InputVc& in = r.in[port][vc];
    if (input_used & (1u << port)) {
      if (now + 1 < own) own = now + 1;
      continue;
    }

    FlitRun* const runs = vc_runs(id, idx);
    const FlitRun& front = runs[0];
    if (front.ready > now) {
      if (front.ready < own) own = front.ready;
      continue;
    }
    const std::uint8_t flit_index = front.start;
    const std::uint32_t slot = front.slot;
    const NodeId dst = front.dst;
    const std::uint8_t flits = front.flits;
    const bool is_head = flit_index == 0;
    const bool is_tail = static_cast<std::uint8_t>(flit_index + 1) == flits;

    Port out;
    if (in.holds_output) {
      out = static_cast<Port>(in.out_port);
    } else if (is_head) {
      out = route(id, dst);
    } else {
      // Body flit whose head has not been switched yet.
      if (now + 1 < own) own = now + 1;
      continue;
    }
    if (output_used & (1u << out)) {
      if (now + 1 < own) own = now + 1;
      continue;
    }

    const std::uint8_t enc = static_cast<std::uint8_t>(idx + 1);
    if (is_head && !in.holds_output) {
      if (r.out_owner[out][vc] != 0) {  // output VC busy (wormhole)
        if (now + 1 < own) own = now + 1;
        continue;
      }
    }

    NodeId next = 0;
    if (out != kLocal) {
      next = nbr[out];
      if (next == kNoNeighbor) {
        ensure(false, "route() pointed off the mesh");
      }
      if (r.credits[out][vc] == 0 ||
          routers_[next].in[opposite(out)][vc].flits >=
              config_.vc_buffer_flits) {
        // No downstream buffer space (the flit-count check is a safety net;
        // credits should already prevent it).
        if (now + 1 < own) own = now + 1;
        continue;
      }
    }

    // Traverse.
    pop_front_flit(in, runs);
    if (in.nruns == 0) r.vc_mask &= ~(1u << idx);
    --r.occupancy;
    input_used |= 1u << port;
    output_used |= 1u << out;
    // Whatever is now at the front of this VC could move next cycle.
    if (in.flits > 0 && now + 1 < own) own = now + 1;

    if (is_head) {
      in.holds_output = true;
      in.out_port = static_cast<std::uint8_t>(out);
      r.out_owner[out][vc] = enc;
    }
    if (is_tail) {
      in.holds_output = false;
      r.out_owner[out][vc] = 0;
    }

    // Freeing an input slot returns a credit upstream (1-cycle turnaround
    // idealized to immediate).
    if (port != kLocal) {
      const NodeId up = nbr[port];
      if (up == kNoNeighbor) {
        ensure(false, "input port faces the mesh edge");
      }
      Router& ur = routers_[up];
      ++ur.credits[opposite(port)][vc];
    }

    if (out == kLocal) {
      --flits_in_network_;
      ++stats_.flits_delivered;
      if (is_tail) {
        // Copy the packet out and recycle its slot before delivering:
        // delivery may inject, which may reuse the slot or grow the slab.
        const Packet pkt = slab_[slot];
        free_slots_.push_back(slot);
        ++stats_.packets_delivered;
        stats_.total_packet_latency += (now + 1) - pkt.injected;
        stats_.observe_latency((now + 1) - pkt.injected);
        deliver_(pkt);
      }
    } else {
      Router& nr = routers_[next];
      --r.credits[out][vc];
      if (is_head) ++stats_.total_hops;
      const Cycle ready =
          now + config_.link_latency + (config_.router_pipeline - 1);
      const Port back = opposite(out);
      const auto back_ivc = static_cast<std::uint8_t>(back * 3 + vc);
      if (append_flit(nr.in[back][vc], vc_runs(next, back_ivc), slot, dst,
                      flits, flit_index, now, ready) &&
          ready < nr.wake) {
        nr.wake = ready;
      }
      nr.vc_mask |= 1u << back_ivc;
      if (ready < pass_next_) pass_next_ = ready;
      ++nr.occupancy;
      activate_router(next);
    }
  }
  ++r.rr;
  if (r.rr >= kIvcCount) r.rr = 0;
  if (own < r.wake) r.wake = own;
  if (own < pass_next_) pass_next_ = own;
}

std::size_t Mesh3d::state_bytes() const {
  return routers_.size() * sizeof(Router) + runs_.size() * sizeof(FlitRun) +
         slab_.capacity() * sizeof(Packet) +
         free_slots_.capacity() * sizeof(std::uint32_t);
}

bool Mesh3d::credit_invariants_ok() const {
  for (NodeId id = 0; id < routers_.size(); ++id) {
    for (std::uint8_t port = kXPos; port < kPortCount; ++port) {
      const NodeId down = neighbors_[id][port];
      if (down == kNoNeighbor) continue;
      const Port back = opposite(static_cast<Port>(port));
      for (std::uint8_t vc = 0; vc < 3; ++vc) {
        const std::size_t credits = routers_[id].credits[port][vc];
        const std::size_t buffered = routers_[down].in[back][vc].flits;
        if (credits + buffered != config_.vc_buffer_flits) return false;
      }
    }
  }
  return true;
}

}  // namespace aqua
