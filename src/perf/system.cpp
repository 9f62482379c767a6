#include "perf/system.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace aqua {

void CmpSystem::init_topology() {
  require(config_.total_cores() <= 64,
          "sharer bitmask supports at most 64 cores");
  require(config_.cores_per_chip <= config_.mesh_x,
          "cores must fit the bottom mesh row");
  require(config_.l2_banks_per_chip <= config_.mesh_x * (config_.mesh_y - 1),
          "L2 banks must fit the remaining tile rows");

  const double f_ghz = frequency_.gigahertz();
  require(f_ghz > 0.0, "frequency must be positive");
  dram_latency_cycles_ =
      static_cast<Cycle>(std::ceil(config_.memory_latency_ns * f_ghz));
  dram_service_cycles_ = std::max<Cycle>(
      1, static_cast<Cycle>(std::ceil(config_.memory_service_ns * f_ghz)));

  noc_ = std::make_unique<Mesh3d>(
      config_, [this](const Packet& p) { deliver(p); });

  cores_.resize(config_.total_cores());
  for (std::size_t chip = 0; chip < config_.chips; ++chip) {
    for (std::size_t c = 0; c < config_.cores_per_chip; ++c) {
      const std::size_t idx = chip * config_.cores_per_chip + c;
      Core& core = cores_[idx];
      core.index = idx;
      core.tile = core_tile(config_, chip, c);
      core.l1 = std::make_unique<SetAssocCache<L1Line>>(
          config_.l1_bytes, config_.line_bytes, config_.l1_assoc);
    }
  }

  banks_.resize(config_.total_l2_banks());
  for (std::size_t chip = 0; chip < config_.chips; ++chip) {
    for (std::size_t b = 0; b < config_.l2_banks_per_chip; ++b) {
      const std::size_t idx = chip * config_.l2_banks_per_chip + b;
      Bank& bank = banks_[idx];
      bank.tile = l2_tile(config_, chip, b);
      bank.chip = chip;
      bank.l2 = std::make_unique<SetAssocCache<L2Line>>(
          config_.l2_bank_bytes, config_.line_bytes, config_.l2_assoc);
    }
  }

  memory_.resize(config_.chips);

  // Hot-path topology tables: packet delivery and directory handlers look
  // up tiles without coordinate arithmetic.
  core_of_tile_.assign(config_.total_tiles(), -1);
  for (const Core& core : cores_) {
    core_of_tile_[core.tile] = static_cast<std::int32_t>(core.index);
  }
  bank_of_tile_.assign(config_.total_tiles(), -1);
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    bank_of_tile_[banks_[b].tile] = static_cast<std::int32_t>(b);
  }
  home_tiles_.resize(config_.total_l2_banks());
  for (std::size_t g = 0; g < home_tiles_.size(); ++g) {
    home_tiles_[g] = l2_tile(config_, g / config_.l2_banks_per_chip,
                             g % config_.l2_banks_per_chip);
  }

  barrier_participants_ = cores_.size();
}

CmpSystem::CmpSystem(const CmpConfig& config, const WorkloadProfile& profile,
                     Hertz frequency, std::uint64_t seed)
    : config_(config), profile_(profile), frequency_(frequency), seed_(seed) {
  init_topology();
  for (Core& core : cores_) {
    core.trace = std::make_unique<TraceGenerator>(
        profile_, core.index, config_.total_cores(), seed);
  }
}

CmpSystem::CmpSystem(const CmpConfig& config, const TraceBundle& bundle,
                     Hertz frequency)
    : config_(config), frequency_(frequency), replay_bundle_(bundle) {
  replay_mode_ = true;
  init_topology();
  require(replay_bundle_.threads.size() == cores_.size(),
          "trace bundle must carry exactly one thread per core");
  // Mismatched barrier counts would deadlock the simulated barrier.
  std::size_t barriers0 = 0;
  for (std::size_t t = 0; t < replay_bundle_.threads.size(); ++t) {
    std::size_t barriers = 0;
    for (const RecordedTrace::Op& op : replay_bundle_.threads[t].ops()) {
      barriers += op.kind == TraceOp::Kind::kBarrier;
    }
    if (t == 0) {
      barriers0 = barriers;
    } else {
      require(barriers == barriers0,
              "trace threads disagree on barrier count");
    }
    cores_[t].trace =
        std::make_unique<TraceReplayer>(replay_bundle_.threads[t]);
  }
}

std::size_t CmpSystem::core_index_of(NodeId tile) const {
  const std::int32_t idx =
      tile < core_of_tile_.size() ? core_of_tile_[tile] : -1;
  if (idx < 0) ensure(false, "tile is not a core tile");
  return static_cast<std::size_t>(idx);
}

NodeId CmpSystem::core_tile_of(std::size_t core_index) const {
  return cores_[core_index].tile;
}

CmpSystem::Core& CmpSystem::core_at(NodeId tile) {
  return cores_[core_index_of(tile)];
}

CmpSystem::WbEntry* CmpSystem::Core::find_writeback(LineAddr line) {
  for (WbEntry& wb : writeback_buffer) {
    if (wb.line == line) return &wb;
  }
  return nullptr;
}

CmpSystem::WbEntry& CmpSystem::Core::writeback_entry(LineAddr line) {
  if (WbEntry* wb = find_writeback(line); wb != nullptr) return *wb;
  writeback_buffer.push_back(WbEntry{line});
  return writeback_buffer.back();
}

std::size_t CmpSystem::state_bytes() const {
  std::size_t bytes = noc_->state_bytes();
  for (const Core& core : cores_) bytes += core.l1->state_bytes();
  for (const Bank& bank : banks_) {
    bytes += bank.l2->state_bytes() + bank.directory.state_bytes();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Event thunks. The event queue calls these through a bare function pointer
// with the scheduling-time context — no closure, no allocation.
// ---------------------------------------------------------------------------

void CmpSystem::advance_event(void* ctx, void* target, const Message&) {
  static_cast<CmpSystem*>(ctx)->advance_core(*static_cast<Core*>(target));
}

void CmpSystem::access_event(void* ctx, void* target, const Message& msg) {
  // msg.dirty carries is_store for the pending access (see advance_core).
  static_cast<CmpSystem*>(ctx)->execute_access(*static_cast<Core*>(target),
                                               msg.dirty, msg.line);
}

void CmpSystem::core_event(void* ctx, void* target, const Message& msg) {
  static_cast<CmpSystem*>(ctx)->handle_core_message(
      *static_cast<Core*>(target), msg);
}

void CmpSystem::home_event(void* ctx, void* target, const Message& msg) {
  static_cast<CmpSystem*>(ctx)->handle_home_message(
      *static_cast<Bank*>(target), msg);
}

void CmpSystem::dram_fill_event(void* ctx, void* target, const Message& msg) {
  auto* self = static_cast<CmpSystem*>(ctx);
  auto& bank = *static_cast<Bank*>(target);
  bool inserted = false;
  auto evicted = bank.l2->insert(msg.line, L2Line{false}, inserted,
                                 L2Evictable{bank});
  if (!inserted) ++self->stats_.l2_overflow_inserts;
  if (evicted) {
    if (DirEntry* e = bank.directory.find(evicted->line)) e->l2_valid = false;
  }
  bank.directory[msg.line].l2_valid = true;
  self->finish_fill(bank, msg, DataSource::kDram);
}

void CmpSystem::pending_event(void* ctx, void* target, const Message& msg) {
  auto* self = static_cast<CmpSystem*>(ctx);
  auto& bank = *static_cast<Bank*>(target);
  DirEntry& entry = bank.directory[msg.line];
  if (entry.busy) {
    self->queue_pending_front(entry, msg);
    return;
  }
  self->process_request(bank, msg);
  self->pump_pending(bank, msg.line);
}

void CmpSystem::kill_event(void* ctx, void* target, const Message&) {
  static_cast<CmpSystem*>(ctx)->kill_core(*static_cast<Core*>(target));
}

void CmpSystem::pump_event(void* ctx, void*, const Message&) {
  auto* self = static_cast<CmpSystem*>(ctx);
  const Cycle now = self->events_.now();

  // One pump event per active-network cycle, exactly like the original
  // per-cycle pump chain — scheduling the successor here keeps every
  // event's sequence number (and so all same-cycle handler interleaving)
  // identical to that design. Only the mesh tick is lazy:
  // below the gate nothing can move, so the tick reduces to advancing the
  // arbitration clock.
  if (now >= self->noc_gate_) {
    const Cycle next = self->noc_->tick(now);
    self->noc_gate_ = next == Mesh3d::kIdle ? 0 : next;
  } else {
    self->noc_->skip_cycle(now);
  }
  if (self->noc_->active()) {
    self->events_.schedule_in(1, &CmpSystem::pump_event, self, self,
                              Message{});
  } else {
    self->noc_pumping_ = false;
    self->noc_gate_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Wiring
// ---------------------------------------------------------------------------

void CmpSystem::send(MsgType type, LineAddr line, NodeId from, NodeId to,
                     NodeId requestor, bool dirty, std::int32_t acks,
                     DataSource source) {
  Packet p;
  p.src = from;
  p.dst = to;
  p.vc = vc_class_of(type);
  p.flits = static_cast<std::uint8_t>(carries_data(type)
                                          ? config_.data_packet_flits
                                          : config_.control_packet_flits);
  p.msg = Message{type, line, from, requestor, source, dirty, acks};

  const Cycle hint = noc_->inject(events_.now(), p);

  // Fresh flits may need an earlier tick than the standing
  // gate; arming matches the original per-cycle pump (same condition, same
  // scheduling point, hence the same event sequence).
  if (hint != Mesh3d::kIdle && hint < noc_gate_) noc_gate_ = hint;
  if (!noc_pumping_ && noc_->active()) {
    noc_pumping_ = true;
    noc_gate_ = 0;  // the first tick of a busy spell always runs
    events_.schedule_in(1, &CmpSystem::pump_event, this, this, Message{});
  }
}

void CmpSystem::deliver(const Packet& packet) {
  const std::int32_t bank = bank_of_tile_[packet.dst];
  if (bank >= 0) {
    // Home handling begins after the bank's tag/directory access.
    events_.schedule_in(config_.l2_latency, &CmpSystem::home_event, this,
                        &banks_[static_cast<std::size_t>(bank)], packet.msg);
  } else {
    events_.schedule_in(config_.l1_latency, &CmpSystem::core_event, this,
                        &core_at(packet.dst), packet.msg);
  }
}

// ---------------------------------------------------------------------------
// Core side
// ---------------------------------------------------------------------------

void CmpSystem::advance_core(Core& core) {
  if (core.finished) return;
  if (core.dying) {
    // Quiesce point reached (no outstanding miss, not mid-access): the
    // pending mid-run kill retires the core here.
    retire_core(core);
    return;
  }
  ensure(!core.miss_active, "core advanced with a miss outstanding");

  const TraceOp op = core.trace->next();
  switch (op.kind) {
    case TraceOp::Kind::kDone:
      core.finished = true;
      ++finished_cores_;
      completion_cycle_ = std::max(completion_cycle_, events_.now());
      return;
    case TraceOp::Kind::kBarrier:
      arrive_barrier(core);
      return;
    case TraceOp::Kind::kMemory: {
      Message m;
      m.line = op.line;
      m.dirty = op.is_store;  // decoded by access_event
      events_.schedule_in(op.compute_cycles + config_.l1_latency,
                          &CmpSystem::access_event, this, &core, m);
      return;
    }
  }
}

void CmpSystem::execute_access(Core& core, bool is_store, LineAddr line) {
  ++stats_.mem_ops;
  L1Line* l = core.l1->find(line);
  if (l != nullptr) {
    if (!is_store || l->state == L1State::kM) {
      ++stats_.l1_hits;
      advance_core(core);
      return;
    }
    if (l->state == L1State::kE) {
      // MOESI silent upgrade: E -> M without a message.
      l->state = L1State::kM;
      ++stats_.l1_hits;
      advance_core(core);
      return;
    }
    // Store to S or O: upgrade miss (data already held).
    ++stats_.l1_misses;
    start_miss(core, line, /*is_store=*/true, /*had_s=*/true);
    return;
  }
  ++stats_.l1_misses;
  start_miss(core, line, is_store, /*had_s=*/false);
}

void CmpSystem::start_miss(Core& core, LineAddr line, bool is_store,
                           bool had_s) {
  core.miss_active = true;
  core.miss_start = events_.now();
  core.miss_source = DataSource::kNone;
  core.miss_is_store = is_store;
  core.miss_had_s = had_s;
  core.miss_line = line;
  core.data_received = false;
  // Loads never wait on invalidation acks; stores learn their count from
  // the home's Data/AckCount message (-1 = not yet known).
  core.acks_expected = is_store ? -1 : 0;
  core.acks_received = 0;
  send(is_store ? MsgType::kGetM : MsgType::kGetS, line, core.tile,
       home_tile_of(line), core.tile);
}

void CmpSystem::maybe_complete_miss(Core& core) {
  if (!core.miss_active || !core.data_received || core.acks_expected < 0 ||
      core.acks_received < core.acks_expected) {
    return;
  }
  const LineAddr line = core.miss_line;
  const Cycle stall = events_.now() - core.miss_start;
  switch (core.miss_source) {
    case DataSource::kL2:
      stats_.stall_l2_cycles += stall;
      break;
    case DataSource::kDram:
      stats_.stall_dram_cycles += stall;
      break;
    case DataSource::kForward:
      stats_.stall_forward_cycles += stall;
      break;
    case DataSource::kNone:
      stats_.stall_upgrade_cycles += stall;  // ack-only upgrade
      break;
  }
  L1State new_state;
  if (core.miss_is_store) {
    new_state = L1State::kM;
  } else {
    new_state =
        core.data_kind == MsgType::kDataE ? L1State::kE : L1State::kS;
  }
  install_line(core, line, new_state);
  core.miss_active = false;
  send(MsgType::kUnblock, line, core.tile, home_tile_of(line),
       core.tile);
  events_.schedule_in(1, &CmpSystem::advance_event, this, &core, Message{});
}

void CmpSystem::install_line(Core& core, LineAddr line, L1State state) {
  if (L1Line* l = core.l1->find(line); l != nullptr) {
    l->state = state;  // upgrade in place
    return;
  }
  bool inserted = false;
  auto evicted = core.l1->insert(
      line, L1Line{state}, inserted,
      [](LineAddr, const L1Line&) { return true; });
  ensure(inserted, "L1 insert must always succeed");
  if (!evicted) return;

  const LineAddr victim = evicted->line;
  switch (evicted->state.state) {
    case L1State::kS:
      send(MsgType::kPutS, victim, core.tile, home_tile_of(victim),
           core.tile);
      break;
    case L1State::kE:
    case L1State::kM:
    case L1State::kO: {
      const bool dirty = evicted->state.state != L1State::kE;
      // Keep the line in the writeback buffer until the home acknowledges;
      // forwarded requests meanwhile are served from here.
      WbEntry& wb = core.writeback_entry(victim);
      wb.dirty = dirty;
      ++wb.pending_acks;
      ++stats_.writebacks;
      send(MsgType::kPutM, victim, core.tile, home_tile_of(victim),
           core.tile, dirty);
      break;
    }
    case L1State::kI:
      break;
  }
}

void CmpSystem::handle_core_message(Core& core, const Message& msg) {
  switch (msg.type) {
    case MsgType::kFwdGetS: {
      L1Line* l = core.l1->find(msg.line);
      if (l != nullptr) {
        bool dirty = false;
        switch (l->state) {
          case L1State::kM:
          case L1State::kO:
            l->state = L1State::kO;
            dirty = true;
            break;
          case L1State::kE:
            l->state = L1State::kS;
            dirty = false;
            break;
          default:
            ensure(false, "FwdGetS to a non-owner L1 state");
        }
        send(MsgType::kData, msg.line, core.tile, msg.requestor,
             msg.requestor, false, -1, DataSource::kForward);
        send(MsgType::kDowngradeAck, msg.line, core.tile,
             home_tile_of(msg.line), msg.requestor, dirty);
      } else {
        const WbEntry* wb = core.find_writeback(msg.line);
        ensure(wb != nullptr,
               "FwdGetS owner holds the line in neither L1 nor WB buffer");
        send(MsgType::kData, msg.line, core.tile, msg.requestor,
             msg.requestor, false, -1, DataSource::kForward);
        send(MsgType::kDowngradeAck, msg.line, core.tile,
             home_tile_of(msg.line), msg.requestor, wb->dirty);
      }
      return;
    }

    case MsgType::kFwdGetM: {
      L1Line* l = core.l1->find(msg.line);
      if (l == nullptr) {
        ensure(core.find_writeback(msg.line) != nullptr,
               "FwdGetM owner holds the line in neither L1 nor WB buffer");
      } else {
        core.l1->erase(msg.line);
      }
      send(MsgType::kDataM, msg.line, core.tile, msg.requestor, msg.requestor,
           false, -1, DataSource::kForward);
      return;
    }

    case MsgType::kInv: {
      core.l1->erase(msg.line);
      ++stats_.invalidations;
      // If this core is mid-upgrade on the same line, its S data just died:
      // the transaction must now wait for real data.
      if (core.miss_active && core.miss_line == msg.line && core.miss_had_s) {
        core.miss_had_s = false;
      }
      send(MsgType::kInvAck, msg.line, core.tile, msg.requestor,
           msg.requestor);
      return;
    }

    case MsgType::kData:
    case MsgType::kDataE:
    case MsgType::kDataM: {
      ensure(core.miss_active && core.miss_line == msg.line,
             "data response without a matching miss");
      core.data_received = true;
      core.data_kind = msg.type;
      if (msg.source != DataSource::kNone) core.miss_source = msg.source;
      if (msg.acks >= 0) core.acks_expected = msg.acks;
      maybe_complete_miss(core);
      return;
    }

    case MsgType::kAckCount: {
      ensure(core.miss_active && core.miss_line == msg.line,
             "AckCount without a matching miss");
      core.acks_expected = msg.acks;
      // msg.dirty == "forwarded data follows": even a sharer that already
      // holds the S data must then wait for the owner's DataM, or the
      // in-flight data would land after the miss retired.
      if (core.miss_had_s && !msg.dirty) core.data_received = true;
      maybe_complete_miss(core);
      return;
    }

    case MsgType::kInvAck: {
      ++core.acks_received;
      maybe_complete_miss(core);
      return;
    }

    case MsgType::kWBAck: {
      WbEntry* wb = core.find_writeback(msg.line);
      if (wb != nullptr && --wb->pending_acks <= 0) {
        *wb = core.writeback_buffer.back();
        core.writeback_buffer.pop_back();
      }
      return;
    }

    default:
      ensure(false, "unexpected message type at an L1");
  }
}

void CmpSystem::arrive_barrier(Core& core) {
  core.at_barrier = true;
  core.barrier_arrive = events_.now();
  ++barrier_.waiting;
  maybe_release_barrier();
}

void CmpSystem::maybe_release_barrier() {
  // Participants shrink when cores die; the re-check on retirement keeps
  // survivors from waiting for the dead.
  if (barrier_participants_ == 0 ||
      barrier_.waiting < barrier_participants_) {
    return;
  }

  // Last arrival releases everyone.
  ++stats_.barriers;
  ++barrier_.generation;
  barrier_.waiting = 0;
  for (Core& c : cores_) {
    if (!c.at_barrier) continue;
    c.at_barrier = false;
    stats_.barrier_wait_cycles += events_.now() - c.barrier_arrive;
    events_.schedule_in(1, &CmpSystem::advance_event, this, &c, Message{});
  }
}

// ---------------------------------------------------------------------------
// Fault handling. Everything here is unreachable unless inject_faults() was
// called with a non-empty plan: fault-free runs execute the exact event
// sequence of the pre-fault simulator.
// ---------------------------------------------------------------------------

void CmpSystem::inject_faults(const PerfFaultPlan& plan) {
  require(!ran_, "inject_faults must be called before run()");
  require(!faults_injected_, "inject_faults may be called at most once");
  if (plan.empty()) return;
  faults_injected_ = true;
  stats_.degraded = true;

  // Dead-at-start set (validates router kills and drives the re-rank).
  std::vector<std::uint8_t> dead(cores_.size(), 0);
  for (const CoreFault& f : plan.core_faults) {
    require(f.core < cores_.size(), "core fault index out of range");
    if (f.at_cycle == 0) {
      require(!dead[f.core], "duplicate dead-at-start core fault");
      dead[f.core] = 1;
    }
  }

  for (const LinkFault& f : plan.link_faults) {
    noc_->fail_link(f.a, f.b);
    ++stats_.noc_links_failed;
  }
  for (const RouterFault& f : plan.router_faults) {
    require(f.tile < core_of_tile_.size() && core_of_tile_[f.tile] >= 0,
            "router kills are restricted to core tiles");
    require(dead[static_cast<std::size_t>(core_of_tile_[f.tile])] != 0,
            "a router kill requires its co-located core dead at start");
    noc_->fail_router(f.tile);
    ++stats_.noc_routers_failed;
  }

  std::size_t live = 0;
  for (std::uint8_t d : dead) live += d == 0;
  require(live > 0, "fault plan kills every core at start");
  if (live < cores_.size()) {
    require(!replay_mode_,
            "dead-at-start cores need the workload-profile constructor");
    // Live cores re-rank over the same per-thread workload: the job runs
    // with fewer threads, per-thread work unchanged, so throughput scales
    // with survivors (the availability model's coupling).
    std::size_t rank = 0;
    for (Core& core : cores_) {
      if (dead[core.index]) {
        core.finished = true;
        ++finished_cores_;
        --barrier_participants_;
        ++stats_.cores_failed;
      } else {
        core.trace = std::make_unique<TraceGenerator>(profile_, rank++, live,
                                                      seed_);
      }
    }
  }

  for (const CoreFault& f : plan.core_faults) {
    if (f.at_cycle == 0) continue;
    require(dead[f.core] == 0, "core is already dead at start");
    events_.schedule(f.at_cycle, &CmpSystem::kill_event, this,
                     &cores_[f.core], Message{});
  }

  obs::RunReport& report = obs::RunReport::instance();
  if (report.enabled()) {
    for (const CoreFault& f : plan.core_faults) {
      report.emit("fault_injected", [&](obs::JsonWriter& w) {
        w.add("stage", "perf")
            .add("fault", "core_kill")
            .add("core", static_cast<std::uint64_t>(f.core))
            .add("at_cycle", f.at_cycle);
      });
    }
    for (const LinkFault& f : plan.link_faults) {
      report.emit("fault_injected", [&](obs::JsonWriter& w) {
        w.add("stage", "perf")
            .add("fault", "noc_link")
            .add("tile_a", static_cast<std::uint64_t>(f.a))
            .add("tile_b", static_cast<std::uint64_t>(f.b));
      });
    }
    for (const RouterFault& f : plan.router_faults) {
      report.emit("fault_injected", [&](obs::JsonWriter& w) {
        w.add("stage", "perf")
            .add("fault", "noc_router")
            .add("tile", static_cast<std::uint64_t>(f.tile));
      });
    }
  }
}

void CmpSystem::kill_core(Core& core) {
  if (core.finished) return;  // died after its work completed: no-op
  if (core.at_barrier) {
    // Waiting at the barrier: no event will ever advance it again, so
    // retire it now and take it out of the waiting count.
    core.at_barrier = false;
    stats_.barrier_wait_cycles += events_.now() - core.barrier_arrive;
    ensure(barrier_.waiting > 0, "kill_core: barrier accounting underflow");
    --barrier_.waiting;
    retire_core(core);
    return;
  }
  // Executing or mid-miss: defer to the next quiesce point (advance_core
  // checks the flag once the outstanding access/miss has drained).
  core.dying = true;
}

void CmpSystem::retire_core(Core& core) {
  core.dying = false;
  core.finished = true;
  ++finished_cores_;
  ++stats_.cores_failed;
  flush_l1(core);
  ensure(barrier_participants_ > 0, "retire_core: participant underflow");
  --barrier_participants_;
  // Survivors may all be at the barrier already, waiting for this core.
  maybe_release_barrier();
  obs::RunReport& report = obs::RunReport::instance();
  if (report.enabled()) {
    report.emit("fault_absorbed", [&](obs::JsonWriter& w) {
      w.add("stage", "perf")
          .add("fault", "core_kill")
          .add("action", "core_retired")
          .add("core", static_cast<std::uint64_t>(core.index))
          .add("cycle", events_.now());
    });
  }
}

void CmpSystem::flush_l1(Core& core) {
  // Push every held line back to the directory, mirroring the eviction
  // paths: PutS for shared lines, PutM (via the writeback buffer) for
  // owned ones. The Core object stays alive afterwards so in-flight
  // FwdGet*/Inv for these lines are still served from the buffer.
  struct FlushLine {
    LineAddr line;
    L1State state;
  };
  std::vector<FlushLine> lines;
  core.l1->for_each(
      [&](LineAddr line, L1Line& l) { lines.push_back({line, l.state}); });
  for (const FlushLine& f : lines) {
    core.l1->erase(f.line);
    switch (f.state) {
      case L1State::kS:
        send(MsgType::kPutS, f.line, core.tile, home_tile_of(f.line),
             core.tile);
        break;
      case L1State::kE:
      case L1State::kM:
      case L1State::kO: {
        const bool dirty = f.state != L1State::kE;
        WbEntry& wb = core.writeback_entry(f.line);
        wb.dirty = dirty;
        ++wb.pending_acks;
        ++stats_.writebacks;
        send(MsgType::kPutM, f.line, core.tile, home_tile_of(f.line),
             core.tile, dirty);
        break;
      }
      case L1State::kI:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Home / directory side
// ---------------------------------------------------------------------------

void CmpSystem::queue_pending_back(DirEntry& e, const Message& msg) {
  PendingNode* node = pending_pool_.create(PendingNode{msg, nullptr});
  if (e.pending_tail == nullptr) {
    e.pending_head = node;
  } else {
    e.pending_tail->next = node;
  }
  e.pending_tail = node;
  ++e.pending_count;
}

void CmpSystem::queue_pending_front(DirEntry& e, const Message& msg) {
  PendingNode* node = pending_pool_.create(PendingNode{msg, e.pending_head});
  e.pending_head = node;
  if (e.pending_tail == nullptr) e.pending_tail = node;
  ++e.pending_count;
}

void CmpSystem::handle_home_message(Bank& bank, const Message& msg) {
  DirEntry& e = bank.directory[msg.line];
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetM:
    case MsgType::kPutS:
    case MsgType::kPutM:
      // Queue behind any earlier waiters even when the line is idle (a
      // pop from the pending queue may be in flight): FIFO per line.
      if (e.busy || e.pending_head != nullptr) {
        queue_pending_back(e, msg);
        pump_pending(bank, msg.line);
        return;
      }
      process_request(bank, msg);
      return;

    case MsgType::kDowngradeAck: {
      ensure(e.busy && e.awaiting_downgrade,
             "DowngradeAck outside a forward transaction");
      const std::size_t req = core_index_of(msg.requestor);
      if (msg.dirty) {
        e.state = DirState::kOwned;
        e.sharers |= (std::uint64_t{1} << req);
      } else {
        e.state = DirState::kShared;
        e.sharers |= (std::uint64_t{1} << req);
        e.sharers |= (std::uint64_t{1} << e.owner);
      }
      e.downgrade_received = true;
      if (e.unblock_received) finish_transaction(bank, msg.line);
      return;
    }

    case MsgType::kUnblock:
      if (e.awaiting_downgrade && !e.downgrade_received) {
        e.unblock_received = true;  // wait for the owner's DowngradeAck
        return;
      }
      finish_transaction(bank, msg.line);
      return;

    default:
      ensure(false, "unexpected message type at a home bank");
  }
}

void CmpSystem::process_request(Bank& bank, const Message& msg) {
  DirEntry& e = bank.directory[msg.line];
  const LineAddr line = msg.line;

  switch (msg.type) {
    case MsgType::kPutS: {
      const std::size_t s = core_index_of(msg.sender);
      e.sharers &= ~(std::uint64_t{1} << s);
      if (e.state == DirState::kShared && e.sharers == 0) {
        e.state = DirState::kUncached;
      }
      return;
    }

    case MsgType::kPutM: {
      const std::size_t s = core_index_of(msg.sender);
      const bool is_owner =
          (e.state == DirState::kExclusive || e.state == DirState::kModified ||
           e.state == DirState::kOwned) &&
          e.owner == s;
      if (is_owner) {
        // Accept the writeback into the L2 data array.
        bool inserted = false;
        auto evicted = bank.l2->insert(line, L2Line{msg.dirty}, inserted,
                                       L2Evictable{bank});
        if (!inserted) ++stats_.l2_overflow_inserts;
        if (evicted) {
          if (DirEntry* v = bank.directory.find(evicted->line)) {
            v->l2_valid = false;
          }
        }
        e.l2_valid = true;
        if (e.state == DirState::kOwned && e.sharers != 0) {
          e.state = DirState::kShared;
        } else {
          e.state = DirState::kUncached;
          e.sharers = 0;
        }
      }
      // Stale PutM (ownership already moved on): data dropped.
      send(MsgType::kWBAck, line, bank.tile, msg.sender, msg.sender);
      return;
    }

    case MsgType::kGetS: {
      e.busy = true;
      const std::size_t r = core_index_of(msg.requestor);
      switch (e.state) {
        case DirState::kUncached:
          fetch_line(bank, msg);
          return;
        case DirState::kShared:
          ensure(e.l2_valid, "Shared line missing from L2 data array");
          e.sharers |= (std::uint64_t{1} << r);
          respond_with_data(bank, line, msg.requestor, MsgType::kData, 0,
                            DataSource::kL2);
          return;
        case DirState::kExclusive:
        case DirState::kModified:
        case DirState::kOwned: {
          ensure(e.owner != r, "owner re-requested its own line (GetS)");
          ++stats_.coherence_forwards;
          e.awaiting_downgrade = true;
          send(MsgType::kFwdGetS, line, bank.tile, core_tile_of(e.owner),
               msg.requestor);
          return;  // DowngradeAck will update the directory state
        }
      }
      return;
    }

    case MsgType::kGetM: {
      e.busy = true;
      const std::size_t r = core_index_of(msg.requestor);
      const std::uint64_t r_bit = std::uint64_t{1} << r;
      switch (e.state) {
        case DirState::kUncached:
          fetch_line(bank, msg);
          return;

        case DirState::kShared: {
          const std::uint64_t others = e.sharers & ~r_bit;
          const int n = std::popcount(others);
          for (std::size_t c = 0; c < cores_.size(); ++c) {
            if (others & (std::uint64_t{1} << c)) {
              send(MsgType::kInv, line, bank.tile, core_tile_of(c),
                   msg.requestor);
            }
          }
          if (e.sharers & r_bit) {
            send(MsgType::kAckCount, line, bank.tile, msg.requestor,
                 msg.requestor, false, n);
          } else {
            ensure(e.l2_valid, "Shared line missing from L2 data array");
            respond_with_data(bank, line, msg.requestor, MsgType::kDataM, n,
                              DataSource::kL2);
          }
          e.state = DirState::kModified;
          e.owner = static_cast<std::uint32_t>(r);
          e.sharers = 0;
          e.l2_valid = false;
          return;
        }

        case DirState::kExclusive:
        case DirState::kModified: {
          ensure(e.owner != r, "owner re-requested its own line (GetM)");
          ++stats_.coherence_forwards;
          send(MsgType::kFwdGetM, line, bank.tile, core_tile_of(e.owner),
               msg.requestor);
          send(MsgType::kAckCount, line, bank.tile, msg.requestor,
               msg.requestor, /*dirty=data-follows*/ true, 0);
          e.state = DirState::kModified;
          e.owner = static_cast<std::uint32_t>(r);
          e.sharers = 0;
          e.l2_valid = false;
          return;
        }

        case DirState::kOwned: {
          const std::uint64_t others = e.sharers & ~r_bit;
          const int n = std::popcount(others);
          for (std::size_t c = 0; c < cores_.size(); ++c) {
            if (others & (std::uint64_t{1} << c)) {
              send(MsgType::kInv, line, bank.tile, core_tile_of(c),
                   msg.requestor);
            }
          }
          if (e.owner == r) {
            // The owner upgrades O -> M; it already holds the dirty data.
            send(MsgType::kAckCount, line, bank.tile, msg.requestor,
                 msg.requestor, false, n);
          } else {
            ++stats_.coherence_forwards;
            send(MsgType::kFwdGetM, line, bank.tile, core_tile_of(e.owner),
                 msg.requestor);
            send(MsgType::kAckCount, line, bank.tile, msg.requestor,
                 msg.requestor, /*dirty=data-follows*/ true, n);
          }
          e.state = DirState::kModified;
          e.owner = static_cast<std::uint32_t>(r);
          e.sharers = 0;
          e.l2_valid = false;
          return;
        }
      }
      return;
    }

    default:
      ensure(false, "process_request on a non-request message");
  }
}

void CmpSystem::finish_transaction(Bank& bank, LineAddr line) {
  DirEntry& e = bank.directory[line];
  ensure(e.busy, "Unblock without an open transaction");
  e.busy = false;
  e.awaiting_downgrade = false;
  e.downgrade_received = false;
  e.unblock_received = false;
  pump_pending(bank, line);
}

void CmpSystem::pump_pending(Bank& bank, LineAddr line) {
  DirEntry& e = bank.directory[line];
  if (e.busy || e.pending_head == nullptr) return;
  PendingNode* node = e.pending_head;
  e.pending_head = node->next;
  if (e.pending_head == nullptr) e.pending_tail = nullptr;
  --e.pending_count;
  const Message next = node->msg;
  pending_pool_.destroy(node);
  // Re-dispatch after one cycle to bound recursion and model queue pop.
  // Draining must continue past non-transactional requests (Put*): they
  // leave the line un-busy, and anything still queued behind them would
  // otherwise be orphaned — a deadlock. pending_event re-queues at the
  // front if the line went busy again in the meantime.
  events_.schedule_in(1, &CmpSystem::pending_event, this, &bank, next);
}

void CmpSystem::respond_with_data(Bank& bank, LineAddr line, NodeId requestor,
                                  MsgType kind, std::int32_t acks,
                                  DataSource source) {
  send(kind, line, bank.tile, requestor, requestor, false, acks, source);
}

void CmpSystem::finish_fill(Bank& bank, const Message& request,
                            DataSource source) {
  DirEntry& entry = bank.directory[request.line];
  const std::size_t r = core_index_of(request.requestor);
  entry.owner = static_cast<std::uint32_t>(r);
  entry.sharers = 0;
  if (request.type == MsgType::kGetS) {
    entry.state = DirState::kExclusive;
    respond_with_data(bank, request.line, request.requestor, MsgType::kDataE,
                      0, source);
  } else {
    entry.state = DirState::kModified;
    entry.l2_valid = false;  // the new owner's copy supersedes L2
    respond_with_data(bank, request.line, request.requestor, MsgType::kDataM,
                      0, source);
  }
}

void CmpSystem::fetch_line(Bank& bank, const Message& request) {
  const LineAddr line = request.line;
  if (bank.l2->find(line) != nullptr) {
    ++stats_.l2_data_hits;
    bank.directory[line].l2_valid = true;
    finish_fill(bank, request, DataSource::kL2);
    return;
  }
  ++stats_.l2_data_misses;
  ++stats_.dram_accesses;

  MemoryController& mc = memory_[bank.chip];
  const Cycle start = std::max(events_.now(), mc.next_free);
  mc.next_free = start + dram_service_cycles_;
  events_.schedule(start + dram_latency_cycles_, &CmpSystem::dram_fill_event,
                   this, &bank, request);
}

// ---------------------------------------------------------------------------

void CmpSystem::report_deadlock() {
  // Deadlock: produce a diagnostic snapshot before failing.
  std::string dump = "simulation deadlock at cycle " +
                     std::to_string(events_.now()) + ": noc " +
                     (noc_->active() ? "ACTIVE" : "idle");
  for (const Core& c : cores_) {
    dump += "\n core " + std::to_string(c.index) +
            (c.finished ? " done" : "") +
            (c.at_barrier ? " barrier" : "") +
            (c.miss_active
                 ? " miss line=" + std::to_string(c.miss_line) +
                       (c.miss_is_store ? " store" : " load") +
                       " data=" + std::to_string(c.data_received) +
                       " acks=" + std::to_string(c.acks_received) + "/" +
                       std::to_string(c.acks_expected)
                 : "");
  }
  // Busy lines in (bank, line) order, independent of the table layout.
  std::vector<LineAddr> busy;
  for (const Bank& b : banks_) {
    busy.clear();
    b.directory.for_each([&busy](LineAddr line, const DirEntry& e) {
      if (e.busy || e.pending_count != 0) busy.push_back(line);
    });
    std::sort(busy.begin(), busy.end());
    for (const LineAddr line : busy) {
      const DirEntry& e = *b.directory.find(line);
      dump += "\n bank tile " + std::to_string(b.tile) + " line " +
              std::to_string(line) + " state " +
              std::string(to_string(e.state)) + (e.busy ? " BUSY" : "") +
              " pending " + std::to_string(e.pending_count);
    }
  }
  ensure(false, dump);
  std::abort();  // unreachable: ensure(false) throws
}

// ---------------------------------------------------------------------------

ExecStats CmpSystem::run() {
  require(!ran_, "CmpSystem::run may only be called once");
  ran_ = true;
  AQUA_TRACE_SCOPE_ARG("perf.cmp_run", "perf",
                       static_cast<std::int64_t>(config_.chips));
  const auto run_start = std::chrono::steady_clock::now();

  for (Core& core : cores_) {
    if (core.finished) continue;  // dead at start (inject_faults)
    events_.schedule(0, &CmpSystem::advance_event, this, &core, Message{});
  }

  while (finished_cores_ < cores_.size()) {
    if (events_.empty()) report_deadlock();
    events_.step();
  }

  stats_.cycles = completion_cycle_;
  stats_.seconds =
      static_cast<double>(completion_cycle_) / frequency_.value();
  stats_.core_utilization.reserve(cores_.size());
  for (const Core& core : cores_) {
    stats_.instructions += core.trace->instructions_issued();
    stats_.core_utilization.push_back(
        completion_cycle_ == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(
                                core.trace->instructions_issued()) /
                                static_cast<double>(completion_cycle_)));
  }
  stats_.noc = noc_->stats();

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  {
    // Process-wide DES counters: cheap bulk adds once per run, always on.
    // The events also go to this thread's work tally (the per-cell ledger).
    static obs::Counter& runs =
        obs::Registry::instance().counter("perf.runs");
    static obs::Counter& instructions =
        obs::Registry::instance().counter("perf.instructions");
    static obs::Counter& events =
        obs::Registry::instance().counter("perf.events");
    static obs::Counter& events_skipped =
        obs::Registry::instance().counter("perf.events_skipped");
    static obs::Counter& noc_packets =
        obs::Registry::instance().counter("perf.noc_packets");
    static obs::Counter& noc_ticks =
        obs::Registry::instance().counter("perf.noc_ticks");
    static obs::Gauge& cycles_per_second =
        obs::Registry::instance().gauge("perf.cycles_per_second");
    runs.add(1);
    instructions.add(stats_.instructions);
    events.add(events_.scheduled());
    obs::thread_work().des_events += events_.scheduled();
    // Active-network cycles whose mesh tick skip_cycle stood in for.
    events_skipped.add(stats_.noc.cycles_skipped);
    noc_packets.add(stats_.noc.packets_delivered);
    noc_ticks.add(stats_.noc.ticks);
    if (wall_seconds > 0.0) {
      cycles_per_second.set(static_cast<double>(stats_.cycles) /
                            wall_seconds);
    }
  }

  obs::RunReport& report = obs::RunReport::instance();
  if (report.enabled()) {
    const double cycles = static_cast<double>(stats_.cycles);
    report.emit("stage", [&](obs::JsonWriter& w) {
      w.add("stage", "perf")
          .add("op", "cmp_run")
          .add("chips", static_cast<std::uint64_t>(config_.chips))
          .add("seconds", wall_seconds);
    });
    report.emit("perf_run", [&](obs::JsonWriter& w) {
      w.add("chips", static_cast<std::uint64_t>(config_.chips))
          .add("cores", static_cast<std::uint64_t>(cores_.size()))
          .add("ghz", frequency_.gigahertz())
          .add("cycles", stats_.cycles)
          .add("sim_seconds", stats_.seconds)
          .add("instructions", stats_.instructions)
          .add("ipc", cycles > 0.0
                          ? static_cast<double>(stats_.instructions) /
                                (cycles * static_cast<double>(cores_.size()))
                          : 0.0)
          .add("noc_packets", stats_.noc.packets_delivered)
          .add("noc_avg_latency", stats_.noc.average_latency())
          .add("noc_ticks", stats_.noc.ticks)
          .add("noc_cycles_skipped", stats_.noc.cycles_skipped)
          .add("events_scheduled", events_.scheduled())
          .add("events_max_pending",
               static_cast<std::uint64_t>(events_.max_pending()))
          .add("noc_latency_hist",
               [&] {
                 std::string hist;
                 for (std::size_t b = 0; b < NocStats::kLatencyBuckets;
                      ++b) {
                   if (b != 0) hist += ',';
                   hist += std::to_string(stats_.noc.latency_hist[b]);
                 }
                 return hist;
               }())
          .add("cycles_per_second",
               wall_seconds > 0.0 ? cycles / wall_seconds : 0.0)
          .add("seconds", wall_seconds);
    });
  }
  return stats_;
}

}  // namespace aqua
