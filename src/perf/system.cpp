#include "perf/system.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
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
      core.l1 = std::make_unique<SetAssocCache<L1State>>(
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
}

CmpSystem::CmpSystem(const CmpConfig& config, const WorkloadProfile& profile,
                     Hertz frequency, std::uint64_t seed)
    : config_(config), frequency_(frequency) {
  init_topology();
  for (Core& core : cores_) {
    core.trace = std::make_unique<TraceGenerator>(
        profile, core.index, config_.total_cores(), seed);
  }
}

CmpSystem::CmpSystem(const CmpConfig& config, const TraceBundle& bundle,
                     Hertz frequency)
    : config_(config), frequency_(frequency), replay_bundle_(bundle) {
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

// ---------------------------------------------------------------------------
// Coherence ports: how the transitions in perf/coherence.hpp act on this
// system. Sends go onto the mesh; the DES counts protocol events by the
// messages they send (every PutM is a writeback, every InvAck an
// invalidation, every FwdGet* a coherence forward).
// ---------------------------------------------------------------------------

struct CmpSystem::CorePort {
  CmpSystem& sys;
  Core& core;

  [[nodiscard]] NodeId self() const { return core.tile; }
  [[nodiscard]] NodeId home_of(LineAddr line) const {
    return sys.home_tile_of(line);
  }
  L1State* find(LineAddr line) { return core.l1->find(line); }
  [[nodiscard]] L1State peek(LineAddr line) const {
    const L1State* s = core.l1->peek(line);
    return s == nullptr ? L1State::kI : *s;
  }
  void erase(LineAddr line) { core.l1->erase(line); }
  void install(LineAddr line, L1State state) {
    if (L1State* s = core.l1->find(line); s != nullptr) {
      *s = state;  // upgrade in place
      return;
    }
    bool inserted = false;
    auto evicted = core.l1->insert(line, state, inserted,
                                   [](LineAddr, L1State) { return true; });
    if (!inserted) ensure(false, "L1 insert must always succeed");
    if (evicted) coherence::evict(*this, evicted->line, evicted->state);
  }
  coherence::Writeback* find_writeback(LineAddr line) {
    for (coherence::Writeback& wb : core.writeback_buffer) {
      if (wb.line == line) return &wb;
    }
    return nullptr;
  }
  coherence::Writeback& writeback_entry(LineAddr line) {
    if (coherence::Writeback* wb = find_writeback(line)) return *wb;
    core.writeback_buffer.push_back(coherence::Writeback{line});
    return core.writeback_buffer.back();
  }
  void drop_writeback(coherence::Writeback& wb) {
    wb = core.writeback_buffer.back();
    core.writeback_buffer.pop_back();
  }
  coherence::Miss& miss() { return core.miss; }
  void send(MsgType type, LineAddr line, NodeId to, NodeId requestor,
            bool dirty = false, std::int32_t acks = 0,
            DataSource source = DataSource::kNone) {
    if (type == MsgType::kPutM) ++sys.stats_.writebacks;
    if (type == MsgType::kInvAck) ++sys.stats_.invalidations;
    sys.send(type, line, core.tile, to, requestor, dirty, acks, source);
  }
  void miss_done() {
    // CPI stack, by DataSource; no source is an ack-only upgrade.
    static constexpr std::uint64_t ExecStats::*kStall[] = {
        &ExecStats::stall_upgrade_cycles, &ExecStats::stall_l2_cycles,
        &ExecStats::stall_dram_cycles, &ExecStats::stall_forward_cycles};
    sys.stats_.*kStall[static_cast<std::size_t>(core.miss.source)] +=
        sys.events_.now() - core.miss_start;
    sys.events_.schedule_in(1, &CmpSystem::advance_event, &sys, &core,
                            Message{});
  }
};

struct CmpSystem::HomePort {
  CmpSystem& sys;
  Bank& bank;
  HomeLine& home;  ///< the line being handled

  [[nodiscard]] std::size_t core_index(NodeId tile) const {
    return sys.core_index_of(tile);
  }
  [[nodiscard]] NodeId core_tile(std::size_t index) const {
    return sys.cores_[index].tile;
  }
  void send(MsgType type, LineAddr line, NodeId to, NodeId requestor,
            bool dirty = false, std::int32_t acks = 0,
            DataSource source = DataSource::kNone) {
    if (type == MsgType::kFwdGetS || type == MsgType::kFwdGetM) {
      ++sys.stats_.coherence_forwards;
    }
    sys.send(type, line, bank.tile, to, requestor, dirty, acks, source);
  }
  void defer(const Message& msg) {
    sys.queue_pending_back(home, msg);
    sys.pump_pending(bank, msg.line);
  }
  bool fetch(const Message& request) {
    if (bank.l2->find(request.line) != nullptr) {
      ++sys.stats_.l2_data_hits;
      return true;
    }
    ++sys.stats_.l2_data_misses;
    ++sys.stats_.dram_accesses;
    MemoryController& mc = sys.memory_[bank.chip];
    const Cycle start = std::max(sys.events_.now(), mc.next_free);
    mc.next_free = start + sys.dram_service_cycles_;
    sys.events_.schedule(start + sys.dram_latency_cycles_,
                         &CmpSystem::dram_fill_event, &sys, &bank, request);
    return false;
  }
  void accept_writeback(LineAddr line, bool dirty) {
    sys.l2_insert(bank, line, L2Line{dirty});
  }
  void closed(LineAddr line) { sys.pump_pending(bank, line); }
};

void CmpSystem::l2_insert(Bank& bank, LineAddr line, L2Line value) {
  bool inserted = false;
  auto evicted = bank.l2->insert(line, value, inserted, L2Evictable{bank});
  if (!inserted) ++stats_.l2_overflow_inserts;
  if (evicted) {
    if (HomeLine* v = bank.directory.find(evicted->line)) {
      v->dir.l2_valid = false;
    }
  }
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
  CorePort port{*static_cast<CmpSystem*>(ctx), *static_cast<Core*>(target)};
  coherence::at_l1(port, msg);
}

void CmpSystem::home_event(void* ctx, void* target, const Message& msg) {
  auto& bank = *static_cast<Bank*>(target);
  HomeLine& home = bank.directory[msg.line];
  HomePort port{*static_cast<CmpSystem*>(ctx), bank, home};
  coherence::at_home(port, home.dir, msg);
}

void CmpSystem::dram_fill_event(void* ctx, void* target, const Message& msg) {
  auto* self = static_cast<CmpSystem*>(ctx);
  auto& bank = *static_cast<Bank*>(target);
  self->l2_insert(bank, msg.line, L2Line{false});
  HomeLine& home = bank.directory[msg.line];
  HomePort port{*self, bank, home};
  coherence::fill(port, home.dir, msg, DataSource::kDram);
}

void CmpSystem::pending_event(void* ctx, void* target, const Message& msg) {
  auto* self = static_cast<CmpSystem*>(ctx);
  auto& bank = *static_cast<Bank*>(target);
  HomeLine& home = bank.directory[msg.line];
  if (home.dir.busy) {
    self->queue_pending_front(home, msg);
    return;
  }
  HomePort port{*self, bank, home};
  coherence::request(port, home.dir, msg);
  self->pump_pending(bank, msg.line);
}

void CmpSystem::pump_event(void* ctx, void*, const Message&) {
  auto* self = static_cast<CmpSystem*>(ctx);
  const Cycle now = self->events_.now();

  // One pump event, and one mesh tick, per active-network cycle:
  // scheduling the successor here fixes every event's sequence number (and
  // so all same-cycle handler interleaving).
  self->noc_->tick(now);
  if (self->noc_->active()) {
    self->events_.schedule_in(1, &CmpSystem::pump_event, self, self,
                              Message{});
  } else {
    self->noc_pumping_ = false;
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

  noc_->inject(events_.now(), p);
  if (!noc_pumping_ && noc_->active()) {
    noc_pumping_ = true;
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
                        &cores_[core_index_of(packet.dst)], packet.msg);
  }
}

// ---------------------------------------------------------------------------
// Core side
// ---------------------------------------------------------------------------

void CmpSystem::advance_core(Core& core) {
  if (core.finished) return;
  if (core.miss.active) ensure(false, "core advanced with a miss outstanding");

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
  CorePort port{*this, core};
  if (coherence::access(port, line, is_store)) {
    ++stats_.l1_hits;
    advance_core(core);
    return;
  }
  ++stats_.l1_misses;
  core.miss_start = events_.now();
}

void CmpSystem::arrive_barrier(Core& core) {
  core.at_barrier = true;
  core.barrier_arrive = events_.now();
  ++barrier_.waiting;
  // The last arrival releases everyone.
  if (barrier_.waiting < cores_.size()) return;
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
// Fault injection: one failed mesh link, before any traffic. A run without
// a fail_link call takes no fault path at all.
// ---------------------------------------------------------------------------

void CmpSystem::fail_link(NodeId a, NodeId b) {
  require(!ran_, "fail_link must be called before run()");
  noc_->fail_link(a, b);
  ++stats_.noc_links_failed;
  obs::RunReport& report = obs::RunReport::instance();
  if (report.enabled()) {
    report.emit("fault_injected", [&](obs::JsonWriter& w) {
      w.add("stage", "perf")
          .add("fault", "noc_link")
          .add("tile_a", static_cast<std::uint64_t>(a))
          .add("tile_b", static_cast<std::uint64_t>(b));
    });
  }
}

// ---------------------------------------------------------------------------
// Home request queue
// ---------------------------------------------------------------------------

void CmpSystem::queue_pending_back(HomeLine& h, const Message& msg) {
  PendingNode* node = pending_pool_.create(PendingNode{msg, nullptr});
  if (h.pending_tail == nullptr) {
    h.pending_head = node;
  } else {
    h.pending_tail->next = node;
  }
  h.pending_tail = node;
  ++h.dir.pending_count;
}

void CmpSystem::queue_pending_front(HomeLine& h, const Message& msg) {
  PendingNode* node = pending_pool_.create(PendingNode{msg, h.pending_head});
  h.pending_head = node;
  if (h.pending_tail == nullptr) h.pending_tail = node;
  ++h.dir.pending_count;
}

void CmpSystem::pump_pending(Bank& bank, LineAddr line) {
  HomeLine& h = bank.directory[line];
  if (h.dir.busy || h.pending_head == nullptr) return;
  PendingNode* node = h.pending_head;
  h.pending_head = node->next;
  if (h.pending_head == nullptr) h.pending_tail = nullptr;
  --h.dir.pending_count;
  const Message next = node->msg;
  pending_pool_.destroy(node);
  // Re-dispatch after one cycle to bound recursion and model queue pop.
  // Draining must continue past non-transactional requests (Put*): they
  // leave the line un-busy, and anything still queued behind them would
  // otherwise be orphaned — a deadlock. pending_event re-queues at the
  // front if the line went busy again in the meantime.
  events_.schedule_in(1, &CmpSystem::pending_event, this, &bank, next);
}

// ---------------------------------------------------------------------------

void CmpSystem::report_deadlock() {
  // Deadlock: produce a diagnostic snapshot before failing.
  std::string dump = "simulation deadlock at cycle " +
                     std::to_string(events_.now()) + ": noc " +
                     (noc_->active() ? "ACTIVE" : "idle");
  for (const Core& c : cores_) {
    const coherence::Miss& m = c.miss;
    dump += "\n core " + std::to_string(c.index) +
            (c.finished ? " done" : "") +
            (c.at_barrier ? " barrier" : "") +
            (m.active ? " miss line=" + std::to_string(m.line) +
                            (m.is_store ? " store" : " load") +
                            " data=" + std::to_string(m.data_received) +
                            " acks=" + std::to_string(m.acks_received) + "/" +
                            std::to_string(m.acks_expected)
                      : "");
  }
  // Busy lines in (bank, line) order, independent of the table layout, each
  // with the fields a stuck transaction turns on.
  std::vector<LineAddr> busy;
  for (const Bank& b : banks_) {
    busy.clear();
    b.directory.for_each([&busy](LineAddr line, const HomeLine& h) {
      if (h.dir.busy || h.dir.pending_count != 0) busy.push_back(line);
    });
    std::sort(busy.begin(), busy.end());
    for (const LineAddr line : busy) {
      const coherence::DirEntry& e = b.directory.find(line)->dir;
      char sharers[24];
      std::snprintf(sharers, sizeof sharers, "0x%llx",
                    static_cast<unsigned long long>(e.sharers));
      dump += "\n bank tile " + std::to_string(b.tile) + " line " +
              std::to_string(line) + " state " +
              std::string(to_string(e.state)) + (e.busy ? " BUSY" : "") +
              " pending " + std::to_string(e.pending_count) + " owner " +
              std::to_string(e.owner) + " sharers " + sharers +
              " awaiting_downgrade " + std::to_string(e.awaiting_downgrade) +
              " downgrade_received " + std::to_string(e.downgrade_received) +
              " unblock_received " + std::to_string(e.unblock_received);
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
    std::uint64_t l2_sets_filled = 0;
    for (const Bank& bank : banks_) l2_sets_filled += bank.l2->sets_filled();
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
          .add("events_scheduled", events_.scheduled())
          .add("events_max_pending",
               static_cast<std::uint64_t>(events_.max_pending()))
          .add("state_bytes", static_cast<std::uint64_t>(state_bytes()))
          .add("l2_sets_filled", l2_sets_filled)
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
