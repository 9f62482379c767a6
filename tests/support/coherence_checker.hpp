#pragma once

// An explicit-state checker for the MOESI transitions in
// perf/coherence.hpp, in the manner of Murphi (Dill et al., ICCD 1992):
// a breadth-first search over every state of ONE line shared by 2 or 3
// cores and its home, calling the same transition functions the DES calls.
//
// The model:
//   - Each core may load, store or evict the line whenever it has no miss
//     outstanding (an in-order core). A core leaves at most kMaxWritebacks
//     PutMs of the line unacknowledged: without a bound, WBAcks could pile
//     up behind data on another class without end.
//   - Messages travel on FIFO channels, one per (source, destination,
//     message class), and any channel's head may be delivered next: the
//     order the mesh allows (Noc.PairDeliveryIsFifoPerClass pins it).
//   - A request waits in its channel while the home's line is busy; once
//     it is idle, the home may take any channel's head. The DES queues
//     requests in arrival order at the home, which is one of these orders,
//     and a queued request changes nothing until it runs. Memory reads
//     complete at once (the directory is busy throughout, so their latency
//     is invisible).
//
// It asserts, in every reachable state, single writer or multiple readers
// (at most one core in E or M and then no other copy, at most one O); at
// quiescence (no message in flight, no miss open, the home idle), that
// the directory's owner and sharers are exactly the caches that hold the
// line; that no transition fails its own checks; and that every reachable
// state can still reach quiescence. A violation comes back with the
// shortest trace that leads to it.
//
// Not covered: other lines (L2 capacity and eviction effects across
// lines), faults, and timing.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "perf/coherence.hpp"
#include "perf/protocol.hpp"

namespace aqua::oracle {

/// The home transition the checker drives. A test swaps in a wrapper to
/// check that the checker catches a broken protocol.
struct MoesiHome {
  template <class Home>
  static void at_home(Home& h, coherence::DirEntry& e, const Message& m) {
    coherence::at_home(h, e, m);
  }
};

struct CheckResult {
  bool ok = false;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t quiescent = 0;
  std::size_t max_channel = 0;  ///< deepest channel seen
  double seconds = 0.0;
  std::string report;  ///< the violation and its trace; empty when ok
};

template <class Rules = MoesiHome>
class CoherenceChecker {
 public:
  static constexpr std::size_t kMaxCores = 3;
  static constexpr std::int32_t kMaxWritebacks = 2;

  explicit CoherenceChecker(std::size_t cores) : n_(cores) {
    require(cores >= 2 && cores <= kMaxCores, "checker runs 2 or 3 cores");
    Perm p{};
    for (std::size_t i = 0; i < n_; ++i) p[i] = static_cast<std::uint8_t>(i);
    const auto end = p.begin() + static_cast<long>(n_);
    do {
      perms_.push_back(p);
    } while (std::next_permutation(p.begin(), end));
  }

  CheckResult run() {
    const auto t0 = std::chrono::steady_clock::now();
    CheckResult r;
    r.ok = explore(r);
    if (r.ok) r.ok = check_liveness(r);
    r.states = keys_.size();
    r.transitions = succ_.size();
    r.max_channel = max_channel_;
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return r;
  }

 private:
  static constexpr LineAddr kLine = 42;
  static constexpr std::size_t kChannelCap = 4;
  // Channels: requests core -> home, forwards home -> core, responses
  // home -> core, core -> home and core -> core.
  static constexpr std::size_t kChannels =
      4 * kMaxCores + kMaxCores * kMaxCores;

  /// A message on a channel; the line is implicit, the data source
  /// (statistics only) dropped.
  struct Msg {
    MsgType type = MsgType::kGetS;
    std::uint8_t sender = 0;
    std::uint8_t requestor = 0;
    bool dirty = false;
    std::int8_t acks = 0;
  };

  struct Fifo {
    std::array<Msg, kChannelCap> m{};
    std::uint8_t n = 0;
    void pop() {
      for (std::size_t k = 1; k < n; ++k) m[k - 1] = m[k];
      --n;
    }
  };

  struct CoreState {
    L1State l1 = L1State::kI;
    coherence::Writeback wb;
    coherence::Miss miss;
  };

  struct State {
    std::array<CoreState, kMaxCores> cores{};
    coherence::DirEntry dir;
    std::array<Fifo, kChannels> chan{};
  };

  enum class Act : std::uint8_t { kLoad, kStore, kEvict, kDeliver };
  struct Action {
    Act act = Act::kLoad;
    std::uint8_t arg = 0;  ///< core, or channel
  };

  // ---- channels ----
  [[nodiscard]] std::size_t home() const { return n_; }
  [[nodiscard]] std::size_t channel(std::size_t src, std::size_t dst,
                                    std::uint8_t cls) const {
    if (dst == home()) return (cls == 0 ? 0 : 3 * kMaxCores) + src;
    if (src == home()) return (cls == 1 ? kMaxCores : 2 * kMaxCores) + dst;
    return 4 * kMaxCores + src * kMaxCores + dst;
  }
  [[nodiscard]] std::size_t source_of(std::size_t ch) const {
    if (ch < kMaxCores) return ch;
    if (ch < 3 * kMaxCores) return home();
    if (ch < 4 * kMaxCores) return ch - 3 * kMaxCores;
    return (ch - 4 * kMaxCores) / kMaxCores;
  }
  [[nodiscard]] std::size_t dest_of(std::size_t ch) const {
    if (ch < kMaxCores || (ch >= 3 * kMaxCores && ch < 4 * kMaxCores)) {
      return home();
    }
    if (ch < 3 * kMaxCores) return ch % kMaxCores;
    return (ch - 4 * kMaxCores) % kMaxCores;
  }

  void push(State& s, std::size_t src, std::size_t dst, MsgType type,
            NodeId requestor, bool dirty, std::int32_t acks) {
    auto& q = s.chan[channel(src, dst, vc_class_of(type))];
    if (q.n == kChannelCap) {
      throw Error("checker bound: a channel holds more than " +
                  std::to_string(kChannelCap) + " messages");
    }
    q.m[q.n++] = Msg{type, static_cast<std::uint8_t>(src),
                     static_cast<std::uint8_t>(requestor), dirty,
                     static_cast<std::int8_t>(acks)};
    max_channel_ = std::max<std::size_t>(max_channel_, q.n);
  }

  [[nodiscard]] static Message message(const Msg& m) {
    Message out;
    out.type = m.type;
    out.line = kLine;
    out.sender = m.sender;
    out.requestor = m.requestor;
    out.dirty = m.dirty;
    out.acks = m.acks;
    return out;
  }

  // ---- ports (perf/coherence.hpp) ----
  struct CorePort {
    CoherenceChecker& ck;
    State& s;
    std::size_t i;

    [[nodiscard]] NodeId self() const { return static_cast<NodeId>(i); }
    [[nodiscard]] NodeId home_of(LineAddr) const {
      return static_cast<NodeId>(ck.home());
    }
    L1State* find(LineAddr) {
      return s.cores[i].l1 == L1State::kI ? nullptr : &s.cores[i].l1;
    }
    [[nodiscard]] L1State peek(LineAddr) const { return s.cores[i].l1; }
    void erase(LineAddr) { s.cores[i].l1 = L1State::kI; }
    void install(LineAddr, L1State state) { s.cores[i].l1 = state; }
    coherence::Writeback* find_writeback(LineAddr) {
      coherence::Writeback& wb = s.cores[i].wb;
      return wb.pending_acks > 0 ? &wb : nullptr;
    }
    coherence::Writeback& writeback_entry(LineAddr line) {
      coherence::Writeback& wb = s.cores[i].wb;
      if (wb.pending_acks == 0) wb = coherence::Writeback{line};
      return wb;
    }
    void drop_writeback(coherence::Writeback& wb) { wb = {}; }
    coherence::Miss& miss() { return s.cores[i].miss; }
    void send(MsgType type, LineAddr, NodeId to, NodeId requestor,
              bool dirty = false, std::int32_t acks = 0,
              DataSource = DataSource::kNone) {
      ck.push(s, i, to, type, requestor, dirty, acks);
    }
    void miss_done() {}
  };

  struct HomePort {
    CoherenceChecker& ck;
    State& s;

    [[nodiscard]] std::size_t core_index(NodeId tile) const {
      if (tile >= ck.n_) ensure(false, "checker: message names no core");
      return tile;
    }
    [[nodiscard]] NodeId core_tile(std::size_t index) const {
      return static_cast<NodeId>(index);
    }
    void send(MsgType type, LineAddr, NodeId to, NodeId requestor,
              bool dirty = false, std::int32_t acks = 0,
              DataSource = DataSource::kNone) {
      ck.push(s, ck.home(), to, type, requestor, dirty, acks);
    }
    void defer(const Message&) {
      ensure(false, "checker: a request reached a busy home");
    }
    bool fetch(const Message&) { return true; }
    void accept_writeback(LineAddr, bool) {}
    void closed(LineAddr) {}
  };

  // ---- actions ----
  void enabled(const State& s, std::vector<Action>& out) const {
    out.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      const CoreState& c = s.cores[i];
      if (c.miss.active) continue;
      const auto core = static_cast<std::uint8_t>(i);
      out.push_back({Act::kLoad, core});
      out.push_back({Act::kStore, core});
      if (c.l1 != L1State::kI && c.wb.pending_acks < kMaxWritebacks) {
        out.push_back({Act::kEvict, core});
      }
    }
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      // Requests (the first kMaxCores channels) wait while the line is busy.
      if (s.chan[ch].n != 0 && (ch >= kMaxCores || !s.dir.busy)) {
        out.push_back({Act::kDeliver, static_cast<std::uint8_t>(ch)});
      }
    }
  }

  void apply(State& s, Action a) {
    switch (a.act) {
      case Act::kLoad:
      case Act::kStore: {
        CorePort port{*this, s, a.arg};
        coherence::access(port, kLine, a.act == Act::kStore);
        break;
      }
      case Act::kEvict: {
        CorePort port{*this, s, a.arg};
        const L1State held = s.cores[a.arg].l1;
        port.erase(kLine);
        coherence::evict(port, kLine, held);
        break;
      }
      case Act::kDeliver: {
        auto& q = s.chan[a.arg];
        const Message msg = message(q.m[0]);
        q.pop();
        const std::size_t dst = dest_of(a.arg);
        if (dst == home()) {
          HomePort port{*this, s};
          Rules::at_home(port, s.dir, msg);
        } else {
          CorePort port{*this, s, dst};
          coherence::at_l1(port, msg);
        }
        break;
      }
    }
    clear_dead_fields(s);
  }

  /// Clears fields no transition reads, so equal protocol states compare
  /// equal: a closed miss, an empty writeback entry, the owner of a line
  /// nobody owns.
  static void clear_dead_fields(State& s) {
    for (CoreState& c : s.cores) {
      if (!c.miss.active) c.miss = coherence::Miss{};
      if (c.wb.pending_acks == 0) c.wb = coherence::Writeback{};
    }
    if (s.dir.state == DirState::kUncached ||
        s.dir.state == DirState::kShared) {
      s.dir.owner = 0;
    }
  }

  // ---- state encoding ----
  static void put(std::string& k, unsigned byte) {
    k.push_back(static_cast<char>(byte));
  }
  static void put_msg(std::string& k, const Msg& m) {
    put(k, static_cast<unsigned>(m.type) | (m.dirty ? 0x80u : 0u));
    put(k, m.sender | static_cast<unsigned>(m.requestor << 4));
    put(k, static_cast<std::uint8_t>(m.acks));
  }
  static Msg get_msg(const std::uint8_t*& p) {
    Msg m;
    m.type = static_cast<MsgType>(p[0] & 0x7f);
    m.dirty = (p[0] & 0x80) != 0;
    m.sender = p[1] & 0x0f;
    m.requestor = p[1] >> 4;
    m.acks = static_cast<std::int8_t>(p[2]);
    p += 3;
    return m;
  }

  /// A core's state in three bytes, most significant first.
  static std::uint32_t pack(const CoreState& c) {
    const coherence::Miss& m = c.miss;
    const unsigned b0 = static_cast<unsigned>(c.l1) | (c.wb.dirty ? 8u : 0u) |
                        (static_cast<unsigned>(c.wb.pending_acks) << 4);
    const unsigned b1 = (m.active ? 1u : 0u) | (m.is_store ? 2u : 0u) |
                        (m.data_received ? 8u : 0u) |
                        (static_cast<unsigned>(m.data_kind) << 4);
    const unsigned b2 = static_cast<unsigned>(m.acks_expected + 1) |
                        (static_cast<unsigned>(m.acks_received) << 4);
    return b0 << 16 | b1 << 8 | b2;
  }

  void encode(const State& s, std::string& k) const {
    k.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t c = pack(s.cores[i]);
      put(k, (c >> 16) & 0xff);
      put(k, (c >> 8) & 0xff);
      put(k, c & 0xff);
    }
    const coherence::DirEntry& d = s.dir;
    put(k, static_cast<unsigned>(d.state) | (d.busy ? 8u : 0u) |
               (d.l2_valid ? 16u : 0u) | (d.awaiting_downgrade ? 32u : 0u) |
               (d.downgrade_received ? 64u : 0u) |
               (d.unblock_received ? 128u : 0u));
    put(k, d.owner);
    put(k, static_cast<unsigned>(d.sharers));
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      if (s.chan[ch].n == 0) continue;
      put(k, static_cast<unsigned>(ch));
      put(k, s.chan[ch].n);
      for (std::size_t j = 0; j < s.chan[ch].n; ++j) {
        put_msg(k, s.chan[ch].m[j]);
      }
    }
  }

  State decode(std::uint32_t id) const {
    const std::string& key = *keys_[id];
    const auto* p = reinterpret_cast<const std::uint8_t*>(key.data());
    const std::uint8_t* end = p + key.size();
    State s;
    for (std::size_t i = 0; i < n_; ++i, p += 3) {
      CoreState& c = s.cores[i];
      c.l1 = static_cast<L1State>(p[0] & 7);
      c.wb.dirty = (p[0] & 8) != 0;
      c.wb.pending_acks = p[0] >> 4;
      c.wb.line = c.wb.pending_acks > 0 ? kLine : 0;
      coherence::Miss& m = c.miss;
      m.active = (p[1] & 1) != 0;
      m.is_store = (p[1] & 2) != 0;
      m.data_received = (p[1] & 8) != 0;
      m.data_kind = static_cast<MsgType>(p[1] >> 4);
      m.line = m.active ? kLine : 0;
      m.acks_expected = static_cast<std::int32_t>(p[2] & 0x0f) - 1;
      m.acks_received = p[2] >> 4;
    }
    coherence::DirEntry& d = s.dir;
    d.state = static_cast<DirState>(p[0] & 7);
    d.busy = (p[0] & 8) != 0;
    d.l2_valid = (p[0] & 16) != 0;
    d.awaiting_downgrade = (p[0] & 32) != 0;
    d.downgrade_received = (p[0] & 64) != 0;
    d.unblock_received = (p[0] & 128) != 0;
    d.owner = p[1];
    d.sharers = p[2];
    p += 3;
    while (p != end) {
      auto& q = s.chan[p[0]];
      q.n = p[1];
      p += 2;
      for (std::size_t j = 0; j < q.n; ++j) q.m[j] = get_msg(p);
    }
    return s;
  }

  // ---- symmetry: the cores are interchangeable (Murphi's scalarsets) ----
  using Perm = std::array<std::uint8_t, kMaxCores>;  ///< core i -> p[i]

  [[nodiscard]] static std::uint8_t class_of(std::size_t ch) {
    if (ch < kMaxCores) return 0;
    return ch < 2 * kMaxCores ? 1 : 2;
  }
  [[nodiscard]] std::size_t rename(std::size_t node, const Perm& p) const {
    return node == home() ? node : p[node];
  }
  [[nodiscard]] static bool owned(const coherence::DirEntry& d) {
    return coherence::owns(d, d.owner);  // E, M or O
  }

  /// `s` with every core i renamed p[i].
  [[nodiscard]] State permute(const State& s, const Perm& p) const {
    State t;
    t.dir = s.dir;
    t.dir.sharers = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      t.cores[p[i]] = s.cores[i];
      if ((s.dir.sharers & coherence::bit(i)) != 0) {
        t.dir.sharers |= coherence::bit(p[i]);
      }
    }
    if (owned(s.dir)) t.dir.owner = p[s.dir.owner];
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      if (s.chan[ch].n == 0) continue;
      auto& q = t.chan[channel(rename(source_of(ch), p),
                               rename(dest_of(ch), p), class_of(ch))];
      q = s.chan[ch];
      for (std::size_t j = 0; j < q.n; ++j) {
        q.m[j].sender = static_cast<std::uint8_t>(rename(q.m[j].sender, p));
        q.m[j].requestor = p[q.m[j].requestor];
      }
    }
    return t;
  }

  [[nodiscard]] Action relabel(Action a, const Perm& p) const {
    if (a.act != Act::kDeliver) return {a.act, p[a.arg]};
    return {a.act, static_cast<std::uint8_t>(
                       channel(rename(source_of(a.arg), p),
                               rename(dest_of(a.arg), p), class_of(a.arg)))};
  }

  /// Encodes the representative of `s`'s orbit under core renaming into
  /// `key` and returns the renaming that yields it: the smallest key over
  /// the renamings that sort the cores by their own state (usually one).
  Perm canonical(const State& s, std::string& key,
                 std::string& scratch) const {
    std::array<std::uint32_t, kMaxCores> sig{};
    for (std::size_t i = 0; i < n_; ++i) {
      sig[i] = pack(s.cores[i]) << 2 |
               (owned(s.dir) && s.dir.owner == i ? 2u : 0u) |
               ((s.dir.sharers & coherence::bit(i)) != 0 ? 1u : 0u);
    }
    Perm best{};
    bool found = false;
    for (const Perm& p : perms_) {
      std::array<std::uint32_t, kMaxCores> at{};
      for (std::size_t i = 0; i < n_; ++i) at[p[i]] = sig[i];
      if (!std::is_sorted(at.begin(), at.begin() + static_cast<long>(n_))) {
        continue;
      }
      encode(permute(s, p), scratch);
      if (!found || scratch < key) {
        key.swap(scratch);
        best = p;
        found = true;
      }
    }
    return best;
  }

  /// The key's state id, adding it if new; `added` says which.
  std::uint32_t intern(const std::string& key, bool& added) {
    const auto [it, inserted] =
        ids_.try_emplace(key, static_cast<std::uint32_t>(keys_.size()));
    if (inserted) keys_.push_back(&it->first);
    added = inserted;
    return it->second;
  }

  // ---- properties ----
  [[nodiscard]] bool quiescent(const State& s) const {
    if (s.dir.busy) return false;
    for (std::size_t i = 0; i < n_; ++i) {
      if (s.cores[i].miss.active) return false;
    }
    for (const auto& q : s.chan) {
      if (q.n != 0) return false;
    }
    return true;
  }

  /// The first invariant `s` breaks, or empty.
  [[nodiscard]] std::string violation(const State& s) const {
    std::size_t writers = 0, owners = 0;
    std::uint64_t readers = 0;
    std::size_t owner = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      switch (s.cores[i].l1) {
        case L1State::kE:
        case L1State::kM:
          ++writers;
          owner = i;
          break;
        case L1State::kO:
          ++owners;
          owner = i;
          break;
        case L1State::kS:
          readers |= coherence::bit(i);
          break;
        case L1State::kI:
          break;
      }
    }
    if (writers > 1 || owners > 1 ||
        (writers == 1 && (owners != 0 || readers != 0))) {
      return "single writer or multiple readers violated";
    }
    if (!quiescent(s)) return {};
    const coherence::DirEntry& d = s.dir;
    bool match = false;
    switch (d.state) {
      case DirState::kUncached:
        match = writers + owners == 0 && readers == 0;
        break;
      case DirState::kShared:
        match = writers + owners == 0 && d.sharers == readers && d.l2_valid;
        break;
      case DirState::kExclusive:
      case DirState::kModified:
        match = writers == 1 && owner == d.owner && d.sharers == 0;
        break;
      case DirState::kOwned:
        match = owners == 1 && owner == d.owner && d.sharers == readers;
        break;
    }
    return match ? std::string{}
                 : "at quiescence the directory disagrees with the caches";
  }

  // ---- search ----
  bool explore(CheckResult& r) {
    std::string key, scratch;
    bool added = false;
    canonical(State{}, key, scratch);
    intern(key, added);
    parent_.push_back(0);
    action_.push_back({});
    succ_offset_.push_back(0);
    std::vector<Action> acts;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      const State s = decode(id);
      quiet_.push_back(quiescent(s));
      r.quiescent += quiet_.back();
      enabled(s, acts);
      for (const Action a : acts) {
        State next = s;
        try {
          apply(next, a);
        } catch (const Error& e) {
          r.report = std::string("transition failed: ") + e.what() + "\n" +
                     trace(id, &a);
          return false;
        }
        canonical(next, key, scratch);
        const std::uint32_t to = intern(key, added);
        succ_.push_back(to);
        if (!added) continue;
        parent_.push_back(id);
        action_.push_back(a);
        if (std::string bad = violation(next); !bad.empty()) {
          r.report = bad + "\n" + trace(to, nullptr);
          return false;
        }
      }
      succ_offset_.push_back(static_cast<std::uint32_t>(succ_.size()));
    }
    return true;
  }

  /// Every state must reach quiescence: a backward search from the
  /// quiescent states over the reversed transitions.
  bool check_liveness(CheckResult& r) {
    const std::size_t states = keys_.size();
    std::vector<std::uint32_t> rev_offset(states + 1, 0);
    for (const std::uint32_t to : succ_) ++rev_offset[to + 1];
    for (std::size_t i = 0; i < states; ++i) rev_offset[i + 1] += rev_offset[i];
    std::vector<std::uint32_t> rev(succ_.size());
    std::vector<std::uint32_t> fill(rev_offset.begin(), rev_offset.end() - 1);
    for (std::uint32_t from = 0; from < states; ++from) {
      for (std::uint32_t e = succ_offset_[from]; e < succ_offset_[from + 1];
           ++e) {
        rev[fill[succ_[e]]++] = from;
      }
    }
    std::vector<std::uint8_t> live(states, 0);
    std::vector<std::uint32_t> work;
    for (std::uint32_t id = 0; id < states; ++id) {
      if (quiet_[id]) {
        live[id] = 1;
        work.push_back(id);
      }
    }
    while (!work.empty()) {
      const std::uint32_t id = work.back();
      work.pop_back();
      for (std::uint32_t e = rev_offset[id]; e < rev_offset[id + 1]; ++e) {
        if (!live[rev[e]]) {
          live[rev[e]] = 1;
          work.push_back(rev[e]);
        }
      }
    }
    for (std::uint32_t id = 0; id < states; ++id) {
      if (!live[id]) {
        r.report = "no path to quiescence (deadlock)\n" + trace(id, nullptr);
        return false;
      }
    }
    return true;
  }

  // ---- reporting ----
  [[nodiscard]] static std::string core_name(std::size_t i) {
    return "core " + std::to_string(i);
  }
  [[nodiscard]] std::string node_name(std::size_t node) const {
    return node == home() ? "home" : core_name(node);
  }
  [[nodiscard]] static std::string msg_text(const Msg& m) {
    std::string t = to_string(m.type);
    if (m.type == MsgType::kPutM || m.type == MsgType::kDowngradeAck) {
      t += m.dirty ? "(dirty)" : "(clean)";
    }
    if (m.type == MsgType::kAckCount) {
      t += "(" + std::to_string(m.acks) + (m.dirty ? ", data follows)" : ")");
    }
    return t + " for core " + std::to_string(m.requestor);
  }

  [[nodiscard]] std::string label(const State& s, Action a) const {
    switch (a.act) {
      case Act::kLoad:
        return core_name(a.arg) + " loads";
      case Act::kStore:
        return core_name(a.arg) + " stores";
      case Act::kEvict:
        return core_name(a.arg) + " evicts its " +
               to_string(s.cores[a.arg].l1) + " copy";
      case Act::kDeliver:
        return node_name(source_of(a.arg)) + " -> " +
               node_name(dest_of(a.arg)) + ": " +
               msg_text(s.chan[a.arg].m[0]);
    }
    return "?";
  }

  [[nodiscard]] std::string describe(const State& s) const {
    std::string out;
    for (std::size_t i = 0; i < n_; ++i) {
      const CoreState& c = s.cores[i];
      out += "  " + core_name(i) + ": " + to_string(c.l1);
      if (c.wb.pending_acks > 0) {
        out += ", writeback " + std::string(c.wb.dirty ? "dirty" : "clean") +
               " x" + std::to_string(c.wb.pending_acks);
      }
      if (c.miss.active) {
        out += std::string(", ") + (c.miss.is_store ? "store" : "load") +
               " miss (data " + std::to_string(c.miss.data_received) +
               ", acks " + std::to_string(c.miss.acks_received) + "/" +
               std::to_string(c.miss.acks_expected) + ")";
      }
      out += "\n";
    }
    const coherence::DirEntry& d = s.dir;
    char sharers[8];
    std::snprintf(sharers, sizeof sharers, "0x%x",
                  static_cast<unsigned>(d.sharers));
    out += "  home: " + std::string(to_string(d.state)) +
           (d.busy ? " busy" : "") + " owner " + std::to_string(d.owner) +
           " sharers " + sharers + "\n";
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      for (std::size_t j = 0; j < s.chan[ch].n; ++j) {
        out += "  in flight " + node_name(source_of(ch)) + " -> " +
               node_name(dest_of(ch)) + ": " + msg_text(s.chan[ch].m[j]) +
               "\n";
      }
    }
    return out;
  }

  /// The path from the initial state to `id`, then `last` if given, and
  /// the final state. Stored steps act on canonical states, so the replay
  /// tracks each step's renaming and shows the run in the first frame.
  std::string trace(std::uint32_t id, const Action* last) {
    std::vector<Action> path;
    if (last != nullptr) path.push_back(*last);
    for (std::uint32_t at = id; at != 0; at = parent_[at]) {
      path.push_back(action_[at]);
    }
    std::string out = "trace (" + std::to_string(path.size()) + " steps):\n";
    State canon;
    State shown;
    Perm shown_of{};  ///< canonical core -> shown core
    for (std::size_t i = 0; i < kMaxCores; ++i) {
      shown_of[i] = static_cast<std::uint8_t>(i);
    }
    std::string key, scratch;
    std::size_t step = 0;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const Action a = relabel(*it, shown_of);
      out += "  " + std::to_string(++step) + ". " + label(shown, a) + "\n";
      try {
        apply(shown, a);
      } catch (const Error&) {
        out += "  (fails here)\n";
        return out;
      }
      apply(canon, *it);
      const Perm p = canonical(canon, key, scratch);
      canon = permute(canon, p);
      Perm next{};
      for (std::size_t i = 0; i < n_; ++i) next[p[i]] = shown_of[i];
      shown_of = next;
    }
    return out + "state:\n" + describe(shown);
  }

  std::size_t n_;
  std::vector<Perm> perms_;  ///< every renaming of the n_ cores
  std::size_t max_channel_ = 0;
  std::unordered_map<std::string, std::uint32_t> ids_;  ///< key -> state id
  std::vector<const std::string*> keys_;               ///< state id -> key
  std::vector<std::uint32_t> parent_;
  std::vector<Action> action_;
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> succ_offset_;
  std::vector<std::uint8_t> quiet_;  ///< per state: quiescent
};

}  // namespace aqua::oracle
