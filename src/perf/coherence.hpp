#pragma once

/// The MOESI directory protocol's transitions (Table 1, "MOESI
/// directory"), written once and driven by two callers: `CmpSystem`, which
/// carries each message through the mesh and applies its effects at their
/// cycle, and the exhaustive checker in tests/support, which explores every
/// interleaving of one line's messages.
///
/// A transition reads and writes one line's protocol state (an L1's line
/// state, writeback entry and miss, or the home's `DirEntry`) and emits its
/// effects, in order, through the caller's port. It knows nothing of the
/// NoC, the event queue or time. The directory is blocking (protocol.hpp),
/// and the protocol relies on FIFO delivery per (source, destination,
/// message class).
///
/// An L1 port has: self() and home_of(line), the tiles messages name;
/// find(line), the L1's state with an LRU touch (nullptr if absent), and
/// peek(line), without the touch (kI if absent); erase and install (a fill
/// hands its victim to `evict`); find_writeback, writeback_entry (found or
/// appended zeroed) and drop_writeback; miss(); send(type, line, to,
/// requestor, dirty = false, acks = 0, source = kNone); and miss_done(),
/// which resumes the core.
///
/// A home port has: core_index(tile) and core_tile(index); send; defer(msg),
/// which queues a request behind the open transaction or earlier waiters;
/// fetch(request), true if the L2 data array holds the line, else it starts
/// a memory read that ends in `fill`; accept_writeback(line, dirty), the L2
/// taking a PutM's data; and closed(line), after which the next queued
/// request may start.

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "perf/params.hpp"
#include "perf/protocol.hpp"

namespace aqua::coherence {

/// An evicted E/M/O line awaiting the home's WBAck. Forwards that reach the
/// old owner meanwhile are served from here.
struct Writeback {
  LineAddr line = 0;
  bool dirty = false;
  // A line can be evicted again before the first WBAck returns; the entry
  // must survive until every outstanding PutM is acknowledged.
  std::int32_t pending_acks = 0;
};

/// A core's in-flight miss (at most one: in-order core).
struct Miss {
  bool active = false;
  bool is_store = false;
  bool data_received = false;
  MsgType data_kind = MsgType::kData;
  DataSource source = DataSource::kNone;  ///< CPI-stack attribution
  LineAddr line = 0;
  std::int32_t acks_expected = -1;  ///< -1 until the home says
  std::int32_t acks_received = 0;
};

/// One line's directory state at its home: 16 bytes.
struct DirEntry {
  DirState state = DirState::kUncached;
  // One flags byte.
  bool busy : 1 = false;
  bool l2_valid : 1 = false;  ///< L2 data array holds a valid copy
  // FwdGetS transactions complete on TWO messages that race on the
  // response class: the owner's DowngradeAck and the requestor's
  // Unblock. The transaction closes only when both have arrived.
  bool awaiting_downgrade : 1 = false;
  bool downgrade_received : 1 = false;
  bool unblock_received : 1 = false;
  std::uint8_t owner = 0;  ///< core index (< 64); meaningful in E, M, O
  /// Requests queued behind the open transaction. Each core has at most
  /// one miss and a few writebacks of a line in flight, far below the
  /// type's range.
  std::uint16_t pending_count = 0;
  std::uint64_t sharers = 0;  ///< bitmask over core indices (<= 64)
};
static_assert(sizeof(DirEntry) == 16, "a directory entry is 16 bytes");

[[nodiscard]] constexpr std::uint64_t bit(std::size_t core) {
  return std::uint64_t{1} << core;
}

/// True if the directory lists `core` as the line's E, M or O owner.
[[nodiscard]] constexpr bool owns(const DirEntry& e, std::size_t core) {
  return (e.state == DirState::kExclusive || e.state == DirState::kModified ||
          e.state == DirState::kOwned) &&
         e.owner == core;
}

// ---- L1 side ----

/// Evicts `line`, which the L1 held in `state` and has already dropped:
/// PutS for a shared copy; PutM for an owned one, which stays in the
/// writeback buffer until the home acknowledges.
template <class Core>
void evict(Core& c, LineAddr line, L1State state) {
  switch (state) {
    case L1State::kS:
      c.send(MsgType::kPutS, line, c.home_of(line), c.self());
      return;
    case L1State::kE:
    case L1State::kM:
    case L1State::kO: {
      Writeback& wb = c.writeback_entry(line);
      wb.dirty = state != L1State::kE;
      ++wb.pending_acks;
      c.send(MsgType::kPutM, line, c.home_of(line), c.self(), wb.dirty);
      return;
    }
    case L1State::kI:
      return;
  }
}

template <class Core>
void start_miss(Core& c, LineAddr line, bool is_store) {
  Miss& m = c.miss();
  m = Miss{};
  m.active = true;
  m.is_store = is_store;
  m.line = line;
  // Loads never wait on invalidation acks; stores learn their count from
  // the home's Data/AckCount message.
  m.acks_expected = is_store ? -1 : 0;
  c.send(is_store ? MsgType::kGetM : MsgType::kGetS, line, c.home_of(line),
         c.self());
}

/// A load or store at the L1. Returns true on a hit (a store to E upgrades
/// silently to M); otherwise the miss starts and its request leaves.
template <class Core>
bool access(Core& c, LineAddr line, bool is_store) {
  if (L1State* s = c.find(line); s != nullptr) {
    if (!is_store || *s == L1State::kM) return true;
    if (*s == L1State::kE) {
      *s = L1State::kM;
      return true;
    }
    // A store to S or O misses as an upgrade: the data is already held.
  }
  start_miss(c, line, is_store);
  return false;
}

/// Retires the miss once its data and every invalidation ack are in:
/// install the line, Unblock the home, resume the core.
template <class Core>
void maybe_complete_miss(Core& c) {
  Miss& m = c.miss();
  if (!m.active || !m.data_received || m.acks_expected < 0 ||
      m.acks_received < m.acks_expected) {
    return;
  }
  L1State state = L1State::kM;
  if (!m.is_store) {
    state = m.data_kind == MsgType::kDataE ? L1State::kE : L1State::kS;
  }
  c.install(m.line, state);
  m.active = false;
  c.send(MsgType::kUnblock, m.line, c.home_of(m.line), c.self());
  c.miss_done();
}

/// A forward, invalidation, response or WBAck arriving at an L1.
template <class Core>
void at_l1(Core& c, const Message& msg) {
  const LineAddr line = msg.line;
  Miss& m = c.miss();
  switch (msg.type) {
    case MsgType::kFwdGetS: {
      bool dirty = false;
      if (L1State* s = c.find(line); s != nullptr) {
        if (*s == L1State::kM || *s == L1State::kO) {
          *s = L1State::kO;
          dirty = true;
        } else if (*s == L1State::kE) {
          *s = L1State::kS;
        } else {
          ensure(false, "FwdGetS to a non-owner L1 state");
        }
      } else {
        const Writeback* wb = c.find_writeback(line);
        if (wb == nullptr) {
          ensure(false,
                 "FwdGetS owner holds the line in neither L1 nor WB buffer");
        }
        dirty = wb->dirty;
      }
      c.send(MsgType::kData, line, msg.requestor, msg.requestor, false, -1,
             DataSource::kForward);
      c.send(MsgType::kDowngradeAck, line, c.home_of(line), msg.requestor,
             dirty);
      return;
    }

    case MsgType::kFwdGetM:
      if (c.find(line) != nullptr) {
        c.erase(line);
      } else if (c.find_writeback(line) == nullptr) {
        ensure(false,
               "FwdGetM owner holds the line in neither L1 nor WB buffer");
      }
      c.send(MsgType::kDataM, line, msg.requestor, msg.requestor, false, -1,
             DataSource::kForward);
      return;

    case MsgType::kInv:
      c.erase(line);
      c.send(MsgType::kInvAck, line, msg.requestor, msg.requestor);
      return;

    case MsgType::kData:
    case MsgType::kDataE:
    case MsgType::kDataM:
      if (!m.active || m.line != line) {
        ensure(false, "data response without a matching miss");
      }
      m.data_received = true;
      m.data_kind = msg.type;
      if (msg.source != DataSource::kNone) m.source = msg.source;
      if (msg.acks >= 0) m.acks_expected = msg.acks;
      maybe_complete_miss(c);
      return;

    case MsgType::kAckCount:
      if (!m.active || m.line != line) {
        ensure(false, "AckCount without a matching miss");
      }
      // msg.dirty == "forwarded data follows": even a sharer that holds
      // the S data must then wait for the owner's DataM, or the in-flight
      // data would land after the miss retired. Without it the home counted
      // this core as holding the data (an upgrade from S or O): it must
      // still hold it, or no data would ever come.
      if (!msg.dirty) {
        const L1State held = c.peek(line);
        if (held != L1State::kS && held != L1State::kO) {
          ensure(false, "AckCount without data to a core holding no S or O");
        }
        m.data_received = true;
      }
      m.acks_expected = msg.acks;
      maybe_complete_miss(c);
      return;

    case MsgType::kInvAck:
      ++m.acks_received;
      maybe_complete_miss(c);
      return;

    case MsgType::kWBAck:
      if (Writeback* wb = c.find_writeback(line);
          wb != nullptr && --wb->pending_acks <= 0) {
        c.drop_writeback(*wb);
      }
      return;

    default:
      ensure(false, "unexpected message type at an L1");
  }
}

// ---- Home side ----

/// Grants a fetched line to the requestor: E for a read (no other copy), M
/// for a write.
template <class Home>
void fill(Home& h, DirEntry& e, const Message& request, DataSource source) {
  e.l2_valid = true;
  e.owner = static_cast<std::uint8_t>(h.core_index(request.requestor));
  e.sharers = 0;
  MsgType grant = MsgType::kDataE;
  if (request.type == MsgType::kGetS) {
    e.state = DirState::kExclusive;
  } else {
    e.state = DirState::kModified;
    e.l2_valid = false;  // the new owner's copy supersedes L2
    grant = MsgType::kDataM;
  }
  h.send(grant, request.line, request.requestor, request.requestor, false, 0,
         source);
}

/// Runs one request (GetS, GetM, PutS, PutM) on an idle line.
template <class Home>
void request(Home& h, DirEntry& e, const Message& msg) {
  const LineAddr line = msg.line;
  switch (msg.type) {
    case MsgType::kPutS:
    case MsgType::kPutM: {
      const std::size_t s = h.core_index(msg.sender);
      if (msg.type == MsgType::kPutM && owns(e, s)) {
        h.accept_writeback(line, msg.dirty);
        e.l2_valid = true;
        if (e.state == DirState::kOwned && e.sharers != 0) {
          e.state = DirState::kShared;
        } else {
          e.state = DirState::kUncached;
          e.sharers = 0;
        }
      } else {
        // PutS, or a stale PutM: ownership moved on while it waited, and
        // its data is dropped. A FwdGetS served from the writeback buffer
        // meanwhile listed the sender as a sharer (a clean DowngradeAck),
        // but it holds no copy. A Shared line left with none is Uncached.
        e.sharers &= ~bit(s);
        if (e.state == DirState::kShared && e.sharers == 0) {
          e.state = DirState::kUncached;
        }
      }
      if (owns(e, s) || (e.sharers & bit(s)) != 0) {
        ensure(false, "a core is still listed at the home after its Put");
      }
      if (msg.type == MsgType::kPutM) {
        h.send(MsgType::kWBAck, line, msg.sender, msg.sender);
      }
      return;
    }

    case MsgType::kGetS: {
      e.busy = true;
      const std::size_t r = h.core_index(msg.requestor);
      switch (e.state) {
        case DirState::kUncached:
          if (h.fetch(msg)) fill(h, e, msg, DataSource::kL2);
          return;
        case DirState::kShared:
          if (!e.l2_valid) {
            ensure(false, "Shared line missing from L2 data array");
          }
          e.sharers |= bit(r);
          h.send(MsgType::kData, line, msg.requestor, msg.requestor, false, 0,
                 DataSource::kL2);
          return;
        case DirState::kExclusive:
        case DirState::kModified:
        case DirState::kOwned:
          if (e.owner == r) {
            ensure(false, "owner re-requested its own line (GetS)");
          }
          e.awaiting_downgrade = true;
          h.send(MsgType::kFwdGetS, line, h.core_tile(e.owner), msg.requestor);
          return;  // DowngradeAck will update the directory state
      }
      return;
    }

    case MsgType::kGetM: {
      e.busy = true;
      const std::size_t r = h.core_index(msg.requestor);
      if (e.state == DirState::kUncached) {
        if (h.fetch(msg)) fill(h, e, msg, DataSource::kL2);
        return;
      }
      if (e.state == DirState::kExclusive || e.state == DirState::kModified) {
        if (e.owner == r) {
          ensure(false, "owner re-requested its own line (GetM)");
        }
        h.send(MsgType::kFwdGetM, line, h.core_tile(e.owner), msg.requestor);
        h.send(MsgType::kAckCount, line, msg.requestor, msg.requestor,
               /*dirty=data-follows*/ true);
      } else {
        // Shared or Owned: invalidate every other sharer.
        const std::uint64_t others = e.sharers & ~bit(r);
        const auto n = static_cast<std::int32_t>(std::popcount(others));
        for (std::uint64_t rest = others; rest != 0; rest &= rest - 1) {
          const auto c = static_cast<std::size_t>(std::countr_zero(rest));
          h.send(MsgType::kInv, line, h.core_tile(c), msg.requestor);
        }
        if (e.state == DirState::kOwned && e.owner != r) {
          h.send(MsgType::kFwdGetM, line, h.core_tile(e.owner), msg.requestor);
          h.send(MsgType::kAckCount, line, msg.requestor, msg.requestor,
                 /*dirty=data-follows*/ true, n);
        } else if (e.state == DirState::kOwned || (e.sharers & bit(r)) != 0) {
          // The requestor holds the data already: the O owner upgrading to
          // M, or a sharer.
          h.send(MsgType::kAckCount, line, msg.requestor, msg.requestor,
                 false, n);
        } else {
          if (!e.l2_valid) {
            ensure(false, "Shared line missing from L2 data array");
          }
          h.send(MsgType::kDataM, line, msg.requestor, msg.requestor, false,
                 n, DataSource::kL2);
        }
      }
      e.state = DirState::kModified;
      e.owner = static_cast<std::uint8_t>(r);
      e.sharers = 0;
      e.l2_valid = false;
      return;
    }

    default:
      ensure(false, "request on a non-request message");
  }
}

/// Closes the open transaction; the next queued request may start.
template <class Home>
void close(Home& h, DirEntry& e, LineAddr line) {
  if (!e.busy) ensure(false, "Unblock without an open transaction");
  e.busy = false;
  e.awaiting_downgrade = false;
  e.downgrade_received = false;
  e.unblock_received = false;
  h.closed(line);
}

/// A message arriving at the line's home.
template <class Home>
void at_home(Home& h, DirEntry& e, const Message& msg) {
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetM:
    case MsgType::kPutS:
    case MsgType::kPutM:
      // Queue behind any earlier waiters even when the line is idle (a
      // queued request may be on its way back): FIFO per line.
      if (e.busy || e.pending_count != 0) {
        h.defer(msg);
        return;
      }
      request(h, e, msg);
      return;

    case MsgType::kDowngradeAck:
      if (!e.busy || !e.awaiting_downgrade) {
        ensure(false, "DowngradeAck outside a forward transaction");
      }
      e.sharers |= bit(h.core_index(msg.requestor));
      if (msg.dirty) {
        e.state = DirState::kOwned;
      } else {
        e.state = DirState::kShared;
        e.sharers |= bit(e.owner);
      }
      e.downgrade_received = true;
      if (e.unblock_received) close(h, e, msg.line);
      return;

    case MsgType::kUnblock:
      if (e.awaiting_downgrade && !e.downgrade_received) {
        e.unblock_received = true;  // wait for the owner's DowngradeAck
        return;
      }
      close(h, e, msg.line);
      return;

    default:
      ensure(false, "unexpected message type at a home bank");
  }
}

}  // namespace aqua::coherence
