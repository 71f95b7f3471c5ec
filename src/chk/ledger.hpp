// V-check layer 1: the sim race detector's bookkeeping (DESIGN.md 4e).
//
// The whole simulation is one OS thread, so ThreadSanitizer is structurally
// blind to cross-process sharing violations: two sim processes "race" when
// one mutates shared server state that another still relies on across a
// suspension point, or when a team worker mutates a (context, leaf) entry
// without holding its serialization gate.  The Ledger records who holds
// which gate and CellState records who is reading/writing which shared cell
// between yield points; violations surface as RaceError thrown in the
// offending fiber, whose report names both sim processes, their server and
// the sim timestamps involved.
//
// Zero-cost when disabled: configure with -DV_CHECKS=OFF (the "chk-off"
// preset) and every type here collapses to an empty inline no-op, so call
// sites compile identically and the release binary carries no chk symbols.
//
// Layering: this header depends only on the standard library so the kernel
// (ipc/kernel.hpp) can embed a Ledger without a cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#ifndef V_CHECKS_ENABLED
#define V_CHECKS_ENABLED 1
#endif

namespace v::chk {

/// True when the V-check tooling is compiled in (V_CHECKS=ON, the default).
constexpr bool enabled() noexcept { return V_CHECKS_ENABLED != 0; }

/// Thrown in the violating fiber when the race detector finds a sharing
/// violation.  The message is the full report; it propagates out of the
/// fiber and lands in Domain::first_failure() for tests to assert on.
struct RaceError : std::runtime_error {
  explicit RaceError(const std::string& report)
      : std::runtime_error(report) {}
};

#if V_CHECKS_ENABLED

/// Per-domain record of which sim process holds which (server, ctx, leaf)
/// mutation gate.  GateLock acquisition/release keeps it current; servers
/// call check_gated_write() from every name-space mutation hook.
class Ledger {
 public:
  /// Evidence of a gate-discipline violation: who (if anyone) held the
  /// gate the mutator should have owned.  holder_pid == 0 means the
  /// mutation ran with the gate entirely unheld.
  struct GateViolation {
    std::uint32_t holder_pid = 0;
    std::uint64_t holder_since = 0;
  };

  /// Record `pid` as the (server, ctx, leaf) gate's holder.  A hand-off
  /// to the next waiter overwrites the entry in place; only a gate's first
  /// acquisition copies `leaf` into a new entry.
  void gate_acquired(const void* server, std::uint32_t ctx,
                     std::string_view leaf, std::uint32_t pid,
                     std::uint64_t now) {
    ++acquisitions_;
    const KeyView view{server, ctx, leaf};
    if (const auto it = holders_.find(view); it != holders_.end()) {
      it->second = Holder{pid, now};
      return;
    }
    holders_.emplace(Key{server, ctx, std::string(leaf)}, Holder{pid, now});
  }

  void gate_released(const void* server, std::uint32_t ctx,
                     std::string_view leaf) {
    if (const auto it = holders_.find(KeyView{server, ctx, leaf});
        it != holders_.end()) {
      holders_.erase(it);
    }
  }

  /// Drop every gate record for `server` (a re-spawned server clears its
  /// gates_ map; holders from the previous incarnation are meaningless).
  void forget_server(const void* server) {
    std::erase_if(holders_, [server](const auto& kv) {
      return kv.first.server == server;
    });
  }

  /// Verify that `pid` holds the (server, ctx, leaf) gate.  Returns the
  /// violation evidence when it does not; the caller composes the report
  /// (it can map pids to names) and throws RaceError.  The lookup is by
  /// view: checking a write builds no string.
  [[nodiscard]] std::optional<GateViolation> check_gated_write(
      const void* server, std::uint32_t ctx, std::string_view leaf,
      std::uint32_t pid) {
    ++writes_checked_;
    const auto it = holders_.find(KeyView{server, ctx, leaf});
    if (it == holders_.end()) return GateViolation{};
    if (it->second.pid != pid) {
      return GateViolation{it->second.pid, it->second.since};
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t gate_acquisitions() const noexcept {
    return acquisitions_;
  }
  [[nodiscard]] std::uint64_t gated_writes_checked() const noexcept {
    return writes_checked_;
  }

 private:
  struct Holder {
    std::uint32_t pid = 0;
    std::uint64_t since = 0;
  };
  struct KeyView {
    const void* server;
    std::uint32_t ctx;
    std::string_view leaf;
  };
  struct Key {
    const void* server;
    std::uint32_t ctx;
    std::string leaf;
    operator KeyView() const noexcept { return {server, ctx, leaf}; }
  };
  /// Hash and equality over KeyView, which both key forms convert to
  /// (heterogeneous lookup): a probe by view never materializes a Key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(KeyView k) const noexcept {
      std::size_t h = std::hash<std::string_view>{}(k.leaf);
      h ^= std::hash<const void*>{}(k.server) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      h ^= std::hash<std::uint32_t>{}(k.ctx) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      return h;
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(KeyView a, KeyView b) const noexcept {
      return a.server == b.server && a.ctx == b.ctx && a.leaf == b.leaf;
    }
  };

  // Hashed, never iterated in an order that matters: forget_server only
  // decides which entries die.
  std::unordered_map<Key, Holder, KeyHash, KeyEq> holders_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t writes_checked_ = 0;
};

/// Reader/writer bookkeeping for one shared cell (a server table, queue or
/// buffer).  Accesses are registered through AccessGuard (shared_cell.hpp);
/// an access that stays registered across a suspension point conflicts with
/// any overlapping access by a DIFFERENT sim process.  Same-process
/// accesses never conflict (one fiber cannot race itself) and may nest.
class CellState {
 public:
  explicit CellState(std::string_view label) : label_(label) {}

  /// The access that an attempted begin_read/begin_write collided with.
  struct Conflict {
    std::uint32_t pid = 0;
    std::uint64_t since = 0;
    bool writer = false;
  };

  /// Register a reader.  Fails (returns the conflicting access, registers
  /// nothing) when another process has an outstanding write.
  [[nodiscard]] std::optional<Conflict> begin_read(std::uint32_t pid,
                                                   std::uint64_t now) {
    for (const Access& w : writers_) {
      if (w.pid != pid) return Conflict{w.pid, w.since, true};
    }
    readers_.push_back(Access{pid, now});
    return std::nullopt;
  }

  void end_read(std::uint32_t pid) { unregister(readers_, pid); }

  /// Register a writer.  Fails when another process has an outstanding
  /// read OR write (write/write and read/write are both races).
  [[nodiscard]] std::optional<Conflict> begin_write(std::uint32_t pid,
                                                    std::uint64_t now) {
    for (const Access& w : writers_) {
      if (w.pid != pid) return Conflict{w.pid, w.since, true};
    }
    for (const Access& r : readers_) {
      if (r.pid != pid) return Conflict{r.pid, r.since, false};
    }
    writers_.push_back(Access{pid, now});
    return std::nullopt;
  }

  void end_write(std::uint32_t pid) { unregister(writers_, pid); }

  [[nodiscard]] const std::string& label() const noexcept { return label_; }

 private:
  struct Access {
    std::uint32_t pid = 0;
    std::uint64_t since = 0;
  };

  static void unregister(std::vector<Access>& list, std::uint32_t pid) {
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
      if (it->pid == pid) {
        list.erase(std::next(it).base());
        return;
      }
    }
  }

  std::string label_;
  std::vector<Access> readers_;
  std::vector<Access> writers_;
};

#else  // !V_CHECKS_ENABLED — inline no-ops, optimized away entirely.

class Ledger {
 public:
  struct GateViolation {
    std::uint32_t holder_pid = 0;
    std::uint64_t holder_since = 0;
  };
  void gate_acquired(const void*, std::uint32_t, std::string_view,
                     std::uint32_t, std::uint64_t) noexcept {}
  void gate_released(const void*, std::uint32_t,
                     std::string_view) noexcept {}
  void forget_server(const void*) noexcept {}
  [[nodiscard]] std::optional<GateViolation> check_gated_write(
      const void*, std::uint32_t, std::string_view,
      std::uint32_t) noexcept {
    return std::nullopt;
  }
  [[nodiscard]] std::uint64_t gate_acquisitions() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t gated_writes_checked() const noexcept {
    return 0;
  }
};

class CellState {
 public:
  explicit CellState(std::string_view) noexcept {}
  struct Conflict {
    std::uint32_t pid = 0;
    std::uint64_t since = 0;
    bool writer = false;
  };
  [[nodiscard]] std::optional<Conflict> begin_read(std::uint32_t,
                                                   std::uint64_t) noexcept {
    return std::nullopt;
  }
  void end_read(std::uint32_t) noexcept {}
  [[nodiscard]] std::optional<Conflict> begin_write(std::uint32_t,
                                                    std::uint64_t) noexcept {
    return std::nullopt;
  }
  void end_write(std::uint32_t) noexcept {}
};

#endif  // V_CHECKS_ENABLED

}  // namespace v::chk
