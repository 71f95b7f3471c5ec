// Client-side validated resolution cache.
//
// The paper argues AGAINST client caching of name resolutions (section
// 2.2): "Caching the name in the client would introduce inconsistency
// problems and only benefit the few applications that reuse names."  The
// first version of this class implemented the cache naively so the claim
// could be measured — and the test suite demonstrated exactly the silent
// wrong answers the paper predicted.
//
// This version answers the objection with *verification on use*
// (DESIGN.md 4g).  Each entry maps the DIRECTORY part of a name to a
// generation-stamped binding:
//
//   dir -> { (server pid, context id), generation, chars consumed, origin }
//
// learned for free from the binding hint piggybacked on successful CSname
// replies (PROTOCOL.md 11).  A cached open goes straight to the final
// server carrying the expected generation; if any gated mutation of a
// context-valued entry has touched that context since, the server answers
// kStaleContext instead of interpreting, and the runtime transparently
// falls back to a full resolution.  (A plain file's create, remove or
// rename needs no refusal: the hit interprets the leaf afresh.)  Because
// generations are drawn from one domain-wide monotone sequence, a
// restarted server — or an impostor on a recycled pid — can never echo a
// stale generation back into validity.
//
// `origin` records the entry binding the resolution travelled through
// (normally the context prefix server's table context).  Whenever a newer
// generation is observed for an origin (e.g. the reply to this client's own
// AddContextName/DeleteContextName), every entry that depended on an older
// generation of that origin is dropped — so this client's prefix-table
// edits invalidate the bindings they routed.
//
// What is NOT guaranteed: a hit validates only the final context, so a
// change to a context-valued entry the walk consumed on ANOTHER server
// goes unseen.  Two walk shapes can therefore answer wrongly (DESIGN.md
// 4g): a cross-server link below the origin whose link, or a directory
// above it, is renamed; and a prefix-table edit made by another client
// that does not share this cache.  (A `..` followed by more directory
// components carries no binding hint, so such walks are never cached.)
//
// Admission (TinyLFU: Einziger, Friedman & Manes, ACM TOS 2017).  Entries
// live in a fixed array of `capacity` slots, found through an open-
// addressed index and threaded on an intrusive recency list.  Every find
// bumps a count-min sketch of the directory's recent popularity, and every
// counter is halved after 10 x capacity finds, so the sketch forgets.  When
// the cache is full, a new directory replaces the least-recently-used
// entry only if the sketch ranks it strictly more popular; otherwise the
// newcomer is not cached.  A free slot (below capacity, or after an erase)
// admits without comparison.  Admission changes only WHICH directories are
// cached, never what a reply says: every hit is still validated.  The
// sketch hashes the name bytes (FNV-1a), so runs are deterministic per
// seed, and a hit allocates nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "ipc/kernel.hpp"
#include "naming/types.hpp"

namespace v::svc {

class NameCache {
 public:
  /// A validated directory binding: where to send, what generation to
  /// expect, and where the leaf starts in a name of this directory.
  struct Binding {
    naming::ContextPair target;      ///< final server + context
    std::uint32_t generation = 0;    ///< target context's gen when learned
    std::uint16_t consumed = 0;      ///< name bytes before the leaf
    ipc::BindingHint origin;         ///< entry binding the walk went through
  };

  explicit NameCache(std::size_t capacity = 64)
      : slots_(capacity),
        index_(std::bit_ceil(std::max<std::size_t>(2 * capacity, 2)), kNil),
        sketch_(capacity) {
    // Every slot starts on the free list.
    for (std::size_t i = 0; i < capacity; ++i) {
      slots_[i].next = i + 1 < capacity ? static_cast<std::uint32_t>(i + 1)
                                        : kNil;
    }
    free_ = capacity > 0 ? 0 : kNil;
  }

  /// Cached binding for a directory name, if present (refreshes recency).
  /// Counts one access in the admission sketch either way.
  std::optional<Binding> find(std::string_view dir) {
    const std::uint64_t hash = fnv1a(dir);
    sketch_.record(hash);
    const std::uint32_t slot = lookup(dir, hash);
    if (slot == kNil) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    unlink(slot);
    push_front(slot);
    return slots_[slot].binding;
  }

  /// Remember `dir` -> `binding`.  A full cache admits a new directory only
  /// when the sketch ranks it above the least-recently-used entry, which it
  /// then evicts.
  void put(std::string_view dir, const Binding& binding) {
    const std::uint64_t hash = fnv1a(dir);
    std::uint32_t slot = lookup(dir, hash);
    if (slot != kNil) {
      slots_[slot].binding = binding;
      unlink(slot);
      push_front(slot);
      return;
    }
    if (free_ == kNil) {
      if (tail_ == kNil ||
          sketch_.estimate(hash) <= sketch_.estimate(slots_[tail_].hash)) {
        ++refused_;
        return;
      }
      drop(tail_);
    }
    slot = free_;
    free_ = slots_[slot].next;
    Slot& s = slots_[slot];
    s.key.assign(dir);  // reuses the evicted key's buffer when it fits
    s.hash = hash;
    s.binding = binding;
    push_front(slot);
    index_insert(slot);
    ++size_;
  }

  /// Drop an entry whose binding was refused (kStaleContext /
  /// kInvalidContext / kNoReply).
  void erase(std::string_view dir) {
    const std::uint32_t slot = lookup(dir, fnv1a(dir));
    if (slot == kNil) return;
    ++invalidations_;
    drop(slot);
  }

  /// Record an observed origin generation (from any hinted reply).  When it
  /// is NEWER than the last one seen for that (server, context) — the
  /// origin's table changed — drop every entry that was resolved through an
  /// older generation of it.
  void observe_origin(const ipc::BindingHint& origin) {
    if (!origin.valid()) return;
    const auto [it, inserted] = origins_.try_emplace(
        origin_key(origin.server_pid, origin.context_id));
    if (!inserted && origin.generation <= it->second) return;
    it->second = origin.generation;
    for (std::uint32_t slot = head_, next = kNil; slot != kNil; slot = next) {
      next = slots_[slot].next;
      const ipc::BindingHint& dep = slots_[slot].binding.origin;
      if (dep.valid() && dep.server_pid == origin.server_pid &&
          dep.context_id == origin.context_id &&
          dep.generation < origin.generation) {
        ++invalidations_;
        drop(slot);
      }
    }
  }

  /// Counter hooks for the runtime: a kStaleContext refusal, and a
  /// transparent fallback to full resolution (any refused binding).
  void note_stale() noexcept { ++stale_; }
  void note_fallback() noexcept { ++fallbacks_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_;
  }
  [[nodiscard]] std::uint64_t stale() const noexcept { return stale_; }
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }
  /// New directories a full cache declined to admit.
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    std::string key;
    std::uint64_t hash = 0;
    Binding binding;
    std::uint32_t prev = kNil;  ///< toward the most recently used
    std::uint32_t next = kNil;  ///< toward the least recently used; free list
  };

  /// Count-min sketch: four rows, each a power of two at least 4 x capacity
  /// wide, of counters that saturate at 15 (TinyLFU's 4-bit counters, a
  /// byte each here).  Every counter is halved after 10 x capacity records
  /// (TinyLFU's reset), so estimates track recent popularity.
  class Sketch {
   public:
    explicit Sketch(std::size_t capacity)
        : mask_(std::bit_ceil(std::max<std::size_t>(4 * capacity, 16)) - 1),
          counters_(kRows * (mask_ + 1), 0),
          period_(std::max<std::size_t>(10 * capacity, 1)) {}

    void record(std::uint64_t hash) noexcept {
      for (std::size_t row = 0; row < kRows; ++row) {
        std::uint8_t& c = counters_[cell(hash, row)];
        if (c < kMax) ++c;
      }
      if (++recorded_ == period_) {
        recorded_ = 0;
        for (auto& c : counters_) c >>= 1;
      }
    }
    [[nodiscard]] std::uint8_t estimate(std::uint64_t hash) const noexcept {
      std::uint8_t low = kMax;
      for (std::size_t row = 0; row < kRows; ++row) {
        low = std::min(low, counters_[cell(hash, row)]);
      }
      return low;
    }

   private:
    static constexpr std::size_t kRows = 4;
    static constexpr std::uint8_t kMax = 15;

    /// Row `row`'s counter for `hash`: double hashing over the two halves.
    [[nodiscard]] std::size_t cell(std::uint64_t hash,
                                   std::size_t row) const noexcept {
      const auto lo = static_cast<std::uint32_t>(hash);
      const auto hi = static_cast<std::uint32_t>(hash >> 32) | 1u;
      return row * (mask_ + 1) + ((lo + row * hi) & mask_);
    }

    std::size_t mask_;
    std::vector<std::uint8_t> counters_;
    std::size_t period_;
    std::size_t recorded_ = 0;
  };

  /// FNV-1a over the name bytes, finished with splitmix64's mixer so that
  /// names differing in one trailing byte spread over the whole index.
  static std::uint64_t fnv1a(std::string_view s) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

  /// (server pid, context id) packed into one FlatMap key.
  static constexpr std::uint64_t origin_key(std::uint32_t server_pid,
                                            std::uint32_t context_id) {
    return (std::uint64_t{server_pid} << 32) | context_id;
  }

  [[nodiscard]] std::size_t index_mask() const noexcept {
    return index_.size() - 1;
  }

  /// Slot holding `dir`, or kNil.  Linear probing; the index is at most
  /// half full, so a probe ends at an empty cell within a few steps.
  [[nodiscard]] std::uint32_t lookup(std::string_view dir,
                                     std::uint64_t hash) const noexcept {
    for (std::size_t i = hash & index_mask();; i = (i + 1) & index_mask()) {
      const std::uint32_t slot = index_[i];
      if (slot == kNil) return kNil;
      if (slots_[slot].hash == hash && slots_[slot].key == dir) return slot;
    }
  }

  void index_insert(std::uint32_t slot) noexcept {
    std::size_t i = slots_[slot].hash & index_mask();
    while (index_[i] != kNil) i = (i + 1) & index_mask();
    index_[i] = slot;
  }

  /// Delete `slot`'s index cell by backward shift: later cells of the same
  /// probe run move up, so lookups never need tombstones.
  void index_erase(std::uint32_t slot) noexcept {
    std::size_t i = slots_[slot].hash & index_mask();
    while (index_[i] != slot) i = (i + 1) & index_mask();
    for (std::size_t j = (i + 1) & index_mask(); index_[j] != kNil;
         j = (j + 1) & index_mask()) {
      const std::size_t home = slots_[index_[j]].hash & index_mask();
      // Move j's entry into the hole unless its home lies cyclically in
      // (i, j], where the hole would break no probe path to it.
      const bool stays = i <= j ? (i < home && home <= j)
                                : (i < home || home <= j);
      if (stays) continue;
      index_[i] = index_[j];
      i = j;
    }
    index_[i] = kNil;
  }

  void push_front(std::uint32_t slot) noexcept {
    slots_[slot].prev = kNil;
    slots_[slot].next = head_;
    if (head_ != kNil) slots_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNil) tail_ = slot;
  }

  void unlink(std::uint32_t slot) noexcept {
    const Slot& s = slots_[slot];
    (s.prev != kNil ? slots_[s.prev].next : head_) = s.next;
    (s.next != kNil ? slots_[s.next].prev : tail_) = s.prev;
  }

  /// Evict `slot`: out of the index and the recency list, onto the free
  /// list.  Its key keeps its buffer for the next put.
  void drop(std::uint32_t slot) noexcept {
    index_erase(slot);
    unlink(slot);
    slots_[slot].next = free_;
    free_ = slot;
    --size_;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;  ///< slot numbers, kNil = empty cell
  Sketch sketch_;
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< least recently used: the victim
  std::uint32_t free_ = kNil;
  std::size_t size_ = 0;
  FlatMap<std::uint64_t, std::uint32_t> origins_;  ///< latest observed gens
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace v::svc
