// Tests for the client name cache (the paper-section-2.2 ablation): the
// mechanics of hit/miss/admission, the latency benefit under reuse, the
// graceful recovery from detectable staleness, and — since bindings are
// generation validated — the DETECTION of the reused-context-id hazard that
// used to produce silent wrong answers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "naming/protocol.hpp"
#include "svc/name_cache.hpp"
#include "v_fixture.hpp"
#include "wload/rng.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using svc::NameCache;
using test::VFixture;

NameCache::Binding binding(naming::ContextPair target,
                           std::uint32_t generation = 1,
                           std::uint16_t consumed = 0) {
  return NameCache::Binding{target, generation, consumed, {}};
}

// --- unit mechanics -------------------------------------------------------------

TEST(NameCacheUnit, HitMissAndCounters) {
  NameCache cache(8);
  const naming::ContextPair target{ipc::ProcessId::make(1, 2), 7};
  EXPECT_FALSE(cache.find("usr/mann").has_value());
  cache.put("usr/mann", binding(target, 42, 9));
  auto hit = cache.find("usr/mann");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->target, target);
  EXPECT_EQ(hit->generation, 42u);
  EXPECT_EQ(hit->consumed, 9u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// Admission (TinyLFU): a full cache replaces its least-recently-used entry
// only with a directory the sketch ranks more popular.

TEST(NameCacheUnit, HotterNewcomerEvictsLruVictim) {
  NameCache cache(3);
  const auto t = binding({ipc::ProcessId::make(1, 1), 0});
  cache.put("a", t);
  cache.put("b", t);
  cache.put("c", t);
  (void)cache.find("a");  // refresh "a": "b" is now least recently used
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(cache.find("d").has_value());
  cache.put("d", t);  // "d" (3 finds) outranks "b" (none): evicts it
  EXPECT_EQ(cache.refused(), 0u);
  EXPECT_TRUE(cache.find("a").has_value());
  EXPECT_FALSE(cache.find("b").has_value());
  EXPECT_TRUE(cache.find("c").has_value());
  EXPECT_TRUE(cache.find("d").has_value());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(NameCacheUnit, ColderNewcomerIsRefused) {
  NameCache cache(3);
  const auto t = binding({ipc::ProcessId::make(1, 1), 0});
  for (const char* dir : {"a", "b", "c"}) {
    cache.put(dir, t);
    for (int i = 0; i < 2; ++i) EXPECT_TRUE(cache.find(dir).has_value());
  }
  EXPECT_FALSE(cache.find("d").has_value());
  cache.put("d", t);  // one find against the victim's two: not cached
  EXPECT_EQ(cache.refused(), 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.find("d").has_value());
  for (const char* dir : {"a", "b", "c"}) {
    EXPECT_TRUE(cache.find(dir).has_value()) << dir;
  }
}

TEST(NameCacheUnit, FreeSlotAdmitsWithoutComparison) {
  NameCache cache(2);
  const auto t = binding({ipc::ProcessId::make(1, 1), 0});
  // Below capacity, never-seen directories are admitted.
  cache.put("a", t);
  cache.put("b", t);
  EXPECT_EQ(cache.size(), 2u);
  for (int i = 0; i < 4; ++i) {
    (void)cache.find("a");
    (void)cache.find("b");
  }
  cache.put("cold", t);  // full: refused against a hotter victim
  EXPECT_EQ(cache.refused(), 1u);
  // An erase frees a slot, and the cold directory takes it unranked.
  cache.erase("a");
  cache.put("cold", t);
  EXPECT_EQ(cache.refused(), 1u);
  EXPECT_TRUE(cache.find("cold").has_value());
  EXPECT_TRUE(cache.find("b").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NameCacheUnit, HalvingAgesOutFormerFavorites) {
  // One slot, so every 10 finds halve the sketch.  "a" was hot before the
  // halving, "b" is hot after it: b's five recent finds outrank a's nine
  // old ones, which now count four.
  NameCache cache(1);
  const auto t = binding({ipc::ProcessId::make(1, 1), 0});
  cache.put("a", t);
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(cache.find("a").has_value());
  EXPECT_FALSE(cache.find("b").has_value());  // 10th find: halve
  cache.put("b", t);                          // b 0 against a 4
  EXPECT_EQ(cache.refused(), 1u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(cache.find("b").has_value());
  cache.put("b", t);                          // b 5 against a 4
  EXPECT_EQ(cache.refused(), 1u);
  EXPECT_TRUE(cache.find("b").has_value());
  EXPECT_FALSE(cache.find("a").has_value());
}

TEST(NameCacheUnit, ZipfReplayHitRatioBeatsLru) {
  // cached-mutate's shape: 32 prefixes at Zipf 0.9, four directories each,
  // against a 32-entry cache.  Plain LRU scores about 0.47 here and the
  // static top-32 set about 0.62; admission must recover most of the gap.
  constexpr std::size_t kPrefixes = 32;
  constexpr std::size_t kDirsPerPrefix = 4;
  std::vector<std::string> dirs;
  for (std::size_t p = 0; p < kPrefixes; ++p) {
    for (std::size_t d = 0; d < kDirsPerPrefix; ++d) {
      dirs.push_back("[vol]n/p" + std::to_string(p) + "/d" +
                     std::to_string(d));
    }
  }
  const wload::Zipf zipf(kPrefixes, 0.9);
  wload::Splitmix64 rng(0x5eed);
  NameCache cache(32);
  const auto t = binding({ipc::ProcessId::make(1, 1), 0});
  for (int i = 0; i < 200000; ++i) {
    const std::string& dir =
        dirs[zipf.sample(rng) * kDirsPerPrefix + rng.below(kDirsPerPrefix)];
    if (!cache.find(dir).has_value()) cache.put(dir, t);
  }
  const double ratio = static_cast<double>(cache.hits()) /
                       static_cast<double>(cache.hits() + cache.misses());
  EXPECT_GE(ratio, 0.57);
  EXPECT_GE(cache.refused(), 1u);
  EXPECT_EQ(cache.size(), 32u);
}

TEST(NameCacheUnit, EraseCountsInvalidations) {
  NameCache cache(4);
  cache.put("x", binding({ipc::ProcessId::make(1, 1), 0}));
  cache.erase("x");
  cache.erase("x");  // second erase of a missing entry is a no-op
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_FALSE(cache.find("x").has_value());
}

TEST(NameCacheUnit, NewerOriginGenerationSweepsDependents) {
  NameCache cache(8);
  const ipc::BindingHint prefix_gen5{/*server_pid=*/77, /*context_id=*/0,
                                     /*generation=*/5, /*consumed=*/0};
  auto via_prefix = binding({ipc::ProcessId::make(1, 2), 3}, 10, 7);
  via_prefix.origin = prefix_gen5;
  cache.put("[home]src", via_prefix);
  cache.put("usr/mann", binding({ipc::ProcessId::make(1, 2), 4}, 11, 9));

  // Observing the same generation again changes nothing.
  cache.observe_origin(prefix_gen5);
  EXPECT_EQ(cache.size(), 2u);

  // A newer generation of the prefix table drops the entry that was
  // resolved through it — and only that one.
  cache.observe_origin(ipc::BindingHint{77, 0, 6, 0});
  EXPECT_FALSE(cache.find("[home]src").has_value());
  EXPECT_TRUE(cache.find("usr/mann").has_value());
  EXPECT_EQ(cache.invalidations(), 1u);
}

// --- behaviour through the protocol ---------------------------------------------

TEST(NameCacheRt, ReusedDirectoryHitsSkipInterpretation) {
  VFixture fx;
  fx.run_client([](ipc::Process self, svc::Rt rt) -> Co<void> {
    NameCache cache;
    // First open resolves the full path and populates the cache.
    auto t0 = self.now();
    auto first = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                         kOpenRead);
    const auto cold = self.now() - t0;
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // Second open of a sibling hits the cache: only the leaf travels.
    t0 = self.now();
    auto second = co_await rt.open_cached(cache, "usr/mann/paper.mss",
                                          kOpenRead);
    const auto warm = self.now() - t0;
    EXPECT_TRUE(second.ok());
    if (second.ok()) {
      svc::File f = second.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stale(), 0u);  // generation still current: validated hit
    EXPECT_LT(warm, cold);         // fewer components interpreted
  });
}

TEST(NameCacheRt, WorksAcrossPrefixesAndLinks) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    // Through the prefix server AND a cross-server link: the cache ends up
    // holding beta's context although the name names alpha's prefix.
    auto first = co_await rt.open_cached(
        cache, "[home]proj/readme", kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(f.server(), fx.beta_pid);
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    auto again = co_await rt.open_cached(
        cache, "[home]proj/readme", kOpenRead);
    EXPECT_TRUE(again.ok());
    if (again.ok()) {
      svc::File f = again.take();
      EXPECT_EQ(f.server(), fx.beta_pid);  // straight to beta this time
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.hits(), 1u);
  });
}

TEST(NameCacheRt, DeadServerEntryInvalidatesAndRecovers) {
  VFixture fx;
  fx.dom.loop().schedule_at(50 * kMillisecond, [&fx] { fx.fs2.crash(); });
  fx.run_client([&fx](ipc::Process self, svc::Rt rt) -> Co<void> {
    NameCache cache;
    auto first = co_await rt.open_cached(cache, "[beta]pub/readme",
                                         kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    co_await self.delay(100 * kMillisecond);  // beta dies
    // The cached entry points at the dead beta: detectably stale
    // (kNoReply), invalidated, and the full walk reports the truth.
    auto second = co_await rt.open_cached(cache, "[beta]pub/readme",
                                          kOpenRead);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(cache.invalidations(), 1u);
    EXPECT_EQ(cache.fallbacks(), 1u);
    EXPECT_EQ(cache.size(), 0u);
  });
}

TEST(NameCacheRt, ReusedContextIdDetectedByGeneration) {
  // THE inconsistency of paper section 2.2: a restarted server hands out
  // the same context ids for a DIFFERENT directory tree.  The unvalidated
  // cache served the impostor's bytes with no error anywhere; with
  // generation-stamped bindings the impostor's contexts carry generations
  // from a fresh domain-wide floor, so the cached open is REFUSED with
  // kStaleContext instead of being misinterpreted.
  VFixture fx;
  servers::FileServer impostor("alpha-v2", servers::DiskModel::kMemory,
                               /*register_service=*/false);
  // Same shape, different content: inode/context ids coincide with the
  // original alpha's because allocation is deterministic.
  impostor.put_file("usr/mann/naming.mss", "IMPOSTOR CONTENT");
  impostor.put_file("usr/mann/paper.mss", "IMPOSTOR CONTENT");
  ipc::ProcessId impostor_pid;

  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    NameCache cache;
    auto first = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                         kOpenRead);
    EXPECT_TRUE(first.ok());
    if (first.ok()) {
      svc::File f = first.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // alpha's host crashes; a different file server reappears there.  To
    // model pid reuse (spatially unique, NOT unique in time — section
    // 4.1), the client's cache entry is rewritten to the impostor's pid,
    // keeping the context id and generation it learned from the original.
    fx.fs1.crash();
    fx.fs1.restart();
    impostor_pid = fx.fs1.spawn(
        "alpha-v2", [&](ipc::Process p) { return impostor.run(p); });
    co_await self.delay(kMillisecond);
    auto stale = cache.find("usr/mann");
    EXPECT_TRUE(stale.has_value());
    if (!stale.has_value()) co_return;
    auto rewritten = *stale;
    rewritten.target.server = impostor_pid;
    cache.put("usr/mann", rewritten);

    // The impostor holds a valid context with the SAME id, but its
    // generation comes from a fresh incarnation floor: the cached open is
    // refused (kStaleContext), the entry dropped, and the fallback walk —
    // aimed at the dead original server — reports failure loudly instead
    // of handing back the impostor's bytes.
    auto refused = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                           kOpenRead);
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(cache.stale(), 1u);
    EXPECT_EQ(cache.fallbacks(), 1u);
    EXPECT_EQ(cache.size(), 0u);

    // Once the client legitimately adopts the new server as its current
    // context, resolution works and the cache re-learns a binding under
    // the impostor's own generation — subsequent hits validate cleanly.
    rt.set_current({impostor_pid, naming::kDefaultContext});
    auto adopted = co_await rt.open_cached(cache, "usr/mann/naming.mss",
                                           kOpenRead);
    EXPECT_TRUE(adopted.ok());
    if (!adopted.ok()) co_return;
    svc::File f = adopted.take();
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) {
      EXPECT_EQ(std::string(
                    reinterpret_cast<const char*>(bytes.value().data()),
                    bytes.value().size()),
                "IMPOSTOR CONTENT");
    }
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    auto warm = co_await rt.open_cached(cache, "usr/mann/paper.mss",
                                        kOpenRead);
    EXPECT_TRUE(warm.ok());
    if (warm.ok()) {
      svc::File g = warm.take();
      EXPECT_EQ(co_await g.close(), ReplyCode::kOk);
    }
    // Three hits: the manual lookup, the refused open, the validated warm
    // open of the sibling.  Exactly one refusal ever happened.
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.stale(), 1u);
  });
}

TEST(NameCacheRt, CurrentContextNamesAreNotCached) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    EXPECT_EQ(co_await rt.change_context("usr/mann"), ReplyCode::kOk);
    auto opened = co_await rt.open_cached(cache, "naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(cache.size(), 0u);  // single-component names: nothing to cache
  });
}

}  // namespace
}  // namespace v
