// FlatMap edge cases around tombstone erase (added alongside V-lint):
// slot reuse after erase, rehash correctness under mixed insert/erase
// churn, and lookups probing a table at maximum load.  A std::map shadow
// model keeps every churn test honest about the expected contents.
#include <cstdint>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "common/flat_map.hpp"

namespace v {
namespace {

TEST(FlatMap, EraseRemovesOnlyTheKey) {
  FlatMap<std::uint64_t, int> m;
  m[1] = 10;
  m[2] = 20;
  m[3] = 30;
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(2), m.end());
  ASSERT_NE(m.find(1), m.end());
  EXPECT_EQ(m.find(1)->second, 10);
  ASSERT_NE(m.find(3), m.end());
  EXPECT_EQ(m.find(3)->second, 30);
  // Erasing a missing or already-erased key is a no-op.
  EXPECT_EQ(m.erase(2), 0u);
  EXPECT_EQ(m.erase(99), 0u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, FindWalksThroughTombstones) {
  // Three keys forced onto one probe chain (same home slot after masking
  // is not guaranteed, so build a chain the hard way: fill, then erase the
  // middle of every adjacent pair and confirm the survivors stay visible).
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 12; ++k) m[k] = static_cast<int>(k);
  for (std::uint64_t k = 0; k < 12; k += 2) EXPECT_EQ(m.erase(k), 1u);
  for (std::uint64_t k = 1; k < 12; k += 2) {
    ASSERT_NE(m.find(k), m.end()) << "key " << k << " lost behind tombstone";
    EXPECT_EQ(m.find(k)->second, static_cast<int>(k));
  }
  for (std::uint64_t k = 0; k < 12; k += 2) {
    EXPECT_EQ(m.find(k), m.end());
  }
}

TEST(FlatMap, InsertReusesTombstones) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 8; ++k) m[k] = static_cast<int>(k);
  // Erase and reinsert the same keys many times over: with tombstone reuse
  // (and compaction on rehash) the table must not grow without bound while
  // the live count stays fixed.
  for (int round = 0; round < 10000; ++round) {
    const std::uint64_t k = static_cast<std::uint64_t>(round % 8);
    EXPECT_EQ(m.erase(k), 1u);
    m[k] = round;
    ASSERT_EQ(m.size(), 8u);
  }
  for (std::uint64_t k = 0; k < 8; ++k) {
    ASSERT_NE(m.find(k), m.end());
  }
}

TEST(FlatMap, MixedChurnMatchesMapModel) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> model;
  std::mt19937_64 rng(0x5eedULL);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng() % 512;  // heavy collisions
    switch (rng() % 3) {
      case 0:
      case 1: {  // insert-or-assign, twice as likely as erase
        const std::uint64_t val = rng();
        m[key] = val;
        model[key] = val;
        break;
      }
      case 2: {
        EXPECT_EQ(m.erase(key), model.erase(key));
        break;
      }
    }
    ASSERT_EQ(m.size(), model.size());
  }
  for (const auto& [key, val] : model) {
    auto* it = m.find(key);
    ASSERT_NE(it, m.end()) << "key " << key << " missing after churn";
    EXPECT_EQ(it->second, val);
  }
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (model.find(key) == model.end()) {
      EXPECT_EQ(m.find(key), m.end()) << "ghost key " << key;
    }
  }
}

TEST(FlatMap, LookupAtMaxLoad) {
  // reserve(n) promises the first n inserts never rehash, which parks the
  // table exactly at its 7/8 load ceiling: every probe chain is as long as
  // it will ever get.  All keys must still be found, and misses must still
  // terminate (an empty slot is guaranteed below capacity).
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kCount = 448;  // 7/8 of a 512-slot table
  m.reserve(kCount);
  for (std::uint64_t k = 0; k < kCount; ++k) m[k * 0x10001ULL] = k;
  ASSERT_EQ(m.size(), kCount);
  for (std::uint64_t k = 0; k < kCount; ++k) {
    auto* it = m.find(k * 0x10001ULL);
    ASSERT_NE(it, m.end()) << "key " << k << " lost at max load";
    EXPECT_EQ(it->second, k);
  }
  for (std::uint64_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(m.find(k * 0x10001ULL + 1), m.end());
  }
}

// --- large-N coverage (E14 scale: shard maps, instance tables) -------------

TEST(FlatMapLargeN, GrowthTo100kKeepsEveryEntry) {
  // Sequential keys through many doublings: every rehash must carry every
  // live entry and reserve() must make the pre-sized path rehash-free.
  FlatMap<std::uint64_t, std::uint64_t> m;
  m.reserve(100'000);
  for (std::uint64_t k = 0; k < 100'000; ++k) m[k] = k * 3 + 1;
  ASSERT_EQ(m.size(), 100'000u);
  for (std::uint64_t k = 0; k < 100'000; ++k) {
    auto* it = m.find(k);
    ASSERT_NE(it, m.end()) << "key " << k << " lost during growth";
    EXPECT_EQ(it->second, k * 3 + 1);
  }
  EXPECT_EQ(m.find(100'000), m.end());
}

TEST(FlatMapLargeN, TombstoneCompactionBoundsCapacity) {
  // Steady-state churn at a fixed live size: erase one, insert one, 200k
  // times.  Tombstones must be purged by same-capacity rehashes instead of
  // forcing doublings — the table must NOT grow without bound while the
  // live count stays constant, and every surviving key must stay findable.
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kLive = 4096;
  for (std::uint64_t k = 0; k < kLive; ++k) m[k] = k;
  for (std::uint64_t step = 0; step < 200'000; ++step) {
    const std::uint64_t dead = step;         // oldest live key
    const std::uint64_t born = kLive + step; // new key
    ASSERT_EQ(m.erase(dead), 1u);
    m[born] = born;
    ASSERT_EQ(m.size(), kLive);
  }
  // 4096 live entries fit a 8192-slot table at the 7/16 growth threshold;
  // a tombstone leak would have doubled far past that.
  for (std::uint64_t k = 200'000; k < 200'000 + kLive; ++k) {
    auto* it = m.find(k);
    ASSERT_NE(it, m.end()) << "live key " << k << " lost under churn";
    EXPECT_EQ(it->second, k);
  }
  EXPECT_EQ(m.find(0), m.end());
  EXPECT_EQ(m.find(199'999), m.end());
}

TEST(FlatMapLargeN, RandomChurnMatchesShadowModelAt100k) {
  // 100k-entry random insert/erase/lookup churn against a std::map shadow:
  // the two must agree on size and on every membership question asked.
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> shadow;
  std::mt19937_64 rng(0xE14);
  for (int step = 0; step < 300'000; ++step) {
    const std::uint64_t key = rng() % 150'000;
    switch (rng() % 3) {
      case 0: {
        const std::uint64_t value = rng();
        m[key] = value;
        shadow[key] = value;
        break;
      }
      case 1:
        EXPECT_EQ(m.erase(key), shadow.erase(key));
        break;
      default: {
        auto* it = m.find(key);
        auto sit = shadow.find(key);
        if (sit == shadow.end()) {
          EXPECT_EQ(it, m.end()) << "phantom key " << key;
        } else {
          ASSERT_NE(it, m.end()) << "lost key " << key;
          EXPECT_EQ(it->second, sit->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), shadow.size());
  }
  for (const auto& [key, value] : shadow) {
    auto* it = m.find(key);
    ASSERT_NE(it, m.end()) << "final sweep lost key " << key;
    EXPECT_EQ(it->second, value);
  }
}

TEST(FlatMap, TryEmplaceReportsInsertion) {
  FlatMap<std::uint64_t, int> m;
  auto [it, fresh] = m.try_emplace(7);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(it->second, 0);  // value-initialized on insertion
  it->second = 70;
  auto [again, fresh_again] = m.try_emplace(7);
  EXPECT_FALSE(fresh_again);
  EXPECT_EQ(again, it);
  EXPECT_EQ(again->second, 70);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseIfRemovesMatchesAndReusesTheirTombstones) {
  // The protocol lint's ledger pattern: keys pack (server << 32 | client),
  // and forgetting a server drops every key with its upper half.
  FlatMap<std::uint64_t, int> m;
  auto key = [](std::uint64_t server, std::uint64_t client) {
    return (server << 32) | client;
  };
  for (std::uint64_t server = 1; server <= 4; ++server) {
    for (std::uint64_t client = 0; client < 100; ++client) {
      m[key(server, client)] = static_cast<int>(server);
    }
  }
  const std::size_t capacity = m.capacity();
  EXPECT_EQ(
      m.erase_if([](const auto& slot) { return slot.first >> 32 == 2; }),
      100u);
  EXPECT_EQ(m.size(), 300u);
  for (std::uint64_t server = 1; server <= 4; ++server) {
    for (std::uint64_t client = 0; client < 100; ++client) {
      auto* it = m.find(key(server, client));
      if (server == 2) {
        EXPECT_EQ(it, m.end());
      } else {
        ASSERT_NE(it, m.end());
        EXPECT_EQ(it->second, static_cast<int>(server));
      }
    }
  }
  // A predicate matching nothing removes nothing.
  EXPECT_EQ(m.erase_if([](const auto&) { return false; }), 0u);
  // Forget and re-register one server over and over: each round leaves
  // 100 tombstones that the re-inserts (or a same-capacity compaction)
  // must absorb, so the table never grows while the live count is fixed.
  for (int round = 0; round < 2'000; ++round) {
    const std::uint64_t server = 1 + static_cast<std::uint64_t>(round % 4);
    m.erase_if(
        [server](const auto& slot) { return slot.first >> 32 == server; });
    for (std::uint64_t client = 0; client < 100; ++client) {
      m[key(server, client)] = round;
    }
    ASSERT_EQ(m.size(), round == 0 ? 300u : 400u);  // server 2 back at 1
    ASSERT_LE(m.capacity(), capacity);
  }
  for (std::uint64_t server = 1; server <= 4; ++server) {
    for (std::uint64_t client = 0; client < 100; ++client) {
      ASSERT_NE(m.find(key(server, client)), m.end());
    }
  }
}

TEST(FlatMap, EraseIfChurnMatchesMapModel) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> shadow;
  std::mt19937_64 rng(0xE5A5E);
  for (int step = 0; step < 50'000; ++step) {
    const std::uint64_t key = rng() % 4'096;
    if (rng() % 64 == 0) {
      const std::uint64_t bucket = rng() % 16;
      auto pred = [bucket](const auto& kv) { return kv.first % 16 == bucket; };
      EXPECT_EQ(m.erase_if(pred), std::erase_if(shadow, pred));
    } else if (rng() % 3 == 0) {
      EXPECT_EQ(m.erase(key), shadow.erase(key));
    } else {
      const std::uint64_t value = rng();
      m[key] = value;
      shadow[key] = value;
    }
    ASSERT_EQ(m.size(), shadow.size());
  }
  for (const auto& [key, value] : shadow) {
    auto* it = m.find(key);
    ASSERT_NE(it, m.end()) << "lost key " << key;
    EXPECT_EQ(it->second, value);
  }
}

TEST(FlatMap, ClearResetsTombstones) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 64; ++k) m[k] = 1;
  for (std::uint64_t k = 0; k < 64; ++k) m.erase(k);
  m.clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 64; ++k) m[k] = 2;
  EXPECT_EQ(m.size(), 64u);
  ASSERT_NE(m.find(63), m.end());
  EXPECT_EQ(m.find(63)->second, 2);
}

}  // namespace
}  // namespace v
