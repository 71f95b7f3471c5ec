// The sharded prefix-server fabric (DESIGN.md 4m, PROTOCOL.md 14):
//
//   - ShardMap wire format: round trip, torn/truncated/garbage rejection,
//     self-delimiting parse, range routing;
//   - live fabric: clients multicast-fetch the map and route opens one-hop
//     to the owning shard, verified against the content oracle;
//   - validated caching: a gated mutation bumps the shard's generation, so
//     a client holding yesterday's map is REFUSED (kStaleContext), refetches
//     and succeeds — never answered wrongly;
//   - churn: crash a shard mid-run, hand its range to a successor, restart
//     it, hand the range back.  Clients keep opening throughout; the oracle
//     must count zero wrong replies and the map version must advance.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/reply_codes.hpp"
#include "naming/protocol.hpp"
#include "naming/shard_map.hpp"
#include "servers/file_server.hpp"
#include "servers/shard_fabric.hpp"
#include "svc/file.hpp"
#include "svc/runtime.hpp"
#include "svc/shard_router.hpp"
#include "wload/forest.hpp"

namespace v {
namespace {

using namespace sim;
using naming::ShardMap;

// --- wire format -----------------------------------------------------------------

ShardMap sample_map() {
  ShardMap m;
  m.version = 7;
  m.shards = {
      {.lo = "", .server_pid = 0x0101, .generation = 3},
      {.lo = "home", .server_pid = 0x0202, .generation = 0},
      {.lo = "usr", .server_pid = 0x0303, .generation = 41},
  };
  return m;
}

TEST(ShardMapWire, RoundTrip) {
  const ShardMap m = sample_map();
  ASSERT_TRUE(m.well_formed());
  std::vector<std::byte> bytes;
  m.serialize(bytes);
  ASSERT_GT(bytes.size(), 0u);
  ASSERT_LE(bytes.size(), ShardMap::kMaxBytes);

  ShardMap out;
  ASSERT_TRUE(ShardMap::parse(bytes, out));
  EXPECT_EQ(out.version, m.version);
  ASSERT_EQ(out.shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(out.shards[i].lo, m.shards[i].lo);
    EXPECT_EQ(out.shards[i].server_pid, m.shards[i].server_pid);
    EXPECT_EQ(out.shards[i].generation, m.shards[i].generation);
  }
}

TEST(ShardMapWire, ParseIsSelfDelimiting) {
  // A 4 KiB MoveTo buffer arrives with the map at the front and stale
  // leftovers behind it; parse must stop at the encoded length.
  const ShardMap m = sample_map();
  std::vector<std::byte> bytes;
  m.serialize(bytes);
  bytes.resize(ShardMap::kMaxBytes, std::byte{0xEE});  // stale tail
  ShardMap out;
  ASSERT_TRUE(ShardMap::parse(bytes, out));
  EXPECT_EQ(out.shards.size(), 3u);
}

TEST(ShardMapWire, RejectsGarbageAndTruncation) {
  ShardMap out;
  // Wrong magic.
  std::vector<std::byte> junk(64, std::byte{0x5A});
  EXPECT_FALSE(ShardMap::parse(junk, out));
  // Truncated mid-entry.
  const ShardMap m = sample_map();
  std::vector<std::byte> bytes;
  m.serialize(bytes);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(ShardMap::parse(bytes, out));
  // Not well-formed on the wire: first range must be the "" anchor.
  ShardMap gap = sample_map();
  gap.shards[0].lo = "a";
  ASSERT_FALSE(gap.well_formed());
  std::vector<std::byte> gap_bytes;
  gap.serialize(gap_bytes);
  EXPECT_FALSE(ShardMap::parse(gap_bytes, out));
  // A rejected parse leaves `out` untouched.
  EXPECT_TRUE(out.empty());
}

TEST(ShardMapWire, RoutesByRange) {
  const ShardMap m = sample_map();
  EXPECT_EQ(m.route("alpha"), 0u);  // "" <= alpha < home
  EXPECT_EQ(m.route("home"), 1u);   // lower bound inclusive
  EXPECT_EQ(m.route("print"), 1u);
  EXPECT_EQ(m.route("usr"), 2u);
  EXPECT_EQ(m.route("zzz"), 2u);    // last range is open-ended
}

// --- live fabric -----------------------------------------------------------------

/// Forest + file-server pool + fabric, ready for clients.
struct FabricFixture {
  ipc::Domain dom;
  wload::Forest forest;
  std::vector<std::unique_ptr<servers::FileServer>> fs;
  servers::ShardFabric fabric;

  explicit FabricFixture(std::size_t shards, wload::ForestSpec spec)
      : forest(spec), fabric(dom, {.shards = shards}) {
    std::vector<servers::FileServer*> ptrs;
    std::vector<ipc::ProcessId> pids;
    for (int i = 0; i < 2; ++i) {
      ipc::Host& host = dom.add_host("fs" + std::to_string(i));
      fs.push_back(std::make_unique<servers::FileServer>(
          "fs" + std::to_string(i), servers::DiskModel::kMemory,
          /*register_service=*/false));
      servers::FileServer* srv = fs.back().get();
      ptrs.push_back(srv);
      pids.push_back(
          host.spawn("fs", [srv](ipc::Process p) { return srv->run(p); }));
    }
    fabric.install(forest.install(ptrs, pids));
  }

  static wload::ForestSpec small_spec() {
    wload::ForestSpec spec;
    spec.prefixes = 8;
    spec.dirs_per_prefix = 2;
    spec.files_per_dir = 2;
    return spec;
  }

  /// Open `name` through `router` and verify the bytes against the oracle.
  /// Returns false on any non-ok step; bumps `wrong` on an oracle mismatch.
  static sim::Co<bool> open_verify(svc::ShardRouter& router,
                                   const std::string& name, int& wrong) {
    auto opened = co_await router.open(name, naming::wire::kOpenRead);
    if (!opened.ok()) co_return false;
    svc::File file = opened.take().file;
    auto bytes = co_await file.read_all();
    bool ok = bytes.ok();
    if (ok) {
      const std::string expect = wload::Forest::content_for(name);
      const std::string got(reinterpret_cast<const char*>(bytes.value().data()),
                            bytes.value().size());
      if (got != expect) {
        ++wrong;
        ok = false;
      }
    }
    (void)co_await file.close();
    co_return ok;
  }
};

TEST(ShardFabric, FetchRouteAndVerifyEveryFile) {
  FabricFixture fx(4, FabricFixture::small_spec());
  ASSERT_EQ(fx.fabric.shard_count(), 4u);

  int oks = 0, wrong = 0;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    for (std::size_t f = 0; f < fx.forest.file_count(); ++f) {
      if (co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                              wrong)) {
        ++oks;
      }
    }
    // The fetched map mirrors the fabric's authoritative snapshot.
    EXPECT_EQ(router.map().version, fx.fabric.map_version());
    EXPECT_EQ(router.map().shards.size(), 4u);
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(oks, static_cast<int>(fx.forest.file_count()));
  EXPECT_EQ(wrong, 0);
  // One multicast fetch amortizes over every open; no repair cycles on a
  // quiet fabric.
  EXPECT_EQ(stats.map_fetches, 1u);
  EXPECT_EQ(stats.stale_retries, 0u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ShardFabric, StaleMapIsRefusedThenRepaired) {
  FabricFixture fx(2, FabricFixture::small_spec());
  const std::string name = fx.forest.name(0);  // lives on shard 0

  int wrong = 0;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    // Warm the map.
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, name, wrong));

    // A gated mutation on shard 0 bumps its default-context generation;
    // the router's cached map now quotes yesterday's number.
    svc::Rt admin(self, svc::NameEnv{
        .prefix_server = fx.fabric.pid(0),
        .current = {fx.fabric.pid(0), naming::kDefaultContext}});
    const ReplyCode rc = co_await admin.add_prefix(
        "aaa-fresh", {fx.fabric.pid(0), naming::kDefaultContext});
    EXPECT_EQ(rc, ReplyCode::kOk);

    // The stale map must be refused and repaired, not wrongly answered.
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, name, wrong));
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(stats.stale_retries, 1u);
  EXPECT_EQ(stats.map_fetches, 2u);  // warm fetch + repair refetch
  EXPECT_EQ(stats.failures, 0u);
}

/// Crash shard `i` at `crash_ms` and restart it at `restart_ms`: one
/// handoff to its successor, then one handback.
void schedule_churn(FabricFixture& fx, std::size_t i, std::int64_t crash_ms,
                    std::int64_t restart_ms) {
  fx.dom.loop().schedule_at(crash_ms * kMillisecond, [&fx, i] {
    fx.fabric.host(i).crash();
    fx.fabric.on_crash(i);
  });
  fx.dom.loop().schedule_at(restart_ms * kMillisecond,
                            [&fx, i] { fx.fabric.on_restart(i); });
}

TEST(ShardFabric, CrashHandoffRestartHandbackZeroWrong) {
  FabricFixture fx(4, FabricFixture::small_spec());
  const std::uint32_t v0 = fx.fabric.map_version();

  // Kill shard 1 at 400 ms, bring it back at 900 ms.  The fabric hands its
  // range to a successor, then hands it back — all through the gated
  // protocol, all while the client below keeps opening shard 1's files.
  schedule_churn(fx, 1, 400, 900);

  int oks = 0, wrong = 0, hard_failures = 0;
  svc::ShardRouter::Stats stats;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    // Round-robin over every file (all four shards, crashed one included)
    // for the whole churn window and past the handback.
    std::size_t f = 0;
    while (self.now() < 1600 * kMillisecond) {
      if (co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                              wrong)) {
        ++oks;
      } else {
        ++hard_failures;
      }
      f = (f + 1) % fx.forest.file_count();
      co_await self.delay(10 * kMillisecond);
    }
    stats = router.stats();
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  // THE gate: a reply may be delayed or refused, never wrong.
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(hard_failures, 0);
  EXPECT_GT(oks, 50);
  // The churn actually happened and the client actually repaired through it.
  EXPECT_EQ(fx.fabric.churn_stats().handoffs, 1u);
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
  EXPECT_GE(fx.fabric.map_version(), v0 + 2);  // handoff + restart republish
  EXPECT_GE(stats.map_fetches, 3u);
  EXPECT_GT(stats.noreply_retries + stats.stale_retries, 0u);
  EXPECT_EQ(stats.failures, 0u);
}

/// A file under the greatest prefix p with lo <= p < hi (hi empty = no
/// bound): the last binding of that shard range a handback retires.
std::string last_file_of_range(const wload::Forest& forest,
                               const std::string& lo, const std::string& hi) {
  std::size_t best = forest.file_count();
  for (std::size_t f = 0; f < forest.file_count(); ++f) {
    const std::string& p = forest.prefix(forest.prefix_of(f));
    if (p < lo || (!hi.empty() && p >= hi)) continue;
    if (best == forest.file_count() ||
        p > forest.prefix(forest.prefix_of(best))) {
      best = f;
    }
  }
  return best == forest.file_count() ? std::string() : forest.name(best);
}

TEST(ShardFabric, PreRestartMapIsRefusedForTheLastHandedBackPrefix) {
  // A client whose map predates the restart still routes shard 1's range
  // to the successor.  Once the handback has retired every copy, opening
  // the LAST prefix it retired must be refused from the header (the
  // successor's generation stepped on the handback's first retire), then
  // answered with the right bytes by the restored shard — never kNotFound.
  FabricFixture fx(4, FabricFixture::small_spec());
  schedule_churn(fx, 1, 400, 900);

  int wrong = 0;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, fx.forest.name(0),
                                                    wrong));
    const std::string last = last_file_of_range(
        fx.forest, router.map().shards[1].lo, router.map().shards[2].lo);
    EXPECT_FALSE(last.empty());
    const std::string prefix = last.substr(1, last.find(']') - 1);

    // After the handoff: learn the map that routes the range to shard 0.
    co_await self.delay(800 * kMillisecond - self.now());
    EXPECT_EQ(fx.fabric.churn_stats().handoffs, 1u);
    router.invalidate();
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, last, wrong));
    const naming::ShardMap stale = router.map();
    const ShardMap::Shard owner = stale.shards[stale.route(prefix)];
    EXPECT_EQ(owner.server_pid, fx.fabric.pid(0).raw);

    while (fx.fabric.churn_stats().handbacks == 0) {
      co_await self.delay(10 * kMillisecond);
    }
    // The refusal costs the stub and two hops: no name moved, no parse.
    const sim::SimTime sent = self.now();
    const msg::Message refused = co_await rt.open_at(
        {ipc::ProcessId{owner.server_pid}, naming::kDefaultContext}, last, 0,
        naming::wire::kOpenRead, owner.generation);
    EXPECT_EQ(refused.reply_code(), ReplyCode::kStaleContext);
    EXPECT_EQ(self.now() - sent,
              self.params().send_build + 2 * self.params().hop(false));

    // The router, still on the same map, repairs in one refetch.
    const auto before = router.stats();
    EXPECT_TRUE(co_await FabricFixture::open_verify(router, last, wrong));
    EXPECT_EQ(router.stats().stale_retries - before.stale_retries, 1u);
    EXPECT_EQ(router.map().shards[router.map().route(prefix)].server_pid,
              fx.fabric.pid(1).raw);
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
}

TEST(ShardFabric, NonAgentEditDuringHandbackStillSteps) {
  // A membership change steps the successor's generation once, on the
  // agent's first edit; an edit from anyone else still steps it as ever.
  wload::ForestSpec spec = FabricFixture::small_spec();
  spec.prefixes = 64;  // 16 bindings per shard: a handback with a middle
  FabricFixture fx(4, spec);
  schedule_churn(fx, 1, 400, 900);

  ipc::Host& ws = fx.dom.add_host("admin-ws");
  ws.spawn("admin", [&](ipc::Process self) -> sim::Co<void> {
    servers::ShardPrefixServer& succ = fx.fabric.server(0);
    co_await self.delay(900 * kMillisecond - self.now());
    const std::uint32_t at_restart = succ.generation(naming::kDefaultContext);
    while (succ.generation(naming::kDefaultContext) == at_restart) {
      co_await self.delay(kMillisecond);  // the handback's first retire
    }
    const std::uint32_t stepped = succ.generation(naming::kDefaultContext);
    EXPECT_EQ(fx.fabric.churn_stats().handbacks, 0u);

    svc::Rt admin(self, svc::NameEnv{
        .prefix_server = fx.fabric.pid(0),
        .current = {fx.fabric.pid(0), naming::kDefaultContext}});
    EXPECT_EQ(co_await admin.add_prefix(
                  "aaa-admin", {fx.fabric.pid(0), naming::kDefaultContext}),
              ReplyCode::kOk);
    EXPECT_EQ(fx.fabric.churn_stats().handbacks, 0u);
    const std::uint32_t admin_step =
        succ.generation(naming::kDefaultContext);
    EXPECT_NE(admin_step, stepped);

    // The rest of the handback's retires fold into its first step.
    while (fx.fabric.churn_stats().handbacks == 0) {
      co_await self.delay(10 * kMillisecond);
    }
    EXPECT_EQ(succ.generation(naming::kDefaultContext), admin_step);
  });
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
}

TEST(ShardFabric, SixteenClientsChurnWithFewStaleRetries) {
  // Sixteen clients open across all four shards through a crash, the
  // handoff, the restart and the handback.  Each membership change steps
  // a shard's generation once, so a client is refused at most about once
  // per change; a step per moved binding would refuse every client again
  // after each one.
  wload::ForestSpec spec = FabricFixture::small_spec();
  spec.prefixes = 64;
  FabricFixture fx(4, spec);
  schedule_churn(fx, 1, 400, 900);

  constexpr std::size_t kClients = 16;
  constexpr std::uint64_t kChanges = 2;  // handoff + handback
  int wrong = 0, hard_failures = 0;
  std::vector<svc::ShardRouter::Stats> stats(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    ipc::Host& ws = fx.dom.add_host("ws" + std::to_string(c));
    ws.spawn("client", [&, c](ipc::Process self) -> sim::Co<void> {
      svc::Rt rt(self, svc::NameEnv{});
      svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
      std::size_t f = c * 17 % fx.forest.file_count();
      while (self.now() < 1600 * kMillisecond) {
        if (!co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                                 wrong)) {
          ++hard_failures;
        }
        f = (f + 7) % fx.forest.file_count();
        co_await self.delay(10 * kMillisecond);
      }
      stats[c] = router.stats();
    });
  }
  fx.dom.run();

  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(hard_failures, 0);
  EXPECT_EQ(fx.fabric.churn_stats().handoffs, 1u);
  EXPECT_EQ(fx.fabric.churn_stats().handbacks, 1u);
  std::uint64_t total_stale = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_LE(stats[c].stale_retries, 2 * kChanges) << "client " << c;
    EXPECT_EQ(stats[c].failures, 0u) << "client " << c;
    total_stale += stats[c].stale_retries;
  }
  EXPECT_GT(total_stale, 0u);  // the churn was actually seen
}

TEST(ShardFabric, SingleShardDegeneratesToOneTeam) {
  // shards=1 is the PR 5 single-team topology behind the fetch protocol:
  // everything routes to shard 0 and the map holds exactly the "" anchor.
  FabricFixture fx(1, FabricFixture::small_spec());
  int oks = 0, wrong = 0;
  ipc::Host& ws = fx.dom.add_host("ws");
  ws.spawn("client", [&](ipc::Process self) -> sim::Co<void> {
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fx.fabric.group()});
    for (std::size_t f = 0; f < fx.forest.file_count(); ++f) {
      if (co_await FabricFixture::open_verify(router, fx.forest.name(f),
                                              wrong)) {
        ++oks;
      }
    }
    EXPECT_EQ(router.map().shards.size(), 1u);
    EXPECT_EQ(router.map().shards[0].lo, "");
  });
  fx.dom.run();
  EXPECT_EQ(fx.dom.process_failures(), 0u) << fx.dom.first_failure();
  EXPECT_EQ(oks, static_cast<int>(fx.forest.file_count()));
  EXPECT_EQ(wrong, 0);
}

}  // namespace
}  // namespace v
