// The allocation-free packet path, made executable (DESIGN.md §4l): with
// the envelope slab, intrusive mailboxes, inline delivery closures and the
// coroutine frame pool warmed up, a Send/Receive/Reply transaction touches
// the heap ZERO times — also under a fault plan, where every Send arms a
// retransmission timer and every delivery passes the duplicate filter.
// The client's NameCache keeps the same promise for its hits and its
// admission decisions.  chk::alloc_probe counts every global operator
// new/delete in this binary (the replacement operators link only here —
// see alloc_probe.hpp), and these tests assert the zero.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/alloc_probe.hpp"
#include "fault/fault.hpp"
#include "ipc/kernel.hpp"
#include "msg/message.hpp"
#include "sim/frame_pool.hpp"
#include "svc/name_cache.hpp"

namespace v {
namespace {

using sim::Co;

#if V_FRAME_POOL_ENABLED
/// Warm ping-pong between two hosts; `plan`, when given, is installed
/// first.  Asserts zero heap allocations across the measured window.
void expect_warm_ping_pong_allocates_nothing(fault::FaultPlan* plan) {
  ipc::Domain dom;
  if (plan != nullptr) dom.install_faults(*plan);
  auto& ws = dom.add_host("ws1");
  auto& srv = dom.add_host("srv1");
  const auto echo_pid = srv.spawn("echo", [](ipc::Process self) -> Co<void> {
    for (;;) {
      auto env = co_await self.receive();
      self.reply(msg::make_reply(ReplyCode::kOk), env.sender);
    }
  });
  // Warm-up grows every pool once (event-loop slab chunks, envelope slab,
  // frame pool, metric registrations); the measured window reuses them.
  constexpr int kWarmup = 2'000;
  constexpr int kMeasured = 10'000;
  std::uint64_t baseline_allocs = 0;
  bool done = false;
  ws.spawn("pinger", [&, echo_pid](ipc::Process self) -> Co<void> {
    msg::Message ping;
    ping.set_code(0x0200);  // above the protocol ranges' floor; not CSname
    for (int i = 0; i < kWarmup; ++i) {
      (void)co_await self.send(ping, echo_pid);
    }
    baseline_allocs = chk::alloc_counters().allocations;
    for (int i = 0; i < kMeasured; ++i) {
      (void)co_await self.send(ping, echo_pid);
    }
    const std::uint64_t delta =
        chk::alloc_counters().allocations - baseline_allocs;
    EXPECT_EQ(delta, 0u) << delta << " heap allocations across " << kMeasured
                         << " warm transactions";
    done = true;
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_TRUE(done) << "pinger parked forever";
}
#endif  // V_FRAME_POOL_ENABLED

TEST(AllocProbe, WarmPingPongTransactionsAllocateNothing) {
  if (!chk::alloc_probe_active()) {
    GTEST_SKIP() << "probe inactive (sanitizer build owns the allocator)";
  }
#if !V_FRAME_POOL_ENABLED
  GTEST_SKIP() << "frame pool disabled: coroutine frames hit the heap";
#else
  expect_warm_ping_pong_allocates_nothing(nullptr);
#endif
}

TEST(AllocProbe, WarmPingPongUnderFaultPlanAllocatesNothing) {
  if (!chk::alloc_probe_active()) {
    GTEST_SKIP() << "probe inactive (sanitizer build owns the allocator)";
  }
#if !V_FRAME_POOL_ENABLED
  GTEST_SKIP() << "frame pool disabled: coroutine frames hit the heap";
#else
  // No loss, so every transaction completes first time; but each Send
  // still arms its retransmission timer, every request passes the server's
  // duplicate filter and every reply closes a transaction slot.
  fault::FaultPlan plan;
  expect_warm_ping_pong_allocates_nothing(&plan);
#if V_FAULT_ENABLED
  EXPECT_GT(plan.stats().packets_seen, 0u);
  EXPECT_EQ(plan.stats().retransmits, 0u);
#endif
#endif
}

TEST(AllocProbe, NameCacheHitsAndAdmissionAllocateNothing) {
  if (!chk::alloc_probe_active()) {
    GTEST_SKIP() << "probe inactive (sanitizer build owns the allocator)";
  }
  // Directory names past the small-string buffer, all of one length, so a
  // replaced entry's key buffer fits its successor.
  std::vector<std::string> dirs;
  for (int i = 0; i < 16; ++i) {
    dirs.push_back("[vol]n/n/n/prefix" + std::to_string(10 + i) + "/dir");
  }
  svc::NameCache cache(4);
  // Three hot directories and a stream of one-off visitors: hits, misses,
  // refused admissions and admissions that replace a victim.
  auto replay = [&] {
    for (int i = 0; i < 4'000; ++i) {
      const std::string& dir = dirs[i % 5 == 0 ? (i / 5) % 16 : i % 3];
      if (!cache.find(dir).has_value()) cache.put(dir, {});
    }
  };
  replay();  // every slot holds a key buffer from here on
  const std::uint64_t misses = cache.misses();
  const std::uint64_t refused = cache.refused();
  const std::uint64_t baseline = chk::alloc_counters().allocations;
  replay();
  const std::uint64_t delta = chk::alloc_counters().allocations - baseline;
  EXPECT_EQ(delta, 0u) << delta << " heap allocations across a warm replay";
  EXPECT_GT(cache.refused(), refused);
  EXPECT_GT(cache.misses() - misses, cache.refused() - refused)
      << "no admission replaced a victim";
}

}  // namespace
}  // namespace v
