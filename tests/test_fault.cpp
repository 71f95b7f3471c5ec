// V-fault unit tests (DESIGN.md 4h): the deterministic FaultPlan itself,
// the kernel's reliable-transaction machinery under scripted loss /
// duplication / pause, and the naming-layer recovery paths (Rt retries and
// multicast rebinding after a crash + restart).
//
// The kernel-level tests need the fault subsystem compiled in and sit under
// #if V_FAULT_ENABLED; the recovery tests at the bottom drive crash/restart
// through the core Host API and run in every build flavour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>

#include "fault/fault.hpp"
#include "harness.hpp"
#include "msg/message.hpp"
#include "naming/protocol.hpp"
#include "servers/metrics_server.hpp"
#include "sim/time.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using test::kStorageGroup;
using test::VFixture;

#if V_FAULT_ENABLED

// --- the plan itself --------------------------------------------------------

TEST(FaultPlan, SameSeedSameVerdicts) {
  fault::LinkFaults lossy;
  lossy.drop = 0.3;
  lossy.duplicate = 0.3;
  lossy.reorder = 0.3;
  fault::FaultPlan a(42);
  fault::FaultPlan b(42);
  a.set_default_link(lossy);
  b.set_default_link(lossy);
  for (int i = 0; i < 1000; ++i) {
    const auto da = a.on_packet(1, 2);
    const auto db = b.on_packet(1, 2);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.dup_delay, db.dup_delay);
  }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_EQ(a.stats().duplicates, b.stats().duplicates);
  EXPECT_EQ(a.stats().reorders, b.stats().reorders);
  EXPECT_GT(a.stats().drops, 0u);
}

TEST(FaultPlan, FaultDelaysAreNeverNegative) {
  // The contract behind the negative-delay-clamp assertion: whatever the
  // plan decides, it never asks the event loop to schedule into the past.
  fault::LinkFaults jittery;
  jittery.duplicate = 0.5;
  jittery.reorder = 0.5;
  fault::FaultPlan plan(7);
  plan.set_default_link(jittery);
  for (int i = 0; i < 2000; ++i) {
    const auto d = plan.on_packet(3, 9);
    EXPECT_GE(d.extra_delay, 0);
    EXPECT_GE(d.dup_delay, 0);
  }
}

TEST(FaultPlan, PerLinkOverridesBeatTheDefault) {
  fault::FaultPlan plan(1);
  fault::LinkFaults certain;
  certain.drop = 1.0;
  plan.set_link(1, 2, certain);  // only 1 -> 2 loses packets
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(plan.on_packet(1, 2).drop);
    EXPECT_FALSE(plan.on_packet(2, 1).drop);
  }
}

TEST(FaultPlan, LossTurnedOnLateMatchesEagerDraws) {
  // A plan with every rate at zero only counts its packets; turning a rate
  // on later must leave the random stream exactly where drawing all along
  // would have.  The eager reference draws from packet 0 because a rate is
  // already on, for a link no packet here crosses.  Both setters are
  // exercised: the default link and a per-link override.
  fault::LinkFaults lossy;
  lossy.drop = 0.2;
  lossy.duplicate = 0.2;
  lossy.reorder = 0.2;
  for (const bool per_link : {false, true}) {
    fault::FaultPlan late(9);
    fault::FaultPlan eager(9);
    eager.set_link(40, 41, lossy);
    constexpr int kQuiet = 257;
    for (int i = 0; i < 1000; ++i) {
      if (i == kQuiet) {
        if (per_link) {
          late.set_link(1, 2, lossy);
          eager.set_link(1, 2, lossy);
        } else {
          late.set_default_link(lossy);
          eager.set_default_link(lossy);
        }
      }
      const auto dl = late.on_packet(1, 2);
      const auto de = eager.on_packet(1, 2);
      ASSERT_EQ(dl.drop, de.drop) << "packet " << i;
      ASSERT_EQ(dl.duplicate, de.duplicate) << "packet " << i;
      ASSERT_EQ(dl.extra_delay, de.extra_delay) << "packet " << i;
      ASSERT_EQ(dl.dup_delay, de.dup_delay) << "packet " << i;
    }
    EXPECT_EQ(late.stats().packets_seen, eager.stats().packets_seen);
    EXPECT_EQ(late.stats().drops, eager.stats().drops);
    EXPECT_GT(late.stats().drops, 0u);
  }
}

// --- kernel reliable transactions -------------------------------------------

/// A server whose replies echo a per-request execution count: processing
/// the same request twice is visible to the client as a skipped number.
Co<void> counting_server(ipc::Process self) {
  std::uint32_t served = 0;
  for (;;) {
    auto env = co_await self.receive();
    msg::Message reply = env.request;
    reply.set_reply_code(ReplyCode::kOk);
    reply.set_u32(4, ++served);
    self.reply(reply, env.sender);
  }
}

TEST(FaultIpc, RetransmissionMasksHeavyLoss) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = ws2.spawn("server", counting_server);

  fault::FaultPlan plan(0xFA001);
  fault::LinkFaults lossy;
  lossy.drop = 0.2;
  plan.set_default_link(lossy);
  dom.install_faults(plan);

  int delivered_ok = 0;
  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    std::uint32_t last = 0;
    for (int i = 0; i < 50; ++i) {
      // A lost transaction (budget exhausted) is an honest kNoReply and may
      // simply be retried at this layer; what must NEVER happen is a wrong
      // or out-of-order execution count.
      for (;;) {
        msg::Message req;
        req.set_code(0x0100);
        const auto reply = co_await self.send(req, server);
        if (reply.reply_code() == ReplyCode::kNoReply) continue;
        EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
        if (reply.reply_code() != ReplyCode::kOk) co_return;
        const std::uint32_t count = reply.u32(4);
        EXPECT_GT(count, last);
        last = count;
        ++delivered_ok;
        break;
      }
    }
  });
  EXPECT_EQ(delivered_ok, 50);
  EXPECT_GT(plan.stats().drops, 0u);
  EXPECT_GT(plan.stats().retransmits, 0u);
  EXPECT_EQ(dom.lint().counters().duplicate_replies, 0u)
      << dom.lint().first_dump();
}

TEST(FaultIpc, AtMostOnceUnderCertainDuplication) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = ws2.spawn("server", counting_server);

  fault::FaultPlan plan(0xFA002);
  fault::LinkFaults duping;
  duping.duplicate = 1.0;  // every packet crosses the wire twice
  plan.set_default_link(duping);
  dom.install_faults(plan);

  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    for (std::uint32_t i = 1; i <= 20; ++i) {
      msg::Message req;
      req.set_code(0x0100);
      const auto reply = co_await self.send(req, server);
      EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
      if (reply.reply_code() != ReplyCode::kOk) co_return;
      // Exactly-one execution per send: the count advances by one even
      // though every request arrived (at least) twice.
      EXPECT_EQ(reply.u32(4), i);
    }
  });
  EXPECT_GT(plan.stats().duplicates, 0u);
  EXPECT_GT(plan.stats().dup_requests_suppressed +
                plan.stats().cached_replies_replayed,
            0u);
  EXPECT_EQ(dom.lint().counters().duplicate_replies, 0u)
      << dom.lint().first_dump();
}

TEST(FaultIpc, BudgetExhaustionSurfacesNoReply) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = ws2.spawn("server", counting_server);

  fault::FaultPlan plan(0xFA003);
  fault::LinkFaults dead_wire;
  dead_wire.drop = 1.0;
  plan.set_link(ws1.id(), ws2.id(), dead_wire);
  fault::RetryPolicy quick;
  quick.initial_timeout = 4 * kMillisecond;
  quick.backoff = 2.0;
  quick.max_timeout = 16 * kMillisecond;
  quick.budget = 3;
  plan.set_retry(quick);
  dom.install_faults(plan);

  sim::SimDuration elapsed = -1;
  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    const auto t0 = self.now();
    const auto reply = co_await self.send(msg::Message{}, server);
    elapsed = self.now() - t0;
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
  });
  // 3 retransmissions at 4, 12, 28 ms, defeat admitted at 44 ms.
  EXPECT_EQ(plan.stats().retransmits, 3u);
  EXPECT_EQ(plan.stats().budget_exhausted, 1u);
  EXPECT_EQ(elapsed, 44 * kMillisecond);
}

// --- adaptive retransmission timeout ----------------------------------------

/// A server that holds every request `hold` of simulated time (queueing or
/// slow service, as far as the client can tell) before replying.
Co<void> holding_server(ipc::Process self, sim::SimDuration hold) {
  for (;;) {
    auto env = co_await self.receive();
    co_await self.delay(hold);
    msg::Message reply = env.request;
    reply.set_reply_code(ReplyCode::kOk);
    self.reply(reply, env.sender);
  }
}

ipc::ProcessId spawn_holding(ipc::Host& host, sim::SimDuration hold) {
  return host.spawn("holder", [hold](ipc::Process p) {
    return holding_server(p, hold);
  });
}

TEST(FaultRto, SlowServerIsLearnedAndNoLongerRetransmittedTo) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = spawn_holding(ws2, 200 * kMillisecond);

  fault::FaultPlan plan(0xFA008);  // no link faults: nothing is ever lost
  dom.install_faults(plan);
  const fault::RetryPolicy policy = plan.retry();

  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    // Cold: the policy's timer exactly.
    EXPECT_EQ(dom.rtt_estimate(self.pid(), server).rto(policy.initial_timeout),
              policy.initial_timeout);
    const auto t0 = self.now();
    auto reply = co_await self.send(msg::Message{}, server);
    const sim::SimDuration rtt = self.now() - t0;
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    // The first send retransmits on the cold schedule (10, 30, 70, 150 ms
    // with the default policy): one copy per deadline the round trip
    // outlasted, every one suppressed by the server still holding it.
    std::uint64_t cold_copies = 0;
    sim::SimDuration timeout = policy.initial_timeout;
    for (sim::SimTime at = timeout; at < rtt; at += timeout) {
      ++cold_copies;
      timeout = std::min(static_cast<sim::SimDuration>(
                             static_cast<double>(timeout) * policy.backoff),
                         policy.max_timeout);
    }
    EXPECT_EQ(cold_copies, 4u);
    EXPECT_EQ(plan.stats().retransmits, cold_copies);
    EXPECT_EQ(plan.stats().dup_requests_suppressed, cold_copies);
    // The reply answered the original copy: one clean sample, the whole
    // round trip, and the timer now covers it.
    const ipc::detail::RttEstimate est = dom.rtt_estimate(self.pid(), server);
    EXPECT_EQ(est.samples, 1u);
    EXPECT_EQ(est.srtt, rtt);
    EXPECT_GT(est.rto(policy.initial_timeout), rtt);

    for (int i = 0; i < 8; ++i) {
      reply = co_await self.send(msg::Message{}, server);
      EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    }
    EXPECT_EQ(plan.stats().retransmits, cold_copies);
    EXPECT_EQ(plan.stats().dup_requests_suppressed, cold_copies);
    EXPECT_EQ(dom.rtt_estimate(self.pid(), server).samples, 9u);
  });
  EXPECT_EQ(plan.stats().budget_exhausted, 0u);
}

/// Relays every request to `next`, as a prefix server relays an open.
Co<void> forwarding_server(ipc::Process self, ipc::ProcessId next) {
  for (;;) {
    auto env = co_await self.receive();
    self.forward(env, next);
  }
}

/// What a client's timer learned over `sends` Sends from ws1 to a server
/// holding each request 20 ms — directly on ws2, or on ws3 behind a
/// forwarder on ws2 — with every remote link dropping `drop` of its
/// packets.
struct TimerRun {
  sim::SimDuration first_rtt = 0;  ///< elapsed time of the first Send
  sim::SimDuration max_rto = 0;    ///< largest RTO the timer ever held
  std::set<sim::SimDuration> srtts;  ///< every SRTT after a sample
  std::uint32_t samples = 0;
  fault::FaultStats stats;
};

TimerRun run_fixed_service(bool via_forwarder, double drop, int sends) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  auto& ws3 = dom.add_host("ws3");
  const ipc::ProcessId holder =
      spawn_holding(via_forwarder ? ws3 : ws2, 20 * kMillisecond);
  const ipc::ProcessId first_hop =
      via_forwarder ? ws2.spawn("forwarder",
                                [holder](ipc::Process p) {
                                  return forwarding_server(p, holder);
                                })
                    : holder;
  fault::FaultPlan plan(0xFA00A);
  fault::LinkFaults lossy;
  lossy.drop = drop;
  plan.set_default_link(lossy);
  dom.install_faults(plan);

  TimerRun run;
  test::run_client(dom, ws1, [&, first_hop](ipc::Process self) -> Co<void> {
    for (int i = 0; i < sends; ++i) {
      const auto t0 = self.now();
      const auto reply = co_await self.send(msg::Message{}, first_hop);
      if (i == 0) run.first_rtt = self.now() - t0;
      if (reply.reply_code() != ReplyCode::kNoReply) {
        EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
      }
      const ipc::detail::RttEstimate est =
          dom.rtt_estimate(self.pid(), first_hop);
      run.max_rto =
          std::max(run.max_rto, est.rto(plan.retry().initial_timeout));
      if (est.samples != 0) run.srtts.insert(est.srtt);
      run.samples = est.samples;
    }
  });
  run.stats = plan.stats();
  return run;
}

TEST(FaultRto, LossRecoveryTimeNeverFeedsTheEstimate) {
  // Fixed service: every clean round trip takes the same time, so only a
  // sample that folded in loss recovery (a retransmission's wait) could
  // move SRTT off it or push the learned RTO above 3x it.  Behind the
  // forwarder, losses also hit the forwarded hop, whose recovery is a
  // re-driven forward.
  for (const bool via_forwarder : {false, true}) {
    SCOPED_TRACE(via_forwarder ? "via forwarder" : "direct");
    const sim::SimDuration clean_rtt =
        run_fixed_service(via_forwarder, 0.0, 1).first_rtt;
    ASSERT_GT(clean_rtt, 20 * kMillisecond);

    const TimerRun lossy = run_fixed_service(via_forwarder, 0.2, 100);
    EXPECT_GT(lossy.stats.drops, 0u);
    EXPECT_GT(lossy.stats.retransmits, 0u);
    if (via_forwarder) {
      EXPECT_GT(lossy.stats.forwards_replayed, 0u);
    }
    // Transactions that lost a packet were recovered but not sampled.
    EXPECT_GT(lossy.samples, 0u);
    EXPECT_LT(lossy.samples, 100u);
    EXPECT_EQ(lossy.srtts, std::set<sim::SimDuration>{clean_rtt});
    EXPECT_LE(lossy.max_rto, 3 * clean_rtt);
  }
}

TEST(FaultRto, CrashSweepNoReplyYieldsNoSample) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = spawn_holding(ws2, 200 * kMillisecond);

  fault::FaultPlan plan(0xFA00B);
  plan.crash_at(50 * kMillisecond, ws2.id());
  dom.install_faults(plan);

  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    const auto reply = co_await self.send(msg::Message{}, server);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
    EXPECT_LT(self.now(), 200 * kMillisecond);  // the sweep, not the budget
    EXPECT_EQ(dom.rtt_estimate(self.pid(), server).samples, 0u);
    EXPECT_EQ(dom.rtt_estimate(self.pid(), server)
                  .rto(plan.retry().initial_timeout),
              plan.retry().initial_timeout);
  });
  EXPECT_EQ(plan.stats().crashes, 1u);
  EXPECT_EQ(plan.stats().budget_exhausted, 0u);
}

TEST(FaultIpc, PausedHostDelaysButNeverLoses) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = ws2.spawn("server", counting_server);

  fault::FaultPlan plan(0xFA004);
  plan.pause_at(5 * kMillisecond, ws2.id());
  plan.resume_at(60 * kMillisecond, ws2.id());
  dom.install_faults(plan);

  sim::SimTime replied_at = -1;
  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    co_await self.delay(10 * kMillisecond);  // send INTO the pause window
    const auto reply = co_await self.send(msg::Message{}, server);
    replied_at = self.now();
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    EXPECT_EQ(reply.u32(4), 1u);  // retransmits into the pause: still once
  });
  EXPECT_EQ(plan.stats().pauses, 1u);
  EXPECT_EQ(plan.stats().resumes, 1u);
  EXPECT_GE(replied_at, 60 * kMillisecond);
  EXPECT_EQ(dom.lint().counters().duplicate_replies, 0u)
      << dom.lint().first_dump();
}

TEST(FaultIpc, ScheduledCrashAndRestartFireOnce) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId victim = ws2.spawn("victim", counting_server);

  bool respawned = false;
  fault::FaultPlan plan(0xFA005);
  plan.crash_at(5 * kMillisecond, ws2.id());
  plan.restart_at(10 * kMillisecond, ws2.id(),
                  [&respawned] { respawned = true; });
  dom.install_faults(plan);

  test::run_client(dom, ws1, [&, victim](ipc::Process self) -> Co<void> {
    co_await self.delay(20 * kMillisecond);
    // The old incarnation's pid is gone for good; pids are never reused.
    const auto reply = co_await self.send(msg::Message{}, victim);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kNoReply);
  });
  EXPECT_EQ(plan.stats().crashes, 1u);
  EXPECT_EQ(plan.stats().restarts, 1u);
  EXPECT_TRUE(respawned);
  EXPECT_TRUE(ws2.alive());
}

#if V_TRACE_ENABLED
TEST(FaultMetrics, StatsMirroredIntoRegistry) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId server = ws2.spawn("server", counting_server);

  fault::FaultPlan plan(0xFA006);
  fault::LinkFaults lossy;
  lossy.drop = 0.25;
  plan.set_default_link(lossy);
  dom.install_faults(plan);

  test::run_client(dom, ws1, [&, server](ipc::Process self) -> Co<void> {
    for (int i = 0; i < 20; ++i) {
      (void)co_await self.send(msg::Message{}, server);
    }
  });
  const auto drops = dom.metrics().value_text("fault", "drops");
  ASSERT_TRUE(drops.has_value());
  EXPECT_EQ(std::strtoull(drops->c_str(), nullptr, 10), plan.stats().drops);
  const auto retr = dom.metrics().value_text("fault", "retransmits");
  ASSERT_TRUE(retr.has_value());
  EXPECT_EQ(std::strtoull(retr->c_str(), nullptr, 10),
            plan.stats().retransmits);
}
#endif  // V_TRACE_ENABLED

// --- satellite: negative-delay clamps observable via [metrics] --------------

TEST(FaultMetrics, NegativeDelayClampsStayZeroUnderJitterAndAreWireReadable) {
  VFixture fx;
  fault::FaultPlan plan(0xFA007);
  fault::LinkFaults jittery;
  jittery.duplicate = 0.4;
  jittery.reorder = 0.4;
  plan.set_default_link(jittery);
  fx.dom.install_faults(plan);

  servers::MetricsServer metrics_srv;
  const auto metrics_pid = fx.ws1.spawn(
      "metrics", [&](ipc::Process p) { return metrics_srv.run(p); });

  fx.run_client([&](ipc::Process, svc::Rt rt) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      auto opened = co_await rt.open("usr/mann/naming.mss", kOpenRead);
      EXPECT_TRUE(opened.ok());
      if (!opened.ok()) co_return;
      svc::File f = opened.take();
      (void)co_await f.close();
    }
#if V_TRACE_ENABLED
    // The clamp counter is part of the [metrics] context like any other
    // registry value: read it over the wire and insist the fault jitter
    // never scheduled into the past.
    rt.set_current({metrics_pid, naming::kDefaultContext});
    auto metric = co_await rt.open("loop/negative_delay_clamps", kOpenRead);
    EXPECT_TRUE(metric.ok());
    if (!metric.ok()) co_return;
    svc::File f = metric.take();
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) co_return;
    EXPECT_EQ(std::string(
                  reinterpret_cast<const char*>(bytes.value().data()),
                  bytes.value().size()),
              "0\n");
    (void)co_await f.close();
#else
    (void)metrics_pid;
#endif
  });
  EXPECT_GT(plan.stats().duplicates + plan.stats().reorders, 0u);
  EXPECT_EQ(fx.dom.loop().stats().negative_delay_clamps, 0u);
}

#endif  // V_FAULT_ENABLED

// --- naming-layer recovery (core crash API; every build flavour) ------------

TEST(RtRecovery, NoreplyRetryCountIsConfigurable) {
  // Same dead-forward scenario at two retry settings: the message traffic
  // must scale as (1 + retries) full resolutions.
  auto resolutions_traffic = [](std::size_t retries) -> std::uint64_t {
    VFixture fx;
    fx.dom.loop().schedule_at(5 * kMillisecond, [&fx] { fx.fs2.crash(); });
    std::uint64_t delta = 0;
    fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
      co_await self.delay(10 * kMillisecond);
      svc::RecoveryPolicy policy;
      policy.noreply_retries = retries;
      rt.set_recovery(policy);
      const std::uint64_t before = fx.dom.stats().messages_sent;
      auto opened = co_await rt.open("usr/mann/proj/readme", kOpenRead);
      EXPECT_EQ(opened.code(), ReplyCode::kNoReply);
      delta = fx.dom.stats().messages_sent - before;
    });
    return delta;
  };
  const std::uint64_t once = resolutions_traffic(0);
  ASSERT_GT(once, 0u);
  // retries=2 -> exactly three times the single-attempt traffic.
  EXPECT_EQ(resolutions_traffic(2), 3 * once);
}

TEST(RtRecovery, MulticastRebindReachesRestartedServer) {
  VFixture fx;
  const ipc::ProcessId old_alpha = fx.alpha_pid;
  fx.dom.loop().schedule_at(5 * kMillisecond, [&fx] { fx.fs1.crash(); });
  fx.dom.loop().schedule_at(15 * kMillisecond, [&fx] { fx.respawn_alpha(); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    co_await self.delay(30 * kMillisecond);
    EXPECT_NE(fx.alpha_pid, old_alpha);  // fresh incarnation, fresh pid
    // The current context still names the DEAD incarnation; retries fail
    // the same way, then the multicast probe finds the new one.
    svc::RecoveryPolicy policy;
    policy.noreply_retries = 1;
    policy.rebind_group = kStorageGroup;
    rt.set_recovery(policy);
    auto opened = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok()) << to_string(opened.code());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    EXPECT_EQ(f.server(), fx.alpha_pid);
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) co_return;
    EXPECT_EQ(std::string(
                  reinterpret_cast<const char*>(bytes.value().data()),
                  bytes.value().size()),
              "Distributed name interpretation.");
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(RtRecovery, RebindFeedsTheNameCache) {
  VFixture fx;
  fx.dom.loop().schedule_at(5 * kMillisecond, [&fx] { fx.fs1.crash(); });
  fx.dom.loop().schedule_at(15 * kMillisecond, [&fx] { fx.respawn_alpha(); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    co_await self.delay(30 * kMillisecond);
    svc::NameCache cache;
    rt.set_cache(&cache);
    svc::RecoveryPolicy policy;
    policy.noreply_retries = 0;
    policy.rebind_group = kStorageGroup;
    rt.set_recovery(policy);
    auto first = co_await rt.open("usr/mann/paper.mss", kOpenRead);
    EXPECT_TRUE(first.ok()) << to_string(first.code());
    if (!first.ok()) co_return;
    svc::File f1 = first.take();
    EXPECT_EQ(co_await f1.close(), ReplyCode::kOk);
    // The rebind fed the repaired binding: the next open one-hops straight
    // to the new incarnation.
    EXPECT_EQ(cache.size(), 1u);
    auto second = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(second.ok());
    if (!second.ok()) co_return;
    svc::File f2 = second.take();
    EXPECT_EQ(f2.server(), fx.alpha_pid);
    EXPECT_EQ(co_await f2.close(), ReplyCode::kOk);
    EXPECT_GE(cache.hits(), 1u);
    rt.set_cache(nullptr);
  });
}

TEST(RtRecovery, PrefixServerProbesGroupForDeadOrdinaryEntry) {
  // No client-side recovery configured at all: the [home] prefix pins the
  // DEAD incarnation's pid, and the prefix server itself repairs the route
  // by multicasting a recovery probe to the storage group.
  VFixture fx;
  fx.dom.loop().schedule_at(5 * kMillisecond, [&fx] { fx.fs1.crash(); });
  fx.dom.loop().schedule_at(15 * kMillisecond, [&fx] { fx.respawn_alpha(); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    co_await self.delay(30 * kMillisecond);
    auto opened = co_await rt.open("[home]paper.mss", kOpenRead);
    EXPECT_TRUE(opened.ok()) << to_string(opened.code());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    EXPECT_EQ(f.server(), fx.alpha_pid);
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) co_return;
    EXPECT_EQ(std::string(
                  reinterpret_cast<const char*>(bytes.value().data()),
                  bytes.value().size()),
              "ICDCS 1984.");
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(RtRecovery, RestartedIncarnationRaisesItsGenerationFloor) {
  // The lint's incarnation invariant is what proves PR 4's validated cache
  // cannot be fooled by a restart: every re-registration under a label must
  // raise its generation floor.  check_clean() (inside run_client) asserts
  // stale_incarnations == 0 for the well-behaved respawn.
  VFixture fx;
  fx.dom.loop().schedule_at(5 * kMillisecond, [&fx] { fx.fs1.crash(); });
  fx.dom.loop().schedule_at(15 * kMillisecond, [&fx] { fx.respawn_alpha(); });
  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    co_await self.delay(30 * kMillisecond);
    svc::RecoveryPolicy policy;
    policy.rebind_group = kStorageGroup;
    rt.set_recovery(policy);
    auto opened = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  EXPECT_EQ(fx.dom.lint().counters().stale_incarnations, 0u)
      << fx.dom.lint().first_dump();
}

}  // namespace
}  // namespace v
