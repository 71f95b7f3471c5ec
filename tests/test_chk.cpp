// V-check tests: the sim-aware race detector (chk/ledger, chk/shared_cell,
// the per-(ctx,leaf) gate ledger) and the protocol conformance lint at the
// kernel Send/Reply boundary.
//
// The detection tests plant real bugs — an ungated name-space mutation, a
// read borrow held across a suspension point, a non-standard reply code, a
// malformed CSname header — and assert the report names the right parties.
// The clean tests run ordinary workloads and assert the instrumentation is
// live (counters advance) but silent (no failures, no violations).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chk/protocol_lint.hpp"
#include "chk/shared_cell.hpp"
#include "msg/csname.hpp"
#include "msg/request_codes.hpp"
#include "naming/protocol.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using sim::Co;
using sim::kMillisecond;
using test::VFixture;

// Non-CSname server-specific poke used to plant an ungated mutation.
constexpr std::uint16_t kUngatedPoke = 0x0399;

/// A CSNH server with a planted concurrency bug: kUngatedPoke mutates the
/// (ctx, leaf) name entry WITHOUT acquiring the mutation gate, while
/// create_object (correctly gated by the base) holds its gate across a long
/// suspension — so a poke landing mid-create is exactly the lost-update
/// race the detector exists to catch.
class RacyServer : public naming::CsnhServer {
 public:
  explicit RacyServer(naming::TeamConfig team) : CsnhServer(team) {}

 protected:
  sim::Co<LookupResult> lookup(ipc::Process& /*self*/,
                               naming::ContextId /*ctx*/,
                               std::string_view /*component*/) override {
    co_return LookupResult::missing();
  }

  sim::Co<ReplyCode> create_object(ipc::Process& self, naming::ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t /*mode*/) override {
    note_name_write(self, ctx, leaf);
    co_await self.delay(10 * kMillisecond);  // hold the gate across a park
    co_return ReplyCode::kOk;
  }

  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override {
    if (env.request.code() == kUngatedPoke) {
      // The planted bug: handle_custom holds no (ctx, leaf) gate.
      note_name_write(self, naming::kDefaultContext, "contested");
      co_return msg::make_reply(ReplyCode::kOk);
    }
    co_return co_await CsnhServer::handle_custom(self, env);
  }
};

/// A CSNH server with a planted conformance bug: replies to its custom op
/// with a code far outside the registered ReplyCode set.
class BadReplyServer : public naming::CsnhServer {
 protected:
  sim::Co<LookupResult> lookup(ipc::Process& /*self*/,
                               naming::ContextId /*ctx*/,
                               std::string_view /*component*/) override {
    co_return LookupResult::missing();
  }

  sim::Co<msg::Message> handle_custom(ipc::Process& /*self*/,
                                      ipc::Envelope& /*env*/) override {
    msg::Message weird;
    weird.set_code(0x7777);  // not a ReplyCode
    co_return weird;
  }
};

// --- race detector: planted gate violation ---------------------------------

TEST(ChkRace, PlantedUngatedMutationNamesBothProcesses) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  RacyServer racy({.workers = 2, .queue_cap = 16});
  const auto racy_pid =
      host.spawn("racy", [&](ipc::Process p) { return racy.run(p); });
  // Worker A: a gated create of "contested" parked mid-operation.
  host.spawn("creator", [&](ipc::Process self) -> Co<void> {
    const std::string name = "contested";
    auto req = msg::cs::make_request(
        msg::kCreateName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    (void)co_await self.send(req, racy_pid, segs);
  });
  // Worker B: the ungated poke lands while A still holds the gate.
  host.spawn("poker", [&](ipc::Process self) -> Co<void> {
    co_await self.delay(2 * kMillisecond);
    msg::Message poke;
    poke.set_code(kUngatedPoke);
    (void)co_await self.send(poke, racy_pid);
  });
  dom.run();

  ASSERT_GE(dom.process_failures(), 1u);
  const std::string& report = dom.first_failure();
  EXPECT_NE(report.find("race detector"), std::string::npos) << report;
  EXPECT_NE(report.find("ungated (ctx,leaf) mutation"), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"contested\""), std::string::npos) << report;
  EXPECT_NE(report.find("has held the mutation gate since"),
            std::string::npos)
      << report;
  // Both sim processes — the mutator AND the gate holder — are named, and
  // they are distinct team members.
  const auto first = report.find("racy-worker.");
  ASSERT_NE(first, std::string::npos) << report;
  EXPECT_NE(report.find("racy-worker.", first + 1), std::string::npos)
      << report;
#endif
}

TEST(ChkRace, UngatedMutationWithNoHolderIsCaught) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  RacyServer racy({.workers = 1, .queue_cap = 16});
  const auto racy_pid =
      host.spawn("racy", [&](ipc::Process p) { return racy.run(p); });
  host.spawn("poker", [&](ipc::Process self) -> Co<void> {
    msg::Message poke;
    poke.set_code(kUngatedPoke);
    (void)co_await self.send(poke, racy_pid);
  });
  dom.run();

  ASSERT_GE(dom.process_failures(), 1u);
  const std::string& report = dom.first_failure();
  EXPECT_NE(report.find("without any process holding the mutation gate"),
            std::string::npos)
      << report;
#endif
}

// --- race detector: the unmodified tree passes clean ------------------------

TEST(ChkRace, GatedMutationsPassCleanAndLedgerIsLive) {
  VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
              servers::DiskModel::kMemory, {.workers = 4, .queue_cap = 64});
  fx.run_client([](ipc::Process /*self*/, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.create("tmp/gated.txt", 0), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("tmp/gated.txt"), ReplyCode::kOk);
  });
#if V_CHECKS_ENABLED
  // The instrumentation must actually have run (a no-op detector also
  // "passes clean").
  EXPECT_GT(fx.dom.checks().gate_acquisitions(), 0u);
  EXPECT_GT(fx.dom.checks().gated_writes_checked(), 0u);
#endif
}

// --- race detector: SharedCell borrows across suspension --------------------

TEST(ChkRace, ReaderHeldAcrossSuspensionIsCaught) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  chk::SharedCell<int> cell("test.counter");
  host.spawn("reader-proc", [&](ipc::Process self) -> Co<void> {
    auto borrow = cell.read(self);
    co_await self.delay(5 * kMillisecond);  // the bug: borrow spans a park
    EXPECT_EQ(*borrow, 0);
  });
  host.spawn("writer-proc", [&](ipc::Process self) -> Co<void> {
    co_await self.delay(1 * kMillisecond);
    auto borrow = cell.write(self);  // throws: overlaps the parked read
    *borrow = 1;
  });
  dom.run();

  EXPECT_EQ(dom.process_failures(), 1u);
  const std::string& report = dom.first_failure();
  EXPECT_NE(report.find("race detector"), std::string::npos) << report;
  EXPECT_NE(report.find("test.counter"), std::string::npos) << report;
  EXPECT_NE(report.find("reader-proc"), std::string::npos) << report;
  EXPECT_NE(report.find("writer-proc"), std::string::npos) << report;
  EXPECT_NE(report.find("held across a suspension point"), std::string::npos)
      << report;
#endif
}

TEST(ChkRace, MomentaryAccessesNeverConflict) {
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  chk::SharedCell<int> cell("test.counter");
  for (int p = 0; p < 4; ++p) {
    host.spawn("proc" + std::to_string(p), [&](ipc::Process self) -> Co<void> {
      for (int i = 0; i < 8; ++i) {
        {
          auto borrow = cell.write(self);
          *borrow += 1;
        }
        co_await self.delay(1 * kMillisecond);
        auto check = cell.read(self);
        EXPECT_GT(*check, 0);
      }
    });
  }
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_EQ(cell.raw(), 32);
}

// --- protocol lint: malformed client requests ------------------------------

TEST(ChkLint, NameIndexPastLengthRejectedWithDecodedDump) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto bad = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    msg::cs::set_name_index(bad, 9);  // 9 > namelength 3
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(bad, fx.alpha_pid, segs);
    // Rejected by the kernel-side lint, not the server.
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  const std::string& dump = fx.dom.lint().first_dump();
  EXPECT_NE(dump.find("nameindex exceeds namelength"), std::string::npos)
      << dump;
  // The dump decodes the offending header field by field.
  EXPECT_NE(dump.find("kQueryName"), std::string::npos) << dump;
  EXPECT_NE(dump.find("nameindex    = 9"), std::string::npos) << dump;
  EXPECT_NE(dump.find("namelength   = 3"), std::string::npos) << dump;
#endif
}

TEST(ChkLint, NameBytesAbsentRejected) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    // Claims an 8-byte name but attaches no read segment.
    auto bad = msg::cs::make_request(msg::kQueryName,
                                     naming::kDefaultContext, 8);
    const auto reply = co_await self.send(bad, fx.alpha_pid);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(fx.dom.lint().first_dump().find(
                "name bytes absent from sender segment"),
            std::string::npos)
      << fx.dom.lint().first_dump();
#endif
}

TEST(ChkLint, SubProtocolRequestCodeRejected) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    msg::Message bad;
    bad.set_code(0x0042);  // below every protocol code range
    const auto reply = co_await self.send(bad, fx.alpha_pid);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(fx.dom.lint().first_dump().find(
                "request code below protocol ranges"),
            std::string::npos)
      << fx.dom.lint().first_dump();
#endif
}

TEST(ChkLint, WellFormedTrafficPassesWithZeroRejects) {
  VFixture fx;
  fx.run_client([](ipc::Process /*self*/, svc::Rt rt) -> Co<void> {
    auto desc = co_await rt.query("usr/mann/naming.mss");
    EXPECT_TRUE(desc.ok());
    EXPECT_EQ(co_await rt.create("tmp/ok.txt", 0), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("tmp/ok.txt"), ReplyCode::kOk);
  });
#if V_CHECKS_ENABLED
  EXPECT_GT(fx.dom.lint().counters().requests_checked, 0u);
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 0u);
  EXPECT_EQ(fx.dom.lint().counters().server_violations, 0u);
  EXPECT_TRUE(fx.dom.lint().first_dump().empty())
      << fx.dom.lint().first_dump();
#endif
}

// --- protocol lint: server-side conformance --------------------------------

TEST(ChkLint, NonStandardReplyCodeCountedAndStillDelivered) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& host = dom.add_host("ws");
  BadReplyServer bad;
  const auto bad_pid =
      host.spawn("bad-server", [&](ipc::Process p) { return bad.run(p); });
  std::uint16_t delivered_code = 0;
  host.spawn("client", [&](ipc::Process self) -> Co<void> {
    msg::Message req;
    req.set_code(0x0350);  // any misc op -> handle_custom
    const auto reply = co_await self.send(req, bad_pid);
    delivered_code = reply.code();
  });
  dom.run();

  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  // The violation is recorded AND the reply still reaches the client, so
  // the non-conformance is visible end to end.
  EXPECT_EQ(delivered_code, 0x7777);
  EXPECT_EQ(dom.lint().counters().server_violations, 1u);
  const std::string& dump = dom.lint().first_dump();
  EXPECT_NE(dump.find("non-standard reply code"), std::string::npos) << dump;
  EXPECT_NE(dump.find("bad-server"), std::string::npos) << dump;
#endif
}

// --- protocol lint: context resolvability is a statistic, never an error ---

TEST(ChkLint, StaleContextIdsAreCountedNotRejected) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  VFixture fx;
  fx.run_client([&](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "x";
    // Unresolvable context, never forwarded: a confused client.
    auto fresh = msg::cs::make_request(msg::kQueryName, 0xdead0001, 1);
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto r1 = co_await self.send(fresh, fx.alpha_pid, segs);
    // Delivered to the server (NOT lint-rejected); the server answers per
    // the paper's stale-context protocol.
    EXPECT_EQ(r1.reply_code(), ReplyCode::kInvalidContext);

    // Same id but already forwarded once: a stale cross-server pointer.
    auto stale = msg::cs::make_request(msg::kQueryName, 0xdead0001, 1);
    msg::cs::set_forward_count(stale, 1);
    const auto r2 = co_await self.send(stale, fx.alpha_pid, segs);
    EXPECT_EQ(r2.reply_code(), ReplyCode::kInvalidContext);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 0u);
  EXPECT_EQ(fx.dom.lint().counters().invalid_context_requests, 1u);
  EXPECT_EQ(fx.dom.lint().counters().stale_context_forwards, 1u);
#endif
}

// --- protocol lint: shadow model ---------------------------------------------

#if V_CHECKS_ENABLED
/// The protocol lint as a plain std::map reference: the same checks, the
/// same counters and the same dump text, written for obviousness.  The
/// production ProtocolLint keeps its registry and ledger in flat hash
/// tables; the randomized test below holds the two to identical results.
class LintReference {
 public:
  void register_server(std::uint32_t pid, const std::string& label,
                       std::function<bool(std::uint32_t)> ctx_valid,
                       std::uint32_t gen_floor) {
    if (gen_floor != 0) {
      auto& floor = floors_[label];
      if (gen_floor <= floor) {
        ++counters.stale_incarnations;
        std::ostringstream out;
        out << "protocol lint: stale incarnation of server '" << label
            << "' (pid " << pid << "): generation floor " << gen_floor
            << " does not exceed previous floor " << floor << "\n";
        record(out.str());
      } else {
        floor = gen_floor;
      }
    }
    servers_[pid] = Server{label, std::move(ctx_valid)};
  }
  void register_worker(std::uint32_t pid, const std::string& label,
                       std::uint32_t server_pid) {
    workers_[pid] = Worker{label, server_pid};
  }
  void forget(std::uint32_t pid) {
    servers_.erase(pid);
    workers_.erase(pid);
    std::erase_if(outstanding_,
                  [pid](const auto& kv) { return kv.first.first == pid; });
  }
  void settle(std::uint32_t server_pid, std::uint32_t client_pid) {
    auto it = outstanding_.find({server_pid, client_pid});
    if (it != outstanding_.end() && it->second > 0) --it->second;
  }
  std::optional<ReplyCode> check_request(const msg::Message& m,
                                         std::uint32_t sender,
                                         std::size_t segment,
                                         std::uint32_t dest,
                                         std::uint64_t now) {
    const auto server = servers_.find(dest);
    if (server == servers_.end()) return std::nullopt;
    ++counters.requests_checked;
    const auto reject = [&](const char* why) {
      ++counters.client_rejects;
      std::ostringstream out;
      out << "protocol lint: malformed request rejected: " << why << "\n"
          << "  sender pid " << sender << " -> server '"
          << server->second.label << "' (pid " << dest << ") at t=" << now
          << "\n"
          << chk::decode_message(m);
      record(out.str());
      return ReplyCode::kBadArgs;
    };
    if (m.code() < 0x0100) return reject("request code below protocol ranges");
    if (msg::is_csname_request(m.code())) {
      const std::uint16_t index = msg::cs::name_index(m);
      const std::uint16_t length = msg::cs::name_length(m);
      if (index > length) return reject("nameindex exceeds namelength");
      if (length > chk::kMaxCheckedNameLength) {
        return reject("namelength exceeds protocol maximum");
      }
      if (length > 0 && segment < length) {
        return reject("name bytes absent from sender segment");
      }
      if (server->second.ctx_valid &&
          !server->second.ctx_valid(msg::cs::context_id(m))) {
        if (msg::cs::forward_count(m) > 0) {
          ++counters.stale_context_forwards;
        } else {
          ++counters.invalid_context_requests;
        }
      }
      const std::uint8_t flags = msg::cs::cs_flags(m);
      if ((flags &
           ~(msg::cs::kFlagExpectGen | msg::cs::kFlagRecoveryProbe)) != 0) {
        return reject("unknown CSname header flag bits");
      }
      if ((flags & msg::cs::kFlagExpectGen) == 0 &&
          msg::cs::expected_generation(m) != 0) {
        return reject("expected-generation bytes set without the flag");
      }
    }
    ++outstanding_[{dest, sender}];
    return std::nullopt;
  }
  void check_reply(const msg::Message& m, std::uint32_t from, std::uint32_t to,
                   std::uint64_t now) {
    std::string label;
    std::uint32_t canonical = from;
    if (const auto s = servers_.find(from); s != servers_.end()) {
      label = s->second.label;
    } else if (const auto w = workers_.find(from); w != workers_.end()) {
      label = w->second.label;
      if (w->second.server_pid != 0) canonical = w->second.server_pid;
    } else {
      return;
    }
    ++counters.replies_checked;
    auto it = outstanding_.find({canonical, to});
    if (it == outstanding_.end() || it->second == 0) {
      ++counters.duplicate_replies;
      std::ostringstream out;
      out << "protocol lint: duplicate reply from server process '" << label
          << "' (pid " << from << ") to pid " << to << " at t=" << now
          << ": no request outstanding\n"
          << chk::decode_message(m);
      record(out.str());
    } else {
      --it->second;
    }
    if (m.code() > chk::kMaxReplyCode) {
      ++counters.server_violations;
      std::ostringstream out;
      out << "protocol lint: non-standard reply code from server process '"
          << label << "' (pid " << from << ") to pid " << to
          << " at t=" << now << "\n"
          << chk::decode_message(m);
      record(out.str());
    }
  }

  chk::ProtocolLint::Counters counters;
  std::string first_dump;

 private:
  struct Server {
    std::string label;
    std::function<bool(std::uint32_t)> ctx_valid;
  };
  struct Worker {
    std::string label;
    std::uint32_t server_pid = 0;
  };
  void record(std::string dump) {
    if (first_dump.empty()) first_dump = std::move(dump);
  }
  std::map<std::uint32_t, Server> servers_;
  std::map<std::uint32_t, Worker> workers_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
      outstanding_;
  std::map<std::string, std::uint32_t> floors_;
};

void expect_same_counters(const chk::ProtocolLint::Counters& got,
                          const chk::ProtocolLint::Counters& want,
                          int step) {
  ASSERT_EQ(got.requests_checked, want.requests_checked) << "step " << step;
  ASSERT_EQ(got.replies_checked, want.replies_checked) << "step " << step;
  ASSERT_EQ(got.client_rejects, want.client_rejects) << "step " << step;
  ASSERT_EQ(got.server_violations, want.server_violations) << "step " << step;
  ASSERT_EQ(got.stale_context_forwards, want.stale_context_forwards)
      << "step " << step;
  ASSERT_EQ(got.invalid_context_requests, want.invalid_context_requests)
      << "step " << step;
  ASSERT_EQ(got.duplicate_replies, want.duplicate_replies) << "step " << step;
  ASSERT_EQ(got.stale_incarnations, want.stale_incarnations)
      << "step " << step;
}
#endif  // V_CHECKS_ENABLED

TEST(ChkLint, RandomizedStepsMatchMapReferenceModel) {
#if !V_CHECKS_ENABLED
  GTEST_SKIP() << "built with V_CHECKS=OFF";
#else
  // 120k steps in 60 epochs: each epoch starts a fresh lint and model, so
  // 60 first dumps are compared, not just the first of one long run.
  constexpr int kEpochs = 60;
  constexpr int kStepsPerEpoch = 2'000;
  std::mt19937_64 rng(0x11A7);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  // Pids spread over the 32-bit range (host in the high half, like real
  // pids) so packed ledger keys exercise both halves.
  std::vector<std::uint32_t> pids;
  for (std::uint32_t host = 1; host <= 8; ++host) {
    for (std::uint32_t local = 1; local <= 8; ++local) {
      pids.push_back((host << 16) | local);
    }
  }
  const std::vector<std::string> labels = {"fs-a", "fs-b", "prefix", "pipe",
                                           "shard-0", "shard-1"};
  const std::vector<std::uint16_t> request_codes = {
      0x0000, 0x0005, 0x00ff,                          // below the ranges
      msg::kMapContextName, msg::kQueryName, msg::kCreateInstance,
      msg::kRemoveName, msg::kRenameName, msg::kCreateName,
      0x0200, 0x0350, 0x0399};                         // non-CSname ops
  const auto ctx_valid = [](std::uint32_t ctx) { return ctx % 3 != 0; };
  std::uint64_t now = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    chk::ProtocolLint lint;
    LintReference model;
    for (int i = 0; i < kStepsPerEpoch; ++i) {
      const int step = epoch * kStepsPerEpoch + i;
      now += pick(1'000);
      const std::uint32_t a = pids[pick(pids.size())];
      const std::uint32_t b = pids[pick(pids.size())];
      const std::uint64_t op = pick(100);
      if (op < 4) {  // (re-)register a server, sometimes with a floor
        const std::string& label = labels[pick(labels.size())];
        const std::uint32_t floor =
            pick(2) == 0 ? 0 : static_cast<std::uint32_t>(pick(40));
        std::function<bool(std::uint32_t)> valid;
        if (pick(4) != 0) valid = ctx_valid;
        lint.register_server(a, label, valid, floor);
        model.register_server(a, label, valid, floor);
      } else if (op < 8) {  // a team worker, settling its own or a server's
        const std::string& label = labels[pick(labels.size())];
        const std::uint32_t server = pick(3) == 0 ? 0 : b;
        lint.register_worker(a, label, server);
        model.register_worker(a, label, server);
      } else if (op < 10) {
        lint.forget(a);
        model.forget(a);
      } else if (op < 55) {  // a request, mostly well formed
        msg::Message m;
        for (auto& byte : m.raw()) byte = static_cast<std::byte>(pick(256));
        m.set_code(request_codes[pick(request_codes.size())]);
        if (pick(4) != 0) {
          if (pick(8) != 0) m.raw()[msg::cs::kOffCsFlags] = std::byte{0};
          const auto length = static_cast<std::uint16_t>(pick(64));
          msg::cs::set_name_length(m, length);
          msg::cs::set_name_index(m, static_cast<std::uint16_t>(
                                         pick(std::uint64_t{length} + 2)));
          msg::cs::set_forward_count(m, static_cast<std::uint8_t>(pick(3)));
          msg::cs::set_context_id(m, static_cast<std::uint32_t>(pick(30)));
          if (pick(2) == 0) {
            msg::cs::set_expected_generation(
                m, static_cast<std::uint32_t>(pick(9)));
          } else {
            msg::cs::clear_expected_generation(m);
          }
          if (pick(8) == 0) msg::cs::set_recovery_probe(m);
        }
        const std::size_t segment = pick(80);
        const auto got = lint.check_request(m, b, segment, a, now);
        const auto want = model.check_request(m, b, segment, a, now);
        ASSERT_EQ(got, want) << "step " << step;
      } else if (op < 90) {  // a reply, rarely with a non-standard code
        msg::Message m;
        m.set_code(static_cast<std::uint16_t>(
            pick(16) == 0 ? chk::kMaxReplyCode + 1 + pick(8)
                          : pick(chk::kMaxReplyCode + 1)));
        lint.check_reply(m, a, b, now);
        model.check_reply(m, a, b, now);
      } else if (op < 96) {
        lint.note_forwarded(a, b);
        model.settle(a, b);
      } else {
        lint.note_unanswered(a, b);
        model.settle(a, b);
      }
      expect_same_counters(lint.counters(), model.counters, step);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(lint.first_dump(), model.first_dump) << "epoch " << epoch;
  }
#endif
}

}  // namespace
}  // namespace v
