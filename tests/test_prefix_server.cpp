// Tests for the context prefix server: '[prefix]' routing, the optional
// Add/DeleteContextName operations, logical (GetPid-at-use) entries, and
// crash/rebinding behaviour.
#include <gtest/gtest.h>

#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::DescriptorType;
using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using test::VFixture;

/// Open `name` through `rt` quoting a generation the prefix table never
/// had, expect kStaleContext, and return the simulated time it took.
Co<sim::SimDuration> stale_open_took(ipc::Process self, svc::Rt& rt,
                                     std::string name) {
  auto req = msg::cs::make_request(msg::kCreateInstance,
                                   naming::kDefaultContext, 0, kOpenRead);
  msg::cs::set_expected_generation(req, 0xfffffffe);  // never allocated
  const sim::SimTime sent = self.now();
  const auto reply = co_await rt.send_csname(req, name);
  EXPECT_EQ(reply.reply_code(), ReplyCode::kStaleContext);
  co_return self.now() - sent;
}

TEST(PrefixServer, StaleGenerationIsRefusedFromTheHeaderAlone) {
  // PROTOCOL.md 11: a request quoting an out-of-date generation is refused
  // before a single name byte moves and before the prefix server charges
  // its per-request processing: it costs the stub's send_build and its
  // two hops, nothing more.  A client on the prefix server's host and one
  // across the wire (whose name would otherwise be copied) both see it.
  VFixture fx;
  const std::string name = "[alpha]usr/mann/naming.mss";
  sim::SimDuration far_took = -1;
  std::uint64_t far_moves = 0, far_bytes = 0;
  fx.fs2.spawn("far-client", [&](ipc::Process self) -> Co<void> {
    co_await self.delay(100 * kMillisecond);  // after the local client
    svc::Rt rt(self, svc::NameEnv{.prefix_server = fx.prefix_pid,
                                  .current = {}});
    const auto before = fx.dom.stats();
    far_took = co_await stale_open_took(self, rt, name);
    far_moves = fx.dom.stats().moves - before.moves;
    far_bytes = fx.dom.stats().bytes_moved - before.bytes_moved;
  });
  fx.run_client([&fx, &name](ipc::Process self, svc::Rt rt) -> Co<void> {
    const sim::SimDuration took = co_await stale_open_took(self, rt, name);
    EXPECT_EQ(took, self.params().send_build + 2 * self.params().hop(true));
    EXPECT_LT(took, fx.dom.params().prefix_processing);
  });
  EXPECT_EQ(far_took,
            fx.dom.params().send_build + 2 * fx.dom.params().hop(false));
  EXPECT_EQ(far_moves, 0u);
  EXPECT_EQ(far_bytes, 0u);
}

TEST(PrefixServer, PrefixedOpenRoutesToTargetServer) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("[beta]pub/readme", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    EXPECT_EQ(f.server(), fx.beta_pid);
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(PrefixServer, HomeAndBinPrefixes) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto home = co_await rt.open("[home]naming.mss", kOpenRead);
    EXPECT_TRUE(home.ok());
    if (home.ok()) {
      svc::File f = home.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    auto bin = co_await rt.open("[bin]edit", kOpenRead);
    EXPECT_TRUE(bin.ok());
    if (bin.ok()) {
      svc::File f = bin.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

TEST(PrefixServer, UnknownPrefixIsNotFound) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("[nosuch]file", kOpenRead);
    EXPECT_EQ(opened.code(), ReplyCode::kNotFound);
  });
}

TEST(PrefixServer, AddAndDeletePrefixThroughProtocol) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.add_prefix(
                  "pub", {fx.beta_pid, fx.beta.context_of("pub")}),
              ReplyCode::kOk);
    auto opened = co_await rt.open("[pub]readme", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(co_await rt.delete_prefix("pub"), ReplyCode::kOk);
    EXPECT_EQ((co_await rt.open("[pub]readme", kOpenRead)).code(),
              ReplyCode::kNotFound);
    EXPECT_EQ(co_await rt.delete_prefix("pub"), ReplyCode::kNotFound);
  });
}

TEST(PrefixServer, RedefinitionRetargetsPrefix) {
  // Redefining an existing prefix must update the local table — NOT forward
  // the request to the old target (the defines-leaf rule in the walk).
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.add_prefix(
                  "work", {fx.alpha_pid, fx.alpha.context_of("usr/mann")}),
              ReplyCode::kOk);
    auto one = co_await rt.open("[work]naming.mss", kOpenRead);
    EXPECT_TRUE(one.ok());
    if (one.ok()) {
      svc::File f = one.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ(co_await rt.add_prefix(
                  "work", {fx.beta_pid, fx.beta.context_of("pub")}),
              ReplyCode::kOk);
    auto two = co_await rt.open("[work]readme", kOpenRead);
    EXPECT_TRUE(two.ok());
    if (two.ok()) {
      svc::File f = two.take();
      EXPECT_EQ(f.server(), fx.beta_pid);
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

TEST(PrefixServer, MapContextThroughPrefix) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto mapped = co_await rt.map_context("[beta]pub/data");
    EXPECT_TRUE(mapped.ok());
    EXPECT_EQ(mapped.value().server, fx.beta_pid);
    EXPECT_EQ(mapped.value().context, fx.beta.context_of("pub/data"));
  });
}

TEST(PrefixServer, ContextDirectoryListsPrefixTable) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt rt) -> Co<void> {
    // Open the prefix server's own context directory by talking to it as
    // the current context.
    rt.set_current({fx.prefix_pid, naming::kDefaultContext});
    auto records = co_await rt.list_context("");
    EXPECT_TRUE(records.ok());
    if (!records.ok()) co_return;
    EXPECT_EQ(records.value().size(), 5u);  // alpha beta home bin storage
    bool saw_logical = false;
    for (const auto& rec : records.value()) {
      EXPECT_EQ(rec.type, DescriptorType::kPrefix);
      EXPECT_EQ(rec.owner, "mann");
      if (rec.name == "storage") {
        saw_logical = true;
        EXPECT_NE(rec.flags & naming::kLogical, 0);
      }
    }
    EXPECT_TRUE(saw_logical);
    (void)self;
  });
}

TEST(PrefixServer, LogicalPrefixResolvesViaGetPid) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    // [storage] binds to ServiceId::kStorageServer at each use; alpha is
    // the registered storage server.
    auto opened = co_await rt.open("[storage]usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(f.server(), fx.alpha_pid);
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

TEST(PrefixServer, LogicalPrefixRebindsAfterCrashRestart) {
  // The paper's motivation for logical entries: "it has proven useful to be
  // able to give character string names to generic services in this way."
  VFixture fx;
  servers::FileServer replacement("alpha-v2");
  replacement.put_file("usr/mann/naming.mss", "recovered content");
  ipc::ProcessId replacement_pid;

  fx.dom.loop().schedule_at(50 * kMillisecond, [&] { fx.fs1.crash(); });
  fx.dom.loop().schedule_at(100 * kMillisecond, [&] {
    fx.fs1.restart();
    replacement_pid = fx.fs1.spawn(
        "alpha-v2", [&](ipc::Process p) { return replacement.run(p); });
  });

  fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
    // Before the crash: works against the original alpha.
    auto before = co_await rt.open("[storage]usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(before.ok());
    if (before.ok()) {
      svc::File f = before.take();
      EXPECT_EQ(f.server(), fx.alpha_pid);
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    co_await self.delay(200 * kMillisecond);  // crash + restart happen
    // Same NAME keeps working; it now binds to the replacement server.
    auto after = co_await rt.open("[storage]usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(after.ok());
    if (after.ok()) {
      svc::File f = after.take();
      EXPECT_EQ(f.server(), replacement_pid);
      EXPECT_NE(f.server(), fx.alpha_pid);
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // An ordinary (pid-bound) prefix to the dead pid fails instead.  The
    // fixture's rebind group is probed first (V-fault recovery), but the
    // replacement never joined it, so the probe passes in silence and the
    // group timeout surfaces — a clean failure, never a wrong binding.
    auto stale = co_await rt.open("[alpha]usr/mann/naming.mss", kOpenRead);
    EXPECT_EQ(stale.code(), ReplyCode::kTimeout);
  });
}

TEST(PrefixServer, PerUserTablesAreIndependent) {
  VFixture fx;
  // A second workstation with its own user and different prefixes.
  auto& ws2 = fx.dom.add_host("ws2");
  servers::ContextPrefixServer other("cheriton");
  other.define("docs", {.target = {fx.beta_pid, fx.beta.context_of("pub")}});
  ws2.spawn("prefix-server-2",
            [&](ipc::Process p) { return other.run(p); });

  bool ws2_done = false;
  ws2.spawn("client2", [&](ipc::Process self) -> Co<void> {
    auto rt = co_await svc::Rt::attach(
        self, naming::ContextPair{fx.beta_pid, naming::kDefaultContext});
    // [docs] exists for cheriton...
    auto ok = co_await rt.open("[docs]readme", kOpenRead);
    EXPECT_TRUE(ok.ok());
    if (ok.ok()) {
      svc::File f = ok.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // ...but mann's [home] does not exist here.
    EXPECT_EQ((co_await rt.open("[home]naming.mss", kOpenRead)).code(),
              ReplyCode::kNotFound);
    ws2_done = true;
  });
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    // mann's [home] works on ws1; [docs] does not.
    auto ok = co_await rt.open("[home]naming.mss", kOpenRead);
    EXPECT_TRUE(ok.ok());
    if (ok.ok()) {
      svc::File f = ok.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    EXPECT_EQ((co_await rt.open("[docs]readme", kOpenRead)).code(),
              ReplyCode::kNotFound);
  });
  EXPECT_TRUE(ws2_done);
}

TEST(PrefixServer, FootprintIsSmall) {
  // Mirror of the paper's 4.5 KB code + 2.6 KB data observation: the table
  // for a typical user stays in the low kilobytes.
  VFixture fx;
  EXPECT_EQ(fx.prefixes.entry_count(), 5u);
  EXPECT_LT(fx.prefixes.table_bytes(), 2600u);
}

}  // namespace
}  // namespace v
