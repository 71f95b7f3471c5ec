// E8 (paper section 2.2): distributed name interpretation versus the
// centralized name server, along the paper's three quantitative axes:
//
//   Efficiency  — per-resolution latency (fresh lookup each time, as the
//                 paper argues caching would "only benefit the few
//                 applications that reuse names");
//   Consistency — stale registry entries after object deletions;
//   Reliability — fraction of reachable objects that remain nameable as
//                 hosts fail.
#include "baseline/central.hpp"
#include "bench_util.hpp"
#include "naming/protocol.hpp"

using namespace v;
using sim::Co;
using sim::to_ms;

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::headline("E8", "distributed interpretation vs centralized name "
                        "server (section 2.2)");

  ipc::Domain dom;
  auto& ws = dom.add_host("ws1");
  auto& fs1h = dom.add_host("fs1");
  auto& fs2h = dom.add_host("fs2");
  auto& nsh = dom.add_host("ns1");

  constexpr int kFiles = 64;
  servers::FileServer fs1("fs1");
  servers::FileServer fs2("fs2", servers::DiskModel::kMemory, false);
  for (int i = 0; i < kFiles / 2; ++i) {
    fs1.put_file("data/a" + std::to_string(i), "alpha object");
    fs2.put_file("data/b" + std::to_string(i), "beta object");
  }
  const auto fs1_pid =
      fs1h.spawn("fs1", [&](ipc::Process p) { return fs1.run(p); });
  const auto fs2_pid =
      fs2h.spawn("fs2", [&](ipc::Process p) { return fs2.run(p); });

  servers::ContextPrefixServer prefixes;
  prefixes.define("fs1", {.target = {fs1_pid, naming::kDefaultContext}});
  prefixes.define("fs2", {.target = {fs2_pid, naming::kDefaultContext}});
  ws.spawn("prefix-server", [&](ipc::Process p) { return prefixes.run(p); });

  baseline::CentralNameServer central;
  for (int i = 0; i < kFiles / 2; ++i) {
    central.preload("/fs1/data/a" + std::to_string(i),
                    {{fs1_pid, fs1.context_of("data")},
                     std::string("a").append(std::to_string(i))});
    central.preload("/fs2/data/b" + std::to_string(i),
                    {{fs2_pid, fs2.context_of("data")},
                     std::string("b").append(std::to_string(i))});
  }
  const auto ns_pid =
      nsh.spawn("central-ns", [&](ipc::Process p) { return central.run(p); });

  double distributed_ms = 0, distributed_prefix_ms = 0, central_ms = 0;
  int stale_lookups = 0, stale_uses_failed = 0;
  int central_named_after_ns_death = 0, distributed_named_after_ns_death = 0;
  int distributed_named_after_fs2_death = 0;
  const bool ok = bench::run_client(dom, ws, [&](ipc::Process self)
                                                  -> Co<void> {
    auto rt = co_await svc::Rt::attach(
        self, {fs1_pid, naming::kDefaultContext});
    baseline::CentralClient nc(self, ns_pid);

    // --- efficiency ---------------------------------------------------------
    // The paper's claim is about the number of SERVER INTERACTIONS per
    // reference: interpreting the name at the object's own server is one;
    // the central model inserts a registry transaction first.  The common
    // distributed case is the current context (no prefix); the prefix path
    // adds only LOCAL work (measured by E4) and is reported separately.
    constexpr int kIters = 32;
    rt.set_current({fs1_pid, naming::kDefaultContext});
    auto t0 = self.now();
    for (int i = 0; i < kIters; ++i) {
      const std::string name = "data/a" + std::to_string(i % 16);
      auto opened = co_await rt.open(name, naming::wire::kOpenRead);
      svc::File f = opened.take();
      (void)co_await f.close();
    }
    distributed_ms = to_ms(self.now() - t0) / kIters;

    t0 = self.now();
    for (int i = 0; i < kIters; ++i) {
      const std::string name = "[fs1]data/a" + std::to_string(i % 16);
      auto opened = co_await rt.open(name, naming::wire::kOpenRead);
      svc::File f = opened.take();
      (void)co_await f.close();
    }
    distributed_prefix_ms = to_ms(self.now() - t0) / kIters;

    t0 = self.now();
    for (int i = 0; i < kIters; ++i) {
      const std::string name = "/fs1/data/a" + std::to_string(i % 16);
      auto binding = co_await nc.lookup(name);
      rt.set_current(binding.value().home);
      auto opened =
          co_await rt.open(binding.value().leaf, naming::wire::kOpenRead);
      svc::File f = opened.take();
      (void)co_await f.close();
    }
    central_ms = to_ms(self.now() - t0) / kIters;
    rt.set_current({fs1_pid, naming::kDefaultContext});

    // --- consistency ----------------------------------------------------------
    // Delete 8 objects through the distributed protocol (name and object
    // die together); the central registry is not told.
    for (int i = 0; i < 8; ++i) {
      const std::string vname = "[fs1]data/a" + std::to_string(i);
      (void)co_await rt.remove(vname);
    }
    for (int i = 0; i < 8; ++i) {
      const std::string cname = "/fs1/data/a" + std::to_string(i);
      auto binding = co_await nc.lookup(cname);
      if (binding.ok()) {
        ++stale_lookups;
        rt.set_current(binding.value().home);
        auto opened =
            co_await rt.open(binding.value().leaf, naming::wire::kOpenRead);
        if (!opened.ok()) ++stale_uses_failed;
      }
    }
    rt.set_current({fs1_pid, naming::kDefaultContext});

    // --- reliability -----------------------------------------------------------
    // Kill the name server's host; count which of 16 fs2 objects each
    // model can still name and reach.
    nsh.crash();
    for (int i = 0; i < 16; ++i) {
      const std::string cname = "/fs2/data/b" + std::to_string(i);
      auto binding = co_await nc.lookup(cname);
      if (binding.ok()) ++central_named_after_ns_death;
      const std::string vname = "[fs2]data/b" + std::to_string(i);
      auto opened = co_await rt.open(vname, naming::wire::kOpenRead);
      if (opened.ok()) {
        ++distributed_named_after_ns_death;
        svc::File f = opened.take();
        (void)co_await f.close();
      }
    }
    // Symmetric stress for the distributed model: kill fs2 itself; objects
    // on fs2 are gone for everyone (names died WITH their objects), while
    // fs1 objects stay nameable.
    fs2h.crash();
    for (int i = 8; i < 16; ++i) {
      const std::string vname = "[fs1]data/a" + std::to_string(i);
      auto opened = co_await rt.open(vname, naming::wire::kOpenRead);
      if (opened.ok()) {
        ++distributed_named_after_fs2_death;
        svc::File f = opened.take();
        (void)co_await f.close();
      }
    }
  });
  if (!ok) return 1;

  bench::note("efficiency (fresh resolution + open + close, remote server):");
  bench::row("distributed: current-context interpretation", distributed_ms);
  bench::row("distributed: via (local) context prefix", distributed_prefix_ms);
  bench::row("centralized: registry lookup + direct open", central_ms);
  std::printf("  extra cost of the name-server interaction vs current-"
              "context: %+.0f%%\n",
              100.0 * (central_ms - distributed_ms) / distributed_ms);
  bench::note("  the prefix path's premium is all LOCAL prefix-server time");
  bench::note("  (E4's 3.9 ms delta); the central premium is an extra");
  bench::note("  NETWORK transaction that scales with server distance.");
  bench::note("");
  bench::note("consistency (8 objects deleted at their home server):");
  std::printf("  central registry entries still resolving (stale): %d/8\n",
              stale_lookups);
  std::printf("  stale bindings that failed when used:             %d/%d\n",
              stale_uses_failed, stale_lookups);
  bench::note("  distributed model: names die with objects — 0 stale by "
              "construction.");
  bench::note("");
  bench::note("reliability (name-server host crashed):");
  std::printf("  centrally nameable fs2 objects:    %d/16\n",
              central_named_after_ns_death);
  std::printf("  distributed nameable fs2 objects:  %d/16\n",
              distributed_named_after_ns_death);
  std::printf("  after fs2 ALSO dies, fs1 objects still nameable "
              "(distributed): %d/8\n",
              distributed_named_after_fs2_death);
  bench::note("  a server crash takes out exactly its own objects — there");
  bench::note("  is no central failure point that unnames healthy ones.");
  return bench::finish(json_path);
}
