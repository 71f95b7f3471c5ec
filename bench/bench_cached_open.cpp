// E4 extension: the validated cached open path (DESIGN.md 4g,
// PROTOCOL.md 11).
//
// The paper's E4 table prices a remote Open at 3.70 ms in the current
// context and 7.69 ms through the context prefix server.  A client holding
// a generation-stamped binding for the directory part goes straight to the
// final server in ONE message transaction — so a warm cached open of a
// "[prefix]dir/leaf" name should cost what the paper charges for a direct
// remote open, while staying CORRECT: any name-space mutation since the
// binding was learned is refused with STALE_CONTEXT and transparently
// re-resolved (where the unvalidated section-2.2 cache returned wrong
// answers).
//
// Two tables:
//   1. warm-hit latency + message accounting against the E4 rows;
//   2. a reuse-ratio x mutation-rate sweep showing what churn costs: leaf
//      mutations (file creates) leave every binding valid, while context
//      mutations (MakeContext) refuse them and the benefit decays.
#include "bench_util.hpp"
#include "naming/protocol.hpp"
#include "svc/name_cache.hpp"

using namespace v;
using sim::Co;
using sim::to_ms;

namespace {

struct HitNumbers {
  double uncached_prefix_ms = 0;  ///< full resolution via prefix server
  double direct_remote_ms = 0;    ///< E4 baseline: current ctx, remote
  double warm_hit_ms = 0;         ///< cached one-hop open
  std::uint64_t warm_messages = 0;
  std::uint64_t warm_forwards = 0;
};

HitNumbers measure_warm_hit() {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  servers::FileServer remote_fs("remote");
  remote_fs.put_file("f.dat", "remote bytes");
  servers::ContextPrefixServer prefixes;
  const auto remote_pid =
      fs1.spawn("remote-fs", [&](ipc::Process p) { return remote_fs.run(p); });
  prefixes.define("r", {.target = {remote_pid, naming::kDefaultContext}});
  ws1.spawn("prefix-server", [&](ipc::Process p) { return prefixes.run(p); });

  HitNumbers out;
  bench::run_client(dom, ws1, [&](ipc::Process self) -> Co<void> {
    auto rt = co_await svc::Rt::attach(
        self, {remote_pid, naming::kDefaultContext});
    auto time_open_only = [&](std::string_view name) -> Co<double> {
      constexpr int kIters = 50;
      sim::SimDuration total = 0;
      for (int i = 0; i < kIters; ++i) {
        const auto t0 = self.now();
        auto opened = co_await rt.open(name, naming::wire::kOpenRead);
        total += self.now() - t0;
        svc::File f = opened.take();
        (void)co_await f.close();
      }
      co_return to_ms(total) / kIters;
    };
    // Uncached rows, exactly as E4 measures them.
    out.uncached_prefix_ms = co_await time_open_only("[r]f.dat");
    out.direct_remote_ms = co_await time_open_only("f.dat");
    // Cached: one cold open learns the binding, then every open of the
    // prefixed name is a validated one-hop hit.
    svc::NameCache cache;
    rt.set_cache(&cache);
    {
      auto cold = co_await rt.open("[r]f.dat", naming::wire::kOpenRead);
      svc::File f = cold.take();
      (void)co_await f.close();
    }
    // Message accounting for a single warm open (close kept outside).
    const auto before = dom.stats();
    {
      auto warm = co_await rt.open("[r]f.dat", naming::wire::kOpenRead);
      const auto after = dom.stats();
      out.warm_messages = after.messages_sent - before.messages_sent;
      out.warm_forwards = after.forwards - before.forwards;
      svc::File f = warm.take();
      (void)co_await f.close();
    }
    out.warm_hit_ms = co_await time_open_only("[r]f.dat");
    rt.set_cache(nullptr);
  });
  return out;
}

struct SweepCell {
  double mean_open_ms = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;
  std::uint64_t fallbacks = 0;
  int wrong = 0;  ///< opens whose bytes contradicted the current name space
};

/// What the sweep's churn does to the directory it mutates.
enum class Churn {
  kLeaf,     ///< CreateName of a plain file: the generation stays
  kContext,  ///< MakeContext: advances the directory's generation and
             ///< invalidates any binding learned before it
};

/// 64 opens spread round-robin over `dirs` directories on a remote server;
/// when `mutate_every` > 0, every such open is preceded by a `churn`
/// mutation in the same directory.
SweepCell measure_cell(int dirs, int mutate_every, Churn churn) {
  constexpr int kOpens = 64;
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  servers::FileServer fs("fs", servers::DiskModel::kMemory, false);
  for (int d = 0; d < dirs; ++d) {
    for (int f = 0; f < (kOpens + dirs - 1) / dirs; ++f) {
      fs.put_file("dir" + std::to_string(d) + "/f" + std::to_string(f) +
                      ".dat",
                  "x");
    }
  }
  const auto fs_pid =
      fs1.spawn("fs", [&](ipc::Process p) { return fs.run(p); });

  SweepCell cell;
  bench::run_client(dom, ws1, [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self,
               {ipc::ProcessId::invalid(), {fs_pid, naming::kDefaultContext}});
    svc::NameCache cache;
    rt.set_cache(&cache);
    sim::SimDuration open_total = 0;
    for (int i = 0; i < kOpens; ++i) {
      const int d = i % dirs;
      const std::string dir = "dir" + std::to_string(d);
      if (mutate_every > 0 && i > 0 && i % mutate_every == 0) {
        // The name space moves underneath the cache (untimed: this prices
        // the opens, not the churn).
        const std::string made = dir + "/m" + std::to_string(i) + ".dat";
        if (churn == Churn::kLeaf) {
          (void)co_await rt.create(made);
        } else {
          (void)co_await rt.make_context(made);
        }
      }
      const std::string name =
          dir + "/f" + std::to_string(i / dirs) + ".dat";
      const auto t0 = self.now();
      auto opened = co_await rt.open(name, naming::wire::kOpenRead);
      open_total += self.now() - t0;
      if (!opened.ok()) {
        ++cell.wrong;
        continue;
      }
      svc::File file = opened.take();
      auto bytes = co_await file.read_bulk();
      (void)co_await file.close();
      if (!bytes.ok() || bytes.value().empty() ||
          static_cast<char>(bytes.value()[0]) != 'x') {
        ++cell.wrong;
      }
    }
    cell.mean_open_ms = to_ms(open_total) / kOpens;
    cell.hits = cache.hits();
    cell.misses = cache.misses();
    cell.stale = cache.stale();
    cell.fallbacks = cache.fallbacks();
    rt.set_cache(nullptr);
  });
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const int repeats = bench::repeat_from_args(argc, argv);
  int rc = 0;

  bench::headline("E4-cached", "validated cached open (one-hop warm hits)");
  bench::run_info(0, "SUN 3 Mbit (default)");
  {
    const ipc::Domain probe;
    bench::obs_info(probe);
  }

  HitNumbers hit;
  const double host_ms =
      bench::median_host_ms(repeats, [&] { hit = measure_warm_hit(); });
  bench::row("uncached open via [prefix], server remote",
             hit.uncached_prefix_ms, 7.69);
  bench::row("direct open, current ctx remote (E4 row)", hit.direct_remote_ms,
             3.70);
  bench::row("cached warm hit on the [prefix] name", hit.warm_hit_ms, 3.70);
  bench::note("");
  bench::note("warm hit transport: " + std::to_string(hit.warm_messages) +
              " message transaction(s), " + std::to_string(hit.warm_forwards) +
              " forwards");
  if (hit.warm_messages != 1 || hit.warm_forwards != 0) {
    bench::note("FAILURE: a warm hit must be exactly one direct transaction");
    rc = 1;
  }
  const double vs_paper = 100.0 * (hit.warm_hit_ms - 3.70) / 3.70;
  if (vs_paper < -5.0 || vs_paper > 5.0) {
    bench::note("FAILURE: warm hit strays more than 5% from the paper's "
                "3.70 ms direct remote open");
    rc = 1;
  }
  std::printf("  host wall-clock per measurement: %.1f ms (median of %d)\n",
              host_ms, repeats);

  bench::headline("E4-cached-sweep", "reuse ratio x mutation rate (64 opens)");
  std::uint64_t hits = 0, misses = 0, stale = 0, fallbacks = 0;
  int wrong = 0;
  struct Column {
    int mutate_every;
    Churn churn;
    const char* label;
  };
  constexpr Column kColumns[] = {
      {0, Churn::kLeaf, "no mutation"},
      {8, Churn::kLeaf, "leaf mutate 1/8"},
      {2, Churn::kLeaf, "leaf mutate 1/2"},
      {8, Churn::kContext, "context mutate 1/8"},
      {2, Churn::kContext, "context mutate 1/2"},
  };
  for (const int dirs : {1, 8, 64}) {
    for (const Column& column : kColumns) {
      const SweepCell cell =
          measure_cell(dirs, column.mutate_every, column.churn);
      const std::string label =
          std::to_string(dirs) + " dirs, " + column.label + " (" +
          std::to_string(cell.hits) + " hits, " +
          std::to_string(cell.stale) + " stale)";
      bench::row(label, cell.mean_open_ms);
      hits += cell.hits;
      misses += cell.misses;
      stale += cell.stale;
      fallbacks += cell.fallbacks;
      wrong += cell.wrong;
    }
  }
  bench::note("");
  bench::cache_stats(hits, misses, stale, fallbacks);
  if (wrong != 0) {
    bench::note("FAILURE: " + std::to_string(wrong) +
                " open(s) returned bytes that contradict the name space");
    rc = 1;
  } else {
    bench::note("every open returned current-name-space bytes: stale");
    bench::note("bindings were refused and re-resolved, never believed.");
  }
  return bench::finish(json_path, rc);
}
