// cached-mutate: the paper's own topology with validated client caching
// and a name space that changes under the readers.
//
// Eight workstations each run a ContextPrefixServer and one svc::NameCache
// shared by the workstation's eight client programs.  Five file servers
// form a forwarding chain (fs_j holds a link "n" to fs_{j+1}); the forest's
// prefix directories are spread over the chain, so "[vol]n/n/<p>/<d>/<f>"
// is interpreted by the prefix server, then forwarded hop by hop: depths
// 0 to 4 mixed, as in E12's resolution storm.  Clients open through
// Rt::open_cached; a cache hit goes one hop to the final server, validated
// by the directory's generation.
//
// A fixed share of operations create, rename or remove client-owned temporary
// names inside the same shared directories the other clients read.  Each
// mutation bumps the directory's generation, so other workstations' cached
// bindings for it are refused (kStaleContext) and re-resolved.  The
// directory working set (128) exceeds each cache's capacity (32), so the
// hit ratio stays strictly between 0 and 1.  The benchmark keeps its own
// model of every temporary name and checks the final name space against it.
#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "servers/prefix_server.hpp"
#include "sim/task.hpp"
#include "svc/name_cache.hpp"
#include "svc/runtime.hpp"
#include "wload/forest.hpp"
#include "wload/rng.hpp"
#include "wload/scenario.hpp"

namespace vbench {
namespace {

using namespace v;
using sim::kMillisecond;

constexpr std::size_t kWorkstations = 8;
constexpr std::size_t kClientsPerWs = 8;
constexpr std::size_t kClients = kWorkstations * kClientsPerWs;
constexpr std::size_t kFileServers = 5;
constexpr std::size_t kCacheCapacity = 32;
constexpr double kMutateShare = 0.1;
/// Temporary names a client keeps alive before it starts renaming and
/// removing them.
constexpr std::size_t kTempLive = 2;

wload::Scenario make_scenario(std::uint64_t seed) {
  wload::Scenario s;
  s.seed = seed;
  s.zipf_alpha = 0.9;
  s.read_fraction = 0.5;
  s.think_min = 8 * kMillisecond;
  s.think_max = 24 * kMillisecond;
  s.phases = {
      {.kind = wload::PhaseKind::kWarmup, .duration = 16000 * kMillisecond},
      {.kind = wload::PhaseKind::kSteady, .duration = 64000 * kMillisecond},
  };
  return s;
}

class CachedMutate {
 public:
  CachedMutate(const Options& opt, Recorder& rec, DayResult& out)
      : opt_(opt), rec_(rec), out_(out),
        scenario_(make_scenario(opt.seed)),
        forest_(build_forest(opt.seed, out)),
        zipf_(forest_.prefix_count(), scenario_.zipf_alpha),
        temp_names_(dir_count()) {}

  void run() {
    setup();
    warm_up(dom_, window_start_, nullptr, out_);
    const SvcCounters cache_start = cache_counters();
    measure_window(dom_, opt_, nullptr, out_);
    out_.window = day_end_ - window_start_;
    const SvcCounters cache_end = cache_counters();
    out_.svc.cache_hits = cache_end.cache_hits - cache_start.cache_hits;
    out_.svc.cache_misses = cache_end.cache_misses - cache_start.cache_misses;
    out_.svc.cache_stale = cache_end.cache_stale - cache_start.cache_stale;
    out_.svc.cache_fallbacks =
        cache_end.cache_fallbacks - cache_start.cache_fallbacks;
    check_domain(dom_, done_, kClients, out_);
    verify_name_space();
  }

 private:
  static wload::Forest build_forest(std::uint64_t seed, DayResult& out) {
    const Clock::time_point t = Clock::now();
    wload::ForestSpec spec;
    spec.prefixes = 32;
    spec.dirs_per_prefix = 4;
    spec.files_per_dir = 8;
    spec.seed = seed;
    wload::Forest forest(spec);
    out.forest_build_s = seconds_since(t);
    return forest;
  }

  [[nodiscard]] std::size_t dir_count() const noexcept {
    return forest_.prefix_count() * forest_.spec().dirs_per_prefix;
  }
  [[nodiscard]] std::size_t dir_of(std::size_t file) const noexcept {
    return file / forest_.spec().files_per_dir;
  }

  void setup() {
    std::vector<servers::FileServer*> fs_ptrs;
    std::vector<ipc::ProcessId> fs_pids;
    for (std::size_t i = 0; i < kFileServers; ++i) {
      ipc::Host& host = dom_.add_host("fs" + std::to_string(i));
      fs_.push_back(std::make_unique<servers::FileServer>(
          "fs" + std::to_string(i), servers::DiskModel::kMemory,
          /*register_service=*/false,
          naming::TeamConfig{.workers = 4, .queue_cap = 256}));
      servers::FileServer* srv = fs_.back().get();
      fs_ptrs.push_back(srv);
      fs_pids.push_back(host.spawn(
          kFileProc + std::to_string(i), [srv](ipc::Process p) { return srv->run(p); }));
    }
    // Prefix p lands on fs_{p % 5} under "<p>/"; the prefix bindings the
    // install returns are not used: every name enters the chain at fs0.
    (void)forest_.install(fs_ptrs, fs_pids);
    for (std::size_t i = 0; i + 1 < kFileServers; ++i) {
      fs_[i]->put_link("n", {fs_pids[i + 1], naming::kDefaultContext});
    }
    root_ = {fs_pids[0], naming::kDefaultContext};

    // Chain names: "[vol]" + "n/" x depth + "<prefix>/<dir>", and the leaf.
    dir_path_.resize(dir_count());
    leaves_.resize(dir_count());
    file_path_.resize(forest_.file_count());
    for (std::size_t f = 0; f < forest_.file_count(); ++f) {
      const std::string& name = forest_.name(f);  // "[p]dir/leaf"
      const std::size_t close = name.find(']');
      const std::string prefix = name.substr(1, close - 1);
      const std::string rest = name.substr(close + 1);
      const std::size_t slash = rest.find('/');
      std::string dir = "[vol]";
      for (std::size_t h = 0; h < forest_.prefix_of(f) % kFileServers; ++h) {
        dir += "n/";
      }
      dir += prefix + "/" + rest.substr(0, slash);
      dir_path_[dir_of(f)] = dir;
      file_path_[f] = dir + "/" + rest.substr(slash + 1);
      leaves_[dir_of(f)].insert(rest.substr(slash + 1));
    }

    rank_stride_ = rank_stride(forest_.prefix_count());

    window_start_ = scenario_.phases.front().duration;
    day_end_ = scenario_.total_duration();
    rec_.set_window_start(window_start_);

    for (std::size_t w = 0; w < kWorkstations; ++w) {
      ipc::Host& host = dom_.add_host("ws" + std::to_string(w));
      prefix_.push_back(std::make_unique<servers::ContextPrefixServer>(
          "ws" + std::to_string(w), /*register_service=*/false));
      servers::ContextPrefixServer* srv = prefix_.back().get();
      srv->define("vol", {.target = root_});
      prefix_pids_.push_back(host.spawn(
          kPrefixProc + std::to_string(w), [srv](ipc::Process p) { return srv->run(p); }));
      caches_.push_back(std::make_unique<svc::NameCache>(kCacheCapacity));
      for (std::size_t c = 0; c < kClientsPerWs; ++c) {
        const std::size_t index = w * kClientsPerWs + c;
        host.spawn(kClientProc, [this, w, index](ipc::Process self) {
          return client(self, w, index);
        });
      }
    }
  }

  [[nodiscard]] SvcCounters cache_counters() const {
    SvcCounters s;
    for (const auto& cache : caches_) {
      s.cache_hits += cache->hits();
      s.cache_misses += cache->misses();
      s.cache_stale += cache->stale();
      s.cache_fallbacks += cache->fallbacks();
    }
    return s;
  }

  [[nodiscard]] std::size_t draw_prefix(wload::HostStream& rng) const {
    return (zipf_.sample(rng) * rank_stride_) % forest_.prefix_count();
  }

  struct Temp {
    std::size_t dir = 0;
    std::string leaf;
    bool renamed = false;
  };

  sim::Co<void> client(ipc::Process self, std::size_t ws, std::size_t index) {
    wload::HostStream rng(scenario_.seed, index);
    svc::Rt rt(self, svc::NameEnv{prefix_pids_[ws], root_});
    svc::NameCache& cache = *caches_[ws];
    std::deque<Temp> mine;
    std::uint64_t created = 0;
    const auto think_span = static_cast<std::uint64_t>(scenario_.think_max -
                                                       scenario_.think_min);
    co_await self.delay(
        static_cast<sim::SimDuration>(rng.below(static_cast<std::uint64_t>(kRampIn))));

    while (self.now() < day_end_) {
      const std::size_t prefix = draw_prefix(rng);
      const std::uint64_t op = rec_.next_op();
      const sim::SimTime started = self.now();
      sim::SimDuration held = 0;  // self-test pause inside this op
      if (rng.chance(kMutateShare)) {
        // Create until kTempLive names are live, then rename the oldest
        // once and remove it on its next turn.
        const std::size_t dir = prefix * forest_.spec().dirs_per_prefix +
                                rng.below(forest_.spec().dirs_per_prefix);
        Call call = Call::kCreate;
        std::string path;
        std::string new_leaf;
        ReplyCode rc = ReplyCode::kOk;
        if (mine.size() < kTempLive) {
          mine.push_back({dir, "z" + std::to_string(index) + "n" +
                                   std::to_string(created++)});
          path = dir_path_[dir] + "/" + mine.back().leaf;
          rc = co_await rt.create(path);
        } else if (!mine.front().renamed) {
          call = Call::kRename;
          path = dir_path_[mine.front().dir] + "/" + mine.front().leaf;
          new_leaf = mine.front().leaf + "r";
          rc = co_await rt.rename(path, new_leaf);
        } else {
          call = Call::kRemove;
          path = dir_path_[mine.front().dir] + "/" + mine.front().leaf;
          rc = co_await rt.remove(path);
        }
        rec_.call(op, index, 0, started, call, started, self.now());
        const bool ok = rc == ReplyCode::kOk;
        // kBusy is a shed: the request had no effect.  Every other refusal
        // contradicts the model (the client owns these names) and is a
        // wrong reply.
        const bool wrong = !ok && rc != ReplyCode::kBusy;
        if (call == Call::kCreate) {
          if (ok) {
            temp_names_[mine.back().dir].insert(mine.back().leaf);
          } else {
            mine.pop_back();
          }
        } else if (ok && call == Call::kRename) {
          Temp s = mine.front();
          mine.pop_front();
          temp_names_[s.dir].erase(s.leaf);
          temp_names_[s.dir].insert(new_leaf);
          s.leaf = new_leaf;
          s.renamed = true;
          mine.push_back(std::move(s));
        } else if (ok) {
          temp_names_[mine.front().dir].erase(mine.front().leaf);
          mine.pop_front();
        }
        rec_.finish(rec_.mutations, started, self.now(), ok, wrong);
      } else {
        const std::size_t file = forest_.file_under(prefix, rng);
        const bool verify = rng.chance(scenario_.read_fraction);
        auto opened = co_await rt.open_cached(cache, file_path_[file],
                                              naming::wire::kOpenRead);
        rec_.call(op, index, 0, started, Call::kOpen, started, self.now());
        bool ok = opened.ok();
        bool wrong = false;
        if (ok) {
          svc::File handle = opened.take();
          if (opt_.delay > 0) {
            co_await self.delay(opt_.delay);
            held = opt_.delay;
          }
          if (verify) {
            const sim::SimTime t = self.now();
            auto bytes = co_await handle.read_all();
            rec_.call(op, index, 0, started, Call::kRead, t, self.now());
            if (!bytes.ok()) {
              ok = false;
            } else {
              const std::string expect =
                  wload::Forest::content_for(forest_.name(file));
              const auto& got = bytes.value();
              wrong = got.size() != expect.size() ||
                      std::memcmp(got.data(), expect.data(), expect.size()) !=
                          0;
            }
          }
          const sim::SimTime t = self.now();
          const ReplyCode closed = co_await handle.close();
          rec_.call(op, index, 0, started, Call::kClose, t, self.now());
          if (closed != ReplyCode::kOk) ok = false;
        }
        rec_.finish(rec_.opens, started, self.now(), ok, wrong);
      }
      rec_.spin(started);
      // The self-test's pause comes out of the think time, so the offered
      // load of the closed loop stays the same.
      const auto think = scenario_.think_min +
                         static_cast<sim::SimDuration>(rng.below(think_span));
      co_await self.delay(std::max<sim::SimDuration>(0, think - held));
    }
    ++done_;
  }

  /// After the day: list every shared directory through the protocol and
  /// compare it with the forest's leaves plus the model's temporary names.
  void verify_name_space() {
    std::size_t mismatched = 0;
    bool finished = false;
    // On the first workstation, next to its prefix server.
    dom_.hosts()[kFileServers]->spawn(
        "verify", [this, &mismatched, &finished](ipc::Process self) {
          return list_all(self, mismatched, finished);
        });
    dom_.run();
    if (!finished) {
      out_.failures.push_back("name-space verifier did not finish");
    } else if (mismatched != 0) {
      out_.failures.push_back("final name space differs from the model in " +
                              std::to_string(mismatched) + " directories");
    }
  }

  sim::Co<void> list_all(ipc::Process self, std::size_t& mismatched,
                         bool& finished) {
    svc::Rt rt(self, svc::NameEnv{prefix_pids_.front(), root_});
    for (std::size_t d = 0; d < dir_count(); ++d) {
      auto listed = co_await rt.list_context(dir_path_[d]);
      std::set<std::string> expect = leaves_[d];
      expect.insert(temp_names_[d].begin(), temp_names_[d].end());
      std::set<std::string> got;
      if (listed.ok()) {
        for (const auto& desc : listed.value()) got.insert(desc.name);
      }
      if (!listed.ok() || got != expect) ++mismatched;
    }
    finished = true;
  }

  const Options& opt_;
  Recorder& rec_;
  DayResult& out_;
  wload::Scenario scenario_;
  wload::Forest forest_;
  wload::Zipf zipf_;
  std::vector<std::set<std::string>> temp_names_;  ///< model: live temporary names
  std::vector<std::set<std::string>> leaves_;   ///< forest leaves per dir
  std::vector<std::string> dir_path_;
  std::vector<std::string> file_path_;
  // Declared before the servers, destroyed after them.
  ipc::Domain dom_{ipc::CalibrationParams::SunWorkstation3Mbit()};
  std::vector<std::unique_ptr<servers::FileServer>> fs_;
  std::vector<std::unique_ptr<servers::ContextPrefixServer>> prefix_;
  std::vector<ipc::ProcessId> prefix_pids_;
  std::vector<std::unique_ptr<svc::NameCache>> caches_;
  naming::ContextPair root_;
  std::size_t rank_stride_ = 1;
  sim::SimTime window_start_ = 0;
  sim::SimTime day_end_ = 0;
  std::size_t done_ = 0;
};

}  // namespace

void run_cached_mutate(const Options& opt, Recorder& rec, DayResult& out) {
  CachedMutate day(opt, rec, out);
  day.run();
}

}  // namespace vbench
