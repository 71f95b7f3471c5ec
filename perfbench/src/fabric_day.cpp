// fabric-day and churn-day: the production forest served by an 8-shard
// prefix fabric (servers/shard_fabric.hpp), driven by the benchmark's own
// closed-loop clients through svc::ShardRouter.
//
// fabric-day is E14's widest cell: 256 client hosts, Zipf 0.9 over 256
// prefixes, warm-up -> steady -> flash crowd (40% of draws on one prefix)
// -> steady, no faults.  Shard-team queueing on the Zipf head and on the
// flash crowd dominates.
//
// churn-day is E14's churn cell: 64 hosts keep the same fabric below
// saturation while v::fault crashes one shard and restarts it, so shard
// map repair (stale refusals, refetches, noreply retries, retransmits,
// handoff and handback) dominates.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "servers/shard_fabric.hpp"
#include "sim/task.hpp"
#include "svc/shard_router.hpp"
#include "wload/forest.hpp"
#include "wload/rng.hpp"
#include "wload/scenario.hpp"

namespace vbench {
namespace {

using namespace v;
using sim::kMillisecond;

constexpr std::size_t kShards = 8;
constexpr std::size_t kFileServers = 8;
constexpr std::size_t kFabricHosts = 256;
constexpr std::size_t kChurnHosts = 64;

/// The day's script.  The warm-up is simulated during set-up, so every
/// client holds a shard map before the measured window opens.
wload::Scenario make_scenario(std::uint64_t seed, bool churn) {
  wload::Scenario s;
  s.seed = seed;
  s.zipf_alpha = 0.9;
  s.read_fraction = 0.5;
  s.think_min = 8 * kMillisecond;
  s.think_max = 24 * kMillisecond;
  using wload::PhaseKind;
  if (churn) {
    s.phases = {
        {.kind = PhaseKind::kWarmup, .duration = 16000 * kMillisecond},
        {.kind = PhaseKind::kSteady, .duration = 12000 * kMillisecond},
        {.kind = PhaseKind::kChurn, .duration = 36000 * kMillisecond},
        {.kind = PhaseKind::kSteady, .duration = 12000 * kMillisecond},
    };
  } else {
    s.phases = {
        {.kind = PhaseKind::kWarmup, .duration = 8000 * kMillisecond},
        {.kind = PhaseKind::kSteady, .duration = 12000 * kMillisecond},
        {.kind = PhaseKind::kFlash, .duration = 12000 * kMillisecond,
         .hot_fraction = 0.4, .hot_prefix = 0},
        {.kind = PhaseKind::kSteady, .duration = 12000 * kMillisecond},
    };
  }
  return s;
}

class FabricDay {
 public:
  FabricDay(const Options& opt, bool churn, Recorder& rec, DayResult& out)
      : opt_(opt), churn_(churn), rec_(rec), out_(out),
        scenario_(make_scenario(opt.seed, churn)),
        forest_(build_forest(opt.seed, out)),
        zipf_(forest_.prefix_count(), scenario_.zipf_alpha),
        hosts_(churn ? kChurnHosts : kFabricHosts),
        fabric_(dom_, {.shards = kShards,
                       .team = {.workers = 4, .queue_cap = 256}}),
        plan_(opt.seed ^ 0xE14) {}

  void run() {
    setup();
    warm_up(dom_, window_start_, &plan_, out_);
    measure_window(dom_, opt_, &plan_, out_);
    out_.window = day_end_ - window_start_;

    const auto& churn = fabric_.churn_stats();
    out_.handoffs = churn.handoffs;
    out_.handbacks = churn.handbacks;
    out_.handoff_ms = churn.last_handoff_ms;
    out_.handback_ms = churn.last_handback_ms;
    check_domain(dom_, done_, hosts_, out_);
    if (churn_ && (churn.handoffs != 1 || churn.handbacks != 1)) {
      out_.failures.push_back(
          "churn-day needs exactly one handoff and one handback, saw " +
          std::to_string(churn.handoffs) + "/" +
          std::to_string(churn.handbacks));
    }
  }

 private:
  static wload::Forest build_forest(std::uint64_t seed, DayResult& out) {
    const Clock::time_point t = Clock::now();
    wload::ForestSpec spec;
    spec.prefixes = 256;
    spec.dirs_per_prefix = 4;
    spec.files_per_dir = 8;
    spec.seed = seed;
    wload::Forest forest(spec);
    out.forest_build_s = seconds_since(t);
    return forest;
  }

  void setup() {
    // Storage must not be the bottleneck: the day measures the naming
    // fabric.  Eight team-of-4 file servers clear the widest cell's demand.
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
    fabric_.install(forest_.install(fs_ptrs, fs_pids));

    rank_stride_ = rank_stride(forest_.prefix_count());

    sim::SimTime at = 0;
    for (const wload::Phase& p : scenario_.phases) {
      if (p.kind == wload::PhaseKind::kChurn) {
        // Kill a mid-map shard early in the churn phase and restart it
        // two-thirds through: handoff and handback both happen under load.
        const std::size_t victim = kShards / 2;
        plan_.crash_at(at + p.duration / 8, fabric_.host(victim).id(),
                       [this] { fabric_.on_crash(kShards / 2); });
        plan_.restart_at(at + (p.duration * 2) / 3, fabric_.host(victim).id(),
                         [this] { fabric_.on_restart(kShards / 2); });
      }
      at += p.duration;
      phase_ends_.push_back(at);
    }
    // The plan is installed on the fault-free day too: v::fault's
    // transaction tracking drops a map-fetch reply that outlives its group
    // timeout under the flash crowd instead of letting it complete the
    // client's next send.
    dom_.install_faults(plan_);
    window_start_ = scenario_.phases.front().duration;
    day_end_ = at;
    rec_.set_window_start(window_start_);

    for (std::size_t i = 0; i < hosts_; ++i) {
      ipc::Host& host = dom_.add_host("wl" + std::to_string(i));
      host.spawn(kClientProc,
                 [this, i](ipc::Process self) { return client(self, i); });
    }
  }

  [[nodiscard]] std::size_t phase_at(sim::SimTime t) const noexcept {
    for (std::size_t i = 0; i + 1 < phase_ends_.size(); ++i) {
      if (t < phase_ends_[i]) return i;
    }
    return phase_ends_.size() - 1;
  }

  sim::Co<void> client(ipc::Process self, std::size_t index) {
    wload::HostStream rng(scenario_.seed, index);
    svc::Rt rt(self, svc::NameEnv{});
    svc::ShardRouter router(rt, {.fabric_group = fabric_.group()});
    const auto think_span = static_cast<std::uint64_t>(scenario_.think_max -
                                                       scenario_.think_min);
    // Jittered start: the fleet ramps in over the first simulated second
    // and runs the rest of the warm-up at full load.
    co_await self.delay(
        static_cast<sim::SimDuration>(rng.below(static_cast<std::uint64_t>(kRampIn))));

    while (self.now() < day_end_) {
      const std::size_t pi = phase_at(self.now());
      const wload::Phase& phase = scenario_.phases[pi];
      std::size_t prefix =
          (zipf_.sample(rng) * rank_stride_) % forest_.prefix_count();
      if (phase.kind == wload::PhaseKind::kFlash &&
          rng.chance(phase.hot_fraction)) {
        prefix = phase.hot_prefix % forest_.prefix_count();
      }
      const std::string& name = forest_.name(forest_.file_under(prefix, rng));
      const bool verify = rng.chance(scenario_.read_fraction);

      const std::uint64_t op = rec_.next_op();
      const sim::SimTime started = self.now();
      sim::SimDuration held = 0;  // self-test pause inside this op
      const svc::ShardRouter::Stats before = router.stats();
      auto opened = co_await router.open(name, naming::wire::kOpenRead);
      rec_.call(op, index, pi, started, Call::kOpen, started, self.now());
      bool ok = opened.ok();
      bool wrong = false;
      if (ok) {
        svc::File file = opened.take().file;
        if (opt_.delay > 0) {
          co_await self.delay(opt_.delay);
          held = opt_.delay;
        }
        if (verify) {
          const sim::SimTime t = self.now();
          auto bytes = co_await file.read_all();
          rec_.call(op, index, pi, started, Call::kRead, t, self.now());
          if (!bytes.ok()) {
            ok = false;
          } else {
            const std::string expect = wload::Forest::content_for(name);
            const auto& got = bytes.value();
            wrong = got.size() != expect.size() ||
                    std::memcmp(got.data(), expect.data(), expect.size()) != 0;
          }
        }
        const sim::SimTime t = self.now();
        const ReplyCode closed = co_await file.close();
        rec_.call(op, index, pi, started, Call::kClose, t, self.now());
        if (closed != ReplyCode::kOk) ok = false;
      }
      rec_.finish(rec_.opens, started, self.now(), ok, wrong);
      if (rec_.measured(started)) {
        const svc::ShardRouter::Stats& after = router.stats();
        out_.svc.map_fetches += after.map_fetches - before.map_fetches;
        out_.svc.stale_retries += after.stale_retries - before.stale_retries;
        out_.svc.noreply_retries +=
            after.noreply_retries - before.noreply_retries;
        out_.svc.busy_retries += after.busy_retries - before.busy_retries;
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

  const Options& opt_;
  const bool churn_;
  Recorder& rec_;
  DayResult& out_;
  wload::Scenario scenario_;
  wload::Forest forest_;
  wload::Zipf zipf_;
  std::size_t hosts_;
  // Declared before the servers and the fabric, destroyed after them.
  ipc::Domain dom_{ipc::CalibrationParams::SunWorkstation3Mbit()};
  std::vector<std::unique_ptr<servers::FileServer>> fs_;
  servers::ShardFabric fabric_;
  fault::FaultPlan plan_;
  std::size_t rank_stride_ = 1;
  std::vector<sim::SimTime> phase_ends_;
  sim::SimTime window_start_ = 0;
  sim::SimTime day_end_ = 0;
  std::size_t done_ = 0;
};

}  // namespace

void run_fabric_day(const Options& opt, bool churn, Recorder& rec,
                    DayResult& out) {
  FabricDay day(opt, churn, rec, out);
  day.run();
}

}  // namespace vbench
