// Harness pieces shared by the workloads: call recording, counter
// snapshots, the calibrated clock of the measured window, and the shared
// correctness checks.
#include "harness.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <vector>

#include "sim/task.hpp"

namespace vbench {

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

const char* call_name(Call c) noexcept {
  switch (c) {
    case Call::kOpen: return "open";
    case Call::kRead: return "read";
    case Call::kClose: return "close";
    case Call::kCreate: return "create";
    case Call::kRename: return "rename";
    case Call::kRemove: return "remove";
  }
  return "?";
}

void Recorder::call(std::uint64_t op, std::size_t client, std::size_t phase,
                    v::sim::SimTime op_started, Call c,
                    v::sim::SimTime invoke, v::sim::SimTime complete) {
  if (!measured(op_started)) return;
  const auto k = static_cast<std::size_t>(c);
  call_ns[k] += complete - invoke;
  if (opt_.profile) {
    spans.push_back(Span{op, static_cast<std::uint32_t>(client),
                         static_cast<std::uint8_t>(phase), c, invoke,
                         complete});
  }
}

void Recorder::finish(Outcomes& kind, v::sim::SimTime started,
                      v::sim::SimTime completed, bool ok, bool wrong_reply) {
  if (wrong_reply) ++wrong;  // a wrong reply fails the run, window or not
  if (!measured(started)) return;
  ++kind.attempted;
  if (wrong_reply) return;
  if (ok) {
    kind.lat.push_back(completed - started);
  } else {
    ++kind.failed;
  }
}

std::size_t rank_stride(std::size_t n) {
  std::size_t stride = std::max<std::size_t>(1, (n * 618) / 1000);
  while (n > 1 && std::gcd(stride, n) != 1) ++stride;
  return stride;
}

void Recorder::spin(v::sim::SimTime op_started) const {
  if (opt_.spin_ns == 0 || !measured(op_started)) return;
  const auto until = Clock::now() + std::chrono::nanoseconds(opt_.spin_ns);
  while (Clock::now() < until) {
  }
}

namespace {

/// Read one registry value as a number (0 when absent).
[[maybe_unused]] double registry_value(const v::obs::MetricsRegistry& reg,
                                       std::string_view scope,
                                       std::string_view name) {
  const auto text = reg.value_text(scope, name);
  return text ? std::strtod(text->c_str(), nullptr) : 0.0;
}

}  // namespace

Snapshot snapshot(v::ipc::Domain& dom, const v::fault::FaultPlan* plan) {
  Snapshot s;
  s.ipc = dom.stats();
  s.events = dom.loop().events_executed();
  s.loop = dom.loop().stats();
  s.frames = v::sim::FramePool::instance().stats();
  if (plan != nullptr) s.fault = plan->stats();
#if V_TRACE_ENABLED
  const v::obs::MetricsRegistry& reg = dom.metrics();
  for (const std::string& scope : reg.scopes()) {
    if (!reg.value_text(scope, "requests")) continue;
    Snapshot::Server& srv = s.servers[scope];
    srv.requests = registry_value(reg, scope, "requests");
    srv.sheds = registry_value(reg, scope, "sheds");
    srv.stale = registry_value(reg, scope, "stale_context");
    srv.forwarded = registry_value(reg, scope, "forwarded");
  }
  s.flight_records = dom.flight().records();
  s.trace_sampled = dom.tracer().sampler().sampled();
#endif
  return s;
}

namespace {

/// The reference kernel: random read-modify-writes over a 4 MiB table
/// (twice the per-core L2, so it leans on the shared L3 as the simulator
/// does) and a 128 KiB one, mixed with xorshift arithmetic.  It never
/// touches the simulator's code or data, so a change to src/ cannot move
/// it.
class Reference {
 public:
  static Reference& instance() {
    static Reference ref;
    return ref;
  }
  void run() noexcept {
    for (int i = 0; i < kSteps; ++i) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      const std::size_t k = (x_ >> 20) & (small_.size() - 1);
      small_[k] += large_[(x_ >> 7) & (large_.size() - 1)]++;
      sum_ += small_[(k * 31) & (small_.size() - 1)];
    }
  }

 private:
  static constexpr int kSteps = 2000;
  Reference() : small_(std::size_t{1} << 14), large_(std::size_t{1} << 19) {}
  std::vector<std::uint64_t> small_;
  std::vector<std::uint64_t> large_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum_ = 0;
};

/// Host time of the measured window, run in fixed simulated slices with a
/// fixed reference kernel timed after each slice (README.md, "Calibrated
/// host time").  The shared host's speed drifts by tens of percent over
/// seconds; the reference drifts with it, so raw / reference cancels the
/// drift while any change to the simulator's own cost stays in `raw_s`.
class SlicedClock {
 public:
  /// Simulated length of one slice.
  static constexpr v::sim::SimDuration kSlice = 20 * v::sim::kMillisecond;
  /// The reference kernel's time per slice on an uncontended host of the
  /// kind the benchmark was tuned on: the unit calibrated times are in.
  static constexpr double kReferenceNominalS = 50e-6;

  /// Run `loop` until no events remain.
  void drain(v::sim::EventLoop& loop);

  /// Host wall time spent in the simulator's slices (reference excluded).
  [[nodiscard]] double raw_s() const noexcept { return raw_s_; }
  /// How much slower the reference ran than nominal (1 = nominal).
  [[nodiscard]] double slowdown() const noexcept;

 private:
  void slice(v::sim::EventLoop& loop, v::sim::SimTime until);

  double raw_s_ = 0;
  double reference_s_ = 0;
  std::uint64_t slices_ = 0;
};

void SlicedClock::slice(v::sim::EventLoop& loop, v::sim::SimTime until) {
  const Clock::time_point t0 = Clock::now();
  loop.run_until(until);
  const Clock::time_point t1 = Clock::now();
  Reference::instance().run();
  const Clock::time_point t2 = Clock::now();
  raw_s_ += std::chrono::duration<double>(t1 - t0).count();
  reference_s_ += std::chrono::duration<double>(t2 - t1).count();
  ++slices_;
}

void SlicedClock::drain(v::sim::EventLoop& loop) {
  for (v::sim::SimTime t = loop.now(); loop.pending() != 0;) {
    t += kSlice;
    slice(loop, t);
  }
}

double SlicedClock::slowdown() const noexcept {
  return slices_ == 0 ? 1.0
                      : reference_s_ /
                            (static_cast<double>(slices_) * kReferenceNominalS);
}

/// Sum per-fiber host time of the traced run into the DayResult layer
/// fields (no-op in a build without V_TRACE).
void attribute_fibers(v::ipc::Domain& dom, DayResult& out) {
#if V_TRACE_ENABLED
  const auto starts = [](const std::string& name, const std::string& stem) {
    return name.compare(0, stem.size(), stem) == 0;
  };
  for (const auto& f : dom.top_fibers(static_cast<std::size_t>(-1))) {
    const double s = static_cast<double>(f.wall_ns) * 1e-9;
    if (starts(f.name, kClientProc)) {
      out.svc_host_s += s;
    } else if (starts(f.name, kFileProc)) {
      out.file_host_s += s;
    } else {
      // Prefix servers, fabric shards and their handoff/handback agents.
      out.naming_host_s += s;
    }
  }
#else
  (void)dom;
  (void)out;
#endif
}

}  // namespace

void warm_up(v::ipc::Domain& dom, v::sim::SimTime window_start,
             const v::fault::FaultPlan* plan, DayResult& out) {
  dom.loop().run_until(window_start);
  out.begin = snapshot(dom, plan);
  out.raw_setup_s = seconds_since(process_start());
  (void)Reference::instance();  // allocate the tables outside any timing
}

void measure_window(v::ipc::Domain& dom, const Options& opt,
                    const v::fault::FaultPlan* plan, DayResult& out) {
#if V_TRACE_ENABLED
  v::sim::fiber_profiling() = opt.profile;
#endif
  SlicedClock clock;
  clock.drain(dom.loop());
#if V_TRACE_ENABLED
  v::sim::fiber_profiling() = false;
#endif
  out.end = snapshot(dom, plan);
  out.raw_wall_s = clock.raw_s();
  out.wall_s = clock.raw_s() / clock.slowdown();
  // Set-up ran seconds before the window, well inside the host's drift
  // time scale, so the window's slowdown calibrates it too.
  out.setup_s = out.raw_setup_s / clock.slowdown();
  out.slowdown = clock.slowdown();
  if (opt.profile) attribute_fibers(dom, out);
}

void check_domain(v::ipc::Domain& dom, std::size_t clients_done,
                  std::size_t clients, DayResult& out) {
  if (dom.process_failures() != 0) {
    out.failures.push_back("process failure: " + dom.first_failure());
  }
  if (clients_done != clients) {
    out.failures.push_back("clients finished: " +
                           std::to_string(clients_done) + "/" +
                           std::to_string(clients));
  }
}

}  // namespace vbench
