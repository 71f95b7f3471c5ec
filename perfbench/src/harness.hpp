// Shared harness of the repository benchmark (see ../README.md).
//
// One vbench process runs ONE simulated day of one workload: set-up
// (forest build, domain and server construction, client spawn, and the
// simulated warm-up phase), then the measured window, then the
// correctness checks.  It prints one "RESULT {...}" JSON line; run.py
// repeats processes, takes medians and checks identity across them.
//
// The harness times every client-layer call itself, in simulated time,
// from invoke to complete.  Latency statistics are exact order statistics
// over the recorded samples, never histogram buckets.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "ipc/kernel.hpp"
#include "sim/frame_pool.hpp"
#include "sim/time.hpp"

namespace vbench {

using Clock = std::chrono::steady_clock;

/// Host clock reading taken first thing in main(): set-up time is measured
/// from here.
Clock::time_point process_start();

[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Traced run: per-fiber host-time profiling plus the span dump.
  bool profile = false;
  std::string spans_path;
  /// Sensitivity self-test: host busy-wait added to every operation.  It
  /// must move wall_s and nothing simulated.
  std::uint64_t spin_ns = 0;
  /// Sensitivity self-test: simulated pause inside every open operation
  /// (between open and close).  It must move the open latencies.
  v::sim::SimDuration delay = 0;
};

/// Client-layer calls the harness times.
enum class Call : std::uint8_t { kOpen, kRead, kClose, kCreate, kRename,
                                 kRemove };
inline constexpr std::size_t kCallKinds = 6;
[[nodiscard]] const char* call_name(Call c) noexcept;

/// One timed call: the benchmark's own span.
struct Span {
  std::uint64_t op = 0;
  std::uint32_t client = 0;
  std::uint8_t phase = 0;
  Call call = Call::kOpen;
  v::sim::SimTime invoke = 0;
  v::sim::SimTime complete = 0;
};

/// Everything the harness observes about the client side.  Operations are
/// charged to the window they START in; only those starting at or after
/// `window_start` are measured.
class Recorder {
 public:
  explicit Recorder(const Options& opt) : opt_(opt) {}

  /// Set once by the workload before the clients start.
  void set_window_start(v::sim::SimTime t) noexcept { window_start_ = t; }

  [[nodiscard]] bool measured(v::sim::SimTime started) const noexcept {
    return started >= window_start_;
  }
  [[nodiscard]] std::uint64_t next_op() noexcept { return ops_begun_++; }

  /// Record one call's simulated span.
  void call(std::uint64_t op, std::size_t client, std::size_t phase,
            v::sim::SimTime op_started, Call c, v::sim::SimTime invoke,
            v::sim::SimTime complete);

  /// Outcomes of one kind of operation started in the measured window.
  struct Outcomes {
    std::vector<v::sim::SimDuration> lat;  ///< successful operations
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< errored or exhausted retries
  };

  /// Close one operation of `kind`: `opens` (open [+ read] + close) or
  /// `mutations` (a single create, rename or remove call).
  void finish(Outcomes& kind, v::sim::SimTime started,
              v::sim::SimTime completed, bool ok, bool wrong_reply);

  /// The self-test's host spin, charged once per measured operation.
  void spin(v::sim::SimTime op_started) const;

  // --- results -------------------------------------------------------------
  Outcomes opens;
  Outcomes mutations;
  std::uint64_t wrong = 0;  ///< wrong replies (content or model mismatch)
  v::sim::SimDuration call_ns[kCallKinds] = {};
  std::vector<Span> spans;

 private:
  const Options& opt_;
  v::sim::SimTime window_start_ = 0;
  std::uint64_t ops_begun_ = 0;
};

/// Counters read at the start and the end of the measured window.
struct Snapshot {
  v::ipc::DomainStats ipc;
  std::uint64_t events = 0;
  v::sim::EventLoopStats loop;
  v::sim::FramePoolStats frames;
  v::fault::FaultStats fault;
  /// Per CSNH server (metrics scope): requests, sheds, stale refusals,
  /// forwarded requests.
  struct Server {
    double requests = 0;
    double sheds = 0;
    double stale = 0;
    double forwarded = 0;
  };
  std::map<std::string, Server> servers;
  std::uint64_t flight_records = 0;
  std::uint64_t trace_sampled = 0;
};

[[nodiscard]] Snapshot snapshot(v::ipc::Domain& dom,
                                const v::fault::FaultPlan* plan);

/// Client-side repair counters (ShardRouter and NameCache), summed by the
/// workload over the measured window.
struct SvcCounters {
  std::uint64_t map_fetches = 0;
  std::uint64_t stale_retries = 0;
  std::uint64_t noreply_retries = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;
  std::uint64_t cache_fallbacks = 0;
};

/// What a workload hands back to main() for the report.
struct DayResult {
  double forest_build_s = 0;
  double setup_s = 0;      ///< calibrated: raw_setup_s / slowdown
  double raw_setup_s = 0;  ///< host time from process start to the window
  double wall_s = 0;      ///< calibrated: raw_wall_s / slowdown
  double raw_wall_s = 0;  ///< host time in the simulator's slices
  double slowdown = 0;    ///< reference kernel's slowdown in the window
  v::sim::SimDuration window = 0;  ///< simulated length of the window
  Snapshot begin;
  Snapshot end;
  SvcCounters svc;
  /// Fabric churn choreography (churn-day only).
  std::uint64_t handoffs = 0;
  std::uint64_t handbacks = 0;
  double handoff_ms = 0;
  double handback_ms = 0;
  /// Host time per layer, traced run only (seconds).
  double svc_host_s = 0;
  double naming_host_s = 0;
  double file_host_s = 0;
  /// Correctness: every failed check appends a line here.
  std::vector<std::string> failures;
};

/// Process names the workloads spawn, which the traced run's host-time
/// ledger groups by: clients, naming servers (prefix servers, fabric
/// shards and their handoff agents) and file servers.  Team workers are
/// named "<receptionist>-worker.<i>", so a prefix match covers them.
inline const std::string kClientProc = "cl";
inline const std::string kPrefixProc = "prefix";
inline const std::string kFileProc = "fs";

/// Zipf rank -> prefix index stride: the golden ratio of `n`, nudged until
/// coprime with it, so popularity does not follow the sorted order the
/// name space is partitioned by (the workload engine does the same).
[[nodiscard]] std::size_t rank_stride(std::size_t n);

/// Clients start at a uniformly jittered time in the first simulated
/// second and run the rest of the warm-up at full load.
inline constexpr v::sim::SimDuration kRampIn = v::sim::kSecond;

/// Simulate the warm-up up to `window_start` (the tail of set-up), then
/// open the measured window: snapshot the counters and record the raw
/// host time since process start.
void warm_up(v::ipc::Domain& dom, v::sim::SimTime window_start,
             const v::fault::FaultPlan* plan, DayResult& out);
/// Run the measured window until the domain is idle, snapshot the
/// counters, record the calibrated host times of the window and of set-up
/// (README.md, "Calibrated host time") and, in the traced run, the
/// per-layer host time.
void measure_window(v::ipc::Domain& dom, const Options& opt,
                    const v::fault::FaultPlan* plan, DayResult& out);

/// The checks every workload shares: all clients finished and no
/// simulated process died of an unexpected exception.
void check_domain(v::ipc::Domain& dom, std::size_t clients_done,
                  std::size_t clients, DayResult& out);

void run_fabric_day(const Options& opt, bool churn, Recorder& rec,
                    DayResult& out);
void run_cached_mutate(const Options& opt, Recorder& rec, DayResult& out);

}  // namespace vbench
