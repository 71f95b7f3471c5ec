// vbench: one simulated day of one benchmark workload, reported as one
// JSON line.  Usually driven by ../run.py; see ../README.md.
//
//   vbench --workload fabric-day|churn-day|cached-mutate --seed N
//          [--profile --spans PATH] [--spin-ns N] [--delay-us N]
#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace {

using vbench::DayResult;
using vbench::Recorder;

/// Exact sample median (mean of the two middle samples for even n).
double median_ms(std::vector<v::sim::SimDuration>& v) {
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   v.end());
  const double hi = v::sim::to_ms(v[n / 2]);
  if (n % 2 == 1) return hi;
  const double lo = v::sim::to_ms(
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2)));
  return (lo + hi) / 2;
}

/// Exact nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.  `beyond` receives the count strictly after its
/// rank.
double quantile_ms(std::vector<v::sim::SimDuration>& v, double q,
                   std::size_t& beyond) {
  beyond = 0;
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  if (rank == 0) rank = 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  beyond = n - rank;
  return v::sim::to_ms(v[rank - 1]);
}

double mean_ms(const std::vector<v::sim::SimDuration>& v) {
  if (v.empty()) return 0;
  long double sum = 0;
  for (const auto d : v) sum += static_cast<long double>(d);
  return static_cast<double>(sum / static_cast<long double>(v.size())) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Minimal JSON object writer: numbers with full precision.
class Json {
 public:
  void num(const char* key, double value) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", key, value);
    out_ += buf;
  }
  void str(const char* key, const std::string& value) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\": \"";
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    }
    out_ += '"';
  }
  void raw(const char* key, const std::string& json) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += json;
  }
  [[nodiscard]] std::string done() const { return "{" + out_ + "}"; }

 private:
  void sep() {
    if (!out_.empty()) out_ += ", ";
  }
  std::string out_;
};

void write_spans(const vbench::Options& opt, const Recorder& rec) {
  if (opt.spans_path.empty()) return;
  std::FILE* f = std::fopen(opt.spans_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "vbench: cannot write %s\n", opt.spans_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "op\tclient\tphase\tcall\tinvoke_ns\tcomplete_ns\n");
  for (const vbench::Span& s : rec.spans) {
    std::fprintf(f, "%" PRIu64 "\t%u\t%u\t%s\t%" PRId64 "\t%" PRId64 "\n",
                 s.op, s.client, static_cast<unsigned>(s.phase),
                 vbench::call_name(s.call), static_cast<std::int64_t>(s.invoke),
                 static_cast<std::int64_t>(s.complete));
  }
  std::fclose(f);
}

std::string report(const vbench::Options& opt, Recorder& rec,
                   const DayResult& day) {
  using v::sim::to_ms;
  Json cfg;
  cfg.str("build_type", BENCH_BUILD_TYPE);
  cfg.str("compiler", std::string("g++ ") + __VERSION__);
  cfg.num("V_CHECKS", V_CHECKS_ENABLED);
  cfg.num("V_TRACE", V_TRACE_ENABLED);
  cfg.num("V_FAULT", V_FAULT_ENABLED);
  cfg.num("seed", static_cast<double>(opt.seed));
  cfg.str("calibration", "SunWorkstation3Mbit");
  cfg.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  cfg.num("spin_ns", static_cast<double>(opt.spin_ns));
  cfg.num("delay_ms", to_ms(opt.delay));
  cfg.num("profile", opt.profile ? 1 : 0);

  const auto& b = day.begin;
  const auto& e = day.end;
  const double attempted =
      static_cast<double>(rec.opens.attempted + rec.mutations.attempted);
  const double per_op = attempted > 0 ? 1.0 / attempted : 0.0;
  const double window_s = to_ms(day.window) / 1000.0;
  const double succeeded =
      static_cast<double>(rec.opens.lat.size() + rec.mutations.lat.size());
  const double failed =
      static_cast<double>(rec.opens.failed + rec.mutations.failed + rec.wrong);

  // Simulated results: exact and deterministic per seed.
  Json sim;
  sim.num("goodput_ops_s", window_s > 0 ? succeeded / window_s : 0);
  sim.num("open_mean_ms", mean_ms(rec.opens.lat));
  sim.num("open_p50_ms", median_ms(rec.opens.lat));
  std::size_t beyond = 0;
  sim.num("open_p99_ms", quantile_ms(rec.opens.lat, 0.99, beyond));
  sim.num("open_samples", static_cast<double>(rec.opens.lat.size()));
  sim.num("open_beyond_p99", static_cast<double>(beyond));
  std::size_t mutate_beyond = 0;
  sim.num("mutate_p99_ms", quantile_ms(rec.mutations.lat, 0.99, mutate_beyond));
  sim.num("mutate_samples", static_cast<double>(rec.mutations.lat.size()));
  sim.num("mutate_beyond_p99", static_cast<double>(mutate_beyond));
  const double msgs =
      static_cast<double>((e.ipc.messages_sent - b.ipc.messages_sent) +
                          (e.ipc.replies_sent - b.ipc.replies_sent));
  sim.num("msgs_per_op", msgs * per_op);
  sim.num("failed_frac", attempted > 0 ? failed / attempted : 0);
  sim.num("ok_frac", attempted > 0 ? 1.0 - failed / attempted : 0);
  sim.num("attempted", attempted);
  sim.num("failed", failed);
  sim.num("wrong", static_cast<double>(rec.wrong));
  sim.num("window_s", window_s);

  // Per-layer counts over the measured window: simulated behaviour, so
  // also deterministic per seed.
  Json layer;
  const double events = static_cast<double>(e.events - b.events);
  layer.num("sim.events", events);
  layer.num("sim.events_per_op", events * per_op);
  layer.num("sim.wheel_cascades",
            static_cast<double>(e.loop.wheel_cascades - b.loop.wheel_cascades));
  layer.num("sim.actions_heap",
            static_cast<double>(e.loop.actions_heap - b.loop.actions_heap));
  layer.num("sim.frames_fresh",
            static_cast<double>(e.frames.frames_fresh - b.frames.frames_fresh));
  layer.num("ipc.requests_per_op",
            static_cast<double>(e.ipc.messages_sent - b.ipc.messages_sent) *
                per_op);
  layer.num("ipc.replies_per_op",
            static_cast<double>(e.ipc.replies_sent - b.ipc.replies_sent) *
                per_op);
  layer.num("ipc.forwards_per_op",
            static_cast<double>(e.ipc.forwards - b.ipc.forwards) * per_op);
  layer.num("ipc.remote_per_op",
            static_cast<double>(e.ipc.remote_messages - b.ipc.remote_messages) *
                per_op);
  layer.num("ipc.bytes_moved_per_op",
            static_cast<double>(e.ipc.bytes_moved - b.ipc.bytes_moved) * per_op);
  layer.num("fault.retransmits",
            static_cast<double>(e.fault.retransmits - b.fault.retransmits));
  layer.num("fault.dup_requests_suppressed",
            static_cast<double>(e.fault.dup_requests_suppressed -
                                b.fault.dup_requests_suppressed));
  layer.num("fault.budget_exhausted",
            static_cast<double>(e.fault.budget_exhausted -
                                b.fault.budget_exhausted));

  double requests = 0, busiest = 0, sheds = 0, stale = 0, forwarded = 0;
  std::string per_server = "{";
  for (const auto& [scope, end_counts] : e.servers) {
    vbench::Snapshot::Server start;
    if (auto it = b.servers.find(scope); it != b.servers.end()) {
      start = it->second;
    }
    const double r = end_counts.requests - start.requests;
    requests += r;
    busiest = std::max(busiest, r);
    sheds += end_counts.sheds - start.sheds;
    stale += end_counts.stale - start.stale;
    forwarded += end_counts.forwarded - start.forwarded;
    if (per_server.size() > 1) per_server += ", ";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", scope.c_str(), r);
    per_server += buf;
  }
  per_server += "}";
  layer.num("naming.requests", requests);
  layer.num("naming.hot_server_share", requests > 0 ? busiest / requests : 0);
  layer.num("naming.sheds", sheds);
  layer.num("naming.stale_refusals", stale);
  layer.num("naming.forwarded", forwarded);
  layer.num("servers.fabric.handoffs", static_cast<double>(day.handoffs));
  layer.num("servers.fabric.handbacks", static_cast<double>(day.handbacks));
  layer.num("servers.fabric.handoff_ms", day.handoff_ms);
  layer.num("servers.fabric.handback_ms", day.handback_ms);

  const double open_ops = static_cast<double>(rec.opens.attempted);
  const auto per_open = [&](vbench::Call c) {
    const auto k = static_cast<std::size_t>(c);
    return open_ops > 0 ? to_ms(rec.call_ns[k]) / open_ops : 0.0;
  };
  layer.num("svc.open_ms_mean", per_open(vbench::Call::kOpen));
  layer.num("svc.read_ms_mean", per_open(vbench::Call::kRead));
  layer.num("svc.close_ms_mean", per_open(vbench::Call::kClose));
  layer.num("svc.map_fetches", static_cast<double>(day.svc.map_fetches));
  layer.num("svc.stale_retries", static_cast<double>(day.svc.stale_retries));
  layer.num("svc.noreply_retries",
            static_cast<double>(day.svc.noreply_retries));
  layer.num("svc.busy_retries", static_cast<double>(day.svc.busy_retries));
  const double cache_stale = static_cast<double>(day.svc.cache_stale);
  layer.num("svc.retries_per_op",
            static_cast<double>(day.svc.stale_retries +
                                day.svc.noreply_retries +
                                day.svc.busy_retries + day.svc.cache_fallbacks) *
                per_op);
  const double lookups =
      static_cast<double>(day.svc.cache_hits + day.svc.cache_misses);
  layer.num("svc.namecache.hit_ratio",
            lookups > 0 ? static_cast<double>(day.svc.cache_hits) / lookups : 0);
  layer.num("svc.namecache.stale", cache_stale);
  layer.num("svc.namecache.fallbacks",
            static_cast<double>(day.svc.cache_fallbacks));
  layer.num("obs.flight_records",
            static_cast<double>(e.flight_records - b.flight_records));
  layer.num("obs.trace_sampled",
            static_cast<double>(e.trace_sampled - b.trace_sampled));

  // Host cost: measured, varies run to run.
  Json host;
  host.num("wall_s", day.wall_s);
  host.num("raw_wall_s", day.raw_wall_s);
  host.num("slowdown", day.slowdown);
  host.num("setup_s", day.setup_s);
  host.num("raw_setup_s", day.raw_setup_s);
  host.num("peak_rss_mb", peak_rss_mb());
  host.num("wload.forest_build_s", day.forest_build_s);
  host.num("sim.events_per_wall_s", day.wall_s > 0 ? events / day.wall_s : 0);
  host.num("svc.host_s", day.svc_host_s);
  host.num("naming.host_s", day.naming_host_s);
  host.num("servers.file.host_s", day.file_host_s);
  host.num("ipc.host_s", day.raw_wall_s - day.svc_host_s -
                             day.naming_host_s - day.file_host_s);

  std::string checks = "[";
  for (const std::string& f : day.failures) {
    if (checks.size() > 1) checks += ", ";
    Json one;
    one.str("failure", f);
    checks += one.done();
  }
  checks += "]";

  Json top;
  top.str("workload", opt.workload);
  top.raw("config", cfg.done());
  top.raw("sim", sim.done());
  top.raw("layer", layer.done());
  top.raw("host", host.done());
  top.raw("naming_requests_by_server", per_server);
  top.raw("failures", checks);
  return top.done();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vbench --workload fabric-day|churn-day|cached-mutate "
               "--seed N [--profile] [--spans PATH] [--spin-ns N] "
               "[--delay-us N]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  (void)vbench::process_start();
  vbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = parse_u64(argv[++i]);
    } else if (a == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else if (a == "--spin-ns" && has_value) {
      opt.spin_ns = parse_u64(argv[++i]);
    } else if (a == "--delay-us" && has_value) {
      opt.delay = static_cast<v::sim::SimDuration>(parse_u64(argv[++i])) *
                  v::sim::kMicrosecond;
    } else if (a == "--profile") {
      opt.profile = true;
    } else {
      usage();
    }
  }
#if !V_TRACE_ENABLED
  if (opt.profile) {
    std::fprintf(stderr, "vbench: --profile needs a build with V_TRACE\n");
    return 2;
  }
#endif

  Recorder rec(opt);
  DayResult day;
  if (opt.workload == "fabric-day") {
    vbench::run_fabric_day(opt, /*churn=*/false, rec, day);
  } else if (opt.workload == "churn-day") {
    vbench::run_fabric_day(opt, /*churn=*/true, rec, day);
  } else if (opt.workload == "cached-mutate") {
    vbench::run_cached_mutate(opt, rec, day);
  } else {
    usage();
  }
  if (rec.wrong != 0) {
    day.failures.push_back("wrong replies: " + std::to_string(rec.wrong));
  }
  write_spans(opt, rec);
  std::printf("RESULT %s\n", report(opt, rec, day).c_str());
  return 0;
}
