#!/usr/bin/env python3
"""Repository benchmark: builds vbench and runs one workload.

    python3 perfbench/run.py --workload fabric-day --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths resolve from this
file).  The first run builds two configurations of the benchmark package in
perfbench/ under $CARGO_TARGET_DIR (default .bench_build/): the default
build, and the same sources with the V_CHECKS/V_TRACE tooling compiled out.

--trace 0 runs the default build repeatedly (at least three processes, then
more until --seconds have passed) on one seed and reports the end-to-end
metrics: simulated results, which must be identical across the repeats,
and the median host cost.  --trace 1 makes the traced run: per-layer
counts, interleaved default/tooling-off pairs, a fiber-profiled run with
the span dump, the sensitivity self-test and the held-out seed.  See
perfbench/README.md for every metric's definition.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status is non-zero, with no JSON, when the benchmark cannot
build or run at all.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fabric-day", "churn-day", "cached-mutate")

# Untraced repeats per run: at least MIN_REPEATS processes, then more while
# --seconds last, up to MAX_REPEATS.
MIN_REPEATS = 3
MAX_REPEATS = 25
# Traced run: interleaved (default, tooling-off) pairs.
TOOLING_PAIRS = 3
# Sensitivity self-test: a fixed host spin per measured operation, and a
# fixed simulated pause inside every open operation.
SPIN_NS = 10000
DELAY_US = 5000
# The held-out seed of a run is its seed plus this offset; seeds at or
# above it were never used while the benchmark was tuned.
HELDOUT_OFFSET = 1000000
PROCESS_TIMEOUT_S = 60

# End-to-end metrics: (name, unit, kind).  Sim metrics are exact per seed;
# host metrics are medians over the run's repeats.
END_TO_END = [
    ("goodput_ops_s", "ops/s", "sim"),
    ("open_mean_ms", "ms", "sim"),
    ("open_p50_ms", "ms", "sim"),
    ("open_p99_ms", "ms", "sim"),
    ("msgs_per_op", "count", "sim"),
    ("ok_frac", "ratio", "sim"),
    ("wall_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MiB", "host"),
]

# Per-layer metrics reported by the traced run, with units.
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_wall_s", "1/s"),
    ("sim.wheel_cascades", "count"),
    ("sim.actions_heap", "count"),
    ("sim.frames_fresh", "count"),
    ("ipc.requests_per_op", "count"),
    ("ipc.replies_per_op", "count"),
    ("ipc.forwards_per_op", "count"),
    ("ipc.remote_per_op", "count"),
    ("ipc.bytes_moved_per_op", "bytes"),
    ("ipc.host_s", "s"),
    ("host.raw_wall_s", "s"),
    ("host.raw_setup_s", "s"),
    ("host.slowdown", "ratio"),
    ("fault.retransmits", "count"),
    ("fault.dup_requests_suppressed", "count"),
    ("fault.budget_exhausted", "count"),
    ("naming.requests", "count"),
    ("naming.hot_server_share", "ratio"),
    ("naming.sheds", "count"),
    ("naming.stale_refusals", "count"),
    ("naming.forwarded", "count"),
    ("naming.host_s", "s"),
    ("servers.fabric.handoffs", "count"),
    ("servers.fabric.handbacks", "count"),
    ("servers.fabric.handoff_ms", "ms"),
    ("servers.fabric.handback_ms", "ms"),
    ("servers.file.host_s", "s"),
    ("svc.open_ms_mean", "ms"),
    ("svc.read_ms_mean", "ms"),
    ("svc.close_ms_mean", "ms"),
    ("svc.map_fetches", "count"),
    ("svc.stale_retries", "count"),
    ("svc.noreply_retries", "count"),
    ("svc.busy_retries", "count"),
    ("svc.retries_per_op", "count"),
    ("svc.namecache.hit_ratio", "ratio"),
    ("svc.namecache.stale", "count"),
    ("svc.namecache.fallbacks", "count"),
    ("svc.host_s", "s"),
    ("tooling.wall_share", "ratio"),
    ("obs.flight_records", "count"),
    ("obs.trace_sampled", "count"),
    ("trace.overhead_frac", "ratio"),
    ("wload.forest_build_s", "s"),
    ("failed_frac", "ratio"),
    ("mutate_p99_ms", "ms"),
    ("open_samples", "count"),
    ("selftest.spin_wall_shift", "ratio"),
    ("selftest.delay_mean_shift_ms", "ms"),
    ("selftest.delay_p50_shift_ms", "ms"),
    ("heldout.goodput_ops_s", "ops/s"),
    ("heldout.open_mean_ms", "ms"),
    ("heldout.open_p99_ms", "ms"),
]


class BenchError(Exception):
    """The benchmark could not build or run: exit non-zero, print no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(path)


def build():
    """Configure and build both configurations; return their binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ipc", "kernel.hpp")):
        raise BenchError("no repository sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    binaries = {}
    for config, tooling in (("default", "ON"), ("tooling-off", "OFF")):
        out = os.path.join(build_root(), "perfbench-" + config)
        os.makedirs(out, exist_ok=True)
        log_path = out + ".log"
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          "-DBENCH_TOOLING=" + tooling])
        steps.append(["cmake", "--build", out, "-j", jobs])
        with open(log_path, "w") as logf:
            for step in steps:
                if subprocess.run(step, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                    with open(log_path) as f:
                        tail = f.read()[-4000:]
                    raise BenchError("build of %s failed:\n%s" % (config, tail))
        binaries[config] = os.path.join(out, "vbench")
    return binaries


def vbench(binary, workload, seed, extra=()):
    """Run one vbench process: one simulated day.  Returns its RESULT dict."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: %s" % " ".join(cmd))
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                               proc.stderr[-4000:]))
    return json.loads(lines[-1][len("RESULT "):])


def check_result(r, problems):
    """Correctness checks on one day: the program's own verdicts plus the
    benchmark-level expectations each workload was built to meet."""
    tag = "%s seed %s" % (r["workload"], int(r["config"]["seed"]))
    for f in r["failures"]:
        problems.append("%s: %s" % (tag, f["failure"]))
    sim, layer = r["sim"], r["layer"]
    if sim["open_beyond_p99"] < 10:
        problems.append("%s: open_p99_ms has %d samples beyond it (< 10)"
                        % (tag, sim["open_beyond_p99"]))
    if r["workload"] == "cached-mutate":
        if sim["mutate_beyond_p99"] < 10:
            problems.append("%s: mutate_p99_ms has %d samples beyond it (< 10)"
                            % (tag, sim["mutate_beyond_p99"]))
        if not 0 < layer["svc.namecache.hit_ratio"] < 1:
            problems.append("%s: namecache hit ratio %r not inside (0, 1)"
                            % (tag, layer["svc.namecache.hit_ratio"]))
    if r["workload"] == "churn-day":
        for key in ("svc.stale_retries", "fault.retransmits"):
            if layer[key] <= 0:
                problems.append("%s: %s is zero" % (tag, key))


def check_identical(a, b, what, problems, sections=("sim", "layer")):
    """Every simulated result must match exactly between two days."""
    for section in sections:
        for key, value in a[section].items():
            if b[section].get(key) != value:
                problems.append("%s: %s differs (%r vs %r)"
                                % (what, key, value, b[section].get(key)))


def config_line(r):
    c = r["config"]
    return ("config: build=%s compiler=\"%s\" V_CHECKS=%d V_TRACE=%d V_FAULT=%d "
            "seed=%d calibration=%s nproc=%d"
            % (c["build_type"], c["compiler"], c["V_CHECKS"], c["V_TRACE"],
               c["V_FAULT"], c["seed"], c["calibration"], c["nproc"]))


def untraced(binaries, workload, seed, seconds, problems):
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPEATS or (time.monotonic() - start < seconds
                                      and len(runs) < MAX_REPEATS):
        runs.append(vbench(binaries["default"], workload, seed))
    for r in runs:
        check_result(r, problems)
    for i, r in enumerate(runs[1:], start=2):
        check_identical(runs[0], r, "repeat %d of seed %d" % (i, seed), problems)

    first = runs[0]
    n = len(runs)
    print(config_line(first))
    metrics = {}
    for name, unit, kind in END_TO_END:
        if kind == "sim":
            value = first["sim"][name]
            samples = "%d ops" % first["sim"]["attempted"]
            if name.startswith("open_"):
                samples = "%d samples" % first["sim"]["open_samples"]
        else:
            value = statistics.median(r["host"][name] for r in runs)
            samples = "median of %d runs" % n
        metrics[name] = {"value": value, "unit": unit}
        print("metric %-16s %.10g %s (%s, %s)" % (name, value, unit, kind, samples))
    for name in ("failed_frac", "mutate_p99_ms"):
        print("metric %-16s %.10g (sim, per-layer set)" % (name, first["sim"][name]))
    return first, metrics


def traced(binaries, workload, seed, problems):
    base_runs, off_runs = [], []
    for i in range(TOOLING_PAIRS):
        pair = [("default", base_runs), ("tooling-off", off_runs)]
        if i % 2:
            pair.reverse()
        for config, runs in pair:
            r = vbench(binaries[config], workload, seed)
            check_result(r, problems)
            runs.append(r)
    base = base_runs[0]
    for r in base_runs[1:]:
        check_identical(base, r, "repeat of seed %d" % seed, problems)
    for r in off_runs:
        # The tooling-off build has no metrics registry, so only the
        # end-to-end simulated results are comparable.
        check_identical(base, r, "tooling-off build", problems, ("sim",))
    base_walls = [r["host"]["wall_s"] for r in base_runs]
    off_walls = [r["host"]["wall_s"] for r in off_runs]
    default = binaries["default"]

    out_dir = os.path.join(build_root(), "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-%d.tsv" % (workload, seed))
    prof = vbench(default, workload, seed, ["--profile", "--spans", spans])
    check_result(prof, problems)
    check_identical(base, prof, "profiled run", problems)

    spin = vbench(default, workload, seed, ["--spin-ns", str(SPIN_NS)])
    delay = vbench(default, workload, seed, ["--delay-us", str(DELAY_US)])
    held = vbench(default, workload, seed + HELDOUT_OFFSET)
    for r in (spin, delay, held):
        check_result(r, problems)
    check_identical(base, spin, "host-spin self-test run", problems)

    base_wall = statistics.median(base_walls)
    wall_bound = bound_of("wall_s")
    spin_shift = spin["host"]["wall_s"] / base_wall - 1
    mean_shift = delay["sim"]["open_mean_ms"] - base["sim"]["open_mean_ms"]
    p50_shift = delay["sim"]["open_p50_ms"] - base["sim"]["open_p50_ms"]
    delay_ms = DELAY_US / 1000.0
    if spin_shift <= wall_bound:
        problems.append("self-test: a %d ns spin per op moved wall_s by %.3f, "
                        "not more than its bound %.3f" % (SPIN_NS, spin_shift, wall_bound))
    if mean_shift < delay_ms / 2 or p50_shift < delay_ms / 2:
        problems.append("self-test: a %.1f ms simulated delay moved open_mean_ms "
                        "by %.4f and open_p50_ms by %.4f" % (delay_ms, mean_shift, p50_shift))

    print(config_line(base))
    print("traced ledger (%s, seed %d; spans in %s)" % (workload, seed, spans))
    base_raw = statistics.median(r["host"]["raw_wall_s"] for r in base_runs)
    values = dict(prof["layer"])
    values.update({
        "sim.events_per_wall_s": prof["layer"]["sim.events"] / base_wall,
        "ipc.host_s": prof["host"]["ipc.host_s"],
        "host.raw_wall_s": base_raw,
        "host.raw_setup_s": statistics.median(r["host"]["raw_setup_s"] for r in base_runs),
        "host.slowdown": statistics.median(r["host"]["slowdown"] for r in base_runs),
        "naming.host_s": prof["host"]["naming.host_s"],
        "servers.file.host_s": prof["host"]["servers.file.host_s"],
        "svc.host_s": prof["host"]["svc.host_s"],
        "tooling.wall_share": 1 - statistics.median(off_walls) / base_wall,
        "trace.overhead_frac": prof["host"]["raw_wall_s"] / base_raw - 1,
        "wload.forest_build_s": statistics.median(r["host"]["wload.forest_build_s"]
                                                  for r in base_runs),
        "failed_frac": base["sim"]["failed_frac"],
        "mutate_p99_ms": base["sim"]["mutate_p99_ms"],
        "open_samples": base["sim"]["open_samples"],
        "selftest.spin_wall_shift": spin_shift,
        "selftest.delay_mean_shift_ms": mean_shift,
        "selftest.delay_p50_shift_ms": p50_shift,
        "heldout.goodput_ops_s": held["sim"]["goodput_ops_s"],
        "heldout.open_mean_ms": held["sim"]["open_mean_ms"],
        "heldout.open_p99_ms": held["sim"]["open_p99_ms"],
    })
    print("  raw host time of the profiled window: %.4f s = svc %.4f + naming %.4f "
          "+ servers.file %.4f + ipc (outside any fiber) %.4f"
          % (prof["host"]["raw_wall_s"], values["svc.host_s"], values["naming.host_s"],
             values["servers.file.host_s"], values["ipc.host_s"]))
    print("  untraced wall_s default %s, tooling-off %s"
          % (["%.4f" % w for w in base_walls], ["%.4f" % w for w in off_walls]))
    print("  naming requests by server: %s" % json.dumps(prof["naming_requests_by_server"]))
    print("  held-out seed %d: goodput %.6g ops/s, open mean %.6g ms, p50 %.6g ms, "
          "p99 %.6g ms, msgs/op %.6g"
          % (seed + HELDOUT_OFFSET, held["sim"]["goodput_ops_s"],
             held["sim"]["open_mean_ms"], held["sim"]["open_p50_ms"],
             held["sim"]["open_p99_ms"], held["sim"]["msgs_per_op"]))
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        print("metric %-30s %.10g %s" % (name, values[name], unit))
    return prof, metrics


def bound_of(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"]:
        if m["name"] == name:
            return m["bound"]
    raise BenchError("BENCHMARK.json has no bound for %s" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        binaries = build()
        problems = []
        if args.trace:
            result, metrics = traced(binaries, args.workload, args.seed, problems)
        else:
            result, metrics = untraced(binaries, args.workload, args.seed,
                                       args.seconds, problems)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    for p in problems:
        print("CHECK FAILED: %s" % p)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(result["sim"]["attempted"]),
        "failed": int(result["sim"]["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
