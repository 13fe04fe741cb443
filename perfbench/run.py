#!/usr/bin/env python3
"""End-to-end benchmark of KEA: one command, three workloads.

    python3 perfbench/run.py --workload tuning_loop|durable_loop|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build, runs the workload driver in a process of
its own, checks its outputs, prints every metric with its unit and sample
count, and prints one JSON object as the last line. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Exits
non-zero when the build, the run or a correctness check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("tuning_loop", "durable_loop", "serve_mix")
RUN_TIMEOUT_S = 170
# Outputs every run must have checked, per workload.
REQUIRED_CHECKS = {
    "tuning_loop": ["plans_finite", "rounds_not_safe_mode",
                    "digest_repeats_across_episodes"],
    "durable_loop": ["plans_finite", "fabric_admitted_all", "resume_now",
                     "resume_cluster", "resume_telemetry",
                     "resume_deployment_history"],
    "serve_mix": ["no_degraded_responses", "responses_match_solo_evaluation",
                  "responses_compared"],
}
REQUIRED_TRACE_CHECKS = {
    "tuning_loop": ["twin_replay_matches_session", "serial_fit_same_plan"],
    "durable_loop": ["twin_replay_matches_session",
                     "twin_fabric_matches_session"],
    "serve_mix": [],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    def configure():
        return subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if configure() != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    status = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "kea_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if status != 0:
        # A cache from another source tree: start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if configure() != 0:
            return False
        status = subprocess.call(
            ["cmake", "--build", build_dir, "--target", "kea_perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
    return status == 0


def run_driver(binary, args, state_dir):
    shutil.rmtree(state_dir, ignore_errors=True)
    os.makedirs(state_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("driver exited with", proc.returncode)
        return None
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Report:
    """Prints named values, each with its unit and how it was sampled."""

    def __init__(self, workload):
        self.workload = workload

    def add(self, name, value, unit, note):
        print(f"{self.workload} {name} = {value:.6g} {unit} ({note})")


def timing(report, name, samples, unit="ms"):
    """Median and tail of a list of timings; returns the median."""
    if not samples:
        return None
    med = stats.median(samples)
    t = stats.tail(samples)
    tail_note = (f", p{t[0]:g} {t[1]:.6g}" if t and t[0] > 50
                 else ", too few for a tail percentile above p50")
    report.add(name, med, unit, f"median of {len(samples)}{tail_note}")
    return med


def loop_metrics(raw, report):
    t = raw["timings"]
    timing(report, "day_ms", t.get("day_ms", []))
    round_ms = timing(report, "round_ms", t.get("round_ms", []))
    timing(report, "fabric_ms", t.get("fabric_ms", []))
    timing(report, "resume_ms", t.get("resume_ms", []))
    if raw["disk_mb"]:
        report.add("disk_mb", stats.median(raw["disk_mb"]), "MB",
                   f"state dir at the end of an episode, median of "
                   f"{len(raw['disk_mb'])}")
    work = raw["work"]
    throughput = stats.rate(work["machine_hours"], work["seconds"])
    if work["seconds"] > 0:  # Untraced episodes only.
        report.add("throughput_per_s", throughput, "1/s",
                   f"simulated machine-hours per second over "
                   f"{work['seconds']:.3g} s of episodes")
    return {"round_ms": round_ms, "throughput_per_s": throughput}


def serve_requests(raw):
    s = raw["serve"]
    latency, lag = stats.open_loop(s["due"], s["sent"], s["done"],
                                   [x == 1 for x in s["ok"]])
    rows = []
    for i, lat in enumerate(latency):
        rows.append({"latency": lat, "lag": lag[i], "kind": int(s["kind"][i]),
                     "phase": int(s["phase"][i]), "hit": s["hit"][i] == 1,
                     "due": s["due"][i], "done": s["done"][i],
                     "ok": s["ok"][i] == 1})
    return s, rows


def serve_metrics(raw, report):
    s, rows = serve_requests(raw)
    whatif = [r for r in rows if r["kind"] <= 1]
    base = [r["latency"] for r in whatif if r["phase"] == 0]
    timing(report, "whatif_p50_ms", base)
    if (stats.tail_percentile(len(base)) or 0) >= 99:
        report.add("whatif_p99_ms", stats.percentile(base, 99), "ms",
                   f"of {len(base)} at {s['base_qps']:g}/s, from due time")
    over = [r["latency"] for r in whatif if r["phase"] == 1]
    report.add("serve_goodput_qps",
               stats.goodput(over, s["limit_ms"], s["over_s"]), "1/s",
               f"of {len(over)} sent at {s['over_qps']:g}/s, answered OK "
               f"within {s['limit_ms']:g} ms")
    refresh = [r["latency"] for r in rows if r["kind"] == 3 and r["phase"] == 0]
    refresh_ms = timing(report, "refresh_ms", refresh)
    # Capacity: requests completed per second while the overload backlog
    # lasted (from the start of the overload phase to its last answer).
    over_rows = [r for r in rows if r["phase"] == 1]
    last = max(r["done"] for r in over_rows)
    throughput = stats.rate(len(over_rows), last - s["base_s"])
    report.add("throughput_per_s", throughput, "1/s",
               f"{len(over_rows)} requests answered while backlogged at "
               f"{s['over_qps']:g}/s")
    return {"round_ms": refresh_ms, "throughput_per_s": throughput}


def coverage_pcts(raw):
    total = raw["coverage_total_ms"]
    spans = raw["coverage_span_ms"]
    return {name: stats.unattributed_pct(total[name], spans.get(name, 0.0))
            for name in total}


def trace_overhead(raw):
    """Traced over untraced time, summed over the timings' medians."""
    traced = raw["traced_timings"]
    untraced = raw["timings"]
    names = [n for n in traced if traced[n] and untraced.get(n)]
    if not names:
        return 0.0, []
    t = sum(stats.median(traced[n]) for n in names)
    u = sum(stats.median(untraced[n]) for n in names)
    return stats.overhead_pct(t, u), names


def serve_trace_layers(raw, layers):
    """Per-layer serve metrics derived from the raw requests of a traced run:
    the first half of the base phase ran untraced, the second half traced."""
    s, rows = serve_requests(raw)
    base = [r for r in rows if r["kind"] <= 1 and r["phase"] == 0 and r["ok"]]
    hits = [r["latency"] for r in base if r["hit"]]
    misses = [r["latency"] for r in base if not r["hit"]]
    layers["serve.hit_ms_p50"] = stats.median(hits) if hits else 0.0
    layers["serve.miss_ms_p50"] = stats.median(misses) if misses else 0.0
    lag_tail = stats.tail([r["lag"] for r in rows])
    layers["bench.generator_lag_ms_p99"] = lag_tail[1] if lag_tail else 0.0
    cut = s["trace_from_s"]
    for name, kinds in (("whatif_ms", (0, 1)), ("refresh_ms", (3,))):
        for traced in (False, True):
            values = [r["latency"] for r in rows
                      if r["kind"] in kinds and r["phase"] == 0 and r["ok"]
                      and (r["due"] >= cut) == traced]
            key = "traced_timings" if traced else "timings"
            raw[key][name] = values
    # Coverage: a what-if is covered by the generator's lag and, on a miss,
    # by a solo evaluation; a refresh by a replayed simulate and refit. What
    # remains is waiting in the tenant's queue.
    raw["coverage_total_ms"] = {
        "whatif_ms": sum(r["latency"] for r in base),
        "refresh_ms": sum(r["latency"] for r in rows
                          if r["kind"] == 3 and r["phase"] == 0 and r["ok"]),
    }
    raw["coverage_span_ms"] = {
        "whatif_ms": sum(r["lag"] for r in base) + len(misses) * raw["miss_span_ms"],
        "refresh_ms": raw["refresh_span_ms"] * sum(
            1 for r in rows if r["kind"] == 3 and r["phase"] == 0 and r["ok"]),
    }


def trace_layers(raw, report):
    layers = dict(raw["layers"])
    if raw["workload"] == "serve_mix":
        serve_trace_layers(raw, layers)
    overhead, names = trace_overhead(raw)
    layers["obs.trace_overhead_pct"] = overhead
    report.add("obs.trace_overhead_pct", overhead, "%",
               "traced vs untraced medians of " + ", ".join(names))
    unattributed = coverage_pcts(raw)
    for name, pct in sorted(unattributed.items()):
        report.add(f"bench.unattributed_pct[{name}]", pct, "%",
                   f"{raw['coverage_total_ms'][name]:.6g} ms measured, "
                   f"{raw['coverage_span_ms'][name]:.6g} ms in spans")
    layers["bench.unattributed_pct"] = max(
        unattributed.values(), key=abs, default=0.0)
    return layers


def load_contract():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    contract = load_contract()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "kea_perfbench")
    raw = run_driver(binary, args, os.path.abspath(".bench_state"))
    if raw is None:
        return 1

    report = Report(args.workload)
    workload = args.workload
    if workload == "serve_mix":
        headline = serve_metrics(raw, report)
    else:
        headline = loop_metrics(raw, report)
    setup_s = stats.median(raw["setup_s"])
    report.add("setup_s", setup_s, "s", f"median of {len(raw['setup_s'])} set-ups")
    report.add("peak_rss_mb", raw["peak_rss_mb"], "MB", "peak RSS of the run's process")
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    report.add("error_rate", failed / max(1, attempted), "ratio",
               f"{failed} failed of {attempted} attempted")
    for i, digest in enumerate(raw["digests"]):
        print(f"{workload} digest[{i}] = {digest}")

    checks = dict(raw["checks"])
    required = REQUIRED_CHECKS[workload] + (
        REQUIRED_TRACE_CHECKS[workload] if args.trace else [])
    for name in required:
        checks.setdefault(name, False)
    for name, ok in sorted(checks.items()):
        print(f"{workload} check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(checks.values())

    values = {"setup_s": setup_s, "peak_rss_mb": raw["peak_rss_mb"], **headline}
    if args.trace:
        values = trace_layers(raw, report)
        specs = contract["per_layer"]
    else:
        specs = contract["end_to_end"]
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"], 0.0)
        if value is None or not math.isfinite(value):
            log("metric", spec["name"], "has no finite value")
            correct = False
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
