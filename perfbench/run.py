#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload query_mix --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload wire_mix --seed 1 --repeat 10
    python3 perfbench/run.py --selftest

Run from the root of a checkout. It builds perfbench/ (its own CMake
project over ../src, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the benchmark binary
on the seeded workload, checks its correctness results and
prints every metric by name, unit and sample count. The last line of
standard output is the JSON result: with --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.

The gated timing metrics (ingest_rps and the latency p50s) are taken
over the least disturbed part of the measured loop: the binary cuts it
into segments of 64 rounds, and each is taken over the eighth of the
segments in which its own median was lowest (stats.lowest_segments). On
a shared host the same rounds run up to a third slower for stretches of
seconds to a minute, so a median over a whole run moves with the host
rather than the program. The p99s are printed over the whole run.

--trace 1 runs the workload twice: untraced (counters, and the baseline
for the tracing overhead) and traced (spans around every call into a
layer plus replay probes of the layers inside submit), each for half of
--seconds. It prints the
self time per layer, the tracing overhead per end-to-end metric and how
much of the untraced point-get p50 the refresh + serve spans account
for, and writes the spans to <build>/traces/.

--repeat N runs N untraced runs at seeds --seed .. --seed+N-1 and prints,
per end-to-end metric, the median, the quartiles and their distance as
a share of the median next to the metric's bound: the run-to-run spread
a performance claim is judged against. It prints no result line.

Exit status: 0 with a result line; non-zero without one when the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

RUN_LIMIT_S = 170  # a run, traced or not, must end within 180 s

# Printed beside the end-to-end metrics of BENCHMARK.json but not among
# them: over ten seeds their run-to-run spread (interquartile distance
# over median) reached 16-28% on a shared 4-vCPU Xeon host, too wide for
# a 0.25 bound to resolve, whether taken over the whole run or over its
# least disturbed segments. They are taken over the whole run.
PRINTED_ONLY = [("point_get_p99_us", "us"), ("range_page_p99_us", "us"),
                ("events_poll_p99_us", "us")]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "--target", "perfbench_loop",
                      "-j", jobs])
        for step in steps:
            rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                timeout=800).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                if step is steps[0] and len(steps) == 2:
                    # A failed configure leaves a cache that would skip
                    # the configure step next time.
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                fail("build failed (see %s)" % log_path, 3)
    return os.path.join(out, "perfbench_loop")


def run_binary(binary, workload, seed, seconds, deadline, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace", "1", "--trace-out", trace_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the run", 4)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("benchmark binary did not finish within %.0f s" % timeout, 4)
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RAW "):
            raw = json.loads(line[len("PERFBENCH_RAW "):])
    if proc.returncode != 0 or raw is None:
        fail("benchmark binary exited with %d" % proc.returncode, 4)
    return raw


def latency(raw, key):
    """(p50, its sample count) over the query type's least disturbed
    segments (see stats.lowest_segments), and (p99, its sample count)
    over the whole run."""
    samples = raw[key]
    kept = [samples[i] for i in stats.lowest_segments(
        samples, raw["segment_rounds"], raw["segment_share"])
        if samples[i] >= 0]
    every = [v for v in samples if v >= 0]
    return ((stats.percentile(kept, 0.5), len(kept)),
            (stats.percentile(every, 0.99), len(every)))


def end_to_end(raw):
    """name -> (value, note) for every end-to-end metric."""
    rounds = len(raw["round_reports"])
    us_per_report = [t / n for t, n in zip(raw["round_ingest_us"],
                                           raw["round_reports"])]
    kept = stats.lowest_segments(us_per_report, raw["segment_rounds"],
                                 raw["segment_share"])
    reports = sum(raw["round_reports"][i] for i in kept)
    ingest_s = sum(raw["round_ingest_us"][i] for i in kept) / 1e6
    out = {
        "setup_s": (stats.percentile(raw["setup_s"], 0.5),
                    "median of %d set-ups" % len(raw["setup_s"])),
        "ingest_rps": (reports / ingest_s,
                       "%d of %d rounds: %d reports in %.2f s of submit"
                       " + flush" % (len(kept), rounds, reports, ingest_s)),
        "peak_rss_mb": (raw["peak_rss_mb"], "VmHWM of the workload process"),
        "kw_query_success": (raw["kw_hits"] / max(1, raw["kw_probes"]),
                             "%d of %d probed keys" % (raw["kw_hits"],
                                                       raw["kw_probes"])),
        "path_query_success": (raw["path_hits"] / max(1, raw["path_probes"]),
                               "%d of %d probed paths" % (raw["path_hits"],
                                                          raw["path_probes"])),
    }
    for prefix, key in (("point_get", "point_get_us"),
                        ("range_page", "range_page_us"),
                        ("events_poll", "events_poll_us")):
        (p50, n50), (p99, n99) = latency(raw, key)
        out[prefix + "_p50_us"] = (p50, "n=%d of %d rounds" % (n50, rounds))
        out[prefix + "_p99_us"] = (
            p99, "n=%d, the whole run%s" % (
                n99, "" if stats.supported(n99, 0.99)
                else ", fewer than 10 samples beyond p99"))
    return out


def printed(bench):
    """(name, unit, bound or None) of every metric a run prints."""
    return ([(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
            + [(name, unit, None) for name, unit in PRINTED_ONLY])


def print_e2e(bench, values, raw):
    print("end-to-end (%s, seed %d, %.2f s measured):"
          % (raw["workload"], raw["seed"], raw["loop_wall_s"]))
    for name, unit, bound in printed(bench):
        value, note = values[name]
        print("  %-22s %14.6g %-5s  (%s%s)" % (
            name, value, unit, note, "" if bound is not None else
            "; printed only, not in BENCHMARK.json"))
    ratio = raw["failed"] / raw["attempted"]
    print("  %-22s %14.6g %-5s  (%d failed of %d ops)"
          % ("failed_op_ratio", ratio, "ratio", raw["failed"],
             raw["attempted"]))
    for v in raw["violations"]:
        print("  violation: " + v)


def print_layers(bench, layer_map, values, workload):
    print("per-layer (%s):" % workload)
    for m in bench["per_layer"]:
        info = layer_map["per_layer"][m["name"]]
        off_path = "" if workload in info["on"] else "  [not this workload's focus]"
        print("  %-36s %14.6g %-5s  %s -> %s%s"
              % (m["name"], values[m["name"]], m["unit"], info["layer"],
                 ", ".join(info["moves"]), off_path))


def print_spans(traced):
    print("self time per layer (traced run, spans from the benchmark's calls):")
    by_layer = {}
    for name, s in traced["spans"].items():
        if s["count"] == 0:
            continue
        by_layer[s["layer"]] = by_layer.get(s["layer"], 0) + s["self_us"]
        print("  %-34s %-20s count %9d  total %12.0f us  self %12.0f us"
              % (name, s["layer"], s["count"], s["total_us"], s["self_us"]))
    for layer, self_us in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("  layer %-28s self %12.0f us" % (layer, self_us))
    print("  spans kept %d, dropped %d, written to %s"
          % (traced["spans_kept"], traced["spans_dropped"],
             traced["span_file"]))


def print_overhead(bench, untraced_e2e, traced_e2e, traced):
    print("tracing overhead (traced - untraced):")
    for name, unit, _ in printed(bench):
        a = untraced_e2e[name][0]
        b = traced_e2e[name][0]
        share = (b - a) / a if a else 0.0
        print("  %-22s %+14.6g %-5s (%+.1f%%)" % (name, b - a, unit,
                                                100 * share))
    accounted = traced["get_accounted_us"]
    refreshes = sum(traced["spans"][name]["count"] for name in
                    ("CollectorRuntime::snapshot_shard", "Backend::key_snapshots"))
    if accounted and refreshes:
        # Over the same least disturbed segments as the p50 it is held to.
        kept = stats.lowest_segments(accounted, traced["segment_rounds"],
                                     traced["segment_share"])
        spans_p50 = stats.percentile([accounted[i] for i in kept], 0.5)
        untraced_p50 = untraced_e2e["point_get_p50_us"][0]
        overhead = abs(traced_e2e["point_get_p50_us"][0] - untraced_p50)
        gap = spans_p50 - untraced_p50
        within = abs(gap) <= max(overhead, 0.05 * untraced_p50)
        print("point-get p50 accounted by refresh + serve spans: %.2f us vs "
              "untraced %.2f us (gap %+.2f us, overhead %.2f us): %s"
              % (spans_p50, untraced_p50, gap, overhead,
                 "within overhead" if within else "NOT within overhead"))


def repeat(bench, binary, args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        raw = run_binary(binary, args.workload, seed, args.seconds,
                         time.monotonic() + RUN_LIMIT_S)
        runs.append(end_to_end(raw))
        print("run %d (seed %d): %d failed of %d ops"
              % (i + 1, seed, raw["failed"], raw["attempted"]))
    print("spread over %d runs of %s (%g s each):"
          % (len(runs), args.workload, args.seconds))
    for name, unit, bound in printed(bench):
        values = [r[name][0] for r in runs]
        q1, q2, q3 = stats.quartiles(values)
        print("  %-22s median %12.6g %-5s  q1 %12.6g  q3 %12.6g  "
              "spread %6.2f%%  bound %s"
              % (name, q2, unit, q1, q3, 100 * stats.spread(values),
                 "%3.0f%%" % (100 * bound) if bound is not None
                 else "none"))


def selftest():
    import unittest
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(bench_path) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    if args.workload is None:
        fail("--workload is required")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    binary = build()
    if args.repeat >= 2:
        repeat(bench, binary, args)
        return
    deadline = time.monotonic() + RUN_LIMIT_S
    # A traced run is two half-length runs, untraced then traced.
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    untraced = run_binary(binary, args.workload, args.seed, seconds, deadline)
    e2e = end_to_end(untraced)
    print_e2e(bench, e2e, untraced)
    failed = untraced["failed"]
    attempted = untraced["attempted"]

    if args.trace == 0:
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        values = {name: v for name, (v, _) in e2e.items()}
    else:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        span_file = os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed))
        traced = run_binary(binary, args.workload, args.seed, seconds,
                            deadline, trace_out=span_file)
        traced_e2e = end_to_end(traced)
        # Counts come from the untraced run, times from the traced one.
        values = dict(untraced["counters"], **traced["timings"])
        print_layers(bench, layer_map, values, args.workload)
        print_spans(traced)
        print_overhead(bench, e2e, traced_e2e, traced)
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        failed += traced["failed"]
        attempted += traced["attempted"]
        for v in traced["violations"]:
            print("  violation (traced run): " + v)

    missing = [name for name, _ in wanted if name not in values]
    if missing:
        fail("the run did not measure " + ", ".join(missing), 5)
    metrics = {name: stats.metric(values[name], unit) for name, unit in wanted}
    correct = failed == 0
    print(stats.result_line(correct, attempted, failed, metrics))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
