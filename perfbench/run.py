#!/usr/bin/env python3
"""EHJA benchmark: socket-runtime join throughput and open-loop served
latency, with a per-layer breakdown in a separate traced run.

    python3 perfbench/run.py --workload bulk_hybrid --seed 1 --seconds 40 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  The workload
shapes, the serve rate and the serve latency limit live in
perfbench/workloads.json.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  Every
join result is checked against the serial oracle; a wrong result makes the
exit code 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import stats  # noqa: E402

# name -> unit.  Printed in this order.  The gated end-to-end metrics of the
# bulk workloads, as in BENCHMARK.json.
END_TO_END = {
    "join_mtuples_per_s": "Mtuples/s",
    "setup_s": "s",
    "worker_peak_rss_mib": "MiB",
}
# The end-to-end metrics of serve_open, which runs by hand and is not gated.
SERVE_END_TO_END = {
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "goodput_qps": "q/s",
    "setup_s": "s",
    "worker_peak_rss_mib": "MiB",
}

PER_LAYER = {
    "core.build_s": "s",
    "core.reshuffle_s": "s",
    "core.probe_s": "s",
    "core.finish_s": "s",
    "core.split_s": "s",
    "core.handoff_s": "s",
    "core.expansions": "count",
    "core.pool_exhausted_frac": "ratio",
    "core.node_chunks_per_source_chunk": "ratio",
    "core.load_imbalance": "ratio",
    "core.spilled_tuples": "count",
    "core.fence_dropped_tuples": "count",
    "runtime.spawn_ms": "ms",
    "workload.gen_ns_per_tuple": "ns/tuple",
    "hash.route_ns_per_tuple": "ns/tuple",
    "hash.build_ns_per_tuple": "ns/tuple",
    "hash.build_warm_ns_per_tuple": "ns/tuple",
    "hash.build_minflt_per_ktuple": "faults/ktuple",
    "hash.probe_ns_per_tuple": "ns/tuple",
    "hash.matches_per_probe": "ratio",
    "hash.bytes_per_tuple": "B/tuple",
    "net.encode_ns_per_tuple": "ns/tuple",
    "net.decode_ns_per_tuple": "ns/tuple",
    "net.bytes_per_tuple": "B/tuple",
    "net.loopback_mb_per_s": "MB/s",
    "join.oracle_s": "s",
    "serve.submit_ms_p50": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p95": "ms",
    "serve.run_ms_p50": "ms",
    "serve.run_ms_p95": "ms",
    "serve.retries": "count",
    "serve.rejected": "count",
    "serve.gen_late_ms_p95": "ms",
    "trace.overhead_ms": "ms",
}
# Layers whose self time the traced run reports (span name prefix).
SELF_TIME_LAYERS = ["query", "runtime", "core", "serve", "join", "workload",
                    "hash", "net"]
for _layer in SELF_TIME_LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"

# Bulk set-up (config + oracle ready) is repeated this often for a median.
SETUP_REPS = 3
# serve_open's warm-up, timed but not scored: a burst of simultaneous
# queries, which warms every fleet worker and takes its heap to its
# high-water mark, then this many seconds at the scored rate.
SERVE_WARMUP_BURST = 24
SERVE_WARMUP_S = 5
# The traced run of this workload ends with a served segment of serve_open's
# shape, lasting this many seconds; the serve.* metrics come from it.
SERVE_SEGMENT_HOST = "bulk_hybrid"
SERVE_SEGMENT_S = 10
# Time a benchmark binary may take beyond the seconds it measures (set-up,
# warm-up queries, layer micro-calls).
BINARY_MARGIN_S = 120


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns the binary's path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ehja_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "ehja_perfbench")


def run_binary(cmd, seconds=0):
    """Run the benchmark binary, which measures for `seconds`, with its output
    on our stderr; exit on failure."""
    timeout = seconds + BINARY_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {timeout:g} s", 1)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}", 1)


def compute_oracles(binary, config_args, seeds, path, reps, spans_path):
    """The serial oracle of every query, computed in a process of its own so
    the measuring process forks its workers from a small image.  Returns the
    wall time of each repetition (the bulk set-up time) and the per-query
    oracle seconds; with `spans_path`, the last repetition records spans."""
    seeds_path = path + ".seeds"
    with open(seeds_path, "w") as f:
        f.write("".join(f"{s}\n" for s in seeds))
    setup = []
    for rep in range(reps):
        cmd = [binary, "oracle"] + config_args + [f"--seeds={seeds_path}",
                                                  f"--out={path}"]
        if spans_path and rep == reps - 1:
            cmd.append(f"--spans={spans_path}")
        t0 = time.perf_counter()
        run_binary(cmd)
        setup.append(time.perf_counter() - t0)
    with open(path) as f:
        per_query = [float(line.split()[3]) for line in f if line.strip()]
    if len(per_query) != len(seeds):
        fail("oracle results missing", 1)
    return setup, per_query


def host_record(raw_host, seed, warm_dropped, warm_slowdown):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(HERE, "..", "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": raw_host["compiler"],
        "build_type": raw_host["build_type"],
        "allocator": "glibc malloc, default settings",
        "GLIBC_TUNABLES": os.environ.get("GLIBC_TUNABLES", "unset"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "warmup_dropped": warm_dropped,
        "warmup_slowdown": round(warm_slowdown, 3),
    }


def med(values, default=0.0):
    return stats.median(values) if values else default


def bulk_metrics(raw, setup_s):
    queries = raw["queries"]
    walls = [q["wall_s"] for q in queries]
    e2e = {
        "join_mtuples_per_s": raw["tuples_per_query"] / stats.median(walls) / 1e6,
        "setup_s": stats.median(setup_s),
        "worker_peak_rss_mib": raw["worker_peak_rss_kib"] / 1024.0,
    }
    notes = {"join_mtuples_per_s": f"median of {len(walls)} queries"}
    failed = sum(1 for q in queries if not q["ok"])
    mismatches = failed + sum(1 for q in raw["warmup"] if not q["ok"])
    warm = [q["wall_s"] for q in raw["warmup"]]
    slowdown = med(warm) / stats.median(walls) if warm else 1.0
    return e2e, notes, len(queries), failed, mismatches, len(warm), slowdown


def serve_metrics(raw, spec, n_warm):
    warm, queries = raw["queries"][:n_warm], raw["queries"][n_warm:]
    fail_ms = raw["timeout_s"] * 1e3
    lat = stats.due_latencies(queries, fail_ms)
    tail, tail_q, n, beyond = stats.tail_percentile(lat)
    # Goodput is per second of the schedule as it actually ran: from the
    # first scored due time until the last result arrived, so a backlog that
    # outlives the schedule lowers it.
    last_done = max((q["done"] for q in queries if q["status"] == "ok"),
                    default=raw["end"])
    span_s = last_done - (raw["start"] + SERVE_WARMUP_S)
    e2e = {
        "query_p50_ms": stats.median(lat),
        "query_p95_ms": tail,
        "goodput_qps": stats.goodput(queries, spec["limit_ms"], span_s),
        "setup_s": raw["setup_s"],
        "worker_peak_rss_mib": raw["worker_peak_rss_kib"] / 1024.0,
    }
    notes = {
        "query_p95_ms": f"p{tail_q * 100:.0f} of {n} samples, {beyond} beyond",
        "goodput_qps": f"limit {spec['limit_ms']} ms, offered {spec['rate_qps']} q/s "
                       f"over {raw['connections']} connections",
    }
    failed = sum(1 for q in queries if q["status"] != "ok")
    mismatches = sum(1 for q in raw["queries"] if q["status"] == "mismatch")
    warm_lat = stats.due_latencies(warm, fail_ms)
    slowdown = med(warm_lat) / stats.median(lat) if warm_lat else 1.0
    return e2e, notes, len(queries), failed, mismatches, len(warm), slowdown


def core_metrics(runs):
    """Per-layer core/runtime metrics from run_ehja records."""
    m = {}
    for key in ["build_s", "reshuffle_s", "probe_s", "finish_s", "split_s",
                "handoff_s", "expansions", "load_imbalance", "spilled_tuples",
                "fence_dropped_tuples"]:
        m[f"core.{key}"] = stats.median([r[key] for r in runs])
    m["core.pool_exhausted_frac"] = sum(r["pool_exhausted"] for r in runs) / len(runs)
    m["core.node_chunks_per_source_chunk"] = stats.median(
        [r["extra_chunks"] / max(1, r["source_chunks"]) for r in runs])
    m["runtime.spawn_ms"] = stats.median(
        [(r["wall_s"] - r["total_s"]) * 1e3 for r in runs])
    return m


def serve_layer_metrics(run):
    """serve.* metrics from a served run's scored queries."""
    scored = run.raw["queries"][run.n_warm:]
    q_ok = [q for q in scored if q["status"] == "ok"]
    ms = lambda key: [q[key] * 1e3 for q in q_ok]  # noqa: E731
    m = {"serve.submit_ms_p50": med([(q["accepted"] - q["sent"]) * 1e3 for q in q_ok])}
    if q_ok:
        m["serve.queue_ms_p50"] = stats.median(ms("queue_s"))
        m["serve.queue_ms_p95"] = stats.tail_percentile(ms("queue_s"))[0]
        m["serve.run_ms_p50"] = stats.median(ms("run_s"))
        m["serve.run_ms_p95"] = stats.tail_percentile(ms("run_s"))[0]
    late = stats.generator_lateness(scored)
    m["serve.gen_late_ms_p95"] = stats.tail_percentile(late)[0] if late else 0.0
    m["serve.retries"] = sum(q["retries"] for q in scored)
    m["serve.rejected"] = sum(1 for q in scored if q["status"] == "rejected")
    return m


def layer_metrics(run, segment):
    """Per-layer metrics of a traced run.  `segment` is the served segment
    that measures the serve layer of a bulk run, or None; only its serve.*
    metrics and serve self time are taken, so every other figure is the
    workload's own."""
    raw = run.raw
    m = {k: 0.0 for k in PER_LAYER}
    m.update(raw.get("layers", {}))
    m["join.oracle_s"] = med(run.oracle_s)
    for layer, secs in stats.layer_self_seconds(run.spans).items():
        if layer in SELF_TIME_LAYERS:
            m[f"{layer}.self_s"] = secs
    if run.spec["mode"] == "bulk":
        m.update(core_metrics(raw["queries"]))
        traced = [q["wall_s"] * 1e3 for q in raw["queries"] if q["traced"]]
        plain = [q["wall_s"] * 1e3 for q in raw["queries"] if not q["traced"]]
    else:
        m.update(serve_layer_metrics(run))
        q_ok = [q for q in raw["queries"][run.n_warm:] if q["status"] == "ok"]
        traced = [(q["done"] - q["due"]) * 1e3 for q in q_ok if q["traced"]]
        plain = [(q["done"] - q["due"]) * 1e3 for q in q_ok if not q["traced"]]
    m["trace.overhead_ms"] = med(traced) - med(plain) if traced and plain else 0.0
    if segment is not None:
        m.update(serve_layer_metrics(segment))
        m["serve.self_s"] = stats.layer_self_seconds(segment.spans).get("serve", 0.0)
    return m


class Run:
    """One workload run of the benchmark binary: its spec, raw samples and spans."""

    def __init__(self, binary, spec, seed, seconds, trace, run_dir, tag):
        self.spec = spec
        self.n_warm = 0
        self.setup_s = None
        raw_path = os.path.join(run_dir, f"{tag}.json")
        spans_path = os.path.join(run_dir, f"{tag}.spans.json")
        oracle_path = os.path.join(run_dir, f"{tag}.oracle")
        # join.oracle spans are recorded for the bulk workloads only.
        bulk = spec["mode"] == "bulk"
        oracle_spans = spans_path + ".oracle" if trace and bulk else None

        config_args = [f"--{k}={v}" for k, v in spec["config"].items()]
        cmd = [binary, spec["mode"]] + config_args
        cmd += [f"--seed={seed}", f"--trace={trace}", f"--oracles={oracle_path}",
                f"--out={raw_path}", f"--spans={spans_path}"]
        if bulk:
            # Set-up is config + oracle ready, repeated for a median.
            self.setup_s, self.oracle_s = compute_oracles(
                binary, config_args, [seed], oracle_path, SETUP_REPS,
                oracle_spans)
            cmd.append(f"--seconds={seconds}")
        else:
            warm = [0.0] * SERVE_WARMUP_BURST + stats.paced_schedule(
                spec["rate_qps"], SERVE_WARMUP_S)
            scored = stats.paced_schedule(spec["rate_qps"], seconds)
            schedule = warm + [SERVE_WARMUP_S + t for t in scored]
            self.n_warm = len(warm)
            schedule_path = os.path.join(run_dir, f"{tag}.schedule")
            with open(schedule_path, "w") as f:
                f.write("".join(f"{t:.6f}\n" for t in schedule))
            seeds = [seed * 1000003 + i + 1 for i in range(len(schedule))]
            _, self.oracle_s = compute_oracles(binary, config_args, seeds,
                                               oracle_path, 1, oracle_spans)
            cmd.append(f"--schedule={schedule_path}")
        run_binary(cmd, seconds + (0 if bulk else SERVE_WARMUP_S))

        with open(raw_path) as f:
            self.raw = json.load(f)
        self.spans = []
        if trace:
            # The oracle process's spans have no parents, so appending them
            # keeps every parent index valid.
            for path in [spans_path, oracle_spans]:
                if path:
                    with open(path) as f:
                        self.spans += json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; have {sorted(workloads)}")
    spec = workloads[args.workload]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)
    run_dir = os.path.join(build_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    run = Run(binary, spec, args.seed, args.seconds, args.trace, run_dir, tag)
    raw = run.raw
    if spec["mode"] == "bulk":
        end_to_end = END_TO_END
        e2e, notes, attempted, failed, mismatches, warm_n, slowdown = bulk_metrics(
            raw, run.setup_s)
    else:
        end_to_end = SERVE_END_TO_END
        e2e, notes, attempted, failed, mismatches, warm_n, slowdown = serve_metrics(
            raw, spec, run.n_warm)

    host = host_record(raw["host"], args.seed, warm_n, slowdown)
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench: workload {args.workload} ({spec['mode']}), {mode}, "
          f"{args.seconds:g} s")
    print("host: " + " ".join(f"{k}={json.dumps(v)}" for k, v in host.items()))
    print(f"verified against the serial oracle: {attempted} queries, "
          f"{failed} failed ({failed / attempted:.4f} failed_frac), "
          f"{mismatches} wrong results")
    if args.trace:
        segment = None
        if args.workload == SERVE_SEGMENT_HOST:
            segment = Run(binary, workloads["serve_open"], args.seed,
                          SERVE_SEGMENT_S, 1, run_dir, tag + "-serve")
            served = segment.raw["queries"][segment.n_warm:]
            mismatches += sum(1 for q in segment.raw["queries"]
                              if q["status"] == "mismatch")
            print(f"serve layer: {len(served)} served queries of "
                  f"serve_open's shape, "
                  f"{sum(q['status'] != 'ok' for q in served)} failed")
        layers = layer_metrics(run, segment)
        print("per-layer:")
        for name, unit in PER_LAYER.items():
            print(f"  {name:36s} {layers[name]:14.6g} {unit}")
        print("self time by layer (s): " + ", ".join(
            f"{layer} {layers[layer + '.self_s']:.4f}" for layer in SELF_TIME_LAYERS))
        print(f"tracing overhead: {layers['trace.overhead_ms']:.3f} ms "
              "(traced median minus untraced median)")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        print("end-to-end:")
        for name, unit in end_to_end.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:22s} {e2e[name]:12.6g} {unit}{note}")
        print(f"  {'failed_frac':22s} {failed / attempted:12.6g} ratio")
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in end_to_end.items()}

    print(json.dumps({"correct": mismatches == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
