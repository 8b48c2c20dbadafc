#!/usr/bin/env python3
"""End-to-end benchmark of the Miniphases compiler.

Run from the repository root:

    python3 perfbench/run.py --workload batch|edit|exec|service \
        --seed N --seconds S --trace 0|1

The script builds the `perfbench` harness from source (into
$CARGO_TARGET_DIR, default `.bench_build`), computes the expected program
output of every op in a separate oracle process (one-shot Mega-mode
compile on the reference VM), then runs the timed workload in fresh
processes, pools their samples, and checks every op's output against the
oracle byte for byte. `--seconds` sets how many passes each process runs,
from the nominal length of one pass on the reference host.

It prints one line per metric (name, value, unit, sample count) and, as
the last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` the per-layer ones, span self times and the
tracing overhead.

A run is marked incorrect when an op's output differs from the oracle,
when the oracle disagrees with the digests recorded under
`perfbench/oracle/` for the seed, or when the exact-count guard fires:
work counters that differ between passes of the run, or from an earlier
run of the same seed on the same sources.

`--record-oracle` writes the oracle digests of the given seed to
`perfbench/oracle/` instead of measuring.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("batch", "edit", "exec", "service")
BENCH_DIR = "perfbench"
ORACLE_DIR = os.path.join(BENCH_DIR, "oracle")
# Everything whose change can change the harness binary or its results.
SOURCE_ROOTS = ("crates", "vendor", BENCH_DIR, "src")
SOURCE_SUFFIXES = (".rs", ".toml", ".lock")
# Median time (ms) of the harness's calibration workload on the reference
# host. End-to-end times are scaled by NOMINAL_CALIB_MS / (the run's median
# calibration time), i.e. reported in reference-host milliseconds: on a
# shared host the same op's wall time drifts by 20% or more over an hour,
# and the calibration, timed between passes in the measuring processes,
# tracks that drift while running no compiler code.
NOMINAL_CALIB_MS = 27.0
# Measurement processes per run. Op latency, set-up time and calibration
# each differ by ±15% between otherwise identical processes, so a run pools
# several. Traced runs need an even number of passes per process.
PROCESSES = 6
TRACE_PROCESSES = 4
# Seconds one pass takes on the reference host (2 vCPU). The harness runs a
# fixed number of passes derived from these, not "as many as fit": a pass
# count that follows the host's speed would change the process history,
# and the first passes of a process are measurably slower than later ones.
NOMINAL_PASS_S = {"batch": 1.5, "edit": 3.7, "exec": 1.8, "service": 1.7}
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "oracle"))
            for name in sorted(filenames):
                if name.endswith(SOURCE_SUFFIXES):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_harness(args):
    res = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        fail(f"harness exited with {res.returncode}: {' '.join(args[1:3])}")
    return res.stdout


def digests(path):
    with open(path) as f:
        return [hashlib.sha256(bytes.fromhex(line.strip())).hexdigest() for line in f]


def recorded_path(workload, seed):
    return os.path.join(ORACLE_DIR, f"{workload}-seed{seed}.txt")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-oracle", action="store_true")
    a = ap.parse_args()

    if not os.path.isdir("crates") or not os.path.isfile(os.path.join(BENCH_DIR, "Cargo.toml")):
        fail("run from the repository root: the compiler crates are missing")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    state_dir = os.path.join(target_dir, "perfbench-state")
    os.makedirs(state_dir, exist_ok=True)
    key = f"{a.workload}-seed{a.seed}-{source_hash()}"

    # Oracle, in its own process and cached per seed and source tree.
    oracle = os.path.join(state_dir, f"oracle-{key}.txt")
    if not os.path.exists(oracle):
        tmp = oracle + ".tmp"
        run_harness([binary, "oracle", "--workload", a.workload, "--seed", str(a.seed), "--out", tmp])
        os.replace(tmp, oracle)
    expected = digests(oracle)
    if a.record_oracle:
        os.makedirs(ORACLE_DIR, exist_ok=True)
        with open(recorded_path(a.workload, a.seed), "w") as f:
            f.write("".join(d + "\n" for d in expected))
        print(f"recorded {len(expected)} oracle digests to {recorded_path(a.workload, a.seed)}")
        return
    problems = []
    rec = recorded_path(a.workload, a.seed)
    if os.path.exists(rec):
        with open(rec) as f:
            if [l.strip() for l in f if l.strip()] != expected:
                problems.append(f"oracle output differs from the digests recorded in {rec}")

    # Each process runs one workload from scratch; the samples are pooled.
    procs = TRACE_PROCESSES if a.trace else PROCESSES
    passes = max(1, round(a.seconds / procs / NOMINAL_PASS_S[a.workload]))
    if a.trace:
        passes += passes % 2  # untraced and traced passes alternate
    results = []
    for i in range(procs):
        # The first process measures peak memory and does not calibrate;
        # the others calibrate (which leaves freed heap behind).
        cmd = [binary, "measure", "--workload", a.workload, "--seed", str(a.seed),
               "--passes", str(passes), "--trace", str(a.trace),
               "--calibrate", "0" if i == 0 else "1", "--expect", oracle]
        if a.trace:
            spans = os.path.join(state_dir, f"spans-{a.workload}-seed{a.seed}-p{i}.jsonl")
            cmd += ["--spans", spans]
        results.append(json.loads(run_harness(cmd).strip().splitlines()[-1]))

    attempted = sum(r["attempted"] for r in results)
    matched = sum(r["matched"] for r in results)
    if matched != attempted:
        misses = [r["first_miss"] for r in results if "first_miss" in r]
        problems.append(f"{attempted - matched} op(s) differ from the oracle; first: {misses[0]}")
    for r in results:
        if not r["guard_ok"]:
            problems.append(f"exact-count guard: counters varied between passes: {r.get('varied')}")
    exact = results[0]["exact"]
    if any(r["exact"] != exact for r in results):
        problems.append(f"exact-count guard: counters differ between processes: "
                        f"{[r['exact'] for r in results]}")
    exact_path = os.path.join(state_dir, f"exact-{key}.json")
    if os.path.exists(exact_path):
        with open(exact_path) as f:
            before = json.load(f)
        if before != exact:
            problems.append(f"exact-count guard: counters differ from an earlier run of this seed: "
                            f"{before} vs {exact}")
    else:
        with open(exact_path, "w") as f:
            json.dump(exact, f)

    def pooled(name):
        return [x for r in results for x in r["raw"][name]]

    calib = pooled("calib_ms")
    speed = NOMINAL_CALIB_MS / statistics.median(calib)
    metrics = {}  # name -> (value, unit, samples)
    raw = {}  # unscaled wall-clock value of each scaled metric
    if not a.trace:
        ops = pooled("op_ms")
        raw["setup_s"] = (statistics.median(pooled("setup_s")), len(pooled("setup_s")))
        raw["cold_ms"] = (statistics.median(pooled("cold_ms")), len(pooled("cold_ms")))
        raw["op_ms_p50"] = (statistics.median(ops), len(ops))
        raw["op_ms_p90"] = (quantile(ops, 0.9), len(ops))
        for name, (value, n) in raw.items():
            metrics[name] = (value * speed, "s" if name == "setup_s" else "ms", n)
        metrics["peak_rss_mb"] = (results[0]["peak_rss_mb"], "MB", 1)
        metrics["code_insns"] = (exact["code_insns"], "count", sum(r["passes"] for r in results))
        metrics["success_rate"] = (matched / attempted, "ratio", attempted)
    else:
        for name, m in results[0]["layers"].items():
            value = statistics.median(r["layers"][name]["value"] for r in results)
            metrics[name] = (value, m["unit"], sum(r["layers"][name]["n"] for r in results))
        metrics["host.calib_ms"] = (statistics.median(calib), "ms", len(calib))
        metrics["host.speed"] = (speed, "ratio", len(calib))
        untraced, traced = pooled("op_ms"), pooled("traced_op_ms")
        metrics["trace.op_ms_p50_untraced"] = (statistics.median(untraced), "ms", len(untraced))
        metrics["trace.op_ms_p50_traced"] = (statistics.median(traced), "ms", len(traced))
        metrics["trace.overhead_ms"] = (metrics["trace.op_ms_p50_traced"][0]
                                        - metrics["trace.op_ms_p50_untraced"][0], "ms", len(traced))

    print(f"perfbench {a.workload}: seed {a.seed}, trace {a.trace}, {procs} processes, "
          f"{sum(r['passes'] for r in results)} passes, {matched}/{attempted} ops match the oracle")
    print(f"  host speed {speed:.4f} (calibration median {statistics.median(calib):.3f} ms "
          f"vs {NOMINAL_CALIB_MS} ms nominal, n={len(calib)})")
    for name, (value, unit, n) in metrics.items():
        note = f"  (wall clock {raw[name][0]:.6f})" if name in raw else ""
        print(f"  {name:<32} {value:>16.6f} {unit:<6} n={n}{note}")
    print("  exact counts: " + ", ".join(f"{k}={v}" for k, v in exact.items()))
    for p in problems:
        print(f"perfbench: FLAGGED: {p}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - matched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def quantile(xs, q):
    """Linear-interpolated quantile, as numpy's default."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


if __name__ == "__main__":
    main()
