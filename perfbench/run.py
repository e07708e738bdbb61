#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench` from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

`--trace 0` runs the plain build and reports the end-to-end metrics.
`--trace 1` runs the plain build for half the time (for `op_ms_p50`
without tracing), then the `obs` build for the other half, and reports the
per-layer metrics plus `obs.overhead_frac`. The last stdout line is the
result object `{"correct", "attempted", "failed", "metrics"}`; the line
before it (`perfbench host: ...`) records host, seed and source revision.
Build outputs go to `$CARGO_TARGET_DIR` (default `.bench_build`), under
`plain/` and `traced/`; per-run reports and spans go to its `reports/`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["dense-100k", "sweep-dynamic", "maintain-churn"]
# Every run must end well inside the harness's 180 s limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def check_sources():
    """The benchmark builds the program from the checkout's sources."""
    for rel in ["Cargo.toml", "crates/core/Cargo.toml", "vendor/rayon/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"program sources missing ({rel} not found under {ROOT})")


def build(traced):
    target = os.path.join(target_root(), "traced" if traced else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target]
    if traced:
        cmd += ["--features", "obs"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, args, timeout):
    out_dir = os.path.join(target_root(), "reports")
    cmd = [binary] + args + ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return json.loads(lines[-1])


def source_revision():
    """The git commit when there is one, and always a digest of the sources."""
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        out = proc.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if proc.returncode == 0 and len(out) == 2 and os.path.samefile(out[0], ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.startswith(os.path.join("perfbench", "Cargo.lock")):
                continue
            digest.update(rel.encode())
            with open(f, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return commit, digest.hexdigest()[:16]


def workers_default():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(args):
    check_sources()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workers", str(args.workers)]
    if args.tiny:
        common.append("--tiny")
    if args.corrupt_record:
        common += ["--corrupt-record", args.corrupt_record]
    plain_bin = build(traced=False)
    if args.trace == 0:
        plain = run_binary(plain_bin, common + ["--seconds", str(args.seconds)],
                           RUN_TIMEOUT_S)
        runs = [plain]
        metrics = plain["metrics"]
    else:
        traced_bin = build(traced=True)
        started = time.monotonic()
        half = str(max(args.seconds / 2.0, 0.5))
        plain = run_binary(plain_bin, common + ["--seconds", half, "--setup-reps", "1"],
                           RUN_TIMEOUT_S / 2)
        left = RUN_TIMEOUT_S - (time.monotonic() - started)
        traced = run_binary(traced_bin, common + ["--seconds", half, "--setup-reps", "1"],
                            left)
        runs = [plain, traced]
        metrics = dict(traced["metrics"])
        base = plain["detail"]["op_ms_p50"]
        overhead = traced["detail"]["op_ms_p50"] / base - 1.0 if base > 0 else 0.0
        metrics["obs.overhead_frac"] = {"value": overhead, "unit": "fraction"}

    commit, digest = source_revision()
    detail = runs[-1]["detail"]
    host = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": detail["nproc"], "workers": detail["workers"],
        "simd_bits": detail["simd_bits"], "commit": commit, "source_digest": digest,
        "runs": [r["detail"] for r in runs],
    }
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    report_dir = os.path.join(target_root(), "reports")
    os.makedirs(report_dir, exist_ok=True)
    report = os.path.join(
        report_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump({"host": host, "result": result}, fh, indent=1)
    print("perfbench host: " + json.dumps(host, separators=(",", ":")))
    print(json.dumps(result))


def self_test(args):
    """Tiny run of every workload in both builds: every metric BENCHMARK.json
    names must appear with its unit, and a corrupted sweep record must count
    as a failed op."""
    check_sources()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def run(workload, trace, extra=()):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S + 30)
        if proc.returncode != 0:
            problems.append(f"{' '.join(cmd[2:])}: exit {proc.returncode}: {proc.stderr[-500:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            res = run(workload, trace)
            if res is None:
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: not correct: {res}")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace {trace}: metric {m['name']} "
                                    f"missing or wrong unit: {got}")
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload} trace {trace}: unlisted metrics {sorted(extra)}")
            print(f"self-test: {workload} trace {trace}: "
                  f"{len(res['metrics'])} metrics, {res['attempted']} ops")
    for how in ["cut", "dup"]:
        res = run("sweep-dynamic", 0, ["--corrupt-record", how])
        if res is not None and (res["correct"] or res["failed"] < 1):
            problems.append(f"corrupted sweep record ({how}) was not counted "
                            f"as a failed op: {res}")
        elif res is not None:
            print(f"self-test: corrupted sweep record ({how}) counted: "
                  f"{res['failed']} failed op(s)")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workers", type=int, default=workers_default(),
                    help="pool worker threads (capped at the host's cores)")
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt-record", choices=["cut", "dup"],
                    help="damage one sweep batch's records before they are checked: "
                         "cut the first record in half, or append a duplicate")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test(args)
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
