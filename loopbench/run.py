#!/usr/bin/env python3
"""Build and run the loopback serving benchmark.

    python3 loopbench/run.py --workload bulk|chatty|wide-kill|all --seed N \
        --seconds S --trace 0|1
    python3 loopbench/run.py compare RESULT_A.json RESULT_B.json

Run from the repository root. The first form builds `loopbench/` (which
compiles the parapage crates from source) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one measurement, stamps it with a host
fingerprint, and prints the benchmark's result object as the last line of
stdout (`all` runs the three workloads in turn). At the pinned seed it also checks each tenant's reply chain
against `loopbench/pinned.json`. A full result record is written under
`<target>/loopbench/results/`.

The second form compares two result records and refuses when their host
fingerprints differ.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_KEYS = ("cores", "cpu_model", "rustc")
RUN_TIMEOUT_S = 170
SUB_RUNS = 7
WORKLOADS = ["bulk", "chatty", "wide-kill"]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "stubs", "loopbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x != "target")
                files.extend(os.path.join(d, n) for n in sorted(names))
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_sha": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }


def host(fp):
    return {k: fp.get(k) for k in HOST_KEYS}


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def expected_chains(workload, seed):
    with open(os.path.join(HERE, "pinned.json")) as f:
        pins = json.load(f)
    if seed != pins["seed"]:
        return None
    return pins["chains"][workload]


def combine(results):
    """One result from several sub-runs: each metric is the median of the
    sub-runs' values; attempts and failures add up."""
    names = results[0]["metrics"]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {
                "value": statistics.median(r["metrics"][name]["value"] for r in results),
                "unit": results[0]["metrics"][name]["unit"],
            }
            for name in names
        },
    }


def pooled_p99(paths):
    """The p99 round trip over every sub-run's samples, by the binary's
    nearest-rank rule: reported only with ten samples beyond it."""
    lat = []
    for p in paths:
        with open(p) as f:
            lat += [int(line) for line in f]
    lat.sort()
    n = len(lat)
    rank = max(1, math.ceil(0.99 * n)) - 1 if n else 0
    beyond = n - 1 - rank if n else 0
    if beyond < 10:
        return "batch_p99_us n/a us  (%d samples leave fewer than ten beyond p99)" % n
    return "batch_p99_us %r us  (not gated; %d samples pooled over sub-runs, %d beyond p99)" % (
        lat[rank] / 1e3, n, beyond)


def run(args):
    target = target_dir()
    if not build(target):
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "loopbench")
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_dir = os.path.join(target, "loopbench")
    for sub in ("logs", "spans", "results", "latencies"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    # An untraced run is split into SUB_RUNS processes and reports medians,
    # so one slow process (or a slow stretch of the host) moves the result
    # less; the traced run is one process.
    sub_runs = 1 if args.trace else SUB_RUNS
    argv = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / sub_runs),
        "--trace", str(args.trace),
        "--spans", os.path.join(out_dir, "spans", tag + ".tsv"),
    ]
    lat_path = os.path.join(out_dir, "latencies", tag + "-%d.txt")
    chains = expected_chains(args.workload, args.seed)
    if chains:
        argv += ["--expect-chains", ",".join(chains)]
    fp = fingerprint()
    # The server's injected kills print through whatever panic hook is
    # installed when they fire; pin the backtrace setting so runs on any
    # host pay the same cost for it.
    env = dict(os.environ, RUST_BACKTRACE="1")
    log_path = os.path.join(out_dir, "logs", tag + ".stderr")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, notes, code = [], [], 0
    with open(log_path, "w") as log:
        for i in range(sub_runs):
            sub_argv = argv if args.trace else argv + ["--latencies", lat_path % i]
            try:
                proc = subprocess.run(
                    sub_argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                    text=True, timeout=max(1.0, deadline - time.monotonic()),
                )
            except subprocess.TimeoutExpired:
                print("error: benchmark exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
                return 2
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
            except (IndexError, ValueError, AssertionError):
                print("error: benchmark printed no result (exit %d); see %s"
                      % (proc.returncode, log_path), file=sys.stderr)
                return proc.returncode or 2
            results.append(result)
            # Per-sub-run p99 and error rate are replaced by pooled lines.
            notes += [line for line in lines[:-1] if line.startswith("#") and line not in notes
                      and not line.startswith(("# batch_p99_us", "# error_rate"))]
            code = code or proc.returncode
    with open(log_path) as f:
        panics = sum(1 for line in f if " panicked at " in line)
    result = combine(results)
    for line in notes:
        print(line)
    print("# fingerprint %s" % json.dumps(fp, sort_keys=True))
    print("# panic reports on stderr: %d (%s)" % (panics, log_path))
    for name, m in result["metrics"].items():
        subs = ", ".join("%.6g" % r["metrics"][name]["value"] for r in results)
        print("%s %r %s%s" % (name, m["value"], m["unit"],
                              "  (median of %s)" % subs if sub_runs > 1 else ""))
    if not args.trace:
        print(pooled_p99([lat_path % i for i in range(sub_runs)]))
    print("error_rate %r ratio  (failed %d of %d batches)" % (
        result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    record = {
        "fingerprint": fp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sub_runs": results,
        "result": result,
    }
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return code


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if host(a["fingerprint"]) != host(b["fingerprint"]):
        print("refusing to compare: host fingerprints differ\n  %s\n  %s"
              % (host(a["fingerprint"]), host(b["fingerprint"])), file=sys.stderr)
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare: different workload or trace mode", file=sys.stderr)
        return 3
    print("%-45s %16s %16s %9s" % ("metric", "A", "B", "B/A"))
    for name, m in sorted(a["result"]["metrics"].items()):
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print("%-45s %16.6g %16.6g %9.4f  %s" % (name, m["value"], other["value"], ratio, m["unit"]))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare RESULT_A.json RESULT_B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description="loopback serving benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run(args)
    code = 0
    for w in WORKLOADS:
        print("## workload %s" % w)
        code = code or run(argparse.Namespace(**dict(vars(args), workload=w)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
