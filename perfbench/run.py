#!/usr/bin/env python3
"""Build and run the perfbench harness on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kernel_boards --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10    # every workload in turn

The harness is built from source (release profile: fat LTO, one
codegen unit) into $CARGO_TARGET_DIR, or .bench_build when that is
unset. Cargo's output goes to standard error. Standard output carries
a provenance line, the harness's own report, and, as its last line,
the result object {"correct", "attempted", "failed", "metrics"}.
The run is refused when a measured crate is built with the
wall-profile or alloc-count feature.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(BENCH_DIR, "Cargo.toml")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.txt")
FORBIDDEN_FEATURES = ("wall-profile", "alloc-count")
WORKLOADS = ("kernel_boards", "bus_traffic", "topology_reroute", "analysis_sweep")
# The harness caps each of its two passes at 80 s; leave room for exit.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def enabled_features(env):
    """Non-default Cargo features enabled anywhere in the harness's build."""
    tree = subprocess.run(
        ["cargo", "tree", "--offline", "--manifest-path", MANIFEST,
         "-e", "features", "--prefix", "none"],
        capture_output=True, text=True, env=env)
    if tree.returncode != 0:
        sys.stderr.write(tree.stderr)
        fail("cargo tree failed; is this the repository root?")
    found = set(re.findall(r'^(\S+) feature "([^"]+)"', tree.stdout, re.M))
    return sorted(f"{krate}/{feat}" for krate, feat in found if feat != "default")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def release_profile():
    with open(MANIFEST) as f:
        text = f.read()
    section = text.split("[profile.release]", 1)[-1]
    settings = re.findall(r"^(\w[\w-]*)\s*=\s*(\S+)", section, re.M)
    return "release (" + ", ".join(f"{k} = {v}" for k, v in settings) + ")"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    for crate in ("sim", "hal", "sched", "core", "fieldbus", "faults"):
        if not os.path.isfile(os.path.join("crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} not found; run from the repository root")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]

    features = enabled_features(env)
    bad = [f for f in features if f.split("/")[1] in FORBIDDEN_FEATURES]
    if bad:
        fail(f"refusing to measure a build with {', '.join(bad)}")

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("cargo build failed")

    commit = capture(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": capture(["rustc", "--version"]) or "unknown",
        "git_commit": commit or "unknown (not a git checkout)",
        "build_profile": release_profile(),
        "features": features,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True), flush=True)

    spans_dir = os.path.join(target, "perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    if args.workload != "all":
        sys.exit(run_harness(target, spans_dir, args, args.workload, capture_out=False)[0])

    # Every workload in turn: each one's report, then one summary line
    # with the metrics keyed "<workload>/<metric>".
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_harness(target, spans_dir, args, workload, capture_out=True)
        lines = out.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]), flush=True)
        if code != 0 or not lines:
            fail(f"{workload} exited with {code}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))


def run_harness(target, spans_dir, args, workload, capture_out):
    """Runs the built harness once; returns (exit code, captured stdout)."""
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--fingerprints", FINGERPRINTS,
        "--spans-out",
        os.path.join(spans_dir, f"spans-{workload}-{args.seed}.tsv"),
    ]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture_out else None)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout or ""


if __name__ == "__main__":
    main()
