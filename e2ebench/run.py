#!/usr/bin/env python3
"""Build and run the mivtx end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: chain-cold, cell-library, block-scale, serve-mixed (see
e2ebench/README.md).  The benchmark is built from source into .bench_build/
with CMake on every run (incremental after the first).  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.  BENCHMARK.json at the repository root is the one list of metric
names, units and directions: e2ebench reports bare values, and this script
names them.  The exit code is that of the e2ebench program: 0 when every
output check passed, nonzero on a mismatch, a build failure, a timeout or
a metric that BENCHMARK.json and e2ebench disagree on.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("chain-cold", "cell-library", "block-scale", "serve-mixed")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def build(root: Path, bench_dir: Path, build_dir: Path) -> bool:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", str(bench_dir), "-B", str(build_dir)],
                 ["cmake", "--build", str(build_dir), "-j", str(BUILD_JOBS),
                  "--target", "e2ebench", "mivtx_serve"]]
        for cmd in steps:
            if subprocess.run(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("e2ebench: build failed:\n" + "\n".join(tail), file=sys.stderr)
                return False
    return True


def to_metrics(root: Path, trace: bool, values: dict):
    """The values e2ebench reported, named and with units as BENCHMARK.json
    declares them.  Every end-to-end metric must be reported; a per-layer
    metric that a workload does not exercise reads 0.  Returns None (after
    saying why) when e2ebench reports a name BENCHMARK.json does not list,
    or misses an end-to-end one."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(values) - names)
    missing = [] if trace else sorted(names - set(values))
    if extra or missing:
        print("e2ebench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (missing, extra), file=sys.stderr)
        return None
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    build_dir = root / ".bench_build"
    if not build(root, bench_dir, build_dir):
        return 3

    cmd = [str(build_dir / "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    # Own process group, so a timeout takes the daemon child down too.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("e2ebench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 and (not lines or not lines[-1].startswith("{")):
        if lines:
            print(lines[-1])
        return proc.returncode

    result = json.loads(lines[-1])
    metrics = to_metrics(root, args.trace == "1", result.pop("values"))
    if metrics is None:
        return 5
    print("%s metrics:" % ("per-layer" if args.trace == "1" else "end-to-end"))
    for name, m in metrics.items():
        print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    result["metrics"] = metrics
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
