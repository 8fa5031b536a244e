#!/usr/bin/env python3
"""Two-clock benchmark of the SPBC simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator library and the benchmark driver from source (Release,
into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when that is
set), runs one workload, checks that the printed metrics are exactly the ones
BENCHMARK.json declares for the mode, and prints the driver's result as the
last line of standard output. NOTES.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (first time) and builds; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or changed %s"
             % (sorted(set(want.items()) - set(got.items())),
                sorted(set(got.items()) - set(want.items()))))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
