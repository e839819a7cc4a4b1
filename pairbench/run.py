#!/usr/bin/env python3
"""Build pairbench and run one workload; see README.md in this directory.

    python3 pairbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pairmr source tree. Builds the benchmark and the
libraries it drives in Release under .bench_build/, runs the workload, and
prints its report followed by one JSON result line: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (adding the
ones computed from the run's Chrome trace, which stays in
.bench_build/traces/). Exits non-zero without a result line when the
build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch-compute", "batch-shipping", "batch-outofcore", "serve-churn")


def fail(message):
    print("pairbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = root / ".bench_build" / "pairbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir.parent / "pairbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
        if not (build_dir / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return build_dir / "pairbench"


def source_id(root):
    """The git commit, or a digest of the sources outside a git checkout."""
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if git.returncode == 0:
            return git.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(root, trace):
    with open(root / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    args = parser.parse_args()
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it, so a terminated run leaves no process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("run from the root of a pairmr source tree (src/ is missing)")
    expected = expected_metrics(root, args.trace)
    binary = build(root)
    source = source_id(root)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source]
    if args.tiny:
        cmd.append("--tiny")
    stem = "%s-seed%d%s" % (args.workload, args.seed, "-tiny" if args.tiny else "")
    trace_dir = root / ".bench_build" / "traces"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-prefix", str(trace_dir / stem)]

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    if args.trace:
        trace_path = trace_dir / (stem + ".trace.json")
        provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                          if line.startswith("provenance "))
        provenance.update(workload=args.workload, seed=args.seed,
                          seconds=args.seconds)
        layers.merge(str(trace_dir / stem), str(trace_path), provenance)
        print("  trace: %s" % trace_path.relative_to(root))
        for name, (value, unit) in layers.span_metrics(str(trace_path)).items():
            result["metrics"][name] = {"value": value, "unit": unit}
            print("  %-42s %16.6g %s" % (name, value, unit))

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != dict(expected):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(expected)))
    result["metrics"] = {name: result["metrics"][name] for name, _ in expected}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
