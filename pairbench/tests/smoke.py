#!/usr/bin/env python3
"""Smoke self-test of every pairbench workload at tiny sizes.

    python3 pairbench/tests/smoke.py      # from the source-tree root

Runs each workload through run.py with --tiny, untraced and traced, and
checks that every run succeeds with every output correct, that the result
line carries exactly the metrics BENCHMARK.json names (printing each one),
that the exact counts repeat between two traced runs of one seed, that the
trace file holds engine and benchmark spans, and that a run refuses to
start when an environment variable would re-route its backend, plane or
memory budget. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent.parent / "run.py"
WORKLOADS = ("batch-compute", "batch-shipping", "batch-outofcore", "serve-churn")
# Counts that are a pure function of the workload and its seed.
EXACT = ("pairwise.pipeline.evaluations", "mr.backend.fork.workers_forked",
         "mr.backend.fork.workers_reused", "mr.spill.runs", "mr.spill.merge_passes")


def check(condition, what):
    if not condition:
        sys.exit("FAIL: " + what)


def run(workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    return proc


def result_of(proc, what):
    check(proc.returncode == 0, "%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          what + ": result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          what + ": outputs not all correct: %r" % {k: result[k] for k in ("correct", "attempted", "failed")})
    return result


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s --trace %d" % (workload, trace)
            result = result_of(run(workload, trace), what)
            names = [(m["name"], m["unit"]) for m in spec[section]]
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            check(got == names, what + ": metrics differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                print("%-26s %-42s %-14.6g %s" % (what, name, m["value"], m["unit"]))
            if trace:
                trace_file = ROOT / ".bench_build" / "traces" / (workload + "-seed7-tiny.trace.json")
                with open(trace_file) as f:
                    cats = {e["cat"] for e in json.load(f)["traceEvents"]}
                check({"pairbench", "job", "reduce-exec"} <= cats,
                      what + ": trace file lacks engine or benchmark spans")
                again = result_of(run(workload, trace), what + " (repeat)")
                for name, m in result["metrics"].items():
                    if name in EXACT or name.endswith("_bytes"):
                        check(m["value"] == again["metrics"][name]["value"],
                              "%s: %s did not repeat exactly" % (what, name))

    for var, value in (("PAIRMR_TEST_BACKEND", "fork"), ("PAIRMR_SHUFFLE_PLANE", "shm"),
                       ("PAIRMR_TEST_MEMORY_BUDGET", "1024")):
        proc = run("batch-compute", 0, env=dict(os.environ, **{var: value}))
        check(proc.returncode != 0 and not proc.stdout.strip().endswith("}"),
              "ran with %s set" % var)
    print("PASS")


if __name__ == "__main__":
    main()
