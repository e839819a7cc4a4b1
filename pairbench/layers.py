"""Per-layer metrics derived from a traced pairbench run's Chrome trace.

The traced run writes two files: the engine tracer's Chrome export and
the benchmark's own spans ("run" / "update" around each operation,
"write_dataset", "scheme", "top_k", "read_elements", ...). merge() joins
them into one Chrome trace JSON; span_metrics() computes, from that file,
the layer figures that only spans can give, one value per traced
operation, and reports the median over operations.

Engine spans are attributed to an operation through their job: the job
span is recorded by the coordinator on the benchmark clock, so the
operation whose interval holds its start owns every span of that job
(pid = job ordinal). Worker processes of the fork backend record spans on
their own clock, so an attempt's self time is its duration minus the
union of its children's intervals, children matched by (job, task kind,
task, attempt, speculative) rather than by time containment.
"""

import json
import os
import statistics
from collections import defaultdict

ATTEMPTS = ("map-attempt", "reduce-attempt")
NOT_CHILDREN = ATTEMPTS + ("job", "phase")

# Metric name -> (per-operation figure, unit).
SPAN_METRICS = {
    "mr.engine.map_exec_s": ("map_exec", "s"),
    "mr.engine.shuffle_fetch_s": ("shuffle_fetch", "s"),
    "mr.engine.reduce_exec_s": ("reduce_exec", "s"),
    "mr.engine.output_write_s": ("output_write", "s"),
    "mr.engine.attempt_self_s": ("attempt_self", "s"),
    "mr.engine.attempt_self_ratio": ("attempt_self_ratio", "ratio"),
    "mr.engine.shuffle_remote_bytes": ("shuffle_remote_bytes", "B"),
    "mr.spill.write_s": ("spill_write", "s"),
    "mr.spill.merge_s": ("merge_pass", "s"),
}

SUMMED_KINDS = {
    "map-exec": "map_exec",
    "reduce-exec": "reduce_exec",
    "output-write": "output_write",
    "spill-write": "spill_write",
    "merge-pass": "merge_pass",
}


def merge(prefix, out_path, provenance):
    """Write <prefix>.engine.json + <prefix>.bench.json as one trace."""
    with open(prefix + ".engine.json") as f:
        engine = json.load(f)
    with open(prefix + ".bench.json") as f:
        bench = json.load(f)
    trace = {
        "displayTimeUnit": "ms",
        "traceEvents": engine["traceEvents"] + bench,
        "otherData": provenance,
    }
    with open(out_path, "w") as f:
        json.dump(trace, f)
    os.remove(prefix + ".engine.json")
    os.remove(prefix + ".bench.json")


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def span_metrics(trace_path):
    """{metric name: (median over traced operations, unit)}."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]

    ops = sorted(
        (e["ts"], e["ts"] + e["dur"], e["args"]["op"])
        for e in events
        if e["cat"] == "pairbench"
        and e["ph"] == "X"
        and e["name"] in ("run", "update")
        and e["args"]["traced"]
    )
    if not ops:
        raise ValueError("no traced operation in " + trace_path)
    op_of_job = {}
    for e in events:
        if e["cat"] != "job":
            continue
        owner = [op for lo, hi, op in ops if lo <= e["ts"] <= hi]
        if len(owner) != 1:
            raise ValueError("job %r is not inside one traced operation" % e["name"])
        op_of_job[e["pid"]] = owner[0]

    figures = {op: defaultdict(float) for _, _, op in ops}
    attempts = []
    children = defaultdict(list)
    for e in events:
        if e["cat"] == "pairbench":
            continue
        op = op_of_job[e["pid"]]
        kind = e["cat"]
        seconds = e["dur"] / 1e6
        args = e["args"]
        fig = figures[op]
        if kind in SUMMED_KINDS:
            fig[SUMMED_KINDS[kind]] += seconds
        elif kind == "shuffle-fetch" and args["node"] != args["peer"]:
            fig["shuffle_fetch"] += seconds
            fig["shuffle_remote_bytes"] += args["bytes"]
        if args["task_kind"] == "none":
            continue
        key = (e["pid"], args["task_kind"], args["task"], args["attempt"],
               args["speculative"])
        if kind in ATTEMPTS:
            attempts.append((key, op, seconds))
        elif kind not in NOT_CHILDREN:
            children[key].append((e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6))

    busy = defaultdict(float)
    for key, op, seconds in attempts:
        figures[op]["attempt_self"] += max(0.0, seconds - _union_length(children[key]))
        busy[op] += seconds
    for op, fig in figures.items():
        fig["attempt_self_ratio"] = fig["attempt_self"] / busy[op] if busy[op] else 0.0

    return {
        name: (statistics.median(fig[field] for fig in figures.values()), unit)
        for name, (field, unit) in SPAN_METRICS.items()
    }
