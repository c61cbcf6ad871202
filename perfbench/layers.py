"""Per-layer metrics from the span files ``traced.py`` writes.

One traced *pass* runs every command of a workload once, each in its own
traced child.  :func:`summarize` reduces one command's trace;
:func:`pass_metrics` folds the commands of one pass into the benchmark's
``per_layer`` metrics.  Layer times add up over every command of the
pass; the ``*_frac`` shares are taken against the wall time of the
pass's ``solve`` command.
"""

from __future__ import annotations

#: Steps a traced pass may contain, in workload order.
STEPS = ("create", "apply_delta", "solve", "compact", "solve_compacted")

#: ``per_layer`` metric -> (span name, "busy" | "self" | "calls").
SPAN_METRICS = {
    "setsystem.io.load_s": ("setsystem.io.load", "busy"),
    "setsystem.shards.write_s": ("setsystem.shards.write", "busy"),
    "setsystem.shards.decode_s": ("setsystem.shards.decode", "busy"),
    "setsystem.shards.decode_calls": ("setsystem.shards.decode", "calls"),
    "setsystem.shards.scan_s": ("setsystem.shards.scan", "busy"),
    "workloads.churn.load_s": ("workloads.churn.load", "busy"),
    "setsystem.deltas.apply_s": ("setsystem.deltas.apply", "busy"),
    "setsystem.deltas.compact_s": ("setsystem.deltas.compact", "busy"),
    "setsystem.durability.fsyncs": ("setsystem.durability.fsync", "calls"),
    "setsystem.durability.fsync_s": ("setsystem.durability.fsync", "busy"),
    "engine.transport.wait_s": ("engine.transport.wait", "busy"),
    "engine.merge.reorder_s": ("engine.merge.reorder", "busy"),
    "offline.solve_s": ("offline.solve", "busy"),
    "offline.calls": ("offline.solve", "calls"),
    "core.iter.self_s": ("core.iter", "self"),
    "baselines.threshold.self_s": ("baselines.threshold", "self"),
}

#: ``per_layer`` metric -> counter name recorded by ``traced.py``.
COUNTER_METRICS = {
    "setsystem.shards.bytes_written": "setsystem.shards.bytes_written",
    "setsystem.set_system.builds": "setsystem.set_system.builds",
    "setsystem.packed.to_indices_calls": "setsystem.packed.to_indices_calls",
    "engine.transport.remote.frames": "engine.transport.remote.frames",
    "engine.transport.remote.bytes": "engine.transport.remote.bytes",
}

#: Shares of the solve command's wall time: metric -> span metric.
SOLVE_SHARES = {
    "engine.transport.wait_frac": "engine.transport.wait_s",
    "setsystem.shards.decode_frac": "setsystem.shards.decode_s",
    "offline.solve_frac": "offline.solve_s",
    "core.iter.self_frac": "core.iter.self_s",
}

OTHER_METRICS = {
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.hit_rate": "ratio",
    "engine.plan.jobs": "count",
    "engine.transport.remote.worker_cpu_s": "s",
    "engine.transport.remote.placement_skew": "ratio",
    "engine.transport.remote.faults": "count",
    "startup.import_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _unit(name: str) -> str:
    if name in OTHER_METRICS:
        return OTHER_METRICS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def metric_units() -> dict:
    """Every ``per_layer`` metric name with its unit, in report order."""
    names = [*SPAN_METRICS, *COUNTER_METRICS, *SOLVE_SHARES, *OTHER_METRICS]
    for step in STEPS:
        names += [f"trace.{step}.unattributed_frac",
                  f"trace.{step}.overhead_frac"]
    return {name: _unit(name) for name in names}


def _union_length(intervals) -> float:
    total, cursor = 0.0, None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def summarize(trace: dict) -> dict:
    """Busy time, self time and calls per span name of one command."""
    begin, end = trace["command"]
    spans = trace["spans"]
    durations, children = [], [0.0] * len(spans)
    for name, _, start, stop, parent in spans:
        duration = (end if stop is None else stop) - start
        durations.append(duration)
        if parent is not None:
            children[parent] += duration
    busy, self_time, calls = {}, {}, {}
    for index, (name, *_rest) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + durations[index]
        self_time[name] = (
            self_time.get(name, 0.0) + durations[index] - children[index]
        )
        calls[name] = calls.get(name, 0) + 1
    covered = _union_length(
        (max(start, begin), min(end if stop is None else stop, end))
        for _, _, start, stop, _ in spans
        if start < end
    )
    wall = end - begin
    return {
        "wall": wall,
        "busy": busy,
        "self": self_time,
        "calls": calls,
        "counters": trace.get("counters", {}),
        "gauges": trace.get("gauges", {}),
        "import_s": trace.get("import_s", 0.0),
        "missing": trace.get("missing", []),
        "unattributed_frac": 1.0 - covered / wall if wall > 0 else 0.0,
    }


def pass_metrics(
    commands: dict, overhead: dict, worker_cpu_s: float = 0.0
) -> dict:
    """``per_layer`` metrics of one traced pass.

    ``commands`` maps step -> :func:`summarize` output; ``overhead`` maps
    step -> traced child wall over the untraced median, minus one, plus
    the key ``"pass"`` for the whole pass.
    """
    metrics = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        metrics[metric] = sum(
            summary[kind].get(span, 0) for summary in commands.values()
        )
    for metric, counter in COUNTER_METRICS.items():
        metrics[metric] = sum(
            summary["counters"].get(counter, 0) for summary in commands.values()
        )
    solve = commands.get("solve")
    for metric, source in SOLVE_SHARES.items():
        if solve is None or solve["wall"] <= 0:
            metrics[metric] = 0.0
            continue
        span, kind = SPAN_METRICS[source]
        metrics[metric] = solve[kind].get(span, 0) / solve["wall"]

    solves = [commands[s] for s in ("solve", "solve_compacted") if s in commands]
    hits = sum(s["gauges"].get("cache_hits", 0) for s in solves)
    misses = sum(s["gauges"].get("cache_misses", 0) for s in solves)
    metrics["engine.cache.hits"] = hits
    metrics["engine.cache.misses"] = misses
    metrics["engine.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["engine.plan.jobs"] = solve["gauges"].get("jobs", 0) if solve else 0
    metrics["engine.transport.remote.worker_cpu_s"] = worker_cpu_s
    delivered = [
        count for worker, count in
        (solve["gauges"].get("placement", {}) if solve else {}).items()
        if worker != "driver"  # the solve process's own local scans
    ]
    metrics["engine.transport.remote.placement_skew"] = (
        max(delivered) / max(min(delivered), 1) if delivered else 0.0
    )
    metrics["engine.transport.remote.faults"] = sum(
        s["gauges"].get("faults", 0) for s in solves
    )
    metrics["startup.import_s"] = solve["import_s"] if solve else 0.0
    metrics["trace.unattributed_frac"] = max(
        summary["unattributed_frac"] for summary in commands.values()
    )
    metrics["trace.overhead_frac"] = overhead.get("pass", 0.0)
    for step in STEPS:
        summary = commands.get(step)
        metrics[f"trace.{step}.unattributed_frac"] = (
            summary["unattributed_frac"] if summary else 0.0
        )
        metrics[f"trace.{step}.overhead_frac"] = overhead.get(step, 0.0)
    return metrics
