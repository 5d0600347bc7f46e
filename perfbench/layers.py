"""Metric catalogue and the per-layer numbers of one traced run.

Time metrics named ``<layer>.<x>_s`` are *self* time: span duration minus
the spans nested inside it, so layers never double-count.  The one
exception is ``engine.evaluate_s``, the inclusive time of the whole grid.
"""

from __future__ import annotations

import math

# (name, unit, better, bound) — what a user waits for.  Applies to every
# workload; BENCHMARK.json mirrors this list.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better) — reported by the traced run, zero where a layer
# does no work on a workload.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("litmus.resolve_s", "s", "lower"),
    ("litmus.tests", "count", "higher"),
    ("engine.evaluate_s", "s", "lower"),
    ("engine.batches", "count", "lower"),
    ("engine.batch_p50_ms", "ms", "lower"),
    ("engine.batch_p99_ms", "ms", "lower"),
    ("cells.descriptors", "count", "lower"),
    ("cells.descriptors_per_cell", "ratio", "lower"),
    ("cells.descriptor_s", "s", "lower"),
    ("cache.keys", "count", "lower"),
    ("cache.key_s", "s", "lower"),
    ("cache.loads", "count", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.stores", "count", "lower"),
    ("cache.store_s", "s", "lower"),
    ("axiomatic.prefix_builds", "count", "lower"),
    ("axiomatic.prefix_s", "s", "lower"),
    ("axiomatic.verdict_s", "s", "lower"),
    ("axiomatic.dispatch.kernel", "count", "higher"),
    ("axiomatic.dispatch.orders", "count", "lower"),
    ("axiomatic.dispatch.backtracker", "count", "lower"),
    ("axiomatic.backtracker_share", "ratio", "lower"),
    ("kernel.builds", "count", "lower"),
    ("kernel.dp_states", "count", "lower"),
    ("kernel.s", "s", "lower"),
    ("operational.runs", "count", "lower"),
    ("operational.states", "count", "lower"),
    ("operational.s", "s", "lower"),
    ("operational.states_per_s", "1/s", "higher"),
    ("workloads.trace_s", "s", "lower"),
    ("workloads.uops", "count", "higher"),
    ("sim.runs", "count", "higher"),
    ("sim.run_s", "s", "lower"),
    ("sim.cycles", "count", "lower"),
    ("sim.uops", "count", "higher"),
    ("sim.host_us_per_cycle", "us", "lower"),
    ("eval.render_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("sim_uops_per_s", "1/s", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("host.wall_raw_s", "s", "lower"),
    ("host.probe_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_times(spans: list[list]) -> tuple[dict, dict, dict, float]:
    """Per span name: call count, inclusive and self seconds; top-level sum."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[index]
        if parent < 0:
            top_level += duration
    return calls, inclusive, self_time, top_level


def per_layer(
    record: dict, traced_wall: float, untraced_wall: float, failed_frac: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced-run record."""
    calls, inclusive, self_time, top_level = span_times(record["spans"])
    counters = record["counters"]
    counts = record["counts"]
    n = calls.get
    s = lambda name: self_time.get(name, 0.0)  # noqa: E731
    dispatch = {
        kind: counters.get(f"engine.dispatch.{kind}", 0)
        for kind in ("kernel", "orders", "backtracker")
    }
    batch_ms = [1000.0 * v for v in record["series"].get("engine.batch.seconds", [])]
    operational_s = s("operational.explore")
    states = counters.get("operational.explore.states", 0)
    sim_run_s = s("sim.run")
    cycles = sum(stats["cycles"] for stats in record["sim_stats"].values())
    sim_uops = sum(stats["committed_uops"] for stats in record["sim_stats"].values())
    loads = n("cache.load", 0)
    return {
        "cli.import_s": s("cli.import"),
        "litmus.resolve_s": s("litmus.resolve"),
        "litmus.tests": counts.get("litmus.tests", 0),
        "engine.evaluate_s": inclusive.get("engine.evaluate", 0.0),
        "engine.batches": counters.get("engine.batches", 0),
        "engine.batch_p50_ms": percentile(batch_ms, 0.50),
        "engine.batch_p99_ms": percentile(batch_ms, 0.99),
        "cells.descriptors": n("cells.descriptor", 0),
        "cells.descriptors_per_cell": _ratio(
            n("cells.descriptor", 0), counters.get("engine.cells.requested", 0)
        ),
        "cells.descriptor_s": s("cells.descriptor"),
        "cache.keys": n("cache.key", 0),
        "cache.key_s": s("cache.key"),
        "cache.loads": loads,
        "cache.load_s": s("cache.load"),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), loads),
        "cache.stores": n("cache.store", 0),
        "cache.store_s": s("cache.store"),
        "axiomatic.prefix_builds": n("axiomatic.prefix", 0),
        "axiomatic.prefix_s": s("axiomatic.prefix"),
        "axiomatic.verdict_s": s("axiomatic.verdict"),
        "axiomatic.dispatch.kernel": dispatch["kernel"],
        "axiomatic.dispatch.orders": dispatch["orders"],
        "axiomatic.dispatch.backtracker": dispatch["backtracker"],
        "axiomatic.backtracker_share": _ratio(
            dispatch["backtracker"], sum(dispatch.values())
        ),
        "kernel.builds": counters.get("kernel.builds", 0),
        "kernel.dp_states": counters.get("kernel.dp.states", 0),
        "kernel.s": s("kernel.build") + s("kernel.solve"),
        "operational.runs": n("operational.explore", 0),
        "operational.states": states,
        "operational.s": operational_s,
        "operational.states_per_s": _ratio(states, operational_s),
        "workloads.trace_s": s("workloads.trace"),
        "workloads.uops": counts.get("workloads.uops", 0),
        "sim.runs": n("sim.run", 0),
        "sim.run_s": sim_run_s,
        "sim.cycles": cycles,
        "sim.uops": sim_uops,
        "sim.host_us_per_cycle": _ratio(1e6 * sim_run_s, cycles),
        "eval.render_s": s("eval.render"),
        "trace.unattributed_s": traced_wall - top_level,
        "trace.overhead_s": traced_wall - untraced_wall,
        "sim_uops_per_s": _ratio(sim_uops, untraced_wall),
        "failed_frac": failed_frac,
    }
