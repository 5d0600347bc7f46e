"""Table III: effects of load-load forwarding in Alpha*.

The paper's point: load-load forwardings are *frequent* (average 22 per 1K
uOPs) yet reduce L1 load misses by almost nothing (0.01 per 1K uOPs on
average) — the forwarded loads would have hit the L1 anyway, which is why
Alpha* gains no performance from the relaxation.  This harness computes
both rows: forwarding frequency in Alpha*, and the L1-load-miss reduction
of Alpha* relative to GAM.
"""

from __future__ import annotations

from .figure18 import Figure18Result
from .table2 import RateRow, render_rates

__all__ = ["table3", "render_table3"]


def table3(result: Figure18Result) -> list[RateRow]:
    """Compute Table III from the per-run statistics of a Figure 18 sweep."""
    forwards: list[float] = []
    miss_reduction: list[float] = []
    workloads = {w for (w, _p) in result.stats}
    for workload in sorted(workloads):
        alpha = result.stats.get((workload, "Alpha*"))
        gam = result.stats.get((workload, "GAM"))
        if alpha is None or gam is None:
            continue
        forwards.append(alpha.ldld_forwards_per_1k)
        miss_reduction.append(
            gam.l1_load_misses_per_1k - alpha.l1_load_misses_per_1k
        )
    rows = [
        RateRow(
            "Load-load forwardings",
            sum(forwards) / len(forwards) if forwards else 0.0,
            max(forwards, default=0.0),
        ),
        RateRow(
            "Reduced L1 load misses over GAM",
            sum(miss_reduction) / len(miss_reduction) if miss_reduction else 0.0,
            max(miss_reduction, default=0.0),
        ),
    ]
    return rows


def render_table3(rows: list[RateRow]) -> str:
    """Render Table III in the paper's layout."""
    return render_rates(
        rows,
        "Table III: effects of load-load forwardings in Alpha* (per 1K uOPs)",
    )
