"""Table II: kills and stalls caused by same-address load-load ordering.

The paper reports, per 1K uOPs across all benchmarks: average and maximum
kills in GAM, stalls in GAM, and stalls in ARM — all rare (fractions of an
event per 1K uOPs), which is the quantitative argument that SALdLd costs
nothing.  This harness computes the same three rows from a Figure 18 run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .figure18 import Figure18Result
from .render import render_table

__all__ = ["RateRow", "render_rates", "table2", "render_table2"]


@dataclass(frozen=True)
class RateRow:
    """One row of Tables II and III: an event class with average and max
    rates."""

    label: str
    average_per_1k: float
    max_per_1k: float


def render_rates(rows: list[RateRow], title: str) -> str:
    """Render rate rows in the paper's Average/Max layout."""
    return render_table(
        ["", "Average", "Max"],
        [[r.label, f"{r.average_per_1k:.2f}", f"{r.max_per_1k:.2f}"] for r in rows],
        title=title,
    )


def table2(result: Figure18Result) -> list[RateRow]:
    """Compute Table II from the per-run statistics of a Figure 18 sweep."""
    def rates(policy: str, attribute: str) -> list[float]:
        values = []
        for (workload, pol), stats in result.stats.items():
            if pol == policy:
                values.append(getattr(stats, attribute))
        return values

    gam_kills = rates("GAM", "kills_per_1k")
    gam_stalls = rates("GAM", "stalls_per_1k")
    arm_stalls = rates("ARM", "stalls_per_1k")
    rows = []
    for label, values in (
        ("Kills in GAM", gam_kills),
        ("Stalls in GAM", gam_stalls),
        ("Stalls in ARM", arm_stalls),
    ):
        rows.append(
            RateRow(
                label=label,
                average_per_1k=sum(values) / len(values) if values else 0.0,
                max_per_1k=max(values, default=0.0),
            )
        )
    return rows


def render_table2(rows: list[RateRow]) -> str:
    """Render Table II in the paper's layout."""
    return render_rates(
        rows,
        "Table II: kills and stalls caused by same-address load-load "
        "ordering (events per 1K uOPs)",
    )
