"""Engine telemetry: counters, timers, histograms and run reports.

Dependency-free instrumentation core (imports nothing from the rest of
``repro``, so every layer may import it without cycles):

* :mod:`repro.obs.registry` — the closed metric vocabulary, rendered
  into ``docs/observability.md`` by ``tools/gen_docs.py``.
* :mod:`repro.obs.core` — the recorder (:func:`incr`, :func:`observe`,
  :func:`time_block`), the no-op default, and picklable
  :class:`StatsSnapshot` merging for ``--jobs N`` workers.
* :mod:`repro.obs.report` — the stable-schema :class:`RunReport` JSON
  artifact (``stats.json``), its text renderer, counter diffing and
  schema validation.

Enable collection with ``--stats [text|json]`` on the evaluating CLI
commands, or programmatically with :func:`collecting`.
"""

from .core import (
    NullRecorder,
    StatsRecorder,
    StatsSnapshot,
    collecting,
    current,
    incr,
    install,
    monotonic,
    observe,
    time_block,
)
from .registry import METRICS, MetricSpec, metric_for
from .report import (
    REPORT_SCHEMA,
    RunReport,
    diff_reports,
    load_report,
    validate_report,
)

__all__ = [
    "NullRecorder",
    "StatsRecorder",
    "StatsSnapshot",
    "collecting",
    "current",
    "incr",
    "install",
    "monotonic",
    "observe",
    "time_block",
    "METRICS",
    "MetricSpec",
    "metric_for",
    "REPORT_SCHEMA",
    "RunReport",
    "diff_reports",
    "load_report",
    "validate_report",
]
