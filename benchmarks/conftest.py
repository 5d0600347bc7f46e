"""Shared fixtures for the benchmark harness.

The Figure 18 sweep is expensive, so one reduced sweep (a representative
workload subset at a laptop-friendly trace length) is shared by the
figure-18 / table-II / table-III benchmarks.  Rendered tables are written
to ``benchmarks/results/`` so the regenerated artifacts survive the run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.eval.figure18 import run_figure18
from repro.litmus.registry import paper_suite

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SWEEP_WORKLOADS = (
    "astar.lakes",
    "bzip2.source",
    "gcc.166",
    "gobmk.nngs",
    "h264ref.frem",
    "hmmer.retro",
    "lbm",
    "libquantum",
    "mcf",
    "namd",
    "sjeng",
    "sphinx3",
)
SWEEP_LENGTH = 5_000


@pytest.fixture(scope="session")
def figure18_sweep():
    """One reduced Figure 18 sweep shared across benchmark modules."""
    return run_figure18(workloads=SWEEP_WORKLOADS, trace_length=SWEEP_LENGTH)


@pytest.fixture(scope="session")
def paper_tests():
    """The materialized paper suite, shared by the engine benchmarks."""
    return [test for test in paper_suite() if test.asked is not None]


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory that receives the rendered tables/figures."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, content: str) -> None:
    """Persist a rendered experiment artifact."""
    (results_dir / name).write_text(content + "\n")

