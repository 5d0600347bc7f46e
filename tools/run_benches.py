#!/usr/bin/env python
"""Run the engine benchmarks and record the perf baseline.

Runs ``benchmarks/bench_axiomatic_engine.py`` plus the engine-parallel
matrix benchmark, and writes per-benchmark medians to
``BENCH_axiomatic.json`` at the repository root.  Future PRs diff against
this file to see whether they moved the hot path.

Each run also *appends* a timestamped entry to ``BENCH_history.json``
next to the output file, so the baseline keeps a trail of past runs
instead of silently overwriting itself (a corrupt or missing history
file restarts the trail rather than failing the run).

Usage::

    python tools/run_benches.py                 # full run (~1 min)
    python tools/run_benches.py --skip-parallel # axiomatic benches only
    python tools/run_benches.py -o other.json   # alternate output path
    python tools/run_benches.py --no-history    # skip the history append

Requires ``pytest-benchmark`` (already a benchmarks/ dependency).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
AXIOMATIC_BENCH = "benchmarks/bench_axiomatic_engine.py"
PARALLEL_BENCH = "benchmarks/bench_engine_parallel.py"
DEFAULT_OUT = ROOT / "BENCH_axiomatic.json"
HISTORY_NAME = "BENCH_history.json"


def append_history(
    history_path: pathlib.Path, payload: dict, timestamp: str
) -> list:
    """Append a timestamped history entry; return the full history list.

    The history file is a JSON array of ``{"timestamp", "medians",
    "engine_parallel"}`` entries — the comparable medians, not the whole
    payload, so the file stays reviewable.  A missing, corrupt, or
    non-list history restarts the trail (benchmark runs must never fail
    on a bad history file).
    """
    entries: list = []
    try:
        existing = json.loads(history_path.read_text())
        if isinstance(existing, list):
            entries = existing
    except (OSError, ValueError):
        pass
    entry = {"timestamp": timestamp, "medians": payload.get("medians", {})}
    if "engine_parallel" in payload:
        entry["engine_parallel"] = payload["engine_parallel"]
    entries.append(entry)
    history_path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return entries


def _run_bench(bench: str, json_path: pathlib.Path) -> None:
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    command = [
        sys.executable,
        "-m",
        "pytest",
        bench,
        "-q",
        "-p",
        "no:cacheprovider",
        f"--benchmark-json={json_path}",
    ]
    result = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True
    )
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write(result.stderr)
        raise SystemExit(f"benchmark run failed: {' '.join(command)}")


def _medians(json_path: pathlib.Path) -> dict[str, float]:
    data = json.loads(json_path.read_text())
    return {
        bench["name"]: round(bench["stats"]["median"], 6)
        for bench in data["benchmarks"]
    }


def collect(skip_parallel: bool = False) -> dict:
    """Run the benchmark matrix and assemble the baseline payload."""
    payload: dict = {
        "bench": AXIOMATIC_BENCH,
        "unit": "seconds (median per call)",
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        axiomatic_json = tmp_path / "axiomatic.json"
        _run_bench(AXIOMATIC_BENCH, axiomatic_json)
        payload["medians"] = _medians(axiomatic_json)
        if not skip_parallel:
            parallel_json = tmp_path / "parallel.json"
            _run_bench(PARALLEL_BENCH, parallel_json)
            payload["engine_parallel"] = _medians(parallel_json)
            matrix_json = ROOT / "benchmarks/results/BENCH_engine_parallel.json"
            if matrix_json.exists():
                payload["engine_parallel_matrix"] = json.loads(
                    matrix_json.read_text()
                )
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output path (default: {DEFAULT_OUT.name} at the repo root)",
    )
    parser.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the engine-parallel matrix benchmark",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help=f"do not append this run to {HISTORY_NAME}",
    )
    args = parser.parse_args(argv)
    payload = collect(skip_parallel=args.skip_parallel)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    if not args.no_history:
        import datetime

        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
        history_path = args.output.parent / HISTORY_NAME
        entries = append_history(history_path, payload, timestamp)
        print(f"appended run {len(entries)} to {history_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
