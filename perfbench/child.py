"""Child-process side of the benchmark: input set-up and the traced run.

    python3 perfbench/child.py setup --workload W --seed S --size Z --out DIR
    python3 perfbench/child.py trace --out FILE -- <repro CLI arguments>

Both run from the repository root with ``src`` importable.  ``setup``
generates a workload's inputs with the program's public generators.
``trace`` runs ``repro.cli.main(argv)`` in this process under
``repro.obs.collecting()``, with span wrappers installed around each
layer's public entry points (see :mod:`tracing`), and writes the captured
stdout, exit status, spans (all sharing the record's ``run_id``), obs
counters and series, and the simulator's per-run statistics to ``FILE``
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402  (benchmark-local module)


def _write_litmus(tests, out_dir: str) -> None:
    from repro.litmus.frontend.printer import print_litmus

    os.makedirs(out_dir, exist_ok=True)
    for test in tests:
        path = os.path.join(out_dir, f"{test.name}.litmus")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(print_litmus(test))


def stratified_sample(tests: list, count: int, seed: int) -> list:
    """One test drawn at ``seed`` from each of ``count`` equal runs of ``tests``.

    The generator emits tests in a fixed order of growing cycles, so every
    seed's sample spans the same mix of sizes: a plain random sample of 200
    varied 7% in engine cost from seed to seed, this one 3%.
    """
    rng = random.Random(seed)
    bounds = [(i * len(tests)) // count for i in range(count + 1)]
    return [tests[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def setup(workload: str, seed: int, size: str, out: str) -> None:
    """Write the inputs of ``workload`` at ``seed`` into ``out``."""
    if workload.startswith("matrix-"):
        from repro.litmus.frontend.gen import generate_suite

        tests = generate_suite(max_edges=workloads.MATRIX_EDGES)
        _write_litmus(stratified_sample(tests, workloads.MATRIX_SIZES[size], seed), out)
    elif workload == "equiv-rand":
        from repro.equivalence.randprog import random_suite

        spec = workloads.EQUIV_SIZES[size]
        corpus = random_suite(spec["first"] + spec["programs"], seed=spec["rand_seed"])
        _write_litmus(corpus[spec["first"]:], out)
    elif workload == "sim-fig18":
        # The CLI generates its own traces from the seed; set-up generates
        # them too and records their digests, which the traced run checks
        # the program's generate_trace calls against.
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import get_profile

        spec = workloads.SIM_SIZES[size]
        trace_seed = workloads.sim_trace_seed(seed)
        digests = {}
        for name in spec["workloads"]:
            digests[name] = sorted(
                workloads.trace_digest(generate_trace(
                    get_profile(name), length=spec["length"], seed=trace_seed + checkpoint
                ).uops)
                for checkpoint in range(spec["checkpoints"])
            )
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "traces.json"), "w", encoding="utf-8") as handle:
            json.dump(digests, handle, sort_keys=True)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def trace(argv: list[str], out: str, run_id: str) -> int:
    """Run the CLI in-process with spans on; write the record to ``out``."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        import repro.cli
    tracer.install()
    from repro.obs import collecting

    captured = io.StringIO()
    with collecting() as recorder:
        with contextlib.redirect_stdout(captured):
            status = repro.cli.main(argv)
        snapshot = recorder.snapshot()
    record = {
        "run_id": run_id,
        "status": status,
        "stdout": captured.getvalue(),
        "spans": tracer.spans,
        "counts": tracer.counts,
        "counters": snapshot.counters,
        "series": snapshot.series,
        "sim_stats": tracer.sim_stats,
        "trace_digests": tracer.trace_digests,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark child process")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup_cmd = sub.add_parser("setup")
    setup_cmd.add_argument("--workload", required=True)
    setup_cmd.add_argument("--seed", type=int, required=True)
    setup_cmd.add_argument("--size", default="full")
    setup_cmd.add_argument("--out", required=True)
    trace_cmd = sub.add_parser("trace")
    trace_cmd.add_argument("--out", required=True)
    trace_cmd.add_argument("--run-id", default="trace")
    trace_cmd.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.workload, args.seed, args.size, args.out)
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return trace(argv, args.out, args.run_id)


if __name__ == "__main__":
    sys.exit(main())
