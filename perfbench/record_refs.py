"""Re-record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py matrix   # ~10 min: verdicts + cross-check
    python3 perfbench/record_refs.py sim      # ~2 min: 32 trace seeds

Run from the repository root.  ``matrix`` writes
``reference/matrix_gen_edges5.tsv``: the axiomatic verdict of every
``gen:edges=5`` test under the eight-model zoo, with the gam and gam0
columns cross-checked against the operational machines (disagreements are
listed in the header, not dropped).  ``sim`` writes
``reference/sim_fig18.json``: per trace seed, the stdout digest of the
``sim-fig18`` command and of the ``SimStats`` of every (workload, policy)
over its checkpoints, each recorded with ``PYTHONHASHSEED`` pinned as the
benchmark pins it.

Re-record only when a change is *meant* to alter these outputs, and say
so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (benchmark-local module)


def record_matrix() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    from repro.engine import VerdictSpec, evaluate_cells
    from repro.eval.litmus_matrix import litmus_matrix
    from repro.litmus.frontend.gen import generate_suite

    tests = generate_suite(max_edges=workloads.MATRIX_EDGES)
    models = workloads.MATRIX_MODELS
    cells = litmus_matrix(tests=tests, model_names=models)
    verdicts: dict[str, dict[str, bool]] = {}
    for cell in cells:
        verdicts.setdefault(cell.test_name, {})[cell.model_name] = cell.allowed
    disagreements = []
    for machine in ("gam", "gam0"):
        specs = [
            VerdictSpec(test, machine, oracle=f"operational:{machine}")
            for test in tests
        ]
        for spec, allowed in zip(specs, evaluate_cells(specs)):
            axiomatic = verdicts[spec.test.name][machine]
            if allowed != axiomatic:
                disagreements.append((spec.test.name, machine, axiomatic, allowed))
    letter = {True: "A", False: "F"}
    lines = [
        f"# Axiomatic verdicts of every gen:edges={workloads.MATRIX_EDGES} "
        f"test ({len(tests)}), one letter per model: A = allow, F = forbid.",
        "# Written by perfbench/record_refs.py matrix.",
        f"# gam/gam0 cross-checked against the operational machines: "
        f"{2 * len(tests) - len(disagreements)} of {2 * len(tests)} agree.",
    ]
    for name, machine, axiomatic, machine_allows in disagreements:
        lines.append(
            f"# disagreement: {name} {machine} axiomatic={letter[axiomatic]} "
            f"machine={letter[machine_allows]}"
        )
    lines.append("test\t" + " ".join(models))
    for test in tests:
        row = verdicts[test.name]
        lines.append(
            test.name + "\t" + "".join(letter[row[m]] for m in models)
        )
    path = os.path.join(HERE, "reference", workloads.MATRIX_REFERENCE)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {path}: {len(tests)} tests, {len(disagreements)} disagreements")


def record_sim(sizes: list[str]) -> None:
    runs = {}
    for size in sizes:
        spec = workloads.SIM_SIZES[size]
        for trace_seed in range(1, workloads.SIM_TRACE_SEEDS + 1):
            argv = workloads.sim_argv(spec, trace_seed)
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "trace.json")
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), "trace",
                     "--out", out, "--"] + argv,
                    env=workloads.child_env(trace_seed),
                    check=True,
                    stdout=subprocess.DEVNULL,
                )
                with open(out, encoding="utf-8") as handle:
                    traced = json.load(handle)
            runs[workloads.sim_key(spec, trace_seed)] = {
                "stdout_sha256": workloads.sha256(traced["stdout"]),
                "stats_sha256": workloads.stats_digests(traced["sim_stats"]),
            }
            print(f"recorded {workloads.sim_key(spec, trace_seed)}", flush=True)
    path = os.path.join(HERE, "reference", workloads.SIM_REFERENCE)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"runs": {\n')
        handle.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(runs[key], sort_keys=True)}"
            for key in sorted(runs)
        ))
        handle.write("\n}}\n")
    print(f"wrote {path}: {len(runs)} runs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("matrix", "sim"))
    args = parser.parse_args()
    if args.what == "matrix":
        record_matrix()
    else:
        record_sim(sorted(workloads.SIM_SIZES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
