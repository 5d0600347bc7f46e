"""The benchmark's own tests: every workload at a tiny size.

    python3 -m pytest perfbench/selftest.py -q

Checks that every metric is emitted with its unit, that each layer's
numbers show up on the workload its arrow names, that a corrupted
reference is caught as a failure, and that BENCHMARK.json mirrors the
metric catalogue.  (Named ``selftest.py`` so the repository's own test
run does not collect it.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args: str) -> dict:
    """Run the benchmark at tiny size; the parsed last line of stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=wl.WORKLOADS)
def end_to_end(request):
    return request.param, bench("--workload", request.param, "--trace", "0")


@pytest.fixture(scope="module", params=wl.WORKLOADS)
def traced(request):
    return request.param, bench("--workload", request.param, "--trace", "1")


def test_end_to_end_metrics_emitted_with_units(end_to_end):
    name, result = end_to_end
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], name
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m[0] for m in layers.END_TO_END}
    for metric, unit, *_ in layers.END_TO_END:
        assert metrics[metric]["unit"] == unit
        assert metrics[metric]["value"] > 0, (name, metric)


def test_per_layer_metrics_emitted_with_units(traced):
    name, result = traced
    assert result["correct"], name
    metrics = result["metrics"]
    assert set(metrics) == {m[0] for m in layers.PER_LAYER}
    for metric, unit, _ in layers.PER_LAYER:
        assert metrics[metric]["unit"] == unit
    value = {key: metric["value"] for key, metric in metrics.items()}
    assert value["cli.import_s"] > 0
    if name.startswith("matrix-"):
        cells = wl.MATRIX_SIZES["tiny"] * len(wl.MATRIX_MODELS)
        assert value["litmus.tests"] == wl.MATRIX_SIZES["tiny"]
        assert value["operational.states"] == 0
        assert value["sim.cycles"] == 0
    if name == "matrix-cold":
        assert value["cache.loads"] == 0
        assert value["kernel.builds"] > 0
        assert value["axiomatic.dispatch.kernel"] > 0
    if name == "matrix-warm":
        assert value["cache.hits"] == cells
        assert value["cache.hit_ratio"] == 1.0
        assert value["kernel.builds"] == 0
        assert value["cache.loads"] == cells
        assert value["cache.stores"] == 0
    if name == "equiv-rand":
        assert value["operational.states"] > 0
        assert value["operational.runs"] > 0
        assert value["sim.cycles"] == 0
    if name == "sim-fig18":
        spec = wl.SIM_SIZES["tiny"]
        assert value["sim.runs"] == (
            len(spec["workloads"]) * wl.SIM_POLICIES * spec["checkpoints"]
        )
        assert value["sim.cycles"] > 0
        assert value["sim.uops"] == value["sim.runs"] * spec["length"]
        assert value["sim_uops_per_s"] > 0
        assert value["operational.states"] == 0
        # The determinism probe exposes the hash-salted trace seed.
        assert value["failed_frac"] > 0


def _corrupted_reference(tmp_path, edit) -> str:
    copy = tmp_path / "reference"
    shutil.copytree(wl.REFERENCE_DIR, copy)
    edit(str(copy))
    return str(copy)


def test_corrupted_matrix_reference_is_a_failure(tmp_path):
    def flip_every_sc_verdict(ref: str) -> None:
        path = os.path.join(ref, wl.MATRIX_REFERENCE)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        flipped = []
        for line in lines:
            if not line.startswith("#") and not line.startswith("test\t"):
                name, letters = line.split("\t")
                line = f"{name}\t{'F' if letters[0] == 'A' else 'A'}{letters[1:]}"
            flipped.append(line)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(flipped) + "\n")

    ref = _corrupted_reference(tmp_path, flip_every_sc_verdict)
    result = bench("--workload", "matrix-cold", "--reference-dir", ref)
    assert not result["correct"]
    # Exactly the sc column fails, in every repetition.
    assert result["failed"] * len(wl.MATRIX_MODELS) == result["attempted"]


def test_corrupted_sim_reference_is_a_failure(tmp_path):
    def break_digests(ref: str) -> None:
        path = os.path.join(ref, wl.SIM_REFERENCE)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for run in data["runs"].values():
            run["stdout_sha256"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    ref = _corrupted_reference(tmp_path, break_digests)
    result = bench("--workload", "sim-fig18", "--reference-dir", ref)
    assert not result["correct"]
    assert result["failed"] >= len(wl.SIM_SIZES["tiny"]["workloads"]) * wl.SIM_POLICIES


def test_checks_count_known_defects_without_failing_the_run():
    names = ["rand-1-8", "rand-1-9"]
    stdout = "\n".join([
        "ok  rand-1-8                 gam   |axiomatic|=2 |machine|=2",
        "DIFF rand-1-8                 gam0  |axiomatic|=2 |machine|=4",
        "ok  rand-1-9                 gam   |axiomatic|=1 |machine|=1",
        "DIFF rand-1-9                 gam0  |axiomatic|=1 |machine|=3",
    ])
    check = wl.check_equiv(stdout, 1, names)
    assert (check.attempted, check.failed) == (8, 4)
    assert len(check.known) == 1
    assert check.unexpected == ["rand-1-9 gam0: DIFF"]


def test_deadline_kills_and_still_records_peak_rss(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "COMMAND_DEADLINE_S", 1.0)
    proc = run.Runner(str(tmp_path)).spawn(
        ["-c", "import time; block = bytearray(50 << 20); time.sleep(30)"],
        dict(os.environ),
    )
    assert proc.status is None
    assert proc.wall < 10
    assert proc.rss_mb > 50
    assert "killed at the deadline" in run._explain(proc, "sim")


def test_normalised_divides_each_time_by_its_surrounding_probes():
    import run

    reference = run.PROBE_REFERENCE_S
    # Times of 1.0, 1.5 and 2.0 s on the reference host, taken while the
    # host slowed from twice to four times slower than the reference:
    # each is divided by the mean of the probes on its two sides.
    probes = [2 * reference, 2 * reference, 4 * reference, 4 * reference]
    assert run.normalised([2.0, 4.5, 8.0], probes) == pytest.approx(1.5)


def test_host_probe_measures_and_stops(tmp_path):
    import run

    host = run.HostProbe(str(tmp_path / "probe"))
    try:
        plain = host.measure()
        writing = host.measure(files=True)
    finally:
        host.close()
    assert 0 < plain < 5 and 0 < writing < 5
    assert len(os.listdir(tmp_path / "probe")) == calibrate.FILES
    assert host.proc.returncode == 0


def test_benchmark_json_mirrors_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(layers.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.PER_LAYER)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-cold"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
