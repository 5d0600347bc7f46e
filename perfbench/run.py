"""End-to-end and per-layer benchmark of the ``repro`` CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Each workload generates its inputs from
``--seed`` (set-up), then runs its ``python -m repro ...`` command as a
child process, again and again for about ``--seconds`` seconds, and
checks every output against a reference.  ``--trace 0`` reports the
end-to-end metrics: medians over the repetitions, times rescaled to a
reference host speed by a probe run next to each of them (calibrate.py).
``--trace 1`` makes one untraced and one traced run and reports the
per-layer metrics.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local modules)
import workloads as wl  # noqa: E402

WORK_ROOT = ".perfbench_work"
SETUP_REPEATS = 3
# Every child runs under a deadline, and a whole run under a budget, so
# the benchmark ends well inside the 180 s a run may take.
COMMAND_DEADLINE_S = 60.0
RUN_BUDGET_S = 170.0
# End-to-end times are reported at the speed of a reference host, one on
# which a probe of calibrate.py takes this long (see normalised()).
PROBE_REFERENCE_S = 0.007


@dataclass
class Proc:
    """One finished (or killed) child process."""

    status: Optional[int]  # None when killed at the deadline
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns children under a per-command deadline and a run budget."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.start = time.perf_counter()
        self.spawned = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def spawn(self, argv: list[str], env: dict) -> Proc:
        """Run ``python3 argv...``; wall and peak RSS come from ``wait4``."""
        self.spawned += 1
        out = os.path.join(self.work, f"child{self.spawned}.out")
        err = os.path.join(self.work, f"child{self.spawned}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        reaped: dict = {}
        begin = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable] + argv, env,
            file_actions=actions, setpgroup=0,
        )

        def reap() -> None:
            _, status, usage = os.wait4(pid, 0)
            reaped["end"] = time.perf_counter()
            reaped["status"] = status
            reaped["usage"] = usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(1.0, min(COMMAND_DEADLINE_S, self.remaining())))
        finally:
            # Past the deadline, or interrupted: kill, then always reap.
            killed = waiter.is_alive()
            if killed:
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                waiter.join()
        with open(out, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        os.remove(out)
        os.remove(err)
        return Proc(
            status=None if killed else os.waitstatus_to_exitcode(reaped["status"]),
            wall=reaped["end"] - begin,
            rss_mb=reaped["usage"].ru_maxrss / 1024.0,
            stdout=stdout,
            stderr=stderr,
        )


def _explain(proc: Proc, what: str) -> str:
    if proc.status is None:
        return f"{what} killed at the deadline after {proc.wall:.1f} s"
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return f"{what} exit status {proc.status} {tail[0]}".rstrip()


class Workload:
    """One workload: its inputs, its command and the checks of its output."""

    def __init__(self, name: str, seed: int, size: str, reference_dir: str,
                 runner: Runner) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.reference_dir = reference_dir
        self.runner = runner
        self.inputs = ""
        self.cache = ""
        self.setups = 0
        self.hash_seed = wl.sim_trace_seed(seed) if name == "sim-fig18" else seed
        self.env = wl.child_env(self.hash_seed)
        self.names: list[str] = []

    # -- set-up -------------------------------------------------------------

    def setup(self) -> tuple[float, wl.Check]:
        """Generate the inputs from the seed; returns seconds taken.

        For ``matrix-warm`` a set-up also fills the cache the timed runs
        read, with one cold matrix run over the inputs.  Every set-up and
        every cold cache gets a directory of its own, and nothing is
        deleted until the run ends: on the VM this was tuned on, the first
        process after deleting a cold cache spent 2-3 s more in the
        kernel, which would land on whichever repetition came next.
        """
        check = wl.Check()
        self.setups += 1
        self.inputs = os.path.join(self.runner.work, f"inputs{self.setups}")
        proc = self.runner.spawn(
            [os.path.join(HERE, "child.py"), "setup", "--workload", self.name,
             "--seed", str(self.seed), "--size", self.size, "--out", self.inputs],
            self.env,
        )
        if proc.status != 0:
            check.unexpected.append(_explain(proc, "set-up"))
            return proc.wall, check
        self.names = sorted(
            entry[: -len(".litmus")] for entry in os.listdir(self.inputs)
            if entry.endswith(".litmus")
        )
        if self.name != "matrix-warm":
            return proc.wall, check
        self.cache = os.path.join(self.runner.work, f"cache{self.setups}")
        fill = self.runner.spawn(
            ["-m", "repro", "matrix", "--suite", self.inputs, "--cache", self.cache],
            self.env,
        )
        if fill.status != 0:
            check.unexpected.append(_explain(fill, "cache fill"))
        return proc.wall + fill.wall, check

    # -- the timed command --------------------------------------------------

    def argv(self) -> list[str]:
        if self.name == "matrix-cold":
            return ["matrix", "--suite", self.inputs]
        if self.name == "matrix-warm":
            return ["matrix", "--suite", self.inputs, "--cache", self.cache]
        if self.name == "equiv-rand":
            return ["equiv", "--suite", self.inputs]
        return wl.sim_argv(wl.SIM_SIZES[self.size], wl.sim_trace_seed(self.seed))

    def cells(self) -> int:
        """Output cells one command answers."""
        if self.name.startswith("matrix-"):
            return len(self.names) * len(wl.MATRIX_MODELS)
        if self.name == "equiv-rand":
            return len(self.names) * len(wl.EQUIV_PAIRS) * 2
        return len(wl.SIM_SIZES[self.size]["workloads"]) * wl.SIM_POLICIES

    def check(self, stdout: str, status: Optional[int]) -> wl.Check:
        if self.name.startswith("matrix-"):
            reference = wl.load_matrix_reference(self.reference_dir)
            return wl.check_matrix(stdout, status, self.names, reference)
        if self.name == "equiv-rand":
            return wl.check_equiv(stdout, status, self.names)
        return wl.check_sim(
            stdout, status, wl.SIM_SIZES[self.size], wl.sim_trace_seed(self.seed),
            wl.load_sim_reference(self.reference_dir),
        )

    def run_command(self) -> tuple[Proc, wl.Check]:
        proc = self.runner.spawn(["-m", "repro"] + self.argv(), self.env)
        check = self.check(proc.stdout, proc.status)
        if proc.status not in (0, 1):
            # Killed or crashed: every cell of the command failed.
            check.failed = check.attempted = self.cells()
            check.unexpected.append(_explain(proc, self.name))
        return proc, check

    def probe(self, stdout: str) -> wl.Check:
        """sim only: rerun under another hash seed; stdout must not change."""
        if self.name != "sim-fig18":
            return wl.Check()
        check = wl.Check(attempted=1)
        env = wl.child_env(self.hash_seed + wl.PROBE_HASH_OFFSET)
        proc = self.runner.spawn(["-m", "repro"] + self.argv(), env)
        if proc.status != 0:
            check.failed = 1
            check.unexpected.append(_explain(proc, "determinism probe"))
        elif proc.stdout != stdout:
            check.failed = 1
            check.known.append(
                "determinism probe: sim stdout changes with PYTHONHASHSEED "
                "(trace seed salted by hash(profile.name))"
            )
        return check

    # -- the traced run -----------------------------------------------------

    def traced(self, untraced: Proc) -> tuple[Proc, dict, wl.Check]:
        """One in-process CLI run with spans on, in its own child."""
        out = os.path.join(self.runner.work, "trace.json")
        proc = self.runner.spawn(
            [os.path.join(HERE, "child.py"), "trace", "--out", out,
             "--run-id", f"{self.name}:{self.seed}", "--"] + self.argv(),
            self.env,
        )
        check = wl.Check()
        if proc.status != 0:
            check.unexpected.append(_explain(proc, "traced run"))
            return proc, {}, check
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
        if record["stdout"] != untraced.stdout or record["status"] != untraced.status:
            check.unexpected.append("traced stdout differs from untraced stdout")
        if self.name == "sim-fig18":
            spec = wl.SIM_SIZES[self.size]
            check.add(wl.check_sim_stats(
                record["sim_stats"], spec, wl.sim_trace_seed(self.seed),
                wl.load_sim_reference(self.reference_dir),
            ))
            with open(os.path.join(self.inputs, "traces.json"), encoding="utf-8") as handle:
                if json.load(handle) != record["trace_digests"]:
                    check.unexpected.append("traces differ from the set-up's traces")
        return proc, record, check


class HostProbe:
    """The host-speed probe (calibrate.py), a helper process kept idle
    between measurements and stopped, and waited for, on close."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.seconds: list[float] = []

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe exited")
        self.seconds.append(float(line))
        return self.seconds[-1]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def normalised(raw: list[float], probes: list[float]) -> float:
    """Median of the raw times rescaled to the reference host speed.

    ``probes`` has one more entry than ``raw``: the probe before each
    timing and the one after the last.  Each time is divided by the mean
    of the probes on either side of it.
    """
    return statistics.median(
        PROBE_REFERENCE_S * seconds / ((before + after) / 2)
        for seconds, before, after in zip(raw, probes, probes[1:])
    )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Run one workload; the result has the keys of the final JSON line."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    host = HostProbe()
    try:
        runner = Runner(work)
        workload = Workload(name, args.seed, args.size, args.reference_dir, runner)
        check = wl.Check()
        setup_times = []
        setup_probes = [host.measure()]
        for _ in range(1 if args.trace else SETUP_REPEATS):
            seconds, setup_check = workload.setup()
            setup_probes.append(host.measure())
            setup_times.append(seconds)
            check.add(setup_check)
        print(f"  {name} set-ups (s): " + " ".join(f"{t:.3f}" for t in setup_times),
              file=sys.stderr)
        if check.unexpected:
            return _result(check, {})
        walls: list[float] = []
        rss: list[float] = []
        probes = [host.measure()]
        first: Optional[Proc] = None
        began = time.perf_counter()
        while True:
            proc, run_check = workload.run_command()
            probes.append(host.measure())
            check.add(run_check)
            walls.append(proc.wall)
            rss.append(proc.rss_mb)
            first = first or proc
            elapsed = time.perf_counter() - began
            if (args.trace or elapsed >= args.seconds
                    or runner.remaining() < 2 * _median(walls) + 10):
                break
        wall = normalised(walls, probes)
        print(f"  {name} timed runs (s): " + " ".join(f"{w:.3f}" for w in walls),
              file=sys.stderr)
        print(f"  {name} probes (ms): "
              + " ".join(f"{1000 * p:.2f}" for p in setup_probes + probes),
              file=sys.stderr)
        if not args.trace:
            return _result(check, {
                "wall_s": wall,
                "cells_per_s": workload.cells() / wall,
                "peak_rss_mb": _median(rss),
                "setup_s": normalised(setup_times, setup_probes),
            })
        check.add(workload.probe(first.stdout))
        traced_proc, record, traced_check = workload.traced(first)
        check.add(traced_check)
        if not record:
            return _result(check, {})
        failed_frac = check.failed / check.attempted if check.attempted else 0.0
        metrics = layers.per_layer(record, traced_proc.wall, first.wall, failed_frac)
        metrics["host.wall_raw_s"] = first.wall
        metrics["host.probe_ms"] = 1000 * _median(host.seconds)
        return _result(check, metrics)
    finally:
        host.close()
        shutil.rmtree(work, ignore_errors=True)
        # Flush the deletions now, not in the next run's timings.
        os.sync()
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still in it


def _result(check: wl.Check, metrics: dict) -> dict:
    return {
        "correct": not check.unexpected and bool(metrics),
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": {
            key: {"value": value, "unit": layers.UNITS[key]}
            for key, value in metrics.items()
        },
        "known": check.known,
        "unexpected": check.unexpected,
    }


def _print_report(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    for line in sorted(set(result["known"])):
        print(f"  known failure: {line}")
    for line in result["unexpected"][:20]:
        print(f"  UNEXPECTED: {line}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat the timed command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run (for the self-tests)")
    parser.add_argument("--reference-dir", default=wl.REFERENCE_DIR)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    # One CPU for everything: the timed children and the host-speed probe
    # then run where the probe measures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        _print_report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {
            f"{name}/{key}": metric
            for name, result in results.items()
            for key, metric in result["metrics"].items()
        }
    print(json.dumps({
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
