"""The four benchmark workloads: sizes, commands and reference checks.

Imports nothing from the program, so the benchmark process stays free of
``repro`` state; everything that runs program code happens in a child.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

MATRIX_EDGES = 5
MATRIX_SIZES = {"full": 200, "tiny": 12}
MATRIX_MODELS = ("sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc")
MATRIX_REFERENCE = "matrix_gen_edges5.tsv"

# The equiv corpus is a fixed window of the rand seed-1 corpus whatever
# --seed is: explorer cost per program is heavy-tailed, so a seeded sample
# varies 2x in wall time from seed to seed.  Both windows hold a program
# with the known gam0 defect.
EQUIV_SIZES = {
    "full": {"rand_seed": 1, "first": 6, "programs": 10},
    "tiny": {"rand_seed": 1, "first": 12, "programs": 3},
}
EQUIV_PAIRS = ("gam", "gam0")
# gam0 axioms allow fewer outcomes than the gam0 machine on these
# comparisons of the seed-1 corpus (|axiomatic|=2, |machine|=4).  They are
# counted as failed, and do not make the run incorrect.
KNOWN_EQUIV_DIFFS = frozenset({("rand-1-8", "gam0"), ("rand-1-14", "gam0")})

SIM_SIZES = {
    "full": {"workloads": ("mcf", "gcc.166", "libquantum", "namd"), "length": 100,
             "checkpoints": 8},
    "tiny": {"workloads": ("mcf", "namd"), "length": 50, "checkpoints": 2},
}
SIM_POLICIES = 4
SIM_REFERENCE = "sim_fig18.json"
# References exist for trace seeds 1..SIM_TRACE_SEEDS; other benchmark
# seeds fold onto them (see sim_trace_seed).
SIM_TRACE_SEEDS = 32
# The determinism probe reruns the sim command under this other hash seed.
PROBE_HASH_OFFSET = 1000

WORKLOADS = ("matrix-cold", "matrix-warm", "equiv-rand", "sim-fig18")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digest(uops) -> str:
    """Content digest of a uOP list (``Uop`` reprs are field-complete)."""
    return sha256("\n".join(map(repr, uops)))


def sim_trace_seed(seed: int) -> int:
    """The ``repro sim --seed`` value of benchmark seed ``seed``."""
    return 1 + (seed - 1) % SIM_TRACE_SEEDS


def sim_argv(spec: dict, trace_seed: int) -> list[str]:
    return [
        "sim", "--workloads", ",".join(spec["workloads"]),
        "--length", str(spec["length"]), "--checkpoints", str(spec["checkpoints"]),
        "--seed", str(trace_seed),
    ]


def sim_key(spec: dict, trace_seed: int) -> str:
    return (f"{','.join(spec['workloads'])}:{spec['length']}x{spec['checkpoints']}"
            f":{trace_seed}")


def stats_digests(stats: dict) -> dict[str, str]:
    """``workload/policy`` -> digest of the ``SimStats`` fields of its runs.

    ``stats`` has one entry per run, keyed ``workload/policy#checkpoint``.
    """
    runs: dict[str, list] = {}
    for key in sorted(stats, key=lambda key: (key.split("#")[0], int(key.split("#")[1]))):
        runs.setdefault(key.split("#")[0], []).append(stats[key])
    return {key: sha256(json.dumps(value, sort_keys=True)) for key, value in runs.items()}


def child_env(hash_seed: int) -> dict:
    """Environment of every child: ``src`` importable, hash seed pinned.

    ``repro sim`` seeds its trace generator from ``hash(profile.name)``,
    which Python salts per process unless ``PYTHONHASHSEED`` is fixed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_ENUM_KERNEL", None)
    return env


@dataclass
class Check:
    """Failure accounting of one run: operations attempted and failed.

    ``known`` failures are the documented defects; anything in
    ``unexpected`` makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.unexpected += other.unexpected


def load_matrix_reference(reference_dir: str) -> dict[str, str]:
    """Test name -> verdict letters (``A``/``F``) in MATRIX_MODELS order."""
    rows = {}
    with open(os.path.join(reference_dir, MATRIX_REFERENCE), encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or line.startswith("test\t"):
                continue
            name, letters = line.rstrip("\n").split("\t")
            rows[name] = letters
    return rows


def load_sim_reference(reference_dir: str) -> dict:
    with open(os.path.join(reference_dir, SIM_REFERENCE), encoding="utf-8") as handle:
        return json.load(handle)["runs"]


_VERDICT_LETTER = {"allow": "A", "forbid": "F"}


def check_matrix(
    stdout: str, status: Optional[int], names: list[str], reference: dict[str, str]
) -> Check:
    """Every (test, model) verdict printed must equal the reference."""
    check = Check()
    wanted = set(names)
    printed = {}
    for line in stdout.splitlines():
        tokens = line.split()
        if len(tokens) == 1 + len(MATRIX_MODELS) and tokens[0] in wanted:
            printed[tokens[0]] = tokens[1:]
    for name in names:
        row = printed.get(name)
        expected = reference.get(name)
        for column, model in enumerate(MATRIX_MODELS):
            check.attempted += 1
            verdict = row[column].rstrip("·!") if row else "missing"
            if expected is None or _VERDICT_LETTER.get(verdict) != expected[column]:
                check.failed += 1
                want = expected[column] if expected else "no reference"
                check.unexpected.append(f"{name} {model}: {verdict}, reference {want}")
    if status != 0:
        check.unexpected.append(f"matrix exit status {status}")
    return check


_EQUIV_LINE = re.compile(r"^(ok |DIFF|skip) (\S+)\s+(\S+)")


def check_equiv(stdout: str, status: Optional[int], names: list[str]) -> Check:
    """Each comparison is two cells (axioms, machine) that must agree."""
    check = Check()
    marks = {}
    for line in stdout.splitlines():
        match = _EQUIV_LINE.match(line)
        if match:
            marks[(match.group(2), match.group(3))] = match.group(1).strip()
    diffs = 0
    for name in names:
        for pair in EQUIV_PAIRS:
            check.attempted += 2
            mark = marks.get((name, pair), "missing")
            if mark == "ok":
                continue
            check.failed += 2
            if mark == "DIFF":
                diffs += 1
                if (name, pair) in KNOWN_EQUIV_DIFFS:
                    check.known.append(f"{name} {pair}: DIFF (known gam0 defect)")
                    continue
            check.unexpected.append(f"{name} {pair}: {mark}")
    # equiv exits 1 when some comparison differs; that is expected here.
    if status != (1 if diffs else 0):
        check.unexpected.append(f"equiv exit status {status}")
    return check


def check_sim(
    stdout: str, status: Optional[int], spec: dict, trace_seed: int, reference: dict
) -> Check:
    """The whole report must equal the one recorded for this trace seed."""
    cells = len(spec["workloads"]) * SIM_POLICIES
    check = Check(attempted=cells)
    recorded = reference.get(sim_key(spec, trace_seed))
    if recorded is None:
        check.failed = cells
        check.unexpected.append(f"no sim reference for {sim_key(spec, trace_seed)}")
    elif sha256(stdout) != recorded["stdout_sha256"]:
        check.failed = cells
        check.unexpected.append("sim stdout differs from the reference")
    if status != 0:
        check.unexpected.append(f"sim exit status {status}")
    return check


def check_sim_stats(stats: dict, spec: dict, trace_seed: int, reference: dict) -> Check:
    """Per-(workload, policy) ``SimStats`` of the traced run vs reference."""
    check = Check()
    recorded = reference.get(sim_key(spec, trace_seed), {}).get("stats_sha256", {})
    digests = stats_digests(stats)
    for key in sorted(set(recorded) | set(digests)):
        check.attempted += 1
        if digests.get(key) != recorded.get(key):
            check.failed += 1
            check.unexpected.append(f"SimStats {key} differs from the reference")
    return check
