"""Litmus tests: multi-processor program snippets with a queried behaviour.

A litmus test bundles one :class:`~repro.isa.Program` per processor, the
symbolic memory locations they share, an optional *asked outcome* (the
behaviour whose legality the paper discusses, usually a non-SC one), and the
paper's expected verdict per memory model.  Verdicts use the paper's
vocabulary: a model **allows** or **forbids** the asked outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..isa.program import Program

__all__ = ["Outcome", "OutcomeSpec", "LitmusTest"]


@dataclass(frozen=True, order=True)
class Outcome:
    """A (possibly partial) final state: register and memory bindings.

    Attributes:
        regs: set of ``(proc, register, value)`` triples.
        mem: set of ``(address, value)`` pairs over final memory.

    Outcomes are frozen and ordered so outcome *sets* can be compared across
    model definitions (the heart of equivalence checking).
    """

    regs: frozenset[tuple[int, str, int]] = frozenset()
    mem: frozenset[tuple[int, int]] = frozenset()

    def matches(self, final_regs: Mapping[tuple[int, str], int],
                final_mem: Mapping[int, int]) -> bool:
        """True if every binding in this outcome holds in the given state.

        ``final_mem`` lookups default to 0 for untouched addresses, matching
        the litmus convention that memory starts zeroed.
        """
        for proc, reg, value in self.regs:
            if final_regs.get((proc, reg)) != value:
                return False
        for addr, value in self.mem:
            if final_mem.get(addr, 0) != value:
                return False
        return True

    def reg_bindings(self) -> dict[tuple[int, str], int]:
        """The register bindings as a ``{(proc, reg): value}`` dict."""
        return {(proc, reg): value for proc, reg, value in self.regs}

    def __str__(self) -> str:
        parts = [f"P{proc}.{reg}={value}" for proc, reg, value in sorted(self.regs)]
        parts += [f"[{addr:#x}]={value}" for addr, value in sorted(self.mem)]
        return ", ".join(parts) if parts else "(empty)"


OutcomeSpec = Mapping[Union[str, tuple[int, str]], int]
"""Accepted outcome notations: ``{"P0.r1": 0}``, ``{(0, "r1"): 0}``, and for
memory conditions a bare location name ``{"a": 1}``."""


def _parse_outcome(spec: OutcomeSpec, locations: Mapping[str, int]) -> Outcome:
    """Parse a user-facing outcome spec into an :class:`Outcome`."""
    regs: set[tuple[int, str, int]] = set()
    mem: set[tuple[int, int]] = set()
    for key, value in spec.items():
        if isinstance(key, tuple):
            proc, reg = key
            regs.add((int(proc), reg, value))
        elif isinstance(key, str) and "." in key:
            proc_part, reg = key.split(".", 1)
            if not proc_part.startswith("P"):
                raise ValueError(f"register keys look like 'P0.r1', got {key!r}")
            regs.add((int(proc_part[1:]), reg, value))
        elif isinstance(key, str) and key in locations:
            mem.add((locations[key], value))
        else:
            raise ValueError(f"cannot parse outcome key {key!r}")
    return Outcome(frozenset(regs), frozenset(mem))


@dataclass(frozen=True)
class LitmusTest:
    """A named litmus test.

    Attributes:
        name: short identifier (e.g. ``"dekker"``, ``"mp+addr"``).
        programs: one program per processor, index = processor id.
        locations: symbolic location name -> concrete address.
        initial_memory: address -> initial value (unlisted addresses are 0).
        asked: the queried outcome, or ``None`` for exploratory tests.
        expect: paper verdicts, model name -> ``True`` (allows) / ``False``
            (forbids).  Only models the paper explicitly discusses appear.
        observed: the ``(proc, reg)`` pairs outcome enumeration projects onto;
            defaults to the registers named by ``asked``.
        source: provenance (e.g. ``"Figure 2"``).
        description: one-line summary for reports.
    """

    name: str
    programs: tuple[Program, ...]
    locations: Mapping[str, int] = field(default_factory=dict)
    initial_memory: Mapping[int, int] = field(default_factory=dict)
    asked: Optional[Outcome] = None
    expect: Mapping[str, bool] = field(default_factory=dict)
    observed: frozenset[tuple[int, str]] = frozenset()
    source: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not self.observed:
            observed: set[tuple[int, str]] = set()
            if self.asked is not None:
                observed = {(proc, reg) for proc, reg, _ in self.asked.regs}
            object.__setattr__(self, "observed", frozenset(observed))

    @property
    def num_procs(self) -> int:
        """Number of processors in the test."""
        return len(self.programs)

    def location_name(self, addr: int) -> str:
        """Symbolic name for ``addr`` if one exists, else hex."""
        for name, location in self.locations.items():
            if location == addr:
                return name
        return hex(addr)

    def parse_outcome(self, spec: OutcomeSpec) -> Outcome:
        """Parse an outcome spec in the context of this test's locations."""
        return _parse_outcome(spec, self.locations)

    def __str__(self) -> str:
        lines = [f"LitmusTest {self.name!r} ({self.source})"]
        for pid, program in enumerate(self.programs):
            lines.append(f" P{pid}:")
            for i, instr in enumerate(program):
                lines.append(f"   I{i}: {instr!r}")
        if self.asked is not None:
            lines.append(f" asked: {self.asked}")
        return "\n".join(lines)
