#!/usr/bin/env python
"""Generate the derived references under ``docs/`` from the live catalogs.

Five documents are *derived*, never hand-maintained: each renderer below
reads the same catalog the code itself validates against, so a new
command, clause, ``ctor:`` knob, diagnostic code, metric or fault kind
cannot ship undocumented.

* ``cli.md`` — :func:`repro.cli.build_parser`'s subcommands, from the
  metavars, choices and help strings argparse shows at ``--help`` (but
  not its usage formatter, whose wrapping depends on the terminal).
* ``models.md`` — the clause vocabulary (:mod:`repro.core.ppo`) joined
  with the provenance records and knobs of
  :mod:`repro.core.construction`.
* ``lint.md`` — :data:`repro.lint.diagnostics.CODES`.
* ``observability.md`` — :data:`repro.obs.registry.METRICS`.
* ``robustness.md`` — the ``--on-error`` modes, failure reasons and
  fault kinds of :mod:`repro.engine.policy` and
  :mod:`repro.engine.faults`.

The committed docs are asserted in sync by ``tests/test_docs.py`` and
the CI docs job.

Usage::

    python tools/gen_docs.py            # rewrite every generated doc
    python tools/gen_docs.py --check    # exit 1 naming each stale doc
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import textwrap

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.cli import build_parser  # noqa: E402  (path set up above)
from repro.core.construction import CONSTRAINTS, CTOR_KNOBS  # noqa: E402
from repro.core.ppo import (  # noqa: E402
    DYNAMIC_CLAUSES,
    PARAMETRIC_CLAUSES,
    STATIC_CLAUSES,
)
from repro.engine.faults import FAULT_KINDS, FAULTS_ENV_VAR  # noqa: E402
from repro.engine.policy import FAILURE_REASONS, ON_ERROR_MODES  # noqa: E402
from repro.lint.diagnostics import CODES  # noqa: E402
from repro.obs.registry import METRICS  # noqa: E402
from repro.obs.report import REPORT_SCHEMA  # noqa: E402

DOCS_DIR = os.path.join(_ROOT, "docs")

_CLI_HEADER = """\
# `repro` command-line reference

Every command is reachable as `python -m repro <command>` (alias it to
`repro`).  Commands print plain text and exit non-zero on a failed
check, so they compose with shell scripts and CI.
"""


def _argument_line(action: argparse.Action) -> str:
    """One bullet describing a positional or optional argument."""
    if action.option_strings:
        invocation = ", ".join(action.option_strings)
        if action.nargs != 0 and not isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            metavar = action.metavar or action.dest.upper()
            invocation += f" {metavar}"
    else:
        invocation = action.metavar or action.dest
        if action.nargs in ("*", "+"):
            invocation += " ..."
    text = f"- `{invocation}`"
    if action.choices is not None:
        text += " {" + ", ".join(str(choice) for choice in action.choices) + "}"
    if action.help:
        text += f" — {action.help}"
    return text


def _sub_action(parser: argparse.ArgumentParser):
    """The parser's subcommand action, or ``None`` for leaf commands."""
    return next(
        (
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ),
        None,
    )


def _walk_commands(prefix: str, parser: argparse.ArgumentParser, summary):
    """Yield ``(full command name, parser, summary)`` depth-first.

    Commands with nested subcommands (``repro model show`` ...) get one
    section each, in declaration order, right after their parent.
    """
    yield prefix, parser, summary
    sub = _sub_action(parser)
    if sub is not None:
        summaries = {
            choice.dest: choice.help for choice in sub._choices_actions
        }
        for name, child in sub.choices.items():
            yield from _walk_commands(
                f"{prefix} {name}", child, summaries.get(name)
            )


def render_cli_docs() -> str:
    """The ``docs/cli.md`` text, less its generated note (deterministic)."""
    parser = build_parser()
    root = _sub_action(parser)
    summaries = {choice.dest: choice.help for choice in root._choices_actions}
    lines = [_CLI_HEADER]
    commands = [
        entry
        for name, subparser in root.choices.items()
        for entry in _walk_commands(name, subparser, summaries.get(name))
    ]
    for name, subparser, summary in commands:
        lines.append(f"## `repro {name}`")
        lines.append("")
        if summary:
            summary = summary[0].upper() + summary[1:]
            if summary[-1] not in ".?!":
                summary += "."
            lines.append(summary)
            lines.append("")
        nested = _sub_action(subparser)
        if nested is not None:
            subcommands = ", ".join(f"`{child}`" for child in nested.choices)
            lines.append(f"Subcommands (documented below): {subcommands}.")
            lines.append("")
        arguments = [
            action
            for action in subparser._actions
            if not isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            )
        ]
        if arguments:
            for action in arguments:
                lines.append(_argument_line(action))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_MODELS_HEADER = """\
# Model definitions: the `.model` format and model specs

The paper's thesis is that a memory model is *constructed* from named
constraint choices.  This repository makes that construction data: every
model — the zoo in [architecture.md](architecture.md), a user's variant,
a whole enumerated family — is expressible as a small text file or an
inline spec string, and resolves through one function,
`repro.models.spec.resolve_model`.

## The `.model` file format

A cat-inspired (Herding Cats / herd7 tradition) line format; `#` starts
a comment, blank lines are ignored:

```text
model <name>              # required, first directive; no whitespace in <name>
description "<text>"      # optional; \\" and \\\\ escapes
loadvalue gam|sc          # the LoadValue axiom (default: gam)
coherence required        # per-location-SC side condition (the plsc yardstick)
ppo <Clause>[(args)]      # one static ppo clause per line, in order
dynamic <Clause>          # one execution-dependent clause per line
```

`repro.models.spec.print_model` emits the canonical form (directives in
the order above); the parse/print round trip is byte-stable for every
model in the zoo, which `tests/test_model_spec.py` asserts.  Models must
order same-address stores (`SAMemSt` or `PairwiseOrder(S,S)`) — the
enumeration engine and single-thread correctness rely on it — so a
`.model` file omitting both is rejected at parse time.

Example — `examples/no_addrst.model`, the paper's drop-AddrSt
experiment (`repro check lb+addrpo-st -m examples/no_addrst.model`):

```text
model no_addrst
description "GAM minus AddrSt: stores no longer wait for older accesses' address producers."
loadvalue gam
ppo SAMemSt
ppo SARmwLd
ppo FenceOrd
ppo RegRAW
ppo SAStLd
ppo BrSt
ppo SALdLd
```

## Model specs

Everywhere the CLI names a model (`-m/--model`, `diff WEAKER STRONGER`,
`hunt --pair A:B`) it accepts a *model spec*:

| spec                      | resolves to |
|---------------------------|-------------|
| `gam`                     | a registry name or alias (`repro list models`) |
| `path/to/file.model`      | one parsed `.model` file |
| `path/to/dir/`            | every `*.model` file in a directory (a family) |
| `ctor:knob=value,...`     | one point of the construction lattice (`assemble`) |
| `space:knob=*,...`        | every lattice point over the starred knobs (a family) |

Family specs are valid wherever a family makes sense (`hunt --pair`,
`model show`); single-model arguments reject them with the member list.
Engine cache keys and campaign digests hash model *content* (clauses +
axioms), so a file-defined model caches correctly, an edited file
misses, and a renamed-but-identical model still hits.
"""

_MODELS_KNOBS_INTRO = """\
## Construction knobs (`ctor:` / `space:`)

The knobs are the decision points of the paper's Section III
construction procedure (`repro.core.construction.assemble`); the first
value listed is the default.  `ctor:` pins knobs to build one model;
`space:` stars knobs (`knob=*`) to enumerate the sub-lattice, naming
each member `ctor(knob=value,...)` after its assignment.
"""

_MODELS_FOOTER = """\
## Worked example: hunt an enumerated family

The paper's methodology — invent a model variant, then find the litmus
test that distinguishes it — as one command, composing the cycle
generator, the batch engine and the campaign driver:

```console
$ repro hunt --suite gen:edges=4 --pair "space:same_address_loads=*:gam" \\
      --out hunts/saldld-space --jobs 4
expanded 1 pair spec(s) into 3 concrete pairs over 4 models
...
```

The `space:` side enumerates the three same-address-load policies
(`none` = GAM0-like, `saldld` = GAM's choice, `arm` = the ARMv8
alternative); each member is hunted against the `gam` baseline, and
every discrepancy is minimized to a re-verified `.litmus` witness — the
`none` member loses per-location SC and diverges on CoRR-shaped tests,
reproducing Section III-E1's argument mechanically.  The campaign's
`campaign.json` digests each member's *content*, so editing any member
spec (or the construction code) refuses to resume into stale state.

See also: [architecture.md](architecture.md) for where model resolution
sits in the stack, [cli.md](cli.md) for `repro model show/import/export`,
and `examples/custom_model.py` for the library-level API
(`resolve_model`, `to_spec`/`from_spec`, `ModelRegistry`).
"""


def _summary(cls: type) -> str:
    """First docstring line of a clause class, as table-cell text."""
    doc = (cls.__doc__ or "").strip().splitlines()
    text = doc[0].strip() if doc else ""
    return text.rstrip(".")


def _clause_rows() -> list[tuple[str, str, str, str]]:
    """(spec syntax, kind, paper ref, summary) per vocabulary entry."""
    rows = []
    for name, cls in STATIC_CLAUSES.items():
        rows.append((name, "static", cls.paper_ref, _summary(cls)))
    for name, cls in PARAMETRIC_CLAUSES.items():
        rows.append(
            (f"{name}(X,Y)", "static, X/Y in {L,S}", cls.paper_ref, _summary(cls))
        )
    for name, cls in DYNAMIC_CLAUSES.items():
        rows.append((name, "dynamic", cls.paper_ref, _summary(cls)))
    return rows


def render_model_docs() -> str:
    """The ``docs/models.md`` text, less its generated note (deterministic)."""
    lines = [_MODELS_HEADER]
    lines.append("## Clause vocabulary")
    lines.append("")
    lines.append(
        "Static clauses go on `ppo` lines, dynamic (execution-dependent) "
        "clauses on `dynamic` lines.  Summaries are the clause classes' own "
        "docstrings (`repro.core.ppo`); the *why* column is the provenance "
        "record of the construction procedure "
        "(`repro.core.construction.CONSTRAINTS`)."
    )
    lines.append("")
    lines.append("| clause | kind | paper | what it orders | why it exists |")
    lines.append("|--------|------|-------|----------------|---------------|")
    for syntax, kind, paper_ref, summary in _clause_rows():
        base = syntax.split("(")[0]
        origin = CONSTRAINTS[base].origin if base in CONSTRAINTS else "—"
        lines.append(
            f"| `{syntax}` | {kind} | {paper_ref} | {summary} | {origin} |"
        )
    lines.append("")
    lines.append(_MODELS_KNOBS_INTRO)
    lines.append("| knob | values (first = default) |")
    lines.append("|------|---------------------------|")
    for knob, values in CTOR_KNOBS.items():
        lines.append(f"| `{knob}` | {', '.join(f'`{v}`' for v in values)} |")
    lines.append("")
    lines.append(_MODELS_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


_LINT_HEADER = """\
# Lint: static diagnostics for tests, models and the repo

The lint subsystem (`repro.lint`) answers, *before* any engine time is
spent: is this input well-formed, non-redundant, and consistent with
what the rest of the repository assumes?  All checks are static — they
look only at programs, outcome specs, clause lists and source text,
never at executions — so linting the whole corpus costs milliseconds.

## Surfaces

```console
$ repro lint [--suite SUITE] [-m MODEL ...] [--format {text,json}] [--strict] [--edges N]
$ repro gen --dedupe            # drop isomorphic duplicates (canonical hash)
$ repro hunt ... [--no-lint]    # error findings veto the campaign pre-flight
$ PYTHONPATH=src python tools/lint_repro.py [PATH ...] [--diff-base REF]
```

`repro lint` runs the litmus (`L###`) and model (`M###`) analyzers over
a suite and a model set (default: `--suite all` against the registry
zoo).  `repro gen` and `repro hunt` run the error-level subset as a
pre-flight; `hunt` refuses to write any campaign state while it fails
(`--no-lint` overrides).  `tools/lint_repro.py` runs the repo-invariant
(`R###`) AST checks, in CI on every push.

## Severities and exit status

| severity | `repro lint` exit | pre-flight |
|----------|-------------------|------------|
| `error`  | 1                 | refused    |
| `warning`| 0 (1 under `--strict`) | passes |
| `info`   | 0                 | passes     |

Findings render as one line each — `severity code source:line: subject:
message` — or as a stable JSON document under `--format json`
(`{"version": 1, "counts": ..., "findings": [...]}`).

## Canonical identity

Two litmus tests are *isomorphic* when one maps onto the other by
renaming registers (per thread), renaming/relocating locations,
renaming branch labels, and permuting threads.  Every harness here is
invariant under those renamings, so isomorphic tests have identical
verdicts under every model.  `repro.lint.canon.canonical_hash` is the
dedupe primitive behind `L009`, `repro gen --dedupe`, and `L010`'s
edge-signature recovery (mapping hand-written tests back onto the
generator's diy-style cycle vocabulary, e.g. `corr` ->
`posrr+fre+rfe`).
"""

_LINT_GROUPS = (
    ("L", "Litmus-test diagnostics (`L###`)"),
    ("M", "Model-spec diagnostics (`M###`)"),
    ("R", "Repo-invariant diagnostics (`R###`)"),
)

_LINT_FOOTER = """\
See also: [architecture.md](architecture.md) for where lint sits in the
stack, [cli.md](cli.md) for the full `repro lint` flag reference, and
`src/repro/lint/` for the analyzers themselves.
"""


def render_lint_docs() -> str:
    """The ``docs/lint.md`` text, less its generated note (deterministic)."""
    lines = [_LINT_HEADER]
    for prefix, heading in _LINT_GROUPS:
        lines.append(f"## {heading}")
        lines.append("")
        for code, info in CODES.items():
            if not code.startswith(prefix):
                continue
            lines.append(
                f"### `{code}` — {info.title} ({info.severity.value})"
            )
            lines.append("")
            lines.append(info.summary)
            lines.append("")
            lines.append(f"*Example:* {info.example}")
            lines.append("")
    lines.append(_LINT_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


_OBS_HEADER = f"""\
# Observability: engine telemetry, run reports and `repro stats`

The telemetry subsystem (`repro.obs`) instruments the evaluation engine
— cell scheduler, axiomatic dispatch, frontier kernel, result cache and
campaign driver — with named counters, timers and histograms.  It is
dependency-free, and **off by default**: the installed recorder is a
no-op whose methods return immediately, and the timer context manager
never reads a clock while disabled, so all instrumented outputs stay
byte-identical to an uninstrumented run.

## Surfaces

```console
$ repro matrix --stats            # text run report on stderr
$ repro matrix --stats json 2> stats.json   # machine-readable capture
$ repro hunt --out DIR ... --stats          # + per-shard heartbeat lines
$ repro stats DIR                 # render DIR/stats.json
$ repro stats A B                 # counter diff of two reports
```

`--stats [text|json]` is accepted by `matrix`, `check`, `equiv`,
`strength` and `hunt`; the report goes to *stderr* so stdout stays
byte-for-byte identical to a run without the flag.  `repro hunt` also
persists every run's report as `stats.json` in the campaign directory
(overwritten per run — diff a cold run against a warm resume with
`repro stats`).

With `--jobs N` each worker collects into a private recorder and ships
a picklable snapshot back with its batch results; the parent merges
them in deterministic batch order, so **pooled counter totals equal the
serial run exactly**.  Timers and histograms carry wall-clock noise and
are excluded from all comparisons.

## Run report schema (version {REPORT_SCHEMA})

```json
{{
  "schema": {REPORT_SCHEMA},
  "command": "hunt",
  "meta": {{"suite": "...", "jobs": 1}},
  "counters": {{"engine.cells.evaluated": 96}},
  "timers": {{"engine.wall.seconds": {{"count": 1, "total_s": 0.5,
              "p50_s": 0.5, "p95_s": 0.5, "max_s": 0.5}}}},
  "histograms": {{"engine.batch.cells": {{"count": 12, "p50": 8,
                  "p95": 8, "max": 8}}}}
}}
```

`counters` is sorted by name and deterministic for a fixed workload;
`timers`/`histograms` are nearest-rank percentile summaries.  The
vocabulary is **closed**: every name must resolve in the registry below
(`repro.obs.validate_report` enforces this, and the CI stats-smoke step
runs it against a live `--stats json` capture).  Names under a family
marked *dynamic* carry a trailing per-model label, e.g.
`engine.cache.hit.by.gam`.

## Programmatic use

```python
from repro.obs import collecting, RunReport

with collecting() as recorder:
    run_engine_work()
    report = RunReport.from_snapshot(recorder.snapshot(), command="my-tool")
print(report.render_text())
```

Instrumented code calls `incr(name)`, `observe(name, value)` and
`time_block(name)` unconditionally; whether anything is recorded is the
installed recorder's business.  Recording a name absent from the
registry raises `ValueError` (on active recorders only) — add the
metric to `src/repro/obs/registry.py` and regenerate this document.
"""

_OBS_SECTIONS = (
    ("counter", "Counters"),
    ("timer", "Timers"),
    ("histogram", "Histograms"),
)

_OBS_FOOTER = """\
See also: [cli.md](cli.md) for the `--stats` / `repro stats` flag
reference, [lint.md](lint.md) for `R005` (raw clock reads in engine and
campaign code must go through `repro.obs`), and `src/repro/obs/` for
the implementation.
"""


def render_obs_docs() -> str:
    """The ``docs/observability.md`` text, less its generated note (deterministic)."""
    lines = [_OBS_HEADER]
    for kind, heading in _OBS_SECTIONS:
        lines.append(f"## {heading}")
        lines.append("")
        lines.append("| name | unit | description |")
        lines.append("|------|------|-------------|")
        for name in sorted(METRICS):
            spec = METRICS[name]
            if spec.kind != kind:
                continue
            shown = f"`{name}.<label>`" if spec.dynamic else f"`{name}`"
            lines.append(f"| {shown} | {spec.unit} | {spec.description} |")
        lines.append("")
    lines.append(_OBS_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


_ROBUSTNESS_HEADER = f"""\
# Robustness: execution policies, quarantine and fault injection

A long differential campaign is only as useful as its worst test: one
pathological cell that hangs, overflows or crashes a worker should cost
*that test*, not the campaign.  The fault-tolerance layer makes failure
a first-class engine outcome — an `ExecutionPolicy` decides how hard to
try (per-batch deadline, bounded retries) and what a batch that still
fails becomes (an exception, a skip, or a durable quarantine record) —
and a deterministic fault-injection harness keeps every recovery path
under test.

## Execution policies

```python
from repro.engine import ExecutionPolicy, evaluate_cells

policy = ExecutionPolicy(timeout=60.0, retries=2, on_error="quarantine")
results = evaluate_cells(cells, jobs=4, policy=policy)
```

* `timeout` — per-batch deadline in seconds, measured from dispatch.  A
  deadline needs a killable executor, so setting one forces pooled
  execution even at `--jobs 1`; the pool is killed and restarted, and
  unfinished innocent batches are resubmitted without being charged an
  attempt.
* `retries` — how many times a failed batch is re-run after its first
  attempt, with exponential backoff (`backoff * 2**(attempt-2)` seconds;
  `backoff` defaults to 0.1s).  Domain overflows are never retried —
  they are deterministic verdicts about the test, not transient faults.
* `on_error` — what a batch that exhausted its retries becomes (table
  below).

The default policy (no deadline, no retries, `fail`) reproduces
historical behaviour exactly: engine results, campaign reports and CLI
stdout are byte-identical to a build without the fault-tolerance layer.

On the CLI the policy rides as `--timeout S`, `--retries N` and
`--on-error MODE` on `check`, `matrix`, `equiv`, `strength` and `hunt`.

## `on_error` modes
"""

_ROBUSTNESS_MIDDLE = """\
Under `skip` and `quarantine` a failed batch's cells come back as
`CellFailure` records (test name, reason, message, worker traceback,
attempt count) instead of verdicts or outcome sets; the harnesses render
them as `skip` cells (`matrix`), skipped tests (`strength`), `skip`
rows (`equiv`) or quarantined entries (`hunt`).  Campaigns additionally
persist the records: a hunt writes `quarantine.json` next to
`report.txt`, derived from the shard files on every run — so it is
crash-safe, resume-correct, and lists every failure with its reason and
attempt count.  Quarantined tests are excluded from discrepancy mining
and reported at the foot of the hunt report.

## Failure reasons

The `reason` recorded on every `CellFailure` and quarantine entry:
"""

_ROBUSTNESS_FAULTS_INTRO = f"""\
## Fault injection

A recovery path that only runs during real crashes is untested code.
The harness in `repro.engine.faults` arms the scheduler with *planned*
faults, targeted at a specific batch, test or attempt:

```console
$ REPRO_FAULTS="crash:test=sb,attempts=1;hang:test=mp,seconds=60" \\
      repro hunt --out DIR --suite paper --timeout 5 --retries 1 \\
      --on-error quarantine
```

A plan is a `;`-separated list of `kind:key=value,...` actions
(selectors: `batch=N`, `test=NAME`, `attempts=A` — fire on attempts
1..A only, so retries recover — and `seconds=S` for `hang`).  Plans
arrive via the `{FAULTS_ENV_VAR}` environment variable (which crosses
pool boundaries for free, so CI can arm faults around an unmodified
`repro` invocation) or the `fault_plan=` keyword on `evaluate_cells`
and the campaign driver.  Everything is deterministic: the same plan
against the same cell grid fires the same faults.

### Fault kinds
"""

_ROBUSTNESS_FOOTER = """\
## Cache hygiene

A killed worker can orphan `*.tmp` files mid-rename in a result cache.
They are harmless (the cache writes atomically — a reader never sees a
partial entry, and a corrupted entry is re-counted as a miss and
recomputed) but they accumulate:

```console
$ repro cache stats DIR                       # entries + tmp debris
$ repro cache purge DIR --stale-tmp           # sweep tmp files > 1h old
$ repro cache purge DIR --stale-tmp --older-than 60
```

## Observability

The recovery machinery reports through the closed metric registry
(`engine.retries`, `engine.timeouts`, `engine.batches.quarantined`,
`engine.pool.restarts` — see [observability.md](observability.md)), and
`repro hunt --stats` adds heartbeat lines with time-since-last-batch
plus a stall warning when a batch exceeds the stall deadline.

See also: [cli.md](cli.md) for the flag reference,
[architecture.md](architecture.md) for where the policy layer sits in
the engine, and `tests/test_robustness.py` for the chaos suite that
exercises every path documented here.
"""


def _table(rows: dict) -> list:
    """A two-column name/description markdown table, sorted by name."""
    lines = ["| name | meaning |", "|------|---------|"]
    for name in sorted(rows):
        lines.append(f"| `{name}` | {rows[name]} |")
    return lines


def render_robustness_docs() -> str:
    """The ``docs/robustness.md`` text, less its generated note (deterministic)."""
    lines = [_ROBUSTNESS_HEADER, ""]
    lines.extend(_table(ON_ERROR_MODES))
    lines.append("")
    lines.append(_ROBUSTNESS_MIDDLE)
    lines.extend(_table(FAILURE_REASONS))
    lines.append("")
    lines.append(_ROBUSTNESS_FAULTS_INTRO)
    lines.append("")
    lines.extend(_table(FAULT_KINDS))
    lines.append("")
    lines.append(_ROBUSTNESS_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


# Output file -> (what it is generated from, renderer).
DOCS = {
    "cli.md": ("the argparse tree in `src/repro/cli.py`", render_cli_docs),
    "models.md": (
        "the clause catalog in `src/repro/core/ppo.py` and the construction "
        "lattice in `src/repro/core/construction.py`",
        render_model_docs,
    ),
    "lint.md": (
        "the diagnostic-code catalog in `src/repro/lint/diagnostics.py`",
        render_lint_docs,
    ),
    "observability.md": (
        "the metric registry in `src/repro/obs/registry.py`",
        render_obs_docs,
    ),
    "robustness.md": (
        "the vocabulary in `src/repro/engine/policy.py` and "
        "`src/repro/engine/faults.py`",
        render_robustness_docs,
    ),
}


def _generated_note(source: str) -> str:
    """The do-not-edit blockquote every generated doc carries."""
    text = (
        f"Generated by `tools/gen_docs.py` from {source} — do not edit by "
        "hand.  Regenerate with `python tools/gen_docs.py`; the CI docs "
        "job fails when this file is out of sync."
    )
    # Wrap at spaces outside `code spans` only.
    unbreakable = re.sub(r"`[^`]*`", lambda m: m[0].replace(" ", "\0"), text)
    wrapped = textwrap.fill(
        unbreakable, width=72, initial_indent="> ", subsequent_indent="> ",
        break_long_words=False, break_on_hyphens=False,
    )
    return wrapped.replace("\0", " ") + "\n"


def render(name: str) -> str:
    """The full text of ``docs/<name>``, generated note under the title."""
    source, renderer = DOCS[name]
    title, body = renderer().split("\n", 1)
    return f"{title}\n\n{_generated_note(source)}{body}"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def main(argv=None) -> int:
    """Write every doc, or with ``--check`` exit 1 naming each stale one."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="verify instead of writing"
    )
    args = parser.parse_args(argv)
    if not args.check:
        os.makedirs(DOCS_DIR, exist_ok=True)
        for name in DOCS:
            path = os.path.join(DOCS_DIR, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render(name))
            print(f"wrote {path}")
        return 0
    stale = [
        os.path.join(DOCS_DIR, name)
        for name in DOCS
        if _read(os.path.join(DOCS_DIR, name)) != render(name)
    ]
    for path in stale:
        print(f"{path} is out of sync", file=sys.stderr)
    if stale:
        print("run: python tools/gen_docs.py", file=sys.stderr)
        return 1
    print(f"all {len(DOCS)} generated docs are in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
