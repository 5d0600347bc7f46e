"""Parser for a herd7-compatible subset of the ``.litmus`` format.

The accepted dialect (exactly what :mod:`.printer` emits, plus a little
slack in whitespace and synonym spellings)::

    <ARCH> <name>                     header: architecture tag + test name
    "<description>"                   optional one-line description
    (* source: ... *)                 optional metadata comments
    (* expect: gam=allow sc=forbid *) optional paper verdicts
    { a; b = 1; c = &a; }             init: declarations + initial values
     P0          | P1          ;      thread header row
     St [a] 1    | r1 = Ld [a] ;      one instruction (or label) per cell
    observed [0:r1; 1:r2]             optional extra observed registers
    exists (0:r1=0 /\\ a=1)           optional asked outcome

Instructions use this repository's ISA spelling: ``r1 = Ld [addr]``,
``St [addr] data``, ``r1 = RMW [addr] data``, ``FenceXY``, ``r1 = expr``,
``if (cond) goto label``, ``Nop``, and ``label:`` cells.  Operand
expressions support ``| ^ & == != < >= + - *``, unary ``- ~ !``, decimal
and hex integers, and identifiers (resolved to locations first, then to
registers — the same rule as :class:`~repro.litmus.dsl.LitmusBuilder`).

Locations are laid out at :data:`~repro.litmus.dsl.LOCATION_STRIDE`
multiples in declaration order; an ``@ 0x...`` suffix overrides the
address.  ``~exists`` and ``forbidden`` are accepted as synonyms of
``exists`` (the per-model verdicts live in the ``expect`` metadata, not in
the quantifier).  Errors raise :class:`LitmusParseError` with the
offending line number.
"""

from __future__ import annotations

import re
from typing import Optional

from ..dsl import LOCATION_STRIDE
from ..test import LitmusTest, Outcome
from ...isa.expr import BinOp, Const, Expr, Reg, UnOp
from ...isa.instructions import (
    Branch,
    Fence,
    Instruction,
    Load,
    Nop,
    RegOp,
    Rmw,
    Store,
)
from ...isa.program import Program, ProgramError

__all__ = ["parse_litmus", "parse_litmus_file", "LitmusParseError"]


class LitmusParseError(ValueError):
    """A syntax or consistency error in ``.litmus`` input.

    Attributes:
        line: 1-based line number of the offending input line (0 when the
            error is not tied to one line, e.g. truncated input).
    """

    def __init__(self, message: str, line: int = 0) -> None:
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>0[xX][0-9a-fA-F]+|\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|>=|/\\|[-+*^&|<>~!()\[\]=:;@,])"
    r")"
)


def _tokenize(text: str, line: int) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise LitmusParseError(f"unexpected character {rest[0]!r}", line)
        tokens.append(match.group().strip())
        pos = match.end()
    return tokens


class _Tokens:
    """A token cursor with litmus-flavoured error reporting."""

    def __init__(self, tokens: list[str], line: int) -> None:
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str = "token") -> str:
        token = self.peek()
        if token is None:
            raise LitmusParseError(f"expected {what}, found end of line", self.line)
        self.pos += 1
        return token

    def expect(self, literal: str) -> None:
        token = self.next(repr(literal))
        if token != literal:
            raise LitmusParseError(
                f"expected {literal!r}, found {token!r}", self.line
            )

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


BIN_PRECEDENCE = {
    "^": 2,
    "&": 3,
    "==": 4,
    "!=": 4,
    "<": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
}
"""Binary-operator precedence of the dialect, loosest first.  The printer
imports this table so the two sides can never disagree on minimal
parenthesization.  Bitwise-or is deliberately absent: ``|`` is the thread
column separator, so the dialect cannot spell it inside a cell."""

UNARY_PRECEDENCE = 7
_UNARY_OPS = ("-", "~", "!")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"(0[xX][0-9a-fA-F]+|\d+)\Z")


def _int_literal(text: str, line: int) -> int:
    """The value of a literal :data:`_INT_RE` matched, or a located error.

    ``_INT_RE`` admits decimal literals with leading zeros (``01``) that
    ``int(text, 0)`` rejects as ambiguous octal.
    """
    try:
        return int(text, 0)
    except ValueError:
        raise LitmusParseError(
            f"bad integer literal {text!r} (leading zeros are not allowed)", line
        ) from None


def _parse_expr(tokens: _Tokens, locations: dict[str, int], min_prec: int = 1) -> Expr:
    """Precedence-climbing expression parser (mirrors the printer)."""
    expr = _parse_unary(tokens, locations)
    while True:
        op = tokens.peek()
        if op is None or op not in BIN_PRECEDENCE:
            return expr
        prec = BIN_PRECEDENCE[op]
        if prec < min_prec:
            return expr
        tokens.next()
        right = _parse_expr(tokens, locations, prec + 1)
        expr = BinOp(op, expr, right)


def _parse_unary(tokens: _Tokens, locations: dict[str, int]) -> Expr:
    token = tokens.peek()
    if token in _UNARY_OPS:
        tokens.next()
        return UnOp(token, _parse_unary(tokens, locations))
    return _parse_atom(tokens, locations)


def _parse_atom(tokens: _Tokens, locations: dict[str, int]) -> Expr:
    token = tokens.next("an operand")
    if token == "(":
        expr = _parse_expr(tokens, locations)
        tokens.expect(")")
        return expr
    if _INT_RE.match(token):
        return Const(_int_literal(token, tokens.line))
    if _NAME_RE.match(token):
        if token in locations:
            return Const(locations[token])
        return Reg(token)
    raise LitmusParseError(f"expected an operand, found {token!r}", tokens.line)


def _parse_instruction(tokens: _Tokens, locations: dict[str, int]) -> Instruction:
    token = tokens.next("an instruction")
    if token == "Nop" and tokens.done():
        return Nop()
    if token.startswith("Fence") and len(token) == 7:
        pre, post = token[5], token[6]
        if pre not in "LS" or post not in "LS":
            raise LitmusParseError(f"unknown fence {token!r}", tokens.line)
        if not tokens.done():
            raise LitmusParseError(f"trailing input after {token}", tokens.line)
        return Fence(pre, post)
    if token == "St":
        tokens.expect("[")
        addr = _parse_expr(tokens, locations)
        tokens.expect("]")
        data = _parse_expr(tokens, locations)
        _expect_done(tokens)
        return Store(addr, data)
    if token == "if":
        tokens.expect("(")
        cond = _parse_expr(tokens, locations)
        tokens.expect(")")
        tokens.expect("goto")
        target = tokens.next("a label name")
        if not _NAME_RE.match(target):
            raise LitmusParseError(f"bad branch target {target!r}", tokens.line)
        _expect_done(tokens)
        return Branch(cond, target)
    if not _NAME_RE.match(token):
        raise LitmusParseError(f"unrecognized instruction at {token!r}", tokens.line)
    dst = token
    tokens.expect("=")
    head = tokens.peek()
    if head == "Ld":
        tokens.next()
        tokens.expect("[")
        addr = _parse_expr(tokens, locations)
        tokens.expect("]")
        _expect_done(tokens)
        return Load(dst, addr)
    if head == "RMW":
        tokens.next()
        tokens.expect("[")
        addr = _parse_expr(tokens, locations)
        tokens.expect("]")
        data = _parse_expr(tokens, locations)
        _expect_done(tokens)
        return Rmw(dst, addr, data)
    expr = _parse_expr(tokens, locations)
    _expect_done(tokens)
    return RegOp(dst, expr)


def _expect_done(tokens: _Tokens) -> None:
    if not tokens.done():
        raise LitmusParseError(
            f"trailing input {tokens.peek()!r} after instruction", tokens.line
        )


_COMMENT_RE = re.compile(r"\(\*(.*?)\*\)")
_HEADER_ROW_RE = re.compile(r"^\s*P0\s*(\||;)")


class _Parser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.index = 0
        self.source = ""
        self.expect_map: dict[str, bool] = {}

    # -- line plumbing ---------------------------------------------------

    def _next_line(self) -> Optional[tuple[str, int]]:
        """The next significant line (comments captured, blanks skipped)."""
        while self.index < len(self.lines):
            raw = self.lines[self.index]
            self.index += 1
            stripped = self._capture_comments(raw, self.index).strip()
            if stripped:
                return stripped, self.index
        return None

    def _capture_comments(self, line: str, lineno: int) -> str:
        def record(match: re.Match) -> str:
            body = match.group(1).strip()
            if body.startswith("source:"):
                self.source = body[len("source:"):].strip()
            elif body.startswith("expect:"):
                self._parse_expect(body[len("expect:"):], lineno)
            return " "

        return _COMMENT_RE.sub(record, line)

    def _parse_expect(self, body: str, lineno: int) -> None:
        for item in body.split():
            if "=" not in item:
                raise LitmusParseError(
                    f"bad expect entry {item!r} (want model=allow|forbid)", lineno
                )
            model, verdict = item.split("=", 1)
            if verdict not in ("allow", "forbid"):
                raise LitmusParseError(
                    f"bad expect verdict {verdict!r} for model {model!r}", lineno
                )
            self.expect_map[model] = verdict == "allow"

    # -- sections --------------------------------------------------------

    def parse(self) -> LitmusTest:
        name = self._parse_header()
        description = self._parse_description()
        locations, initial_memory = self._parse_init()
        programs = self._parse_threads(locations)
        observed, asked = self._parse_footer(locations)
        try:
            return LitmusTest(
                name=name,
                programs=programs,
                locations=locations,
                initial_memory=initial_memory,
                asked=asked,
                expect=self.expect_map,
                observed=observed,
                source=self.source,
                description=description,
            )
        except (ProgramError, ValueError) as exc:
            raise LitmusParseError(str(exc)) from exc

    def _parse_header(self) -> str:
        entry = self._next_line()
        if entry is None:
            raise LitmusParseError("empty litmus input")
        line, lineno = entry
        parts = line.split(None, 1)
        if len(parts) != 2 or not _NAME_RE.match(parts[0]):
            raise LitmusParseError(
                "header must be '<arch> <test name>'", lineno
            )
        return parts[1].strip()

    def _parse_description(self) -> str:
        entry = self._next_line()
        if entry is None:
            raise LitmusParseError("truncated input: missing init section")
        line, lineno = entry
        if line.startswith('"'):
            if not line.endswith('"') or len(line) < 2:
                raise LitmusParseError("unterminated description string", lineno)
            return line[1:-1]
        # Not a description: rewind so init parsing sees this line.
        self.index = lineno - 1
        return ""

    def _parse_init(self) -> tuple[dict[str, int], dict[int, int]]:
        entry = self._next_line()
        if entry is None:
            raise LitmusParseError("truncated input: missing init section")
        line, lineno = entry
        if not line.startswith("{"):
            raise LitmusParseError(
                f"expected init section '{{ ... }}', found {line!r}", lineno
            )
        body = line[1:]
        while "}" not in body:
            more = self._next_line()
            if more is None:
                raise LitmusParseError("unterminated init section", lineno)
            body += " " + more[0]
            lineno = more[1]
        body, _, trailing = body.partition("}")
        if trailing.strip():
            raise LitmusParseError(
                f"unexpected input after init section: {trailing.strip()!r}", lineno
            )

        locations: dict[str, int] = {}
        pending: list[tuple[str, str, int]] = []  # (name, init spec, line)
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            name_part, eq, init_part = chunk.partition("=")
            name_part = name_part.strip()
            name, at, addr_part = name_part.partition("@")
            name = name.strip()
            if not _NAME_RE.match(name):
                raise LitmusParseError(f"bad location name {name!r}", lineno)
            if name in locations:
                raise LitmusParseError(f"duplicate location {name!r}", lineno)
            if at:
                addr_text = addr_part.strip()
                if not _INT_RE.match(addr_text):
                    raise LitmusParseError(
                        f"bad address {addr_text!r} for location {name!r}", lineno
                    )
                address = _int_literal(addr_text, lineno)
            else:
                address = LOCATION_STRIDE * (len(locations) + 1)
            locations[name] = address
            if eq:
                pending.append((name, init_part.strip(), lineno))

        initial_memory: dict[int, int] = {}
        for name, spec, entry_line in pending:
            if spec.startswith("&"):
                target = spec[1:].strip()
                if target not in locations:
                    raise LitmusParseError(
                        f"init of {name!r} references unknown location {target!r}",
                        entry_line,
                    )
                initial_memory[locations[name]] = locations[target]
            elif _INT_RE.match(spec):
                initial_memory[locations[name]] = _int_literal(spec, entry_line)
            else:
                raise LitmusParseError(
                    f"bad initial value {spec!r} for location {name!r}", entry_line
                )
        return locations, initial_memory

    def _parse_threads(self, locations: dict[str, int]) -> tuple[Program, ...]:
        entry = self._next_line()
        if entry is None:
            raise LitmusParseError("truncated input: missing thread section")
        line, lineno = entry
        if not _HEADER_ROW_RE.match(line):
            raise LitmusParseError(
                f"expected thread header row ' P0 | P1 ;', found {line!r}", lineno
            )
        headers = self._split_row(line, lineno)
        for i, header in enumerate(headers):
            if header != f"P{i}":
                raise LitmusParseError(
                    f"thread header column {i} must be 'P{i}', found {header!r}",
                    lineno,
                )
        num_procs = len(headers)

        instrs: list[list[Instruction]] = [[] for _ in range(num_procs)]
        labels: list[dict[str, int]] = [{} for _ in range(num_procs)]
        while True:
            entry = self._next_line()
            if entry is None:
                break
            line, lineno = entry
            if not line.endswith(";"):
                self.index = lineno - 1  # footer line: hand back
                break
            cells = self._split_row(line, lineno)
            if len(cells) != num_procs:
                # Ragged rows must fail loudly: a missing '|' would silently
                # hand an instruction to the wrong processor.
                raise LitmusParseError(
                    f"row has {len(cells)} columns, expected {num_procs}", lineno
                )
            for proc, cell in enumerate(cells):
                if not cell:
                    continue
                if cell.endswith(":"):
                    label = cell[:-1].strip()
                    if not _NAME_RE.match(label):
                        raise LitmusParseError(f"bad label {cell!r}", lineno)
                    if label in labels[proc]:
                        raise LitmusParseError(
                            f"duplicate label {label!r} on P{proc}", lineno
                        )
                    labels[proc][label] = len(instrs[proc])
                    continue
                tokens = _Tokens(_tokenize(cell, lineno), lineno)
                instrs[proc].append(_parse_instruction(tokens, locations))

        programs = []
        for proc in range(num_procs):
            try:
                programs.append(Program(instrs[proc], labels[proc]))
            except ProgramError as exc:
                raise LitmusParseError(f"P{proc}: {exc}") from exc
        return tuple(programs)

    def _split_row(self, line: str, lineno: int) -> list[str]:
        body = line.rstrip()
        if not body.endswith(";"):
            raise LitmusParseError("thread rows must end with ';'", lineno)
        return [cell.strip() for cell in body[:-1].split("|")]

    def _parse_footer(
        self, locations: dict[str, int]
    ) -> tuple[frozenset[tuple[int, str]], Optional[Outcome]]:
        observed: frozenset[tuple[int, str]] = frozenset()
        asked: Optional[Outcome] = None
        saw_exists = False
        saw_observed = False
        while True:
            entry = self._next_line()
            if entry is None:
                return observed, asked
            line, lineno = entry
            if line.startswith("observed"):
                if saw_observed:
                    raise LitmusParseError("duplicate observed clause", lineno)
                saw_observed = True
                observed = self._parse_observed(line, lineno)
                continue
            for keyword in ("~exists", "exists", "forbidden"):
                if line.startswith(keyword):
                    if saw_exists:
                        raise LitmusParseError("duplicate final condition", lineno)
                    saw_exists = True
                    asked = self._parse_condition(
                        line[len(keyword):].strip(), lineno, locations
                    )
                    break
            else:
                raise LitmusParseError(f"unexpected input {line!r}", lineno)

    def _parse_observed(self, line: str, lineno: int) -> frozenset[tuple[int, str]]:
        match = re.match(r"observed\s*\[(.*)\]\s*$", line)
        if match is None:
            raise LitmusParseError(
                "observed clause must look like 'observed [0:r1; 1:r2]'", lineno
            )
        pairs = set()
        for item in match.group(1).split(";"):
            item = item.strip()
            if not item:
                continue
            pair = re.match(r"(\d+)\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\Z", item)
            if pair is None:
                raise LitmusParseError(f"bad observed entry {item!r}", lineno)
            pairs.add((int(pair.group(1)), pair.group(2)))
        return frozenset(pairs)

    def _parse_condition(
        self, body: str, lineno: int, locations: dict[str, int]
    ) -> Outcome:
        if not (body.startswith("(") and body.endswith(")")):
            raise LitmusParseError(
                "final condition must be parenthesized", lineno
            )
        inner = body[1:-1].strip()
        regs: set[tuple[int, str, int]] = set()
        mem: set[tuple[int, int]] = set()
        if inner:
            for conjunct in re.split(r"/\\|&&", inner):
                conjunct = conjunct.strip()
                lhs, eq, rhs = conjunct.partition("=")
                if not eq:
                    raise LitmusParseError(
                        f"bad condition conjunct {conjunct!r}", lineno
                    )
                value = self._condition_value(rhs.strip(), lineno, locations)
                lhs = lhs.strip()
                reg_match = re.match(
                    r"(?:P?(\d+)[.:])\s*([A-Za-z_][A-Za-z0-9_]*)\Z", lhs
                )
                if reg_match is not None:
                    regs.add((int(reg_match.group(1)), reg_match.group(2), value))
                elif lhs in locations:
                    mem.add((locations[lhs], value))
                else:
                    raise LitmusParseError(
                        f"condition names unknown location or register {lhs!r}",
                        lineno,
                    )
        return Outcome(frozenset(regs), frozenset(mem))

    def _condition_value(
        self, text: str, lineno: int, locations: dict[str, int]
    ) -> int:
        if text.startswith("&"):
            target = text[1:].strip()
            if target not in locations:
                raise LitmusParseError(
                    f"condition references unknown location {target!r}", lineno
                )
            return locations[target]
        if _INT_RE.match(text):
            return _int_literal(text, lineno)
        raise LitmusParseError(f"bad condition value {text!r}", lineno)


def parse_litmus(text: str) -> LitmusTest:
    """Parse ``.litmus`` text into a :class:`LitmusTest`.

    Raises:
        LitmusParseError: on any syntax or consistency error, carrying the
            offending 1-based line number.
    """
    return _Parser(text).parse()


def parse_litmus_file(path) -> LitmusTest:
    """Parse one ``.litmus`` file (annotating errors with the path)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_litmus(text)
    except LitmusParseError as exc:
        raise LitmusParseError(f"{path}: {exc}") from exc
