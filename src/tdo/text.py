"""Line-oriented text format for circuits, with exact round-trip.

One construct per line; '#' starts a comment, blank lines are ignored:

    qubits N        required first
    ancillas M      optional, directly after the qubits header
    <mnemonic> q..  one gate per line, controls before target

Integers are plain ASCII decimals. Emission is canonical (lowercase mnemonics,
single spaces, no comments, ancilla header omitted when zero), so
parse(emit(c)) == c and emit(parse(text)) normalises text.

Work that depends only on a gate is done once per distinct value: parse
checks each distinct gate line once, and emit formats each gate value once.
A well-formed gate line is read with str.split(); any other line goes
through the tokeniser that records columns, which finds the first error.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .circuit import GATES, Circuit, DomainError, Gate, GateMemo, decimal_too_long, is_ascii_decimal

_TOKEN = re.compile(r"\S+")


class SourceError(DomainError):
    """A positioned parse failure; never aborts the process."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _parse_int(token: str, line: int, column: int) -> int:
    if not is_ascii_decimal(token):
        raise SourceError(line, column, f"malformed integer {token!r}")
    if too_long := decimal_too_long(token):
        raise SourceError(line, column, f"integer {too_long}")
    return int(token)


def _plain_gate(words: list[str], width: int) -> Gate | None:
    """The gate a whitespace-split line spells, or None unless it is well formed.

    None sends the line to parse's positioned path, which finds its error.
    """
    spec = GATES.get(words[0]) if words else None
    if spec is None or len(words) != spec.arity + 1:
        return None
    digits = "".join(words[1:])
    if not is_ascii_decimal(digits) or decimal_too_long(digits):
        return None
    qubits = tuple(map(int, words[1:]))
    if max(qubits) >= width or len(set(qubits)) != len(qubits):
        return None
    return Gate._make((words[0], qubits))


def parse(text: str) -> Circuit:
    """Parse circuit text; raises SourceError with a 1-based position."""
    n_main: int | None = None
    n_anc = 0
    gates: list[Gate] = []
    ancillas_allowed = True
    # Raw gate line -> its Gate, so a repeated line is not tokenised again.
    # A gate line fixes the width, so a hit parses exactly as before.
    parsed: dict[str, Gate] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        gate = parsed.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        body = raw.split("#", 1)[0]
        if n_main is not None:
            gate = _plain_gate(body.split(), n_main + n_anc)
            if gate is not None:
                ancillas_allowed = False
                parsed[raw] = gate
                gates.append(gate)
                continue
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if not tokens:
            continue
        (word, col), args = tokens[0], tokens[1:]

        if n_main is None:
            if word != "qubits":
                raise SourceError(lineno, col, "expected 'qubits N' header")
            if len(args) != 1:
                raise SourceError(lineno, col, "'qubits' takes exactly one integer")
            n_main = _parse_int(args[0][0], lineno, args[0][1])
            continue

        if word == "qubits":
            raise SourceError(lineno, col, "duplicate 'qubits' header")

        if word == "ancillas":
            if not ancillas_allowed:
                raise SourceError(
                    lineno, col, "'ancillas' must directly follow the qubits header"
                )
            if len(args) != 1:
                raise SourceError(lineno, col, "'ancillas' takes exactly one integer")
            n_anc = _parse_int(args[0][0], lineno, args[0][1])
            ancillas_allowed = False
            continue

        ancillas_allowed = False
        # Positioned checks for outside input; Circuit checks each gate again.
        spec = GATES.get(word)
        if spec is None:
            raise SourceError(lineno, col, f"unknown mnemonic {word!r}")
        arity = spec.arity
        if len(args) < arity:
            raise SourceError(
                lineno, col, f"gate '{word}' expects {arity} qubit indices, got {len(args)}"
            )
        if len(args) > arity:
            raise SourceError(
                lineno, args[arity][1], f"gate '{word}' expects {arity} qubit indices"
            )
        width = n_main + n_anc
        qubits = []
        for token, tcol in args:
            q = _parse_int(token, lineno, tcol)
            if q >= width:
                raise SourceError(
                    lineno, tcol, f"qubit index {q} out of range for width {width}"
                )
            if q in qubits:
                raise SourceError(lineno, tcol, f"repeated qubit index {q}")
            qubits.append(q)
        gate = parsed[raw] = Gate(word, tuple(qubits))
        gates.append(gate)

    if n_main is None:
        raise SourceError(1, 1, "missing 'qubits N' header")
    return Circuit(n_main, n_anc, tuple(gates))


_BLOCK = 4096


def _gate_blocks(gates: tuple[Gate, ...]) -> Iterator[str]:
    """The gate lines, `_BLOCK` gates at a time, each block joined by newlines.

    Each gate value is formatted once. No list of one line per gate is
    built, and the table of formatted gates is freed with the generator,
    before the blocks are joined: the S = 1 rewrite of a 200k-gate input
    has 600k gates of 132k distinct values, and that list and table would
    otherwise set the run's peak memory.
    """
    text = GateMemo(str).__getitem__
    for start in range(0, len(gates), _BLOCK):
        yield "\n".join(map(text, gates[start:start + _BLOCK]))


def emit(c: Circuit) -> str:
    """Canonical text for a circuit; inverse of parse on valid circuits."""
    lines = [f"qubits {c.n_main}"]
    if c.n_anc:
        lines.append(f"ancillas {c.n_anc}")
    lines += _gate_blocks(c.gates)
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)
