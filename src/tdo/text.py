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
Every line is split into words with str.split() and checked by one set of
rules, in one order; a refusal names the word at fault, and only then is
the line tokenised again to turn that word into its 1-based column.
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


class _Refusal(Exception):
    """A refused line; args are the index of the word at fault and the message."""


def _int(words: list[str], i: int) -> int:
    token = words[i]
    if not is_ascii_decimal(token):
        raise _Refusal(i, f"malformed integer {token!r}")
    if too_long := decimal_too_long(token):
        raise _Refusal(i, f"integer {too_long}")
    return int(token)


def _header(words: list[str]) -> int:
    """The integer of a `qubits N` or `ancillas M` line."""
    if len(words) != 2:
        raise _Refusal(0, f"'{words[0]}' takes exactly one integer")
    return _int(words, 1)


def _gate(words: list[str], width: int) -> Gate:
    """The gate a line's words spell on `width` wires; Circuit checks it again."""
    kind = words[0]
    spec = GATES.get(kind)
    if spec is None:
        raise _Refusal(0, f"unknown mnemonic {kind!r}")
    arity = spec.arity
    if len(words) <= arity:
        raise _Refusal(0, f"gate '{kind}' expects {arity} qubit indices, got {len(words) - 1}")
    if len(words) > arity + 1:
        raise _Refusal(arity + 1, f"gate '{kind}' expects {arity} qubit indices")
    qubits: list[int] = []
    for i in range(1, arity + 1):
        q = _int(words, i)
        if q >= width:
            raise _Refusal(i, f"qubit index {q} out of range for width {width}")
        if q in qubits:
            raise _Refusal(i, f"repeated qubit index {q}")
        qubits.append(q)
    return Gate(kind, tuple(qubits))


def parse(text: str) -> Circuit:
    """Parse circuit text; raises SourceError with a 1-based position."""
    n_main: int | None = None
    n_anc = 0
    gates: list[Gate] = []
    ancillas_allowed = True
    # Raw gate line -> its Gate, so a repeated line is not read again.
    # A gate line fixes the width, so a hit parses exactly as before.
    parsed: dict[str, Gate] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        gate = parsed.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        body = raw.split("#", 1)[0]
        words = body.split()
        if not words:
            continue
        try:
            if n_main is None:
                if words[0] != "qubits":
                    raise _Refusal(0, "expected 'qubits N' header")
                n_main = _header(words)
            elif words[0] == "qubits":
                raise _Refusal(0, "duplicate 'qubits' header")
            elif words[0] == "ancillas":
                if not ancillas_allowed:
                    raise _Refusal(0, "'ancillas' must directly follow the qubits header")
                n_anc = _header(words)
                ancillas_allowed = False
            else:
                ancillas_allowed = False
                gate = parsed[raw] = _gate(words, n_main + n_anc)
                gates.append(gate)
        except _Refusal as refusal:
            word, message = refusal.args
            # str.split() and \S+ agree on whitespace: word i is match i.
            starts = [m.start() for m in _TOKEN.finditer(body)]
            raise SourceError(lineno, starts[word] + 1, message) from None

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
