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
"""

from __future__ import annotations

import re

from .circuit import GATES, Circuit, DomainError, Gate, decimal_too_long, is_ascii_decimal

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


def emit(c: Circuit) -> str:
    """Canonical text for a circuit; inverse of parse on valid circuits."""
    lines = [f"qubits {c.n_main}"]
    if c.n_anc:
        lines.append(f"ancillas {c.n_anc}")
    texts = {g: str(g) for g in dict.fromkeys(c.gates)}
    lines.extend(map(texts.__getitem__, c.gates))
    return "\n".join(lines) + "\n"
