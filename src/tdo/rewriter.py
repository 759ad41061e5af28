"""Compiler pass: compress all T stages of a monomial-gate circuit into one.

Applicability: every non-T gate must be almost classical (its matrix is
monomial, a permutation of basis states times a diagonal). Such gates move
basis states to basis states, so the boolean value a wire holds when a T
gate fires is a function of the input basis state; copying that value onto
a fresh |0> ancilla with a CNOT lets the T fire on the ancilla instead,
and all T gates can then share a single stage.

The pass maintains three pieces while scanning the input:

  L   the compute prefix: every gate seen so far, plus one CNOT copy per
      t/tdg onto a fresh ancilla
  M   the single T stage: one t/tdg per input T, each on its own ancilla
  A2  the T-free remainder: every non-T gate

and emits L, M, inverse(L), A2. The L*M*inverse(L) part is diagonal (each
ancilla phase is a boolean function of the input), so the ancillas always
return to |0> and the emitted circuit implements the input exactly with
one T stage, one new ancilla per T gate, and at most three times the
gates.

An ancilla budget trades stages for ancillas: splitting the input into
segments of at most ceil(t/S) T gates and rewriting each against one
shared ancilla pool yields T-depth at most S with a pool of ceil(t/S).
"""

from __future__ import annotations

from collections.abc import Sequence

from .circuit import GATES, T_KINDS, Circuit, DomainError, Gate, invert_gates, t_count


class NotAlmostClassical(DomainError):
    """The input mixes in a gate this pass cannot move past, such as h."""

    def __init__(self, kind: str, position: int) -> None:
        super().__init__(
            f"gate {kind!r} at position {position} is not almost classical"
        )
        self.kind = kind
        self.position = position


def validate_gateset(c: Circuit) -> list[int]:
    """Positions of gates with non-monomial matrices; empty iff rewritable."""
    return [i for i, gate in enumerate(c.gates) if GATES[gate.kind].action is None]


def _rewrite_segment(
    gates: Sequence[Gate], pool: tuple[int, ...], out: list[Gate]
) -> None:
    """Append one segment, rewritten to one T stage against the pool, to out."""
    prefix: list[Gate] = []
    stage: list[Gate] = []
    remainder: list[Gate] = []
    for gate in gates:
        if gate.kind in T_KINDS:
            ancilla = pool[len(stage)]
            prefix.append(Gate("cx", (gate.qubits[0], ancilla)))
            stage.append(Gate(gate.kind, (ancilla,)))
        else:
            prefix.append(gate)
            remainder.append(gate)
    if stage:
        out += prefix
        out += stage
        out += invert_gates(prefix)
    out += remainder


def rewrite_budgeted(c: Circuit, stages: int) -> Circuit:
    """Rewrite to T-depth at most `stages`, reusing one ancilla pool.

    The gate list is cut into consecutive segments of at most
    ceil(t_count/stages) T gates; each segment is rewritten to a single T
    stage and restores the shared pool to |0>, so segments chain to at most
    `stages` stages total. Input ancillas are treated as ordinary wires;
    the pool is appended after them. A circuit without T gates is returned
    as it is.
    """
    if stages < 1:
        raise ValueError("stage budget must be at least 1")
    offenders = validate_gateset(c)
    if offenders:
        position = offenders[0]
        raise NotAlmostClassical(c.gates[position].kind, position)

    total_t = t_count(c)
    if total_t == 0:
        return c
    quota = -(-total_t // stages)
    pool = tuple(range(c.width, c.width + quota))

    gates = c.gates
    out: list[Gate] = []
    start = 0
    seen_t = 0
    for i, gate in enumerate(gates):
        if gate.kind in T_KINDS:
            if seen_t == quota:
                _rewrite_segment(gates[start:i], pool, out)
                start = i
                seen_t = 0
            seen_t += 1
    _rewrite_segment(gates[start:], pool, out)
    return Circuit(c.n_main, c.n_anc + quota, tuple(out))


def rewrite_tdepth1(c: Circuit) -> Circuit:
    """Rewrite to a single T stage, one fresh ancilla per T gate."""
    return rewrite_budgeted(c, 1)
