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
shared ancilla pool yields a pool of ceil(t/S) and a T-depth of exactly
ceil(t / ceil(t/S)), the number of segments, which is at most S
(`segment_count`). So the output's T-depth is known before the output is
built.

The pass makes one C-level scan of the input for its T positions, and the
segments are cut from those: L is the segment with each T slot
overwritten by its copy, L^-1 the memoised inverses of the reversed
segment with the same slots overwritten (a cx copy is its own inverse),
and A2 the segment with the T slots left out. Equal output gates are one
object: each input value is inverted once per call, and with more than
one segment each copy and stage gate is built once per value.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from itertools import chain, compress, count, repeat
from operator import itemgetter

from .circuit import GATES, MONOMIAL_KINDS, T_KINDS, Circuit, DomainError, Gate, GateMemo

_kind = itemgetter(0)
_NON_T_KINDS = frozenset(GATES) - T_KINDS


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
    return [i for i, gate in enumerate(c.gates) if gate.kind not in MONOMIAL_KINDS]


def _quota(t: int, stages: int) -> int:
    """T gates per segment for t T gates and a budget of `stages`: the pool size."""
    return -(-t // stages)


def segment_count(t: int, stages: int) -> int:
    """Segments of `rewrite_budgeted(c, stages)` for t = t_count(c): its T-depth.

    The value is exact, not a bound. Every segment's first T gate fires on
    the pool's first wire, so that wire's T-chain has one stage per
    segment. No segment's prefix L holds a T gate, so no T-chain is
    longer. 0 when t = 0, where the input comes back as it is.
    """
    return -(-t // _quota(t, stages)) if t else 0


def rewrite_budgeted(c: Circuit, stages: int) -> Circuit:
    """Rewrite to T-depth at most `stages`, reusing one ancilla pool.

    The gate list is cut into consecutive segments of at most
    ceil(t_count/stages) T gates; each segment is rewritten to a single T
    stage and restores the shared pool to |0>, so the output's T-depth is
    the segment count, `segment_count(t_count(c), stages)` <= `stages`.
    Input ancillas are treated as ordinary wires; the pool is appended
    after them. A circuit without T gates is returned as it is.
    """
    if stages < 1:
        raise ValueError("stage budget must be at least 1")
    gates = c.gates
    if not MONOMIAL_KINDS.issuperset(map(_kind, gates)):
        position = validate_gateset(c)[0]
        raise NotAlmostClassical(gates[position].kind, position)

    # T positions as machine ints: a list would keep an int object per T
    # alive through the output check.
    t_at = array("q", compress(count(), map(T_KINDS.__contains__, map(_kind, gates))))
    if not t_at:
        return c
    quota = _quota(len(t_at), stages)
    out = chain.from_iterable(_segments(gates, t_at, quota, c.width))
    return Circuit(c.n_main, c.n_anc + quota, out)


def _segments(
    gates: tuple[Gate, ...], t_at: array, quota: int, width: int
) -> Iterator[Iterable[Gate]]:
    """L, M, L^-1 and A2 of each segment of `quota` T gates, in order."""
    pool = tuple(range(width, width + quota))  # one int object per wire, shared
    starts = t_at[quota::quota]
    # One segment makes every copy and stage gate distinct; several share
    # them, one object per value, through a per-call table.
    make = GateMemo(Gate._make).__getitem__ if starts else Gate._make
    inverse_of = GateMemo(Gate.inverse).__getitem__
    for begin, end, first in zip([0, *starts], [*starts, len(gates)], count(0, quota)):
        ts = t_at[first:first + quota]
        segment = gates[begin:end]
        t_gates = list(map(gates.__getitem__, ts))
        wires = map(itemgetter(0), map(itemgetter(1), t_gates))
        prefix = list(segment)
        inverse = list(map(inverse_of, reversed(segment)))
        # Each T's slot in L and in L^-1 holds its cx copy, its own inverse.
        for p, copy in zip(ts, map(make, zip(repeat("cx"), zip(wires, pool)))):
            prefix[p - begin] = copy
            inverse[end - 1 - p] = copy
        yield prefix
        yield map(make, zip(map(_kind, t_gates), zip(pool)))
        yield inverse
        yield compress(segment, map(_NON_T_KINDS.__contains__, map(_kind, segment)))


def rewrite_tdepth1(c: Circuit) -> Circuit:
    """Rewrite to a single T stage, one fresh ancilla per T gate."""
    return rewrite_budgeted(c, 1)
