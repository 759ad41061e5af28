"""Gate and circuit data model plus the scheduling metrics.

A gate is a named application of a fixed vocabulary to distinct wires; for
controlled kinds the controls come first and the target last. `GATES` is
the one table of gate kinds: arity, inverse, T flag, and the monomial
action that the simulator compiles and the rewriter checks. A circuit
owns ``n_main`` working qubits followed by ``n_anc`` ancilla qubits; the
ancillas are promised to start in |0> and be returned to |0> (the
simulator enforces this when extracting the induced operator).

Metrics, all pure functions of the gate list:

  t_count             number of t/tdg gates
  t_depth_as_written  stages of contiguous t/tdg gates on distinct qubits,
                      read off the gate list literally
  t_depth_scheduled   stages after dependency-aware packing: every non-T
                      gate is free, each t/tdg adds one stage along its
                      wire chains
  depth               layers of an as-soon-as-possible schedule in which
                      gates sharing a wire cannot share a layer

Multiply-controlled kinds (ccx, ccz) and cs/csdg are legal wherever a gate
is legal but contribute nothing to T-count or T-depth; they count toward
depth and gate count like any other gate.

Large circuits repeat a few distinct gates many times. A `Gate` is an
immutable value, and work that depends only on one is done once per value.

The simulation width cap (`width_cap`, read from TDO_MAX_QUBITS) lives here
rather than in `sim`, because the command line checks it for every command
and most commands never load the simulator.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict, namedtuple
from collections.abc import Callable, Iterable, Sequence

ActionStep = tuple[tuple[int, ...], tuple[int, ...], int]


class DomainError(Exception):
    """A refused input or request, as opposed to a fault in the library.

    The command line reports one as its exit-1 error line: the message
    plus the exception's own attributes.
    """


def is_ascii_decimal(token: str) -> bool:
    """Whether token is ASCII digits only, the one spelling of an integer.

    int() alone also accepts signs, spaces, underscores and non-ASCII
    digits; str.isdigit alone accepts digits such as '¹' that int() rejects.
    """
    return token.isascii() and token.isdigit()


def decimal_too_long(token: str) -> str | None:
    """Why int() must not read a decimal token, or None.

    Accepts one digit fewer than Python's int-string limit (none if 0, or
    before 3.10.7), so the sum of two accepted integers still prints.
    """
    most = getattr(sys, "get_int_max_str_digits", int)() - 1
    if 0 <= most < len(token):
        return f"has {len(token)} digits, more than the {most} allowed"
    return None


DEFAULT_CAP = 12
# Tied to a 1 GiB address space: there `verify` of `qubits N`/`t 0`/`cx 0 1`/
# `ccx 0 1 2` against itself works up to N = 26, not 27, so a larger host gives up caps
# it could run. It bounds memory, not time: h on 26 touched ancillas runs about
# 13 s before 1 GiB ends it in one "out of memory" line, longer with no limit.
MAX_CAP = 26


class BadWidthCap(DomainError, ValueError):
    """TDO_MAX_QUBITS is not a string of ASCII digits, or is above MAX_CAP."""


def width_cap() -> int:
    """The simulation width cap, read from TDO_MAX_QUBITS on every call."""
    env = os.environ.get("TDO_MAX_QUBITS")
    if not env:
        return DEFAULT_CAP
    if not is_ascii_decimal(env):
        raise BadWidthCap(f"TDO_MAX_QUBITS must be an integer, got {env!r}")
    if too_long := decimal_too_long(env):
        raise BadWidthCap(f"TDO_MAX_QUBITS {too_long}")
    if int(env) > MAX_CAP:
        raise BadWidthCap(f"TDO_MAX_QUBITS must be at most {MAX_CAP}, got {env}")
    return int(env)


class GateKind(namedtuple("GateKind", "arity inverse is_t action")):
    """Everything the library knows about one gate kind.

    ``action`` describes a monomial gate (one that sends each basis state
    to one basis state times an eighth root of unity) as steps over the
    gate's own wires, applied in order. A step (controls, flips, e) acts on
    the basis states whose control wires all hold 1: it multiplies them by
    omega^e and then flips the flip wires. Controls and flips are positions
    in the gate's qubit tuple and never overlap. ``action`` is None for a
    gate that is not monomial.
    """

    __slots__ = ()


_CX: ActionStep = ((0,), (1,), 0)

# GateKind(arity, inverse, is_t, action). y is omega^2, then z, then x;
# swap is three cx.
GATES: dict[str, GateKind] = {
    "x": GateKind(1, "x", False, (((), (0,), 0),)),
    "y": GateKind(1, "y", False, (((), (), 2), ((0,), (), 4), ((), (0,), 0))),
    "z": GateKind(1, "z", False, (((0,), (), 4),)),
    "h": GateKind(1, "h", False, None),
    "s": GateKind(1, "sdg", False, (((0,), (), 2),)),
    "sdg": GateKind(1, "s", False, (((0,), (), 6),)),
    "t": GateKind(1, "tdg", True, (((0,), (), 1),)),
    "tdg": GateKind(1, "t", True, (((0,), (), 7),)),
    "cx": GateKind(2, "cx", False, (_CX,)),
    "cz": GateKind(2, "cz", False, (((0, 1), (), 4),)),
    "cs": GateKind(2, "csdg", False, (((0, 1), (), 2),)),
    "csdg": GateKind(2, "cs", False, (((0, 1), (), 6),)),
    "swap": GateKind(2, "swap", False, (_CX, ((1,), (0,), 0), _CX)),
    "ccx": GateKind(3, "ccx", False, (((0, 1), (2,), 0),)),
    "ccz": GateKind(3, "ccz", False, (((0, 1, 2), (), 4),)),
}

T_KINDS = frozenset(kind for kind, spec in GATES.items() if spec.is_t)


class Gate(namedtuple("Gate", "kind qubits")):
    """An immutable (kind, qubits) value: a gate kind on a tuple of wires."""

    __slots__ = ()

    def inverse(self) -> Gate:
        """The inverse gate; a self-inverse kind returns this very object."""
        kind = GATES[self.kind].inverse
        return self if kind == self.kind else Gate(kind, self.qubits)

    def __str__(self) -> str:
        return " ".join((self.kind, *map(str, self.qubits)))


class Circuit(namedtuple("Circuit", "n_main n_anc gates")):
    """An ordered gate list over n_main working wires and n_anc ancillas.

    Ancillas occupy indices n_main .. n_main+n_anc-1. Instances are
    immutable values; every metric and transformation is a pure function.
    This constructor is the one place a gate is checked: its kind is in
    `GATES`, it has that kind's arity, and its wires are distinct and in
    range; a bad gate raises ValueError. Counts and wires must be of type
    int exactly (not bool or float, so that `emit` writes what `parse`
    reads), and wires come in a tuple; anything else raises TypeError.
    Each distinct gate is checked once, in order of first occurrence, so
    the gate reported is the first bad one in the list.
    """

    __slots__ = ()

    def __new__(cls, n_main: int, n_anc: int = 0, gates: Sequence[Gate] = ()) -> Circuit:
        gates = tuple(gates)
        if type(n_main) is not int or type(n_anc) is not int:
            raise TypeError(f"qubit counts must be ints, got {n_main!r} and {n_anc!r}")
        if n_main < 0 or n_anc < 0:
            raise ValueError("qubit counts must be non-negative")
        width = n_main + n_anc
        for gate in dict.fromkeys(gates):
            spec = GATES.get(gate.kind)
            if spec is None:
                raise ValueError(f"unknown gate kind {gate.kind!r}")
            qubits = gate.qubits
            if len(qubits) != spec.arity:
                raise ValueError(
                    f"gate {gate.kind!r} expects {spec.arity} qubits, got {len(qubits)}"
                )
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"gate {gate.kind!r} repeats a qubit: {qubits}")
            for q in qubits:
                if type(q) is not int:
                    raise TypeError(f"gate '{gate}' uses qubit {q!r}, which is not an int")
                if not 0 <= q < width:
                    raise ValueError(
                        f"gate '{gate}' uses qubit {q}, but the circuit has "
                        f"width {width}"
                    )
        return super().__new__(cls, n_main, n_anc, gates)

    @classmethod
    def _make(cls, fields: Iterable) -> Circuit:
        return cls(*fields)  # _replace calls this, so both check like the constructor

    @property
    def width(self) -> int:
        return self.n_main + self.n_anc


class Metrics(namedtuple(
    "Metrics", "t_count t_depth_as_written t_depth_scheduled depth gate_count n_main n_anc"
)):
    __slots__ = ()


def t_count(c: Circuit) -> int:
    """Number of t/tdg gates; t and tdg count alike."""
    return sum(g.kind in T_KINDS for g in c.gates)


def t_depth_as_written(c: Circuit) -> int:
    """T-stages read off the literal gate list.

    A stage is a contiguous run of t/tdg gates on distinct qubits; any
    other gate ends the current run, and a repeated qubit starts a new
    stage. This literal reading is invariant under taking the adjoint.
    """
    stages = 0
    current: set[int] | None = None
    for gate in c.gates:
        if gate.kind in T_KINDS:
            q = gate.qubits[0]
            if current is None or q in current:
                current = {q}
                stages += 1
            else:
                current.add(q)
        else:
            current = None
    return stages


def t_depth_scheduled(c: Circuit) -> int:
    """T-stages after packing T gates as early as their wire chains allow.

    Per-wire stage counters: a non-T gate synchronises the counters of its
    wires (it costs no stage), a t/tdg gate bumps its wire by one. The
    result is the longest T-chain in the qubit-sharing partial order, an
    upper bound on the true minimal T-depth and independent of how gates
    on disjoint wires happen to be interleaved. Only wires that gates touch
    get a counter, so the declared width costs nothing. A one-qubit non-T
    gate synchronises its wire with itself, so it is skipped.
    """
    level: defaultdict[int, int] = defaultdict(int)
    for gate in c.gates:
        qubits = gate.qubits
        if len(qubits) == 1:
            if gate.kind in T_KINDS:
                level[qubits[0]] += 1
        elif len(qubits) == 2:
            # The commonest case, synchronised without building a list.
            a, b = qubits
            la, lb = level[a], level[b]
            if la < lb:
                level[a] = lb
            elif lb < la:
                level[b] = la
        else:
            peak = max([level[q] for q in qubits])
            for q in qubits:
                level[q] = peak
    return max(level.values(), default=0)


def depth(c: Circuit) -> int:
    """Layers of the as-soon-as-possible schedule (all gates cost 1)."""
    busy_until: defaultdict[int, int] = defaultdict(int)
    total = 0
    for gate in c.gates:
        qubits = gate.qubits
        layer = 1 + max([busy_until[q] for q in qubits])
        for q in qubits:
            busy_until[q] = layer
        if layer > total:
            total = layer
    return total


class GateMemo(dict):
    """Maps each gate to ``fn(gate)``, computed on the gate's first lookup.

    ``map(GateMemo(fn).__getitem__, gates)`` hashes each gate once and calls
    ``fn`` once per distinct value, sharing its result between equal gates.
    """

    def __init__(self, fn: Callable[[Gate], object]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, gate: Gate):
        value = self[gate] = self.fn(gate)
        return value


def invert_gates(gates: Sequence[Gate]) -> tuple[Gate, ...]:
    """Reversed gate list with each gate replaced by its inverse kind.

    Each distinct gate is inverted once and its inverse shared.
    """
    return tuple(map(GateMemo(Gate.inverse).__getitem__, reversed(gates)))


def dagger(c: Circuit) -> Circuit:
    """The adjoint circuit; composing c then dagger(c) is the identity."""
    return Circuit(c.n_main, c.n_anc, invert_gates(c.gates))


def metrics(c: Circuit) -> Metrics:
    return Metrics(
        t_count=t_count(c),
        t_depth_as_written=t_depth_as_written(c),
        t_depth_scheduled=t_depth_scheduled(c),
        depth=depth(c),
        gate_count=len(c.gates),
        n_main=c.n_main,
        n_anc=c.n_anc,
    )
