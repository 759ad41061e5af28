"""Builders for the low-T-depth circuit library.

Every builder returns a plain Circuit over the common gate set, with its
ancilla block declared, and is checked in the test suite against an exact
oracle (a primitive gate matrix, a phase diagonal, or a brute-force
permutation) that the suite builds without the library's gate table.
`CONSTRUCTIONS` names them; the names double as the command-line `emit`
vocabulary.

The single-stage doubly-controlled pieces follow one template: CNOTs fan
the needed parities onto wires, one stage of t/tdg applies all the
eighth-root phases at once, and the mirrored CNOTs uncompute.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from .circuit import Circuit, DomainError, Gate, invert_gates

# The most controls multi_controlled_x builds, at about 28 gates each.
# Emitting 10000 stays well inside a 1 GiB address space; 10^8 does not.
MAX_CONTROLS = 10000


class UnknownConstruction(DomainError, ValueError):
    pass


class BadParams(DomainError, ValueError):
    pass


class NotAControlledCircuit(DomainError):
    """add_control requires qubit 0 of the inner circuit to be a control."""


def _g(kind: str, *qubits: int) -> Gate:
    return Gate(kind, qubits)


def toffoli_nc() -> Circuit:
    """The textbook 7-T Toffoli with its serial T stages."""
    return Circuit(3, 0, (
        _g("h", 2), _g("cx", 1, 2), _g("tdg", 2), _g("cx", 0, 2),
        _g("t", 2), _g("cx", 1, 2), _g("tdg", 2), _g("cx", 0, 2),
        _g("t", 2), _g("tdg", 1), _g("h", 2), _g("cx", 0, 1),
        _g("tdg", 1), _g("cx", 0, 1), _g("s", 1), _g("t", 0),
    ))


def toffoli_nc4() -> Circuit:
    """The same Toffoli with commuting gates packed into four T stages."""
    return Circuit(3, 0, (
        _g("h", 2), _g("cx", 1, 2), _g("tdg", 2), _g("cx", 0, 2),
        _g("t", 2), _g("cx", 1, 2), _g("tdg", 2), _g("tdg", 1),
        _g("cx", 0, 2), _g("cx", 0, 1), _g("t", 2), _g("tdg", 1),
        _g("t", 0), _g("cx", 0, 1), _g("h", 2), _g("s", 1),
    ))


def toffoli_ammr() -> Circuit:
    """The ancilla-free three-stage Toffoli."""
    return Circuit(3, 0, (
        _g("h", 2), _g("t", 2), _g("t", 1), _g("tdg", 0),
        _g("cx", 0, 1), _g("cx", 2, 0), _g("tdg", 0), _g("cx", 1, 2),
        _g("cx", 1, 0), _g("t", 2), _g("tdg", 1), _g("tdg", 0),
        _g("cx", 2, 0), _g("cx", 1, 2), _g("s", 0), _g("h", 2),
        _g("cx", 0, 1),
    ))


def _ccz_tdepth1_gates(x: int, y: int, z: int, a: tuple[int, int, int, int]) -> tuple[Gate, ...]:
    """CCZ as one T stage: fan out the four parities, phase, mirror back.

    Ancillas receive x^y^z, x^y, y^z, x^z; the CNOT network is arranged in
    three layers so the whole block schedules at depth 7 (with slack on the
    z wire for a basis-change Hadamard on either side).
    """
    p_xyz, p_xy, p_yz, p_xz = a
    compute = (
        _g("cx", x, p_xyz), _g("cx", y, p_yz),
        _g("cx", z, p_yz), _g("cx", x, p_xy), _g("cx", p_xyz, p_xz),
        _g("cx", p_yz, p_xyz), _g("cx", y, p_xy), _g("cx", z, p_xz),
    )
    stage = (
        _g("t", x), _g("t", y), _g("t", z), _g("t", p_xyz),
        _g("tdg", p_xy), _g("tdg", p_yz), _g("tdg", p_xz),
    )
    return compute + stage + invert_gates(compute)


def ccz_tdepth1() -> Circuit:
    """Doubly-controlled Z in a single T stage, four ancillas."""
    return Circuit(3, 4, _ccz_tdepth1_gates(0, 1, 2, (3, 4, 5, 6)))


def toffoli_tdepth1() -> Circuit:
    """Toffoli in a single T stage and overall depth 7, four ancillas."""
    body = _ccz_tdepth1_gates(0, 1, 2, (3, 4, 5, 6))
    return Circuit(3, 4, (_g("h", 2),) + body + (_g("h", 2),))


def _cc_minus_iz_gates(x: int, y: int, z: int, anc: int | None) -> tuple[Gate, ...]:
    """Doubly-controlled -iZ: controls x,y and Z-wire z, four t/tdg total.

    With an ancilla the four phases run as one stage (depth 5); without,
    the x wire is reused for two parities and the stage splits in two
    (depth 7, fewer gates).
    """
    if anc is not None:
        compute = (_g("cx", z, y), _g("cx", x, anc), _g("cx", z, x), _g("cx", y, anc))
        stage = (_g("tdg", x), _g("tdg", y), _g("t", z), _g("t", anc))
        return compute + stage + invert_gates(compute)
    return (
        _g("cx", z, y), _g("cx", y, x),
        _g("t", x), _g("tdg", y), _g("t", z),
        _g("cx", z, y), _g("cx", y, x),
        _g("tdg", x), _g("cx", z, x),
    )


def cc_minus_iz(use_ancilla: bool = True) -> Circuit:
    """Doubly-controlled -iZ on (controls 0,1; wire 2)."""
    return Circuit(3, int(use_ancilla), _cc_minus_iz_gates(0, 1, 2, 3 if use_ancilla else None))


def _cc_minus_ix_gates(x: int, y: int, target: int, anc: int | None) -> tuple[Gate, ...]:
    inner = _cc_minus_iz_gates(x, y, target, anc)
    return (_g("h", target),) + inner + (_g("h", target),)


def cc_minus_ix(use_ancilla: bool = True) -> Circuit:
    """Doubly-controlled -iX on (controls 0,1; target 2)."""
    return Circuit(3, int(use_ancilla), _cc_minus_ix_gates(0, 1, 2, 3 if use_ancilla else None))


def _check_controlled(g: Circuit) -> None:
    """Require the induced operator to be identity when qubit 0 is |0>."""
    # Only add-control and controlled-t simulate; other emits load neither module.
    from .ring import ONE
    from .sim import induced_columns

    if g.n_main < 1:
        raise NotAControlledCircuit("inner circuit has no main qubits")
    columns = induced_columns(g)
    pure = all(col == {x: ONE} for x, col in zip(range(1 << (g.n_main - 1)), columns))
    deque(columns, maxlen=0)  # the ancilla contract is checked on every input first
    if not pure:
        raise NotAControlledCircuit("qubit 0 of the inner circuit is not a pure control")


def add_control(g: Circuit, use_ancilla: bool = True) -> Circuit:
    """Add one more control to a circuit whose qubit 0 is already a control.

    The two controls are folded onto a fresh conjunction ancilla by a
    doubly-controlled -iX, the inner circuit runs with the ancilla as its
    control, and the mirrored doubly-controlled iX cancels the phases and
    restores the ancilla. Adds 8 t/tdg gates, at most 2 extra T stages,
    and 28 gates to the inner circuit's own (22 added without the inner
    parity ancilla, at a depth and T-stage premium).
    """
    _check_controlled(g)
    m = g.n_main
    conj = m + 1 + g.n_anc
    parity = conj + 1 if use_ancilla else None
    n_anc = g.n_anc + (2 if use_ancilla else 1)

    fold = _cc_minus_ix_gates(0, 1, conj, parity)
    inner = tuple(
        Gate(gate.kind, tuple(conj if q == 0 else q + 1 for q in gate.qubits))
        for gate in g.gates
    )
    return Circuit(m + 1, n_anc, fold + inner + invert_gates(fold))


def multi_controlled_x(k: int, use_ancilla: bool = True) -> Circuit:
    """X on a target wire controlled on k wires, 7 + 8(k-2) t/tdg for k >= 2.

    Controls are folded pairwise onto conjunction ancillas, all folds of a
    round sharing one T stage, until two wires remain for a single-stage
    Toffoli core; the folds then unwind in reverse. Rounds double the
    handled controls, so the T-depth grows as 1 + 2*ceil(log2(k) - 1).
    """
    if k < 1:
        raise BadParams("control count must be at least 1")
    if k > MAX_CONTROLS:
        raise BadParams(f"control count must be at most {MAX_CONTROLS}")
    if k == 1:
        return Circuit(2, 0, (_g("cx", 0, 1),))

    # Wires k+1 .. 2k-2 collect the conjunctions; the pool after them gives
    # each fold of a round its parity wire, and the core its first four.
    target = k
    pool = range(2 * k - 1, 2 * k - 1 + max(4, k // 2))
    wires = list(range(k))
    collector = k + 1
    folds: list[Gate] = []
    while len(wires) > 2:
        pairs = len(wires) // 2
        for slot in range(pairs):
            u, v = wires[2 * slot], wires[2 * slot + 1]
            parity = pool[slot] if use_ancilla else None
            folds += _cc_minus_ix_gates(u, v, collector + slot, parity)
        wires = [*range(collector, collector + pairs), *wires[2 * pairs:]]
        collector += pairs
    core = _ccz_tdepth1_gates(wires[0], wires[1], target, tuple(pool[:4]))
    gates = (*folds, _g("h", target), *core, _g("h", target), *invert_gates(tuple(folds)))
    return Circuit(k + 1, k - 2 + len(pool), gates)


def controlled_t(use_ancilla: bool = True) -> Circuit:
    """Controlled T on (control 0, target 1), nine t/tdg gates.

    T fixes |0>, so it is itself a controlled phase; adding a control to
    the one-gate circuit sandwiches a single T between the conjunction
    folds. The ancilla form costs 9 T, T-depth 3, depth 15, 29 gates and
    2 ancillas; the no-ancilla form (one 11-gate fold on each side of the
    t) costs 9 T, T-depth 5, depth 19, 23 gates and 1 ancilla.
    """
    return add_control(Circuit(1, 0, (_g("t", 0),)), use_ancilla=use_ancilla)


def _one_form(builder: Callable[[], Circuit]) -> Callable[[bool], Circuit]:
    """A registry entry with no ancilla-free variant: use_ancilla is ignored."""
    return lambda use_ancilla: builder()


# Name -> builder(use_ancilla), in the order `tdo emit --help` lists them;
# multi-controlled-x's builder takes the control count first.
CONSTRUCTIONS: dict[str, Callable[..., Circuit]] = {
    "toffoli-nc": _one_form(toffoli_nc),
    "toffoli-nc4": _one_form(toffoli_nc4),
    "toffoli-ammr": _one_form(toffoli_ammr),
    "ccz-tdepth1": _one_form(ccz_tdepth1),
    "toffoli-tdepth1": _one_form(toffoli_tdepth1),
    "cc-minus-iz": cc_minus_iz,
    "cc-minus-iz-noanc": _one_form(lambda: cc_minus_iz(use_ancilla=False)),
    "cc-minus-ix": cc_minus_ix,
    # Library demo: one more control on a CNOT gives a Toffoli.
    "add-control": lambda use_ancilla: add_control(
        Circuit(2, 0, (_g("cx", 0, 1),)), use_ancilla=use_ancilla
    ),
    "multi-controlled-x": multi_controlled_x,
    "controlled-t": controlled_t,
}


def build(name: str, *, controls: int | None = None, use_ancilla: bool = True) -> Circuit:
    """Materialise the named construction; see CONSTRUCTIONS.

    Only multi-controlled-x takes a control count, and it requires one.
    """
    builder = CONSTRUCTIONS.get(name)
    if builder is None:
        raise UnknownConstruction(f"unknown construction {name!r}")
    if (name == "multi-controlled-x") != (controls is not None):
        raise BadParams(
            "'multi-controlled-x' takes a control count; other constructions do not"
        )
    if controls is None:
        return builder(use_ancilla)
    return builder(controls, use_ancilla)
