"""Expectation-value certificates against single-T-stage implementations.

The test measures the Pauli X observable on wire 0 of a circuit run on
|phi> (x) |0...0> for phi in {|0>, |+>}, in two independent ways:

  direct      exact state simulation of <psi| X_0 |psi>
  pauli path  conjugate X_0 backwards through the circuit: Clifford gates
              map signed Pauli strings to signed Pauli strings, and each
              t/tdg expands an X or Y letter into two terms that share one
              factor of 1/sqrt2

For any circuit shaped as Clifford gates, one block of t/tdg on distinct
qubits, then Clifford gates, the path form shows both expectations equal
an integer times the same (1/sqrt2)^k. Their ratio, when defined, is
therefore rational. Contrapositive: a single-wire operator whose exact
expectation ratio is irrational cannot be realised by any such circuit on
the wire plus fresh |0> ancillas, even ancillas that never return to |0>.
The ratio test is one-sided: a rational ratio certifies nothing.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .circuit import GATES, T_KINDS, Circuit, Gate, width_cap
from .ring import INV_SQRT2, ZERO, RealValue, RingScalar, ratio_is_rational
from .sim import ExactState, TooWide, WidthMismatch, apply_circuit

NO_TDEPTH1 = "no-tdepth1-possible"
INCONCLUSIVE = "inconclusive"
INAPPLICABLE = "inapplicable-e-plus-zero"

_LETTERS = ("I", "X", "Y", "Z")


class NotClifford(Exception):
    pass


class NotTDepthOneShape(Exception):
    """The gate list is not Clifford*, one T block, Clifford*."""

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"gate at position {position}: {message}")
        self.position = position


class PauliString(namedtuple("PauliString", "sign letters")):
    """A signed tensor product of I/X/Y/Z letters, one per qubit."""

    __slots__ = ()

    def __new__(cls, sign: int, letters: tuple[str, ...]) -> PauliString:
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if any(letter not in _LETTERS for letter in letters):
            raise ValueError("letters must be I, X, Y, or Z")
        return super().__new__(cls, sign, letters)

    @classmethod
    def x_on(cls, qubit: int, n: int) -> PauliString:
        letters = ["I"] * n
        letters[qubit] = "X"
        return cls(1, tuple(letters))


class PauliSum(namedtuple("PauliSum", "k terms")):
    """(1/sqrt2)^k times a list of signed Pauli strings, duplicates kept."""

    __slots__ = ()


class SplitCircuit(namedtuple("SplitCircuit", "pre_clifford t_layer post_clifford")):
    """A circuit cut as pre-Clifford, one T stage, post-Clifford.

    ``pre_clifford`` is applied first and ``post_clifford`` last; the
    observable is conjugated through them in the opposite order.
    ``t_layer`` is the stage as sorted (qubit, kind) pairs.
    """

    __slots__ = ()


def split_tdepth1(c: Circuit) -> SplitCircuit:
    """Cut a gate list into Clifford*, T block, Clifford*; error otherwise."""
    pre: list[Gate] = []
    layer: list[tuple[int, str]] = []
    post: list[Gate] = []
    phase = 0  # 0: pre, 1: inside T block, 2: post
    for position, gate in enumerate(c.gates):
        if gate.kind in T_KINDS:
            if phase == 2:
                raise NotTDepthOneShape(position, "second T stage")
            phase = 1
            qubit = gate.qubits[0]
            if any(q == qubit for q, _ in layer):
                raise NotTDepthOneShape(position, f"qubit {qubit} repeated in the T block")
            layer.append((qubit, gate.kind))
        elif GATES[gate.kind].is_clifford:
            if phase == 1:
                phase = 2
            (pre if phase == 0 else post).append(gate)
        else:
            raise NotTDepthOneShape(position, f"{gate.kind!r} is neither Clifford nor t/tdg")
    return SplitCircuit(
        Circuit(c.n_main, c.n_anc, tuple(pre)),
        tuple(sorted(layer)),
        Circuit(c.n_main, c.n_anc, tuple(post)),
    )


# Images of single letters under g^dagger P g, as (sign, letter).
_CONJ_1Q: dict[str, dict[str, tuple[int, str]]] = {
    "x": {"X": (1, "X"), "Y": (-1, "Y"), "Z": (-1, "Z")},
    "y": {"X": (-1, "X"), "Y": (1, "Y"), "Z": (-1, "Z")},
    "z": {"X": (-1, "X"), "Y": (-1, "Y"), "Z": (1, "Z")},
    "h": {"X": (1, "Z"), "Y": (-1, "Y"), "Z": (1, "X")},
    "s": {"X": (-1, "Y"), "Y": (1, "X"), "Z": (1, "Z")},
    "sdg": {"X": (1, "Y"), "Y": (-1, "X"), "Z": (1, "Z")},
}

# Two-qubit images of single-wire letters as (letter1, letter2); signs are +1.
_CX_CONTROL = {"I": ("I", "I"), "X": ("X", "X"), "Y": ("Y", "X"), "Z": ("Z", "I")}
_CX_TARGET = {"I": ("I", "I"), "X": ("I", "X"), "Y": ("Z", "Y"), "Z": ("Z", "Z")}
_CZ_FIRST = {"I": ("I", "I"), "X": ("X", "Z"), "Y": ("Y", "Z"), "Z": ("Z", "I")}
_CZ_SECOND = {"I": ("I", "I"), "X": ("Z", "X"), "Y": ("Z", "Y"), "Z": ("I", "Z")}

# Pauli products P*Q as (power of i, letter).
_PAULI_MUL: dict[tuple[str, str], tuple[int, str]] = {}
for _l in _LETTERS:
    _PAULI_MUL[("I", _l)] = (0, _l)
    _PAULI_MUL[(_l, "I")] = (0, _l)
    _PAULI_MUL[(_l, _l)] = (0, "I")
_PAULI_MUL.update(
    {
        ("X", "Y"): (1, "Z"),
        ("Y", "X"): (3, "Z"),
        ("Y", "Z"): (1, "X"),
        ("Z", "Y"): (3, "X"),
        ("Z", "X"): (1, "Y"),
        ("X", "Z"): (3, "Y"),
    }
)


def _combine_pair(
    first: tuple[str, str], second: tuple[str, str]
) -> tuple[int, str, str]:
    i1, l1 = _PAULI_MUL[(first[0], second[0])]
    i2, l2 = _PAULI_MUL[(first[1], second[1])]
    ipow = (i1 + i2) % 4
    if ipow == 0:
        return 1, l1, l2
    if ipow == 2:
        return -1, l1, l2
    raise AssertionError("Clifford conjugation produced a residual phase i")


def conjugate_clifford(p: PauliString, g: Gate) -> PauliString:
    """g^dagger p g for a Clifford gate, by tableau update rules."""
    if not GATES[g.kind].is_clifford:
        raise NotClifford(f"{g.kind!r} is not in the Clifford vocabulary")
    letters = list(p.letters)
    sign = p.sign
    if g.kind in _CONJ_1Q:
        q = g.qubits[0]
        if letters[q] != "I":
            s, letters[q] = _CONJ_1Q[g.kind][letters[q]]
            sign *= s
    elif g.kind == "swap":
        a, b = g.qubits
        letters[a], letters[b] = letters[b], letters[a]
    else:
        a, b = g.qubits
        table1, table2 = (_CX_CONTROL, _CX_TARGET) if g.kind == "cx" else (_CZ_FIRST, _CZ_SECOND)
        s, letters[a], letters[b] = _combine_pair(table1[letters[a]], table2[letters[b]])
        sign *= s
    return PauliString(sign, tuple(letters))


# Expansion of letters through one t or tdg on the same wire: each entry is
# the pair of (sign, letter) branches sharing a 1/sqrt2.
_T_EXPANSION = {
    ("t", "X"): ((1, "X"), (-1, "Y")),
    ("t", "Y"): ((1, "X"), (1, "Y")),
    ("tdg", "X"): ((1, "X"), (1, "Y")),
    ("tdg", "Y"): ((-1, "X"), (1, "Y")),
}


def conjugate_tlayer(p: PauliString, layer: tuple[tuple[int, str], ...]) -> PauliSum:
    """Expand a Pauli string through one stage of t/tdg gates.

    Letters I and Z pass through unchanged; each X or Y on a stage qubit
    splits into two branches with a shared factor of 1/sqrt2, so the
    result has 2^k terms for k such letters.
    """
    kinds = dict(layer)
    branch_sets = []
    positions = []
    for qubit, kind in sorted(kinds.items()):
        letter = p.letters[qubit]
        if letter in ("X", "Y"):
            positions.append(qubit)
            branch_sets.append(_T_EXPANSION[(kind, letter)])
    k = len(positions)
    terms = []
    for choice in product(*branch_sets):
        letters = list(p.letters)
        sign = p.sign
        for qubit, (s, letter) in zip(positions, choice):
            letters[qubit] = letter
            sign *= s
        terms.append(PauliString(sign, tuple(letters)))
    return PauliSum(k, tuple(terms))


_FACTOR_ZERO = {"I": 1, "Z": 1, "X": 0, "Y": 0}
_FACTOR_PLUS = {"I": 1, "X": 1, "Y": 0, "Z": 0}


def conjugate_clifford_chain(p: PauliString, segment: Circuit) -> PauliString:
    """Fold g^dagger p g over a Clifford segment, last-applied gate first."""
    for gate in reversed(segment.gates):
        p = conjugate_clifford(p, gate)
    return p


def expectation_pauli_path(split: SplitCircuit, phi: str) -> RealValue:
    """<phi,0..0| U^dagger X_0 U |phi,0..0> via backward conjugation.

    Every term contributes sign times a product of single-qubit factors
    (<0|letter|0> off wire 0, <phi|letter|phi> on it), so the sum is an
    integer and the result that integer times (1/sqrt2)^k.
    """
    if phi not in ("zero", "plus"):
        raise ValueError("phi must be 'zero' or 'plus'")
    n = split.pre_clifford.width
    observable = PauliString.x_on(0, n)
    observable = conjugate_clifford_chain(observable, split.post_clifford)
    expansion = conjugate_tlayer(observable, split.t_layer)
    first_factor = _FACTOR_PLUS if phi == "plus" else _FACTOR_ZERO
    total = 0
    for term in expansion.terms:
        term = conjugate_clifford_chain(term, split.pre_clifford)
        value = term.sign * first_factor[term.letters[0]]
        if value:
            for letter in term.letters[1:]:
                if _FACTOR_ZERO[letter] == 0:
                    value = 0
                    break
        total += value
    return RingScalar(total, 0, 0, 0, expansion.k).to_real()


def _initial_state(c: Circuit, phi: str) -> ExactState:
    n = c.width
    if phi == "zero":
        return ExactState.basis(n, 0)
    if phi == "plus":
        top = 1 << (n - 1)
        return ExactState(n, {0: INV_SQRT2, top: INV_SQRT2})
    raise ValueError("phi must be 'zero' or 'plus'")


def expectation_direct(c: Circuit, phi: str) -> RealValue:
    """<psi| X_0 |psi> for psi = c(|phi> (x) |0...0>), by simulation."""
    n = c.width
    if n > width_cap():
        raise TooWide(f"{n} qubits exceeds the simulation width cap")
    state = apply_circuit(_initial_state(c, phi), c)
    top = 1 << (n - 1)
    total = ZERO
    for index, amp in state._amps.items():
        partner = state.amplitude(index ^ top)
        if partner.is_zero:
            continue
        total = total + amp.conjugate() * partner
    return total.to_real()


class Verdict(namedtuple("Verdict", "e_zero e_plus ratio_rational conclusion")):
    """Outcome of the rationality test on a single-wire operator.

    ``ratio_rational`` is None when e_plus is zero; ``conclusion`` is one
    of NO_TDEPTH1, INCONCLUSIVE and INAPPLICABLE.
    """

    __slots__ = ()


def obstruction_verdict(c: Circuit) -> Verdict:
    """Decide whether a one-main-qubit circuit rules out a single T stage.

    Ancillas are free and need not be restored. An irrational ratio
    e_zero/e_plus certifies that no Clifford+T circuit with one T stage
    and fresh ancillas implements the same single-wire behaviour; a
    rational ratio (or e_plus = 0) decides nothing.
    """
    if c.n_main != 1:
        raise WidthMismatch("the obstruction test takes a single-main-qubit circuit")
    e_zero = expectation_direct(c, "zero")
    e_plus = expectation_direct(c, "plus")
    if e_plus.is_zero:
        return Verdict(e_zero, e_plus, None, INAPPLICABLE)
    rational = ratio_is_rational(e_zero, e_plus)
    return Verdict(e_zero, e_plus, rational, INCONCLUSIVE if rational else NO_TDEPTH1)
