"""Expectation-value certificates against single-T-stage implementations.

The test measures the Pauli X observable on wire 0 of a circuit run on
|phi> (x) |0...0> for phi in {|0>, |+>}. Both ways start from |0...0>
and prepare |phi> with gates (none for |0>, h on wire 0 for |+>):

  direct      simulate the preparation, the circuit and one more h on
              wire 0, which turns X_0 into Z_0, and sum +-|amplitude|^2
  pauli path  conjugate X_0 backwards through the circuit and the
              preparation: Clifford gates map signed Pauli strings to
              signed Pauli strings, each t/tdg expands an X or Y letter
              into two terms that share one factor of 1/sqrt2, and a term
              whose letters are all I or Z counts its sign

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
from collections.abc import Iterable
from fractions import Fraction
from itertools import product

from .circuit import T_KINDS, Circuit, Gate, width_cap
from .ring import RealValue, RingScalar, ratio_is_rational
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
    def _make(cls, fields: Iterable) -> PauliString:
        return cls(*fields)  # _replace calls this, so both check like the constructor

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
        elif gate.kind in _CONJ:
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


# Clifford kinds map Pauli strings to signed Pauli strings under
# conjugation. _CONJ[kind] maps the word of letters that P has on the gate's
# wires (control first) to (sign, image word) for g^dagger P g; a word not
# listed is fixed. Its keys are the Clifford vocabulary.
_CONJ: dict[str, dict[str, tuple[int, str]]] = {
    "x": {"Y": (-1, "Y"), "Z": (-1, "Z")},
    "y": {"X": (-1, "X"), "Z": (-1, "Z")},
    "z": {"X": (-1, "X"), "Y": (-1, "Y")},
    "h": {"X": (1, "Z"), "Y": (-1, "Y"), "Z": (1, "X")},
    "s": {"X": (-1, "Y"), "Y": (1, "X")},
    "sdg": {"X": (1, "Y"), "Y": (-1, "X")},
    "cx": {
        "IY": (1, "ZY"), "IZ": (1, "ZZ"), "XI": (1, "XX"), "XX": (1, "XI"),
        "XY": (1, "YZ"), "XZ": (-1, "YY"), "YI": (1, "YX"), "YX": (1, "YI"),
        "YY": (-1, "XZ"), "YZ": (1, "XY"), "ZY": (1, "IY"), "ZZ": (1, "IZ"),
    },
    "cz": {
        "IX": (1, "ZX"), "IY": (1, "ZY"), "XI": (1, "XZ"), "XX": (1, "YY"),
        "XY": (-1, "YX"), "XZ": (1, "XI"), "YI": (1, "YZ"), "YX": (-1, "XY"),
        "YY": (1, "XX"), "YZ": (1, "YI"), "ZX": (1, "IX"), "ZY": (1, "IY"),
    },
    "swap": {
        "IX": (1, "XI"), "IY": (1, "YI"), "IZ": (1, "ZI"), "XI": (1, "IX"),
        "XY": (1, "YX"), "XZ": (1, "ZX"), "YI": (1, "IY"), "YX": (1, "XY"),
        "YZ": (1, "ZY"), "ZI": (1, "IZ"), "ZX": (1, "XZ"), "ZY": (1, "YZ"),
    },
}


def conjugate_clifford(p: PauliString, g: Gate) -> PauliString:
    """g^dagger p g for a Clifford gate, by one lookup in its image table."""
    images = _CONJ.get(g.kind)
    if images is None:
        raise NotClifford(f"{g.kind!r} is not in the Clifford vocabulary")
    word = "".join(p.letters[q] for q in g.qubits)
    sign, image = images.get(word, (1, word))
    letters = list(p.letters)
    for q, letter in zip(g.qubits, image):
        letters[q] = letter
    return PauliString(p.sign * sign, tuple(letters))


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


def conjugate_clifford_chain(p: PauliString, segment: Circuit) -> PauliString:
    """Fold g^dagger p g over a Clifford segment, last-applied gate first."""
    for gate in reversed(segment.gates):
        p = conjugate_clifford(p, gate)
    return p


_H0 = Gate("h", (0,))


def _preparation(phi: str, width: int) -> tuple[Gate, ...]:
    """The gates that take |0...0> to |phi> (x) |0...0>: none for |0>, h on wire 0 for |+>."""
    if phi not in ("zero", "plus"):
        raise ValueError("phi must be 'zero' or 'plus'")
    if not width:
        raise WidthMismatch("X_0 acts on wire 0, but the circuit has no wires")
    return (_H0,) if phi == "plus" else ()


def expectation_pauli_path(split: SplitCircuit, phi: str) -> RealValue:
    """<phi,0..0| U^dagger X_0 U |phi,0..0> via backward conjugation.

    The terms that count add their signs, so the result is an integer times
    (1/sqrt2)^k.
    """
    pre = split.pre_clifford
    pre = pre._replace(gates=_preparation(phi, pre.width) + pre.gates)
    observable = PauliString.x_on(0, pre.width)
    observable = conjugate_clifford_chain(observable, split.post_clifford)
    expansion = conjugate_tlayer(observable, split.t_layer)
    total = 0
    for term in expansion.terms:
        term = conjugate_clifford_chain(term, pre)
        if all(letter in "IZ" for letter in term.letters):
            total += term.sign
    return RingScalar(total, 0, 0, 0, expansion.k).to_real()


def expectation_direct(c: Circuit, phi: str) -> RealValue:
    """<psi| X_0 |psi> for psi = c(|phi> (x) |0...0>), by simulation.

    The sum of +-|amplitude|^2, minus where wire 0 holds 1, is two integers
    over the state's 2^k: |(w + x*omega + y*omega^2 + z*omega^3)/sqrt2^k|^2 is
    (w^2 + x^2 + y^2 + z^2 + (wx + xy + yz - zw)*sqrt2) / 2^k. TooWide is raised
    before anything is simulated when the declared width (main plus ancillas)
    is over the width cap, even if the gates touch only a few wires.
    """
    n = c.width
    if n > width_cap():
        raise TooWide(f"{n} qubits exceeds the simulation width cap")
    run = c._replace(gates=_preparation(phi, n) + c.gates + (_H0,))
    _, amps, k = apply_circuit(ExactState.basis(n, 0), run)
    top = 1 << (n - 1)
    p = q = 0
    for index, (w, x, y, z) in amps.items():
        sign = -1 if index & top else 1
        p += (w * w + x * x + y * y + z * z) * sign
        q += (w * x + x * y + y * z - z * w) * sign
    return RealValue(Fraction(p, 1 << k), Fraction(q, 1 << k))


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
