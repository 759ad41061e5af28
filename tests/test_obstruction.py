"""Pauli-path expectations and the irrationality certificate."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

import tdo.sim
from tdo.circuit import GATES, Circuit, invert_gates
from tdo.constructions import ccz_tdepth1
from tdo.obstruction import (
    INAPPLICABLE,
    INCONCLUSIVE,
    NO_TDEPTH1,
    NotClifford,
    NotTDepthOneShape,
    PauliString,
    conjugate_clifford,
    conjugate_tlayer,
    expectation_direct,
    expectation_pauli_path,
    obstruction_verdict,
    split_tdepth1,
)
from tdo.ring import INV_SQRT2, RealValue, RingScalar, ZERO, ratio_is_rational
from tdo.packed import run_packed
from tdo.sim import ExactMatrix, ExactState, TooWide, WidthMismatch, apply_circuit, induced_unitary

import reference_sim as ref
from conftest import CLIFFORD_POOL, gate, random_gate, random_tdepth1_circuit

THT = Circuit(1, 0, (gate("t", 0), gate("h", 0), gate("t", 0)))

_PAULI = {
    "I": ref.identity(2),
    "X": ref.gate_matrix("x"),
    "Y": ref.gate_matrix("y"),
    "Z": ref.gate_matrix("z"),
}


def _kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    dim = a.dim * b.dim
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            left = a.rows[i][j]
            if left.is_zero:
                continue
            for k in range(b.dim):
                for l in range(b.dim):
                    rows[i * b.dim + k][j * b.dim + l] = left * b.rows[k][l]
    return ExactMatrix(rows)


def _pauli_matrix(p: PauliString) -> ExactMatrix:
    m = _PAULI[p.letters[0]]
    for letter in p.letters[1:]:
        m = _kron(m, _PAULI[letter])
    return m.scaled(RingScalar(p.sign))


def _conjugated_matrix(kind: str, p: PauliString) -> ExactMatrix:
    g = ref.gate_matrix(kind)
    return ref.matmul(ref.adjoint(g), _pauli_matrix(p), g)


def _words(n: int) -> list[PauliString]:
    return [PauliString(1, letters) for letters in itertools.product("IXYZ", repeat=n)]


@functools.cache
def _is_clifford(kind: str) -> bool:
    """Whether U^dagger P U is +-a Pauli word for every word P, by matrices."""
    words = _words(GATES[kind].arity)
    signed = {_pauli_matrix(p._replace(sign=s)) for p in words for s in (1, -1)}
    return all(_conjugated_matrix(kind, p) in signed for p in words)


@pytest.mark.parametrize("kind", sorted(GATES))
def test_conjugation_accepts_exactly_the_clifford_kinds(kind):
    g = gate(kind, *range(GATES[kind].arity))
    for p in _words(GATES[kind].arity):
        if _is_clifford(kind):
            assert _pauli_matrix(conjugate_clifford(p, g)) == _conjugated_matrix(kind, p)
        else:
            with pytest.raises(NotClifford):
                conjugate_clifford(p, g)


@pytest.mark.parametrize("kind", sorted(GATES))
def test_split_refuses_exactly_the_kinds_neither_clifford_nor_t(kind):
    c = Circuit(GATES[kind].arity, 0, (gate(kind, *range(GATES[kind].arity)),))
    if _is_clifford(kind) or kind in ("t", "tdg"):
        split_tdepth1(c)
    else:
        with pytest.raises(NotTDepthOneShape) as excinfo:
            split_tdepth1(c)
        assert excinfo.value.position == 0


def test_pauli_string_rejects_other_letters():
    with pytest.raises(ValueError, match="letters must be I, X, Y, or Z"):
        PauliString(1, ("Q",))


def test_expectations_reject_other_inputs():
    c = Circuit(1, 0, (gate("t", 0),))
    with pytest.raises(ValueError, match="phi must be 'zero' or 'plus'"):
        expectation_pauli_path(split_tdepth1(c), "minus")
    with pytest.raises(ValueError, match="phi must be 'zero' or 'plus'"):
        expectation_direct(c, "minus")


def test_split_accepts_single_stage_shape():
    flat = Circuit(7, 0, ccz_tdepth1().gates)
    split = split_tdepth1(flat)
    assert len(split.t_layer) == 7
    assert len(split.pre_clifford.gates) == 8
    assert len(split.post_clifford.gates) == 8


def test_split_allows_pure_clifford():
    split = split_tdepth1(Circuit(2, 0, (gate("h", 0), gate("cx", 0, 1))))
    assert split.t_layer == ()
    assert split.post_clifford.gates == ()


def test_split_rejects_two_stages():
    with pytest.raises(NotTDepthOneShape) as excinfo:
        split_tdepth1(THT)
    assert excinfo.value.position == 2


def test_split_rejects_repeated_stage_qubit():
    with pytest.raises(NotTDepthOneShape):
        split_tdepth1(Circuit(1, 0, (gate("t", 0), gate("t", 0))))


def test_split_rejects_non_clifford_vocabulary():
    with pytest.raises(NotTDepthOneShape):
        split_tdepth1(Circuit(3, 0, (gate("ccx", 0, 1, 2),)))


@pytest.mark.parametrize("kind", ["x", "y", "z", "h", "s", "sdg"])
@pytest.mark.parametrize("letter", ["I", "X", "Y", "Z"])
def test_single_qubit_conjugation_matches_matrices(kind, letter):
    p = PauliString(1, (letter,))
    got = conjugate_clifford(p, gate(kind, 0))
    g = ref.gate_matrix(kind)
    assert _pauli_matrix(got) == ref.matmul(ref.adjoint(g), _pauli_matrix(p), g)


@pytest.mark.parametrize("kind", ["cx", "cz", "swap"])
def test_two_qubit_conjugation_matches_matrices(kind):
    g = ref.gate_matrix(kind)
    for l1, l2 in itertools.product("IXYZ", repeat=2):
        p = PauliString(1, (l1, l2))
        got = conjugate_clifford(p, gate(kind, 0, 1))
        assert _pauli_matrix(got) == ref.matmul(ref.adjoint(g), _pauli_matrix(p), g), (l1, l2)


def test_conjugation_rejects_non_clifford():
    with pytest.raises(NotClifford):
        conjugate_clifford(PauliString(1, ("X",)), gate("t", 0))


def test_hadamard_exchanges_x_and_z():
    assert conjugate_clifford(PauliString(1, ("X",)), gate("h", 0)).letters == ("Z",)


def test_phase_gate_mixes_x_and_y():
    # Exact 2x2 conjugation fixes the signs: S'XS = -Y and S'YS = X.
    assert conjugate_clifford(PauliString(1, ("X",)), gate("s", 0)) == PauliString(-1, ("Y",))
    assert conjugate_clifford(PauliString(1, ("Y",)), gate("s", 0)) == PauliString(1, ("X",))


def test_cnot_propagates_control_x():
    got = conjugate_clifford(PauliString(1, ("X", "I")), gate("cx", 0, 1))
    assert got == PauliString(1, ("X", "X"))


def test_tlayer_expansion_examples():
    one = conjugate_tlayer(PauliString(1, ("X",)), ((0, "t"),))
    assert one.k == 1
    assert set(one.terms) == {PauliString(1, ("X",)), PauliString(-1, ("Y",))}

    unchanged = conjugate_tlayer(PauliString(1, ("Z", "Z")), ((0, "t"), (1, "tdg")))
    assert unchanged.k == 0
    assert unchanged.terms == (PauliString(1, ("Z", "Z")),)

    four = conjugate_tlayer(PauliString(1, ("X", "Y")), ((0, "t"), (1, "t")))
    assert four.k == 2
    assert len(four.terms) == 4


@pytest.mark.parametrize("kind", ["t", "tdg"])
@pytest.mark.parametrize("letter", ["X", "Y"])
def test_tlayer_relations_match_matrix_oracle(kind, letter):
    expansion = conjugate_tlayer(PauliString(1, (letter,)), ((0, kind),))
    total = ExactMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    for term in expansion.terms:
        m = _pauli_matrix(term).scaled(INV_SQRT2)
        total = ExactMatrix(
            [[total.rows[i][j] + m.rows[i][j] for j in range(2)] for i in range(2)]
        )
    g = ref.gate_matrix(kind)
    assert total == ref.matmul(ref.adjoint(g), _pauli_matrix(PauliString(1, (letter,))), g)


def test_direct_expectation_identity_circuit():
    empty = Circuit(1)
    assert expectation_direct(empty, "zero") == RealValue(0)
    assert expectation_direct(empty, "plus") == RealValue(1)


def test_direct_expectation_tht_values():
    assert expectation_direct(THT, "zero") == RealValue(0, Fraction(1, 2))
    assert expectation_direct(THT, "plus") == RealValue(Fraction(1, 2))


def test_direct_expectation_hadamard():
    assert expectation_direct(Circuit(1, 0, (gate("h", 0),)), "plus") == RealValue(0)


def test_direct_expectation_width_cap():
    with pytest.raises(TooWide):
        expectation_direct(Circuit(13), "zero")


def test_expectations_refuse_a_circuit_with_no_wires():
    for phi in ("zero", "plus"):
        with pytest.raises(WidthMismatch, match="wire 0"):
            expectation_direct(Circuit(0), phi)
        with pytest.raises(WidthMismatch, match="wire 0"):
            expectation_pauli_path(split_tdepth1(Circuit(0)), phi)


@pytest.fixture
def packed(monkeypatch):
    """A list that gains an entry each time `apply_circuit` runs the packed kernel."""
    runs = []
    monkeypatch.setattr(tdo.sim, "run_packed", lambda *args: runs.append(1) or run_packed(*args))
    return runs


def test_direct_equals_reference_on_random_circuits(monkeypatch, packed):
    # Any gate mix, not only Clifford-T-Clifford, on every width up to 12:
    # sparse circuits with few h, and dense ones that open with h on every
    # wire. Both kernels run, and some values are irrational.
    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    rng = random.Random(21)
    kinds = sorted(GATES)
    sparse = [k for k in kinds if k != "h"]
    kernels, irrational = set(), 0
    for case in range(48):
        width = 12 - case % 12
        if case // 12 % 2:
            gates = [gate("h", q) for q in range(width)]
            gates += [random_gate(rng, width, kinds if rng.random() < 0.5 else ["h", "t"])
                      for _ in range(rng.randint(1, 40))]
        else:
            gates = [random_gate(rng, width, sparse if rng.random() < 0.85 else ["h"])
                     for _ in range(rng.randint(0, 60))]
        n_main = rng.randint(1, width)
        c = Circuit(n_main, width - n_main, tuple(gates))
        for phi in ("zero", "plus"):
            packed.clear()
            value = expectation_direct(c, phi)
            assert value == ref.x0_expectation(c, phi), (c, phi)
            kernels.add(bool(packed))
            irrational += not value.is_rational
    assert kernels == {False, True}
    assert irrational


def test_direct_equals_reference_when_the_appended_h_packs_the_state(packed):
    # On two lanes, one h leaves |0...0> sparse; the h that turns X_0 into
    # Z_0 makes it two, enough to fill the lanes, so the run packs.
    c = Circuit(1, 1, (gate("h", 0), gate("cx", 0, 1), gate("t", 1)))
    apply_circuit(ExactState.basis(2, 0), c)
    assert not packed
    assert expectation_direct(c, "zero") == ref.x0_expectation(c, "zero")
    assert packed


def test_path_equals_direct_on_parity_network():
    flat = Circuit(7, 0, ccz_tdepth1().gates)
    split = split_tdepth1(flat)
    for phi in ("zero", "plus"):
        assert expectation_pauli_path(split, phi) == expectation_direct(flat, phi)


def test_path_equals_direct_on_random_circuits(rng):
    for _ in range(60):
        c = random_tdepth1_circuit(rng)
        split = split_tdepth1(c)
        e_zero = expectation_pauli_path(split, "zero")
        e_plus = expectation_pauli_path(split, "plus")
        assert e_zero == expectation_direct(c, "zero")
        assert e_plus == expectation_direct(c, "plus")
        if not e_plus.is_zero:
            assert ratio_is_rational(e_zero, e_plus)


def test_path_equals_direct_on_dense_cap_wide_states(rng, monkeypatch):
    # obstruct-dense's shape at the default cap: 1 main + 11 ancillas, each
    # ancilla put in |+> first, so the states are dense over the 12 wires.
    # Conjugating the T stage by W keeps X_0 from ending on an ancilla X or
    # Y letter, which would make both expectations 0.
    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    width = 12
    nonzero = 0
    for _ in range(6):
        w = [random_gate(rng, width, CLIFFORD_POOL) for _ in range(60)]
        stage = [gate(rng.choice(["t", "tdg"]), q) for q in rng.sample(range(width), 6)]
        spread = [gate("h", q) for q in range(1, width)]
        c = Circuit(1, width - 1, tuple(spread + w + stage) + invert_gates(w))
        split = split_tdepth1(c)
        for phi in ("zero", "plus"):
            value = expectation_direct(c, phi)
            assert value == expectation_pauli_path(split, phi)
            nonzero += not value.is_zero
    assert nonzero


def test_tht_conjugated_observable_identity():
    u = induced_unitary(THT)
    x, y, z = _PAULI["X"], _PAULI["Y"], _PAULI["Z"]
    conjugated = ref.matmul(ref.adjoint(u), x, u)
    half = RingScalar(1, 0, 0, 0, 2)
    want = [
        [
            x.rows[i][j] * half
            + y.rows[i][j] * half
            + z.rows[i][j] * INV_SQRT2
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert conjugated == ExactMatrix(want)


def test_verdict_tht():
    verdict = obstruction_verdict(THT)
    assert verdict.e_zero == RealValue(0, Fraction(1, 2))
    assert verdict.e_plus == RealValue(Fraction(1, 2))
    assert verdict.ratio_rational is False
    assert verdict.conclusion == NO_TDEPTH1


def test_verdict_lone_t_is_inconclusive():
    verdict = obstruction_verdict(Circuit(1, 0, (gate("t", 0),)))
    assert verdict.e_zero == RealValue(0)
    assert verdict.e_plus == RealValue(0, Fraction(1, 2))
    assert verdict.conclusion == INCONCLUSIVE


def test_verdict_hadamard_is_inapplicable():
    verdict = obstruction_verdict(Circuit(1, 0, (gate("h", 0),)))
    assert verdict.conclusion == INAPPLICABLE
    assert verdict.ratio_rational is None


def test_verdict_allows_unrestored_ancillas():
    # Entangling an ancilla and leaving it dirty is fine here.
    c = Circuit(1, 2, (gate("h", 0), gate("cx", 0, 1), gate("t", 0), gate("h", 0)))
    verdict = obstruction_verdict(c)
    assert verdict.conclusion in (NO_TDEPTH1, INCONCLUSIVE, INAPPLICABLE)


def test_verdict_requires_single_main_qubit():
    with pytest.raises(ValueError):
        obstruction_verdict(Circuit(2))
