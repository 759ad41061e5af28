"""Exact simulator: gate matrices, state evolution, contracts, oracles."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from tdo.circuit import GATES, Circuit
from tdo.ring import IM, INV_SQRT2, OMEGA, ONE, ZERO, RealValue, RingScalar, omega_pow
from tdo.sim import (
    AncillaContractViolated,
    ExactMatrix,
    ExactState,
    TooWide,
    WidthMismatch,
    apply_circuit,
    equivalence_phase,
    induced_unitary,
)
from tdo import sim
from tdo.constructions import ccz_tdepth1, multi_controlled_x, toffoli_nc
from tdo.rewriter import rewrite_budgeted

import reference_sim as ref
from conftest import MONOMIAL_POOL, gate, gate_unitary, random_gate


def test_gate_matrix_t_and_s():
    assert gate_unitary("t") == ref.diagonal([ONE, OMEGA])
    assert gate_unitary("s") == ref.matmul(gate_unitary("t"), gate_unitary("t"))
    assert gate_unitary("cs") == ref.diagonal([ONE, ONE, ONE, IM])
    ccz = gate_unitary("ccz")
    assert ccz == ref.diagonal([ONE] * 7 + [RingScalar(-1)])


def test_hadamard_entries_and_involution():
    h = gate_unitary("h")
    assert h.rows[0][0] == INV_SQRT2
    assert h.rows[1][1] == -INV_SQRT2
    assert ref.matmul(h, h) == ref.identity(2)


def test_all_gate_matrices_are_unitary():
    for kind in GATES:
        assert ref.is_unitary(gate_unitary(kind)), kind


def test_apply_x_and_t():
    flipped = apply_circuit(ExactState.basis(1, 0), Circuit(1, 0, (gate("x", 0),)))
    assert flipped == ExactState.basis(1, 1)
    for x in (0, 1):
        out = apply_circuit(ExactState.basis(1, x), Circuit(1, 0, (gate("t", 0),)))
        assert out.amps[x] == omega_pow(x)


def test_width_mismatch():
    with pytest.raises(WidthMismatch):
        apply_circuit(ExactState.basis(1, 0), Circuit(2))


@pytest.mark.parametrize("gates", [(), (gate("h", 0),)], ids=["h-free", "with-h"])
def test_equivalence_of_different_main_registers_raises(gates):
    with pytest.raises(WidthMismatch, match="^circuits act on different main registers$"):
        equivalence_phase(Circuit(1, 0, gates), Circuit(2, 0, gates))


@pytest.mark.parametrize("value, same, field, text", [
    (ExactState.basis(2, 1), ExactState(2, {0: ZERO, 1: RingScalar(2, 0, 0, 0, 2)}), "n",
     "ExactState(2, {1: (1 + 0*w + 0*w^2 + 0*w^3)/sqrt2^0})"),
    (ExactState.basis(2, 1), ExactState(2, {1: ONE}), "amps",
     "ExactState(2, {1: (1 + 0*w + 0*w^2 + 0*w^3)/sqrt2^0})"),
    (ExactMatrix([[ONE, ZERO], [ZERO, OMEGA]]), ExactMatrix.from_columns(2, [{0: ONE}, {1: OMEGA}]),
     "rows", "ExactMatrix(dim=2)"),
    (RealValue(Fraction(1, 2), 3), RealValue(Fraction(2, 4), Fraction(3)), "p",
     "RealValue(Fraction(1, 2), Fraction(3, 1))"),
], ids=["state-n", "state-amps", "matrix", "real"])
def test_exact_values_copy_hash_and_stay_immutable(value, same, field, text):
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied == value
        assert type(copied) is type(value)
        assert hash(copied) == hash(value)
    assert same == value
    assert hash(same) == hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_parity_fanout_network_wire_labels():
    # The single-stage CCZ's compute half copies x^y^z, x^y, y^z, x^z onto
    # the four ancillas, in that wire order.
    c = ccz_tdepth1()
    compute = Circuit(7, 0, c.gates[:8])
    for basis in range(8):
        x, y, z = basis >> 2 & 1, basis >> 1 & 1, basis & 1
        out = apply_circuit(ExactState.basis(7, basis << 4), compute)
        expected = (
            (basis << 4)
            | (x ^ y ^ z) << 3
            | (x ^ y) << 2
            | (y ^ z) << 1
            | (x ^ z)
        )
        assert out == ExactState.basis(7, expected)


def test_unitary_of_examples():
    # Without ancillas the induced operator is the circuit's whole unitary.
    assert induced_unitary(Circuit(1)) == ref.identity(2)
    hczh = Circuit(3, 0, (gate("h", 2), gate("ccz", 0, 1, 2), gate("h", 2)))
    assert induced_unitary(hczh) == ref.gate_matrix("ccx")
    tt = Circuit(1, 0, (gate("t", 0), gate("t", 0)))
    assert induced_unitary(tt) == ref.gate_matrix("s")


def test_induced_unitary_restores_ancillas():
    assert induced_unitary(ccz_tdepth1()) == ref.gate_matrix("ccz")


def test_induced_unitary_flags_dirty_ancilla():
    leak = Circuit(1, 1, (gate("cx", 0, 1),))
    with pytest.raises(AncillaContractViolated) as excinfo:
        induced_unitary(leak)
    assert excinfo.value.basis_input == 1


def test_induced_equals_full_unitary_without_ancillas():
    c = toffoli_nc()
    assert induced_unitary(c) == ref.induced_unitary(c)


def test_equivalent_examples():
    assert equivalence_phase(toffoli_nc(), Circuit(3, 0, (gate("ccx", 0, 1, 2),))) == 0
    assert equivalence_phase(
        Circuit(1, 0, (gate("t", 0),)), Circuit(1, 0, (gate("tdg", 0),))
    ) is None


def test_equivalent_up_to_global_phase():
    # s x s x = i times the identity: equal only after factoring w^2.
    phased = Circuit(1, 0, (gate("x", 0), gate("s", 0), gate("x", 0), gate("s", 0)))
    assert equivalence_phase(phased, Circuit(1)) == 2


def test_equivalence_phase_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("equivalence_phase built a dense matrix")

    monkeypatch.setattr(ExactMatrix, "from_columns", refuse)
    monkeypatch.setattr(ExactMatrix, "scaled", refuse)
    # Columns come straight off the kernel, with no state object per input.
    monkeypatch.setattr(sim, "ExactState", refuse)
    monkeypatch.setattr(sim, "apply_circuit", refuse)
    anc, bare = multi_controlled_x(5), multi_controlled_x(5, use_ancilla=False)
    assert equivalence_phase(anc, bare) == 0
    # x t s x t s is omega^3 times the identity.
    sandwich = tuple(gate(kind, 2) for kind in ("x", "t", "s", "x", "t", "s"))
    phased = Circuit(bare.n_main, bare.n_anc, bare.gates + sandwich)
    assert equivalence_phase(anc, phased) == 5
    mutant = Circuit(bare.n_main, bare.n_anc, bare.gates + (gate("cz", 0, 5),))
    assert equivalence_phase(anc, mutant) is None


def test_equivalence_phase_of_h_free_circuits_is_bit_sliced(monkeypatch):
    rng = random.Random(10)
    c = Circuit(10, 0, tuple(random_gate(rng, 10, MONOMIAL_POOL) for _ in range(60)))
    rewritten = rewrite_budgeted(c, 1)
    assert rewritten.n_anc > 0
    # x t s x t s is omega^3 times the identity.
    sandwich = tuple(gate(kind, 4) for kind in ("x", "t", "s", "x", "t", "s"))
    phased = Circuit(10, 0, c.gates + sandwich)
    spare = rewritten.width
    leaking = Circuit(10, rewritten.n_anc + 1, (gate("cx", 0, spare),) + rewritten.gates)
    mutant = Circuit(10, 0, c.gates + (gate("cz", 0, 9),))

    def refuse(*args, **kwargs):
        raise AssertionError("an h-free pair was simulated one input at a time")

    monkeypatch.setattr(sim, "apply_circuit", refuse)
    monkeypatch.setattr(sim, "ExactState", refuse)
    assert equivalence_phase(rewritten, c) == 0
    assert equivalence_phase(rewritten, phased) == 5
    assert equivalence_phase(phased, rewritten) == 3
    assert equivalence_phase(rewritten, mutant) is None
    # Wire 0 is the MSB: input 512 is the first to set it.
    with pytest.raises(AncillaContractViolated) as excinfo:
        equivalence_phase(leaking, c)
    assert excinfo.value.basis_input == 512


def test_equivalence_phase_reports_c1_refusal_first(monkeypatch):
    # h h on the ancilla keeps both circuits off the bit-sliced path. With
    # wire 0 as the MSB, leak3 sets the ancilla on input 3 and leak1 on 1.
    hh = (gate("h", 2), gate("h", 2))
    leak3 = Circuit(2, 1, hh + (gate("ccx", 0, 1, 2),))
    leak1 = Circuit(2, 1, hh + (gate("x", 0), gate("ccx", 0, 1, 2), gate("x", 0)))
    differs = Circuit(2, 1, hh + (gate("x", 0),))
    cases = [(leak3, leak1, 3), (leak1, leak3, 1), (differs, leak1, 1), (Circuit(2, 1, hh), leak3, 3)]
    for c1, c2, first in cases:
        with pytest.raises(AncillaContractViolated) as excinfo:
            equivalence_phase(c1, c2)
        assert excinfo.value.basis_input == first
    # A TooWide from c2 on its first column also waits for c1's leak.
    monkeypatch.setenv("TDO_MAX_QUBITS", "2")
    wide = Circuit(2, 3, (gate("h", 2), gate("h", 3), gate("h", 4)))
    with pytest.raises(AncillaContractViolated) as excinfo:
        equivalence_phase(leak3, wide)
    assert excinfo.value.basis_input == 3
    with pytest.raises(TooWide):
        equivalence_phase(wide, leak3)


def test_is_almost_classical_on_gates():
    monomial = ["x", "y", "z", "s", "sdg", "t", "tdg", "cx", "cz", "cs", "csdg", "swap", "ccx", "ccz"]
    for kind in monomial:
        assert ref.is_almost_classical(gate_unitary(kind)), kind
    assert not ref.is_almost_classical(gate_unitary("h"))


def test_inclusion_exclusion_identity_over_all_assignments():
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                lhs = 4 * x * y * z
                rhs = (
                    x + y + z
                    - (x ^ y) - (y ^ z) - (x ^ z)
                    + (x ^ y ^ z)
                )
                assert lhs == rhs


def test_phase_diagonal_ccz_spec():
    spec = ref.PhaseSpec(
        3,
        [
            ((0,), 1), ((1,), 1), ((2,), 1),
            ((0, 1), -1), ((1, 2), -1), ((0, 2), -1),
            ((0, 1, 2), 1),
        ],
    )
    assert ref.phase_diagonal(spec) == gate_unitary("ccz")


def test_phase_diagonal_controlled_sdg_spec():
    spec = ref.PhaseSpec(2, [((0,), -1), ((1,), -1), ((0, 1), 1)])
    assert ref.phase_diagonal(spec) == gate_unitary("csdg")


def test_phase_diagonal_cc_minus_iz_spec():
    spec = ref.PhaseSpec(3, [((2,), 1), ((1, 2), -1), ((0, 2), -1), ((0, 1, 2), 1)])
    want = induced_unitary(Circuit(3, 0, (gate("ccz", 0, 1, 2), gate("csdg", 0, 1))))
    assert ref.phase_diagonal(spec) == want


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        ref.PhaseSpec(2, [((), 1)])
    with pytest.raises(ValueError):
        ref.PhaseSpec(2, [((0,), 2)])
    with pytest.raises(ValueError):
        ref.PhaseSpec(2, [((0,), 1), ((0,), -1)])


def test_single_qubit_clifford_census():
    group = ref.single_qubit_cliffords()
    assert len(group) == 24
    assert sum(1 for m in group if ref.is_almost_classical(m)) == 8


def test_norm_preserved_exactly():
    c = Circuit(2, 0, (gate("h", 0), gate("t", 0), gate("cx", 0, 1), gate("h", 1)))
    out = apply_circuit(ExactState.basis(2, 0), c)
    assert ref.norm_squared(out) == RingScalar(1)
