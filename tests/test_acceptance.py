"""Acceptance gate: one test per shipped claim, every tolerance exact.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. All comparisons are bit-exact ring equality or integer
equality; nothing is approximate.
"""

import random

import pytest

from tdo.circuit import Circuit, metrics, t_count, t_depth_scheduled
from tdo.constructions import (
    add_control,
    cc_minus_ix,
    cc_minus_iz,
    ccz_tdepth1,
    controlled_t,
    multi_controlled_x,
    toffoli_ammr,
    toffoli_nc,
    toffoli_nc4,
    toffoli_tdepth1,
)
from tdo.obstruction import (
    NO_TDEPTH1,
    expectation_direct,
    expectation_pauli_path,
    obstruction_verdict,
    split_tdepth1,
)
from tdo.rewriter import rewrite_budgeted, rewrite_tdepth1
from tdo.ring import (
    INV_SQRT2,
    OMEGA,
    ONE,
    RealValue,
    RingScalar,
    ratio_is_rational,
)
from tdo.sim import ExactMatrix, equivalence_phase, induced_unitary
from tdo.text import SourceError, emit, parse

import reference_sim as ref
from conftest import FIXTURES, gate, random_monomial_circuit, random_tdepth1_circuit

# Primitive oracles from the reference simulator, which does not read GATES.
CCX = ref.gate_matrix("ccx")
CCZ = ref.gate_matrix("ccz")


def test_c01_fixture_metrics():
    nc = parse((FIXTURES / "toffoli-nc.tdo").read_text())
    nc4 = parse((FIXTURES / "toffoli-nc4.tdo").read_text())
    ammr = parse((FIXTURES / "toffoli-ammr.tdo").read_text())
    assert metrics(nc).t_count == 7
    assert metrics(nc).t_depth_as_written == 6
    assert metrics(nc4).t_depth_scheduled == 4
    assert metrics(ammr).t_depth_scheduled == 3


def test_c02_exact_equivalence_to_primitives():
    for c in (toffoli_nc(), toffoli_nc4(), toffoli_ammr(), toffoli_tdepth1()):
        assert induced_unitary(c) == CCX
    assert induced_unitary(ccz_tdepth1()) == CCZ


def test_c03_toffoli_tdepth1_shape():
    c = toffoli_tdepth1()
    m = metrics(c)
    assert m.t_depth_scheduled == 1
    assert m.depth == 7
    assert m.n_anc == 4
    # induced_unitary simulates all 8 basis inputs and raises if any
    # ancilla is left nonzero or entangled.
    induced_unitary(c)


def test_c04_cc_minus_iz_both_forms():
    oracle = ref.phase_diagonal(
        ref.PhaseSpec(3, [((2,), 1), ((1, 2), -1), ((0, 2), -1), ((0, 1, 2), 1)])
    )
    with_anc = cc_minus_iz(True)
    m = metrics(with_anc)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.gate_count, m.n_anc) == (4, 1, 5, 12, 1)
    assert induced_unitary(with_anc) == oracle

    without = cc_minus_iz(False)
    m = metrics(without)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.n_anc) == (4, 2, 7, 0)
    assert induced_unitary(without) == oracle


def test_c05_add_control_costs():
    inner = Circuit(2, 0, (gate("cx", 0, 1),))
    base = metrics(inner)
    with_anc = add_control(inner, use_ancilla=True)
    assert induced_unitary(with_anc) == CCX
    m = metrics(with_anc)
    assert m.t_count - base.t_count == 8
    assert m.gate_count - base.gate_count == 28
    assert m.t_depth_scheduled - base.t_depth_scheduled <= 2
    assert m.depth - base.depth <= 14

    without = add_control(inner, use_ancilla=False)
    assert induced_unitary(without) == CCX
    assert metrics(without).gate_count - base.gate_count == 22


def test_c06_multi_controlled_x():
    three = multi_controlled_x(3)
    m = metrics(three)
    assert (m.t_count, m.t_depth_scheduled) == (15, 3)
    assert induced_unitary(three) == ref.k_controlled_x_matrix(3)

    five = multi_controlled_x(5)
    m = metrics(five)
    assert (m.t_count, m.t_depth_scheduled) == (31, 5)
    # columnwise over the 64 main-register basis inputs
    assert induced_unitary(five) == ref.k_controlled_x_matrix(5)


def test_c07_controlled_t():
    ct_diagonal = ref.diagonal([ONE, ONE, ONE, OMEGA])
    with_anc = controlled_t(True)
    m = metrics(with_anc)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.gate_count) == (9, 3, 15, 29)
    assert m.n_anc == 2
    assert induced_unitary(with_anc) == ct_diagonal

    without = controlled_t(False)
    m = metrics(without)
    assert induced_unitary(without) == ct_diagonal
    assert (m.t_count, m.t_depth_scheduled, m.depth) == (9, 5, 19)
    assert m.n_anc == 1
    # One t between two 11-gate conjunction folds (the 9-gate lean cc-minus-iz
    # plus two h each): add_control's 22 added gates plus the t, 23 in all.
    assert m.gate_count == 23
    assert m.gate_count == 2 * metrics(cc_minus_ix(False)).gate_count + 1


def test_c08_rewriter_bulk():
    rng = random.Random(20260809)
    for _ in range(200):
        c = random_monomial_circuit(rng)
        out = rewrite_tdepth1(c)
        assert induced_unitary(out) == induced_unitary(c)
        assert t_depth_scheduled(out) <= 1
        assert out.n_anc == t_count(c)
        assert len(out.gates) <= 3 * (len(c.gates) + t_count(c))

        budgeted = rewrite_budgeted(c, 2)
        assert t_depth_scheduled(budgeted) <= 2
        assert budgeted.n_anc == -(-t_count(c) // 2)
        assert induced_unitary(budgeted) == induced_unitary(c)


def test_c09_rewrite_toffoli_core():
    core = Circuit(3, 0, tuple(g for g in toffoli_nc().gates if g.kind != "h"))
    out = rewrite_tdepth1(core)
    assert out.n_anc == 7
    assert t_depth_scheduled(out) == 1
    assert equivalence_phase(out, core) == 0


def test_c10_inclusion_exclusion_identity():
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                assert 4 * x * y * z == (
                    x + y + z - (x ^ y) - (y ^ z) - (x ^ z) + (x ^ y ^ z)
                )


def test_c11_almost_classical_census():
    group = ref.single_qubit_cliffords()
    assert len(group) == 24
    assert sum(1 for m in group if ref.is_almost_classical(m)) == 8


def test_c12_tht_obstruction():
    from fractions import Fraction

    tht = Circuit(1, 0, (gate("t", 0), gate("h", 0), gate("t", 0)))
    verdict = obstruction_verdict(tht)
    assert verdict.e_zero == RealValue(0, Fraction(1, 2))
    assert verdict.e_plus == RealValue(Fraction(1, 2))
    assert verdict.conclusion == NO_TDEPTH1

    u = induced_unitary(tht)
    x, y, z = (ref.gate_matrix(kind) for kind in "xyz")
    conjugated = ref.matmul(ref.adjoint(u), x, u)
    half = RingScalar(1, 0, 0, 0, 2)
    want = ExactMatrix(
        [
            [
                x.rows[i][j] * half
                + y.rows[i][j] * half
                + z.rows[i][j] * INV_SQRT2
                for j in range(2)
            ]
            for i in range(2)
        ]
    )
    assert conjugated == want


def test_c13_pauli_path_property():
    rng = random.Random(5_1_7)
    for _ in range(200):
        c = random_tdepth1_circuit(rng)
        split = split_tdepth1(c)
        e_zero = expectation_pauli_path(split, "zero")
        e_plus = expectation_pauli_path(split, "plus")
        assert e_zero == expectation_direct(c, "zero")
        assert e_plus == expectation_direct(c, "plus")
        if not e_plus.is_zero:
            assert ratio_is_rational(e_zero, e_plus)


def test_c14_parser_round_trips_and_errors():
    for path in sorted(FIXTURES.glob("*.tdo")):
        c = parse(path.read_text())
        assert parse(emit(c)) == c

    from tdo.constructions import cc_minus_ix

    library = [
        toffoli_nc(), toffoli_nc4(), toffoli_ammr(), ccz_tdepth1(),
        toffoli_tdepth1(), cc_minus_iz(True), cc_minus_iz(False),
        cc_minus_ix(True), cc_minus_ix(False), controlled_t(True),
        controlled_t(False), add_control(Circuit(2, 0, (gate("cx", 0, 1),))),
    ] + [multi_controlled_x(k) for k in range(1, 6)]
    for c in library:
        assert parse(emit(c)) == c

    malformed = [
        "cx 0 1\n",
        "qubits 1\nt 1\n",
        "qubits 1\nfrob 0\n",
        "qubits 2\ncx 0\n",
        "qubits 2\ncx 1 1\n",
        "qubits 2\nqubits 2\n",
        "qubits x\n",
        "",
    ]
    for source in malformed:
        with pytest.raises(SourceError) as excinfo:
            parse(source)
        assert excinfo.value.line >= 1
        assert excinfo.value.column >= 1
