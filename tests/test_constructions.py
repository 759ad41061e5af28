"""Construction library: every builder against an exact oracle."""

import pytest

from tdo.circuit import Circuit, dagger, metrics
from tdo.constructions import (
    CONSTRUCTIONS,
    MAX_CONTROLS,
    BadParams,
    NotAControlledCircuit,
    UnknownConstruction,
    add_control,
    build,
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
from tdo.ring import OMEGA, ONE
from tdo.sim import AncillaContractViolated, equivalence_phase, induced_unitary
from tdo.text import parse

import reference_sim as ref
from conftest import CONTROLLED_H, FIXTURES, gate
from test_cli import EMIT_SHA256

# Oracles from the reference simulator, which does not read GATES.
CCX = ref.gate_matrix("ccx")
CCZ = ref.gate_matrix("ccz")
CONTROLLED_T = ref.diagonal([ONE, ONE, ONE, OMEGA])
CC_MINUS_IZ_DIAGONAL = ref.phase_diagonal(
    ref.PhaseSpec(3, [((2,), 1), ((1, 2), -1), ((0, 2), -1), ((0, 1, 2), 1)])
)


def all_library_circuits():
    yield "toffoli-nc", toffoli_nc()
    yield "toffoli-nc4", toffoli_nc4()
    yield "toffoli-ammr", toffoli_ammr()
    yield "ccz-tdepth1", ccz_tdepth1()
    yield "toffoli-tdepth1", toffoli_tdepth1()
    for use_ancilla in (True, False):
        yield f"cc-minus-iz/{use_ancilla}", cc_minus_iz(use_ancilla)
        yield f"cc-minus-ix/{use_ancilla}", cc_minus_ix(use_ancilla)
        yield f"controlled-t/{use_ancilla}", controlled_t(use_ancilla)
    for k in (1, 2, 3, 4):
        yield f"multi-controlled-x/{k}", multi_controlled_x(k)


@pytest.mark.parametrize("fixture_name, builder", [
    ("toffoli-nc", toffoli_nc),
    ("toffoli-nc4", toffoli_nc4),
    ("toffoli-ammr", toffoli_ammr),
])
def test_checked_in_fixtures_match_builders(fixture_name, builder):
    source = (FIXTURES / f"{fixture_name}.tdo").read_text()
    assert parse(source) == builder()


@pytest.mark.parametrize("builder", [toffoli_nc, toffoli_nc4, toffoli_ammr, toffoli_tdepth1])
def test_toffoli_family_is_exactly_ccx(builder):
    assert induced_unitary(builder()) == CCX


def test_fixture_metrics():
    assert metrics(toffoli_nc()).t_count == 7
    assert metrics(toffoli_nc()).t_depth_as_written == 6
    assert metrics(toffoli_nc4()).t_depth_scheduled == 4
    assert metrics(toffoli_ammr()).t_depth_scheduled == 3


def test_ccz_tdepth1_is_exactly_ccz_with_one_stage():
    c = ccz_tdepth1()
    m = metrics(c)
    assert induced_unitary(c) == CCZ
    assert (m.t_count, m.t_depth_scheduled, m.n_anc) == (7, 1, 4)
    kinds = [g.kind for g in c.gates]
    assert kinds.count("cx") == 16
    assert kinds.count("t") + kinds.count("tdg") == 7
    assert len(kinds) == 23


def test_toffoli_tdepth1_shape():
    m = metrics(toffoli_tdepth1())
    assert (m.t_depth_scheduled, m.depth, m.n_anc) == (1, 7, 4)


def test_cc_minus_iz_metrics_and_oracle():
    with_anc = cc_minus_iz(True)
    m = metrics(with_anc)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.gate_count, m.n_anc) == (4, 1, 5, 12, 1)
    assert induced_unitary(with_anc) == CC_MINUS_IZ_DIAGONAL

    without = cc_minus_iz(False)
    m = metrics(without)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.n_anc) == (4, 2, 7, 0)
    assert induced_unitary(without) == CC_MINUS_IZ_DIAGONAL


def test_cc_minus_iz_forms_agree():
    assert equivalence_phase(cc_minus_iz(True), cc_minus_iz(False)) == 0


def test_cc_minus_ix_matches_ccx_with_csdg():
    want = ref.induced_unitary(Circuit(3, 0, (gate("ccx", 0, 1, 2), gate("csdg", 0, 1))))
    for use_ancilla in (True, False):
        assert induced_unitary(cc_minus_ix(use_ancilla)) == want
    assert len(cc_minus_ix(True).gates) == 14


def test_cc_minus_ix_dagger_gives_plus_ix():
    inverse = dagger(cc_minus_ix(True))
    want = ref.induced_unitary(Circuit(3, 0, (gate("ccx", 0, 1, 2), gate("cs", 0, 1))))
    assert induced_unitary(inverse) == want


def test_add_control_on_cnot_gives_toffoli():
    inner = Circuit(2, 0, (gate("cx", 0, 1),))
    for use_ancilla, gates_delta, anc in ((True, 28, 2), (False, 22, 1)):
        out = add_control(inner, use_ancilla=use_ancilla)
        assert induced_unitary(out) == CCX
        m_in, m_out = metrics(inner), metrics(out)
        assert m_out.t_count - m_in.t_count == 8
        assert m_out.gate_count - m_in.gate_count == gates_delta
        assert m_out.n_anc == anc
    out = add_control(inner)
    assert metrics(out).t_depth_scheduled - metrics(inner).t_depth_scheduled <= 2
    assert metrics(out).depth - metrics(inner).depth <= 14


def test_add_control_rejects_non_controlled_circuits():
    with pytest.raises(NotAControlledCircuit):
        add_control(Circuit(1, 0, (gate("x", 0),)))
    with pytest.raises(NotAControlledCircuit):
        add_control(Circuit(1, 0, (gate("h", 0),)))


def test_add_control_rejects_a_circuit_with_no_main_qubits():
    with pytest.raises(NotAControlledCircuit, match="^inner circuit has no main qubits$"):
        add_control(Circuit(0))


@pytest.mark.parametrize("prefix", [(), (gate("h", 2), gate("h", 2))])
def test_add_control_checks_the_ancilla_contract_first(prefix):
    # Not a pure control on input 0, and it leaks the ancilla on input 2:
    # the leak is what gets reported, with or without h in the inner circuit.
    inner = Circuit(2, 1, prefix + (gate("x", 1), gate("ccx", 0, 1, 2)))
    with pytest.raises(AncillaContractViolated) as excinfo:
        add_control(inner)
    assert excinfo.value.basis_input == 2


def test_add_control_accepts_controlled_phase():
    # t fixes |0>, so a bare t wire is itself a controlled circuit.
    out = add_control(Circuit(1, 0, (gate("t", 0),)))
    assert induced_unitary(out) == CONTROLLED_T


def test_add_control_accepts_controlled_h():
    # Its lower-half columns are e_x at k 0, though they leave a group at k 1.
    out = add_control(CONTROLLED_H)
    cch = Circuit(3, 0, tuple(
        gate("ccx", 0, 1, 2) if g.kind == "cx" else gate(g.kind, 2) for g in CONTROLLED_H.gates))
    assert induced_unitary(out) == ref.induced_unitary(cch)


@pytest.mark.parametrize("tail", ["z", "txtx"], ids=["minus-e_x", "omega-e_x"])
def test_add_control_rejects_controlled_h_with_a_phase_on_its_lower_half(tail):
    inner = Circuit(2, 0, CONTROLLED_H.gates + tuple(gate(kind, 1) for kind in tail))
    with pytest.raises(NotAControlledCircuit, match="^qubit 0 of the inner circuit is not a pure control$"):
        add_control(inner)


@pytest.mark.parametrize("k, t_gates, stages", [(1, 0, 0), (2, 7, 1), (3, 15, 3), (4, 23, 3), (5, 31, 5)])
def test_multi_controlled_x(k, t_gates, stages):
    c = multi_controlled_x(k)
    m = metrics(c)
    assert m.t_count == t_gates
    assert m.t_depth_scheduled == stages
    assert induced_unitary(c) == ref.k_controlled_x_matrix(k)


def test_multi_controlled_x_t_count_formula():
    for k in range(2, 7):
        assert metrics(multi_controlled_x(k)).t_count == 7 + 8 * (k - 2)


def test_multi_controlled_x_rejects_bad_counts():
    with pytest.raises(BadParams):
        multi_controlled_x(0)
    with pytest.raises(BadParams, match=f"at most {MAX_CONTROLS}"):
        multi_controlled_x(MAX_CONTROLS + 1)


def test_controlled_t_metrics():
    want = CONTROLLED_T
    with_anc = controlled_t(True)
    m = metrics(with_anc)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.gate_count, m.n_anc) == (9, 3, 15, 29, 2)
    assert induced_unitary(with_anc) == want

    without = controlled_t(False)
    m = metrics(without)
    assert (m.t_count, m.t_depth_scheduled, m.depth, m.n_anc) == (9, 5, 19, 1)
    assert induced_unitary(without) == want


def test_every_library_circuit_has_a_unitary_induced_operator():
    for name, c in all_library_circuits():
        assert ref.is_unitary(induced_unitary(c)), name
        if c.width <= 5:
            # The whole circuit, ancillas read as ordinary wires.
            assert ref.is_unitary(induced_unitary(Circuit(c.width, 0, c.gates))), name


def test_build_dispatch_and_ids():
    # The pinned emit outputs cover every name, in both ancilla forms.
    assert {argv.split()[0] for argv in EMIT_SHA256} == set(CONSTRUCTIONS)
    for name in CONSTRUCTIONS:
        controls = 3 if name == "multi-controlled-x" else None
        assert build(name, controls=controls).n_main >= 1
    assert build("cc-minus-ix", use_ancilla=False) == cc_minus_ix(False)
    assert build("multi-controlled-x", controls=4, use_ancilla=False) == multi_controlled_x(4, False)
    # The name is checked before the control count.
    with pytest.raises(UnknownConstruction, match="unknown construction 'nosuch'"):
        build("nosuch", controls=2)
    with pytest.raises(BadParams, match="takes a control count"):
        build("toffoli-nc", controls=2)
    with pytest.raises(BadParams, match="takes a control count"):
        build("multi-controlled-x")
