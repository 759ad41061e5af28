"""Exact simulator: gate matrices, state evolution, contracts, oracles."""

import copy
import os
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tdo.circuit import DEFAULT_CAP, GATES, Circuit, Gate, invert_gates
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
from conftest import CONTROLLED_H, MONOMIAL_POOL, gate, gate_unitary, random_gate


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
        assert ref.scalars(out)[x] == omega_pow(x)


def test_width_mismatch():
    with pytest.raises(WidthMismatch):
        apply_circuit(ExactState.basis(1, 0), Circuit(2))


@pytest.mark.parametrize("gates", [(), (gate("h", 0),)], ids=["h-free", "with-h"])
def test_equivalence_of_different_main_registers_raises(gates):
    with pytest.raises(WidthMismatch, match="^circuits act on different main registers$"):
        equivalence_phase(Circuit(1, 0, gates), Circuit(2, 0, gates))


@pytest.mark.parametrize("value, same, field, text", [
    (ExactState.basis(2, 1), ExactState(2, {0: (0, 0, 0, 0), 1: (2, 0, 0, 0)}, 2), "n",
     "ExactState(2, {1: (1, 0, 0, 0)}, 0)"),
    (ExactState.basis(2, 1), ExactState(2, {1: (1, 0, 0, 0)}, 0), "amps",
     "ExactState(2, {1: (1, 0, 0, 0)}, 0)"),
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


def test_state_lowers_k_so_equal_vectors_compare_and_hash_equal():
    # 2/sqrt2^2 is 1.
    halved = ExactState(1, {0: (2, 0, 0, 0)}, 2)
    assert halved == ExactState.basis(1, 0)
    assert hash(halved) == hash(ExactState.basis(1, 0))
    assert halved.k == 0


def test_state_drops_all_zero_coefficients():
    state = ExactState(2, {0: (0, 0, 0, 0), 3: (0, 1, 0, 0)}, 0)
    assert state.amps == {3: (0, 1, 0, 0)}
    assert ExactState(2, {1: (0, 0, 0, 0)}, 3) == ExactState(2, {}, 0)


@pytest.mark.parametrize("value", [(1.5, 0, 0, 0), (1, 0), [1, 0, 0, 0]], ids=["float", "short", "list"])
def test_state_refuses_coefficients_that_are_not_four_ints(value):
    message = "^amplitude at basis index 1 is not a tuple of four ints$"
    with pytest.raises(TypeError, match=message):
        ExactState(2, {1: value}, 0)
    with pytest.raises(TypeError, match=message):
        ExactState.basis(2, 0)._replace(amps={1: value})


@pytest.mark.parametrize("fields, message", [
    ((1, {0: (2, 0, 0, 0)}, 1.5), "^qubit count 1 and denominator exponent 1.5 must be ints$"),
    ((1, {0: (2, 0, 0, 0)}, True), "^qubit count 1 and denominator exponent True must be ints$"),
    ((1.0, {0: (1, 0, 0, 0)}, 0), "^qubit count 1.0 and denominator exponent 0 must be ints$"),
    ((1, {0.0: (1, 0, 0, 0)}, 0), "^basis index 0.0 is not an int$"),
], ids=["float-k", "bool-k", "float-n", "float-index"])
def test_state_refuses_a_count_index_or_k_that_is_not_an_int(fields, message):
    # The negative-k check runs before _lowest, which would take a k of 1.5 to -0.5.
    with pytest.raises(TypeError, match=message):
        ExactState(*fields)
    with pytest.raises(TypeError, match=message):
        ExactState.basis(1, 0)._replace(**dict(zip(ExactState._fields, fields)))


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
    # h h on the ancilla keeps a circuit off the bit-sliced path, and a pair
    # with one h-free circuit runs both as columns. With wire 0 as the MSB,
    # leak3 and free3 set the ancilla on input 3 and leak1 on 1.
    hh = (gate("h", 2), gate("h", 2))
    leak3 = Circuit(2, 1, hh + (gate("ccx", 0, 1, 2),))
    leak1 = Circuit(2, 1, hh + (gate("x", 0), gate("ccx", 0, 1, 2), gate("x", 0)))
    free3 = Circuit(2, 1, (gate("ccx", 0, 1, 2),))
    differs = Circuit(2, 1, hh + (gate("x", 0),))
    cases = [
        (leak3, leak1, 3), (leak1, leak3, 1), (differs, leak1, 1), (Circuit(2, 1, hh), leak3, 3),
        (free3, leak1, 3), (leak1, free3, 1),
    ]
    for c1, c2, first in cases:
        with pytest.raises(AncillaContractViolated) as excinfo:
            equivalence_phase(c1, c2)
        assert excinfo.value.basis_input == first
    # A TooWide from c2 on its first column also waits for c1's leak, even
    # after an h-free c1 has streamed out a whole group of columns (input 192
    # is the first past the first group of 128 to set wires 0 and 1).
    free192 = Circuit(8, 1, (gate("ccx", 0, 1, 8),))
    wide2 = Circuit(2, 3, (gate("h", 2), gate("h", 3), gate("h", 4)))
    wide8 = Circuit(8, 9, tuple(gate("h", q) for q in range(8, 17)))
    for cap, leaker, wide, first in [("2", leak3, wide2, 3), ("2", free3, wide2, 3), ("8", free192, wide8, 192)]:
        monkeypatch.setenv("TDO_MAX_QUBITS", cap)
        with pytest.raises(AncillaContractViolated) as excinfo:
            equivalence_phase(leaker, wide)
        assert excinfo.value.basis_input == first
        with pytest.raises(TooWide):
            equivalence_phase(wide, leaker)


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


# The column path runs inputs in tagged groups; each result below is held to
# tests/reference_sim.py run one input at a time, refusals included.

@contextmanager
def _width_cap(value):
    """TDO_MAX_QUBITS set to value (unset for None); yields the cap in force."""
    with mock.patch.dict(os.environ):
        os.environ.pop("TDO_MAX_QUBITS", None)
        if value is not None:
            os.environ["TDO_MAX_QUBITS"] = value
        yield DEFAULT_CAP if value is None else int(value)


def _outcome(run):
    try:
        return run()
    except (TooWide, AncillaContractViolated) as exc:
        return type(exc), str(exc)


@st.composite
def _h_circuits(draw, n_main=None):
    """1-4 main and 0-4 ancilla wires; random gates around h on none, some or all wires.

    Half of them restore their ancillas: main-wire gates around such a
    sequence and its inverse. The rest mostly leak.
    """
    if n_main is None:
        n_main = draw(st.integers(1, 4))
    width = n_main + draw(st.integers(0, 4))

    def gates(wires, most):
        kinds = [kind for kind in GATES if GATES[kind].arity <= len(wires)]
        out = []
        for _ in range(draw(st.integers(0, most))):
            kind = draw(st.sampled_from(kinds))
            out.append(Gate(kind, tuple(draw(st.permutations(wires))[:GATES[kind].arity])))
        return out

    wires = draw(st.permutations(range(width)))
    hs = [Gate("h", (q,)) for q in wires[:draw(st.integers(0, width))]]
    body = gates(range(width), 8)
    at = draw(st.integers(0, len(body)))
    body[at:at] = hs
    if draw(st.booleans()):
        body = gates(range(n_main), 4) + body + list(invert_gates(body)) + gates(range(n_main), 4)
    return Circuit(n_main, width - n_main, tuple(body))


@st.composite
def _h_circuit_pairs(draw):
    n_main = draw(st.integers(1, 4))
    return draw(_h_circuits(n_main)), draw(_h_circuits(n_main))


_CAPS = pytest.mark.parametrize("cap", ["3", "4", "6", None], ids=["cap3", "cap4", "cap6", "default"])


@_CAPS
@settings(max_examples=100, deadline=None)
@given(c=_h_circuits())
def test_grouped_columns_match_per_column_runs(cap, c):
    with _width_cap(cap) as limit:
        got = _outcome(lambda: list(sim.induced_columns(c)))
        want = _outcome(lambda: list(map(ref.canonical, ref.induced_columns(c, limit))))
    assert got == want


@_CAPS
@settings(max_examples=100, deadline=None)
@given(c=_h_circuits())
def test_grouped_columns_are_canonical(cap, c):
    # k is the lowest that keeps every coefficient an integer: 0, or some
    # amplitude w + x*omega + y*omega^2 + z*omega^3 has w != y or x != z (mod 2).
    with _width_cap(cap):
        try:
            for table, k in sim.induced_columns(c):
                assert k == 0 or any(((w ^ y) | (x ^ z)) & 1 for w, x, y, z in table.values())
        except (TooWide, AncillaContractViolated):
            pass


@st.composite
def _ancilla_free_h_circuits(draw):
    """1-5 wires, no ancillas, random gates around at least one h."""
    n = draw(st.integers(1, 5))
    kinds = [kind for kind in GATES if GATES[kind].arity <= n] + ["h"] * 4
    gates = [Gate(kind, tuple(draw(st.permutations(range(n)))[:GATES[kind].arity]))
             for kind in draw(st.lists(st.sampled_from(kinds), max_size=20))]
    gates.insert(draw(st.integers(0, len(gates))), Gate("h", (draw(st.integers(0, n - 1)),)))
    return Circuit(n, 0, tuple(gates))


@settings(deadline=None)
@given(c=_ancilla_free_h_circuits())
def test_columns_are_the_states_of_basis_inputs(c):
    # induced_columns and apply_circuit share one format: column x, k included, is c on |x>.
    for x, column in enumerate(sim.induced_columns(c)):
        state = apply_circuit(ExactState.basis(c.n_main, x), c)
        assert ExactState(c.n_main, *column) == state
        assert column == (state.amps, state.k)


def _reference_phase(c1, c2, cap):
    ref.induced_columns(c1, cap)  # c1's refusal first, then c2's
    ref.induced_columns(c2, cap)
    return ref.equivalence_phase(c1, c2)


@_CAPS
@settings(max_examples=60, deadline=None)
@given(pair=_h_circuit_pairs())
def test_grouped_equivalence_matches_per_column_runs(cap, pair):
    c1, c2 = pair
    with _width_cap(cap) as limit:
        got = _outcome(lambda: equivalence_phase(c1, c2))
        want = _outcome(lambda: _reference_phase(c1, c2, limit))
    assert got == want


def test_grouped_columns_with_a_main_register_as_wide_as_the_cap(monkeypatch):
    monkeypatch.setenv("TDO_MAX_QUBITS", "3")
    every_h = tuple(gate("h", q) for q in range(3))
    c = Circuit(3, 1, every_h + (gate("t", 0), gate("ccx", 0, 1, 3), gate("cs", 3, 2))
                + (gate("ccx", 0, 1, 3),) + every_h)
    assert list(sim.induced_columns(c)) == list(map(ref.canonical, ref.induced_columns(c, 3)))
    with pytest.raises(TooWide, match=r"^state support exceeds 2\^3 amplitudes, the width cap$"):
        list(sim.induced_columns(Circuit(3, 1, every_h + (gate("h", 3),))))


def test_grouped_columns_refuse_one_amplitude_past_the_cap(monkeypatch):
    # Inputs 0 and 1 reach 4 = 2^2 amplitudes and come out. Input 2 sets
    # ancilla 4 to wire 1 and ancilla 3 to wires 1 and 2, so the last h
    # pairs only two of its four amplitudes and leaves 5.
    monkeypatch.setenv("TDO_MAX_QUBITS", "2")
    c = Circuit(2, 3, (gate("h", 1), gate("h", 2), gate("ccx", 0, 1, 4), gate("ccx", 4, 2, 3),
                       gate("h", 2)))
    want = list(map(ref.canonical, ref.induced_columns(Circuit(2, 3, c.gates[:2] + c.gates[-1:]), 2)))
    columns = sim.induced_columns(c)
    assert [next(columns), next(columns)] == want[:2]
    with pytest.raises(TooWide, match=r"^state support exceeds 2\^2 amplitudes, the width cap$"):
        next(columns)


def _padded(c, pad):
    """c with pad more ancillas after its own, touched only by a cx chain among
    themselves: a no-op on |0>, but it makes them lanes, so a tagged index
    passes 63 bits at pad 60."""
    chain = tuple(gate("cx", q, q + 1) for q in range(c.width, c.width + pad - 1))
    return Circuit(c.n_main, c.n_anc + pad, c.gates + chain)


_PADS = pytest.mark.parametrize("pad", [0, 60])


@_PADS
def test_grouped_columns_refuse_a_column_past_the_cap_at_its_groups_last_split(monkeypatch, pad):
    # Inputs 0 and 1 share a group of at most 2^3 amplitudes until the last
    # h. Input 0 builds the 5 amplitudes of the case above (with wire 0
    # inverted), which that h doubles to 10, and input 1 holds 4. Input 0
    # is refused though no h follows.
    monkeypatch.setenv("TDO_MAX_QUBITS", "3")
    c = _padded(Circuit(1, 5, (gate("h", 1), gate("h", 2), gate("x", 0), gate("ccx", 0, 1, 4),
                               gate("x", 0), gate("ccx", 4, 2, 3), gate("h", 2), gate("h", 5))), pad)
    message = r"^state support exceeds 2\^3 amplitudes, the width cap$"
    with pytest.raises(TooWide, match=message):
        ref.induced_columns(c, 3)
    with pytest.raises(TooWide, match=message):
        list(sim.induced_columns(c))


def _counted_steps(monkeypatch):
    """A list that grows by one per `_apply_gate` call: per gate, per group or lone column."""
    calls = []
    step = sim._apply_gate
    monkeypatch.setattr(sim, "_apply_gate", lambda *args: calls.append(1) or step(*args))
    return calls


@_PADS
def test_grouped_columns_report_the_lowest_leak_of_a_group(monkeypatch, pad):
    # Inputs 1 and 3 leak, and all four inputs run as one group.
    c = _padded(Circuit(2, 1, (gate("h", 2), gate("h", 2), gate("cx", 1, 2))), pad)
    calls = _counted_steps(monkeypatch)
    with pytest.raises(AncillaContractViolated) as excinfo:
        list(sim.induced_columns(c))
    assert excinfo.value.basis_input == 1
    assert len(calls) == len(c.gates)


def test_c1_refusal_wins_over_c2_refusal_in_an_earlier_group():
    # c2 leaks on input 1; c1 first leaks on input 384 (wires 0 and 1 set),
    # which no group that holds input 1 reaches.
    hh = (gate("h", 9), gate("h", 9))
    c1 = Circuit(9, 1, hh + (gate("ccx", 0, 1, 9),))
    c2 = Circuit(9, 1, hh + (gate("cx", 8, 9),))
    for first, second, leak in ((c1, c2, 384), (c2, c1, 1)):
        with pytest.raises(AncillaContractViolated) as excinfo:
            equivalence_phase(first, second)
        assert excinfo.value.basis_input == leak


@pytest.mark.parametrize("n_anc", [50, 60])
def test_columns_group_whatever_the_layout_width(monkeypatch, n_anc):
    # A 7-bit tag above 52 wires fits 63 bits; above 62 wires it does not.
    # Either way the four inputs run as one group.
    fan = tuple(gate("cx", 1, q) for q in range(2, 2 + n_anc))
    restoring = Circuit(2, n_anc, (gate("h", 1),) + fan + fan[::-1] + (gate("h", 1), gate("t", 0)))
    leaking = Circuit(2, n_anc, restoring.gates + (gate("cx", 0, 1 + n_anc),))
    calls = _counted_steps(monkeypatch)
    assert list(sim.induced_columns(restoring)) == list(map(ref.canonical, ref.induced_columns(restoring)))
    assert len(calls) == len(restoring.gates)
    with pytest.raises(AncillaContractViolated) as excinfo:
        list(sim.induced_columns(leaking))
    assert excinfo.value.basis_input == 2


def _times_omega(c, q, j):
    """c followed by (t x t x on wire q)^j: omega^j times c."""
    return Circuit(c.n_main, c.n_anc, c.gates + j * tuple(gate(kind, q) for kind in "txtx"))


def test_columns_leave_a_group_at_their_own_lowest_k():
    # One group of four inputs, whose shared k is 1 after the last h.
    assert list(sim.induced_columns(CONTROLLED_H)) == [
        ({0: (1, 0, 0, 0)}, 0), ({1: (1, 0, 0, 0)}, 0),
        ({2: (1, 0, 0, 0), 3: (1, 0, 0, 0)}, 1), ({2: (1, 0, 0, 0), 3: (-1, 0, 0, 0)}, 1),
    ]


def test_equivalence_phase_of_one_operator_split_into_different_groups(monkeypatch):
    # Under cap 3 CONTROLLED_H runs as one group. With h on an ancilla around
    # it, the first h on wire 1 leaves 16 amplitudes, past 2^3, so that form
    # splits into two pieces of two inputs, which leave at k 0 and k 1.
    monkeypatch.setenv("TDO_MAX_QUBITS", "3")
    split = Circuit(2, 1, (gate("h", 2),) + CONTROLLED_H.gates + (gate("h", 2),))
    for c, steps in ((CONTROLLED_H, 7), (split, 3 + 2 * 6)):
        calls = _counted_steps(monkeypatch)
        assert list(sim.induced_columns(c)) == list(map(ref.canonical, ref.induced_columns(c, 3)))
        assert len(calls) == steps
    assert equivalence_phase(CONTROLLED_H, split) == 0
    assert equivalence_phase(split, CONTROLLED_H) == 0
    assert equivalence_phase(split, _times_omega(CONTROLLED_H, 1, 3)) == 5


@pytest.mark.parametrize("j", range(8))
def test_equivalence_phase_of_omega_multiples(j):
    # h z h is x: h_path holds h and h_free does not, so that pair is mixed.
    h_free = Circuit(2, 0, (gate("t", 0), gate("x", 1), gate("cs", 1, 0)))
    h_path = Circuit(2, 0, (gate("t", 0), gate("h", 1), gate("z", 1), gate("h", 1), gate("cs", 1, 0)))
    for c, other in ((CONTROLLED_H, CONTROLLED_H), (h_free, h_path), (h_path, h_free)):
        phased = _times_omega(c, 1, j)
        assert equivalence_phase(phased, other) == j
        assert equivalence_phase(other, phased) == (8 - j) % 8


def test_equivalence_phase_of_operators_that_differ_by_a_sign_in_one_column():
    # cz first negates the last column of CONTROLLED_H; with x on both wires
    # around it, column 0 instead, from which j = 4 is read.
    flip = (gate("x", 0), gate("x", 1))
    last = Circuit(2, 0, (gate("cz", 0, 1),) + CONTROLLED_H.gates)
    first = Circuit(2, 0, flip + (gate("cz", 0, 1),) + flip + CONTROLLED_H.gates)
    for c in (last, first):
        assert ref.equivalence_phase(CONTROLLED_H, c) is None
        assert equivalence_phase(CONTROLLED_H, c) is None
        assert equivalence_phase(c, CONTROLLED_H) is None
