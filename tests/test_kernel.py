"""The integer-coefficient kernel and the gate table against the reference simulator."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tdo.circuit import GATES, Circuit, Gate
from tdo.ring import RingScalar, omega_pow
from tdo.sim import (
    AncillaContractViolated,
    ExactMatrix,
    ExactState,
    TooWide,
    apply_circuit,
    equivalence_phase,
    induced_unitary,
)

import reference_sim as ref
from conftest import gate_unitary

ALL_KINDS = sorted(GATES)
MONOMIAL_KINDS = [kind for kind in ALL_KINDS if GATES[kind].action is not None]

# Amplitudes over different powers of sqrt2, so one state mixes several k.
scalars = st.builds(
    RingScalar,
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(0, 5),
)


def _draw_gate(draw, wires, kinds):
    kind = draw(st.sampled_from([k for k in kinds if GATES[k].arity <= len(wires)]))
    order = draw(st.permutations(wires))
    return Gate(kind, tuple(order[: GATES[kind].arity]))


@st.composite
def circuits_with_states(draw):
    n = draw(st.integers(1, 5))
    gates = [_draw_gate(draw, range(n), ALL_KINDS) for _ in range(draw(st.integers(0, 30)))]
    amps = draw(st.dictionaries(st.integers(0, (1 << n) - 1), scalars, max_size=1 << n))
    return Circuit(n, 0, tuple(gates)), ExactState(n, amps)


@st.composite
def ancilla_circuits(draw, kinds, n_mains=st.integers(1, 3), leak_odds=10):
    """Gates on the main wires plus phase kickbacks onto ancillas.

    A kickback copies a main wire onto an ancilla, applies a phase there
    and, unless it leaks (one time in leak_odds), copies again to restore
    the ancilla. Without main wires the gate list is empty.
    """
    n_main = draw(n_mains)
    n_anc = draw(st.integers(0, 2))
    main = range(n_main)
    gates = []
    for _ in range(draw(st.integers(0, 12)) if n_main else 0):
        if n_anc and draw(st.booleans()):
            copy = Gate("cx", (draw(st.sampled_from(main)), n_main + draw(st.integers(0, n_anc - 1))))
            phase = Gate(draw(st.sampled_from(["z", "s", "sdg", "t", "tdg"])), copy.qubits[1:])
            leaks = draw(st.integers(1, leak_odds)) == 1
            gates += [copy, phase] if leaks else [copy, phase, copy]
        else:
            gates.append(_draw_gate(draw, main, kinds))
    return Circuit(n_main, n_anc, tuple(gates))


def _sandwich(draw, width):
    """omega^j times the identity: x P x P on one wire, P = s^(j//2) t^(j%2).

    An optional leading h h pair is the identity too, but it can reorder
    the entries of a sparse column.
    """
    wire = draw(st.integers(0, width - 1))
    j = draw(st.integers(0, 7))
    half = [Gate("s", (wire,))] * (j // 2) + [Gate("t", (wire,))] * (j % 2)
    pad = [Gate("h", (wire,))] * 2 if draw(st.booleans()) else []
    return pad + [Gate("x", (wire,))] + half + [Gate("x", (wire,))] + half


def _leak(draw, n_main, n_anc):
    """A gate that leaves an ancilla dirty on some or all basis inputs."""
    ancilla = n_main + draw(st.integers(0, n_anc - 1))
    if n_main and draw(st.booleans()):
        return Gate("cx", (draw(st.integers(0, n_main - 1)), ancilla))
    return Gate("x", (ancilla,))


@st.composite
def verify_pairs(draw):
    """Circuit pairs as `verify` meets them.

    c2 is c1 itself, c1 with one t and tdg swapped, c1 after a controlled
    gate (which fixes basis input 0 and so leaves column 0 alone), or an
    unrelated circuit on as many main wires. It may then be followed by an
    omega^j sandwich. Ancilla leaks are added to c1, c2 or both.
    """
    kinds = draw(st.sampled_from([ALL_KINDS + ["h"] * 4, MONOMIAL_KINDS]))
    c1 = draw(ancilla_circuits(kinds, n_mains=st.integers(0, 4), leak_odds=40))
    n_main = c1.n_main
    derive = draw(st.sampled_from(["same", "mutant", "controlled", "unrelated"]))
    if derive == "unrelated":
        c2 = draw(ancilla_circuits(kinds, n_mains=st.just(n_main), leak_odds=40))
    else:
        c2 = c1
    gates1, gates2 = list(c1.gates), list(c2.gates)
    t_sites = [i for i, g in enumerate(gates2) if g.kind in ("t", "tdg")]
    if derive == "mutant" and t_sites:
        i = draw(st.sampled_from(t_sites))
        gates2[i] = Gate(GATES[gates2[i].kind].inverse, gates2[i].qubits)
    if derive == "controlled" and n_main >= 2:
        gates2.insert(0, _draw_gate(draw, range(n_main), ["cx", "cz", "ccx"]))
    if c2.width and draw(st.integers(0, 3)):
        gates2 += _sandwich(draw, c2.width)
    leaks = draw(st.sampled_from(["", "", "", "", "1", "2", "12"]))
    if c1.n_anc and "1" in leaks:
        gates1.append(_leak(draw, n_main, c1.n_anc))
    if c2.n_anc and "2" in leaks:
        gates2.append(_leak(draw, n_main, c2.n_anc))
    return Circuit(n_main, c1.n_anc, tuple(gates1)), Circuit(n_main, c2.n_anc, tuple(gates2))


def _outcome(fn, *circuits):
    """The result, or the contract exception's type and basis input."""
    try:
        return fn(*circuits)
    except AncillaContractViolated as exc:
        return (type(exc), exc.basis_input)


@given(circuits_with_states())
def test_apply_circuit_matches_reference(case):
    c, state = case
    assert apply_circuit(state, c) == ref.apply_circuit(state, c)


@given(ancilla_circuits(ALL_KINDS))
def test_induced_unitary_matches_reference(c):
    assert _outcome(induced_unitary, c) == _outcome(ref.induced_unitary, c)


@given(ancilla_circuits(MONOMIAL_KINDS))
def test_induced_unitary_without_h_matches_reference(c):
    assert _outcome(induced_unitary, c) == _outcome(ref.induced_unitary, c)


@settings(max_examples=300)
@given(verify_pairs())
# Equal up to omega^7 in column 0 only: a comparison that skips the support
# check looks up output 3 of input 2 in the second circuit, which lacks it.
@example((
    Circuit(2, 0, (Gate("cx", (0, 1)),)),
    Circuit(2, 0, tuple(Gate(kind, (0,)) for kind in ("x", "t", "x", "t"))),
))
# Equal, with column 0 holding no entry in row 0.
@example((Circuit(1, 0, (Gate("x", (0,)),)), Circuit(1, 0, (Gate("x", (0,)),))))
def test_equivalence_phase_matches_reference(pair):
    assert _outcome(equivalence_phase, *pair) == _outcome(ref.equivalence_phase, *pair)


def _action_matrix(kind: str) -> ExactMatrix:
    """The matrix that a GATES action describes, read off the table alone."""
    spec = GATES[kind]
    n = spec.arity
    columns = []
    for x in range(1 << n):
        bits = [x >> (n - 1 - p) & 1 for p in range(n)]
        exponent = 0
        for controls, flips, e in spec.action:
            if all(bits[p] for p in controls):
                exponent += e
                for p in flips:
                    bits[p] ^= 1
        y = sum(bit << (n - 1 - p) for p, bit in enumerate(bits))
        columns.append({y: omega_pow(exponent)})
    return ExactMatrix.from_columns(1 << n, columns)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gate_table_record_matches_reference_matrix(kind):
    spec = GATES[kind]
    want = ref.gate_matrix(kind)
    if spec.action is None:
        assert not ref.is_almost_classical(want)
    else:
        assert _action_matrix(kind) == want
    inverse = ref.gate_matrix(spec.inverse)
    assert ref.matmul(want, inverse) == ref.identity(1 << spec.arity)
    assert gate_unitary(kind) == want


def test_induced_unitary_width_cap(monkeypatch):
    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    with pytest.raises(TooWide):
        induced_unitary(Circuit(13))
    monkeypatch.setenv("TDO_MAX_QUBITS", "2")
    with pytest.raises(TooWide):
        induced_unitary(Circuit(3))
    # The cap counts main qubits only; ancillas are simulated, not stored.
    assert induced_unitary(Circuit(2, 2)) == ref.identity(4)


def test_apply_circuit_bounds_support(monkeypatch):
    # A full cap-wide state passes; an h that leaves more amplitudes does not.
    def all_h(n):
        return Circuit(n, 0, tuple(Gate("h", (q,)) for q in range(n)))

    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    assert len(apply_circuit(ExactState.basis(12, 0), all_h(12)).support()) == 4096
    with pytest.raises(TooWide):
        apply_circuit(ExactState.basis(13, 0), all_h(13))
    monkeypatch.setenv("TDO_MAX_QUBITS", "13")
    assert len(apply_circuit(ExactState.basis(13, 0), all_h(13)).support()) == 8192
