"""The integer-coefficient kernel and the gate table against the reference simulator."""

import pytest
from hypothesis import given, strategies as st

from tdo.circuit import GATES, Circuit, Gate
from tdo.ring import RingScalar, omega_pow
from tdo.sim import (
    AncillaContractViolated,
    ExactMatrix,
    ExactState,
    TooWide,
    apply_circuit,
    gate_matrix,
    induced_unitary,
    is_almost_classical,
)

import reference_sim as ref

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
def ancilla_circuits(draw, kinds):
    """Gates on the main wires plus phase kickbacks onto ancillas.

    A kickback copies a main wire onto an ancilla, applies a phase there
    and, unless it leaks, copies again to restore the ancilla.
    """
    n_main = draw(st.integers(1, 3))
    n_anc = draw(st.integers(0, 2))
    main = range(n_main)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if n_anc and draw(st.booleans()):
            copy = Gate("cx", (draw(st.sampled_from(main)), n_main + draw(st.integers(0, n_anc - 1))))
            phase = Gate(draw(st.sampled_from(["z", "s", "sdg", "t", "tdg"])), copy.qubits[1:])
            leaks = draw(st.integers(0, 9)) == 0
            gates += [copy, phase] if leaks else [copy, phase, copy]
        else:
            gates.append(_draw_gate(draw, main, kinds))
    return Circuit(n_main, n_anc, tuple(gates))


def _induced_outcome(induced, c):
    try:
        return induced(c)
    except AncillaContractViolated as exc:
        return ("violated", exc.basis_input)


@given(circuits_with_states())
def test_apply_circuit_matches_reference(case):
    c, state = case
    assert apply_circuit(state, c) == ref.apply_circuit(state, c)


@given(ancilla_circuits(ALL_KINDS))
def test_induced_unitary_matches_reference(c):
    assert _induced_outcome(induced_unitary, c) == _induced_outcome(ref.induced_unitary, c)


@given(ancilla_circuits(MONOMIAL_KINDS))
def test_induced_unitary_without_h_matches_reference(c):
    assert _induced_outcome(induced_unitary, c) == _induced_outcome(ref.induced_unitary, c)


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
        assert not is_almost_classical(want)
    else:
        assert _action_matrix(kind) == want
    inverse = ref.gate_matrix(spec.inverse)
    assert want @ inverse == ExactMatrix.identity(1 << spec.arity)
    assert gate_matrix(kind) == want


def test_induced_unitary_width_cap(monkeypatch):
    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    with pytest.raises(TooWide):
        induced_unitary(Circuit(13))
    monkeypatch.setenv("TDO_MAX_QUBITS", "2")
    with pytest.raises(TooWide):
        induced_unitary(Circuit(3))
    # The cap counts main qubits only; ancillas are simulated, not stored.
    assert induced_unitary(Circuit(2, 2)) == ExactMatrix.identity(4)
