"""Circuit model and scheduling metrics."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tdo.circuit import (
    GATES,
    Circuit,
    Gate,
    dagger,
    depth,
    invert_gates,
    metrics,
    t_count,
    t_depth_as_written,
    t_depth_scheduled,
)
from tdo.constructions import cc_minus_iz, toffoli_ammr, toffoli_nc, toffoli_nc4
from tdo.text import emit

import reference_sim as ref
from conftest import gate


def test_gate_validation():
    # Gate is a plain record; the circuit that holds it does the checking.
    for bad in (Gate("nope", (0,)), Gate("cx", (0,)), Gate("cx", (1, 1)), Gate("t", (-1,))):
        with pytest.raises(ValueError):
            Circuit(2, 0, (bad,))
    # A gate is a hashed value, so wires in a list are refused.
    with pytest.raises(TypeError):
        Circuit(2, 0, (Gate("cx", [0, 1]),))


def test_repeated_bad_gate_object_reports_first_offender():
    # Each distinct value is checked once, in order of first occurrence.
    good, bad, far = gate("cx", 0, 1), gate("cx", 1, 1), gate("t", 5)
    for gates, message in [
        ((good, bad, far, bad, good), "gate 'cx' repeats a qubit: (1, 1)"),
        ((good, far, bad, bad, far), "gate 't 5' uses qubit 5, but the circuit has width 2"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            Circuit(2, 0, gates)
        assert str(excinfo.value) == message


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, 0, (gate("t", 1),))
    with pytest.raises(ValueError):
        Circuit(-1)
    # ancilla indices sit after the main block
    Circuit(1, 1, (gate("cx", 0, 1),))


@pytest.mark.parametrize("fields, message", [
    ((2, 0, (Gate("x", (1.0,)),)), "^gate 'x 1.0' uses qubit 1.0, which is not an int$"),
    ((2, 0, (Gate("x", (True,)),)), "^gate 'x True' uses qubit True, which is not an int$"),
    ((2.0, 0, ()), "^qubit counts must be ints, got 2.0 and 0$"),
    ((True, 0, ()), "^qubit counts must be ints, got True and 0$"),
    ((1, 1.0, ()), "^qubit counts must be ints, got 1 and 1.0$"),
], ids=["float-wire", "bool-wire", "float-count", "bool-count", "float-ancillas"])
def test_circuit_refuses_counts_and_wires_that_are_not_ints(fields, message):
    # emit would print `x 1.0`, `x True` or `qubits 2.0`, which parse refuses.
    with pytest.raises(TypeError, match=message):
        Circuit(*fields)
    with pytest.raises(TypeError, match=message):
        Circuit(2)._replace(**dict(zip(Circuit._fields, fields)))


def test_circuit_is_an_immutable_value():
    gates = [gate("t", 0), gate("cx", 0, 1)]
    c = Circuit(2, 0, gates)
    assert c.gates == tuple(gates) and type(c.gates) is tuple
    assert Circuit(n_main=2, gates=gates) == c
    same = Circuit(2, 0, tuple(gates))
    assert same == c and hash(same) == hash(c)
    assert Circuit(2, 1, gates) != c
    with pytest.raises(AttributeError):
        c.n_main = 3
    with pytest.raises(AttributeError):
        c.label = "x"
    assert repr(Circuit(1)) == "Circuit(n_main=1, n_anc=0, gates=())"


def test_t_count_examples():
    assert t_count(toffoli_nc()) == 7
    assert t_count(Circuit(1)) == 0


def test_t_depth_as_written_examples():
    assert t_depth_as_written(toffoli_nc()) == 6
    assert t_depth_as_written(toffoli_nc4()) == 4
    parallel = Circuit(3, 0, (gate("t", 0), gate("t", 1), gate("t", 2)))
    assert t_depth_as_written(parallel) == 1


def test_t_depth_as_written_splits_on_repeated_qubit():
    assert t_depth_as_written(Circuit(1, 0, (gate("t", 0), gate("t", 0)))) == 2


def test_t_depth_scheduled_examples():
    assert t_depth_scheduled(toffoli_nc4()) == 4
    assert t_depth_scheduled(toffoli_ammr()) == 3


def test_t_depth_scheduled_packs_across_interleaved_gates():
    c = Circuit(3, 0, (gate("t", 0), gate("x", 1), gate("t", 2)))
    assert t_depth_scheduled(c) == 1
    chained = Circuit(2, 0, (gate("t", 0), gate("cx", 0, 1), gate("t", 1)))
    assert t_depth_scheduled(chained) == 2


def test_depth_examples():
    assert depth(Circuit(1, 0, (gate("h", 0),))) == 1
    assert depth(cc_minus_iz(True)) == 5
    assert depth(cc_minus_iz(False)) == 7


def test_multi_controlled_kinds_do_not_count_toward_t_metrics():
    c = Circuit(3, 0, (gate("ccx", 0, 1, 2), gate("ccz", 0, 1, 2), gate("cs", 0, 1)))
    m = metrics(c)
    assert m.t_count == 0
    assert m.t_depth_scheduled == 0
    assert m.depth == 3
    assert m.gate_count == 3


def test_dagger_examples():
    assert dagger(Circuit(1, 0, (gate("t", 0),))).gates == (gate("tdg", 0),)
    c = Circuit(2, 0, (gate("h", 0), gate("cx", 0, 1)))
    assert dagger(c).gates == (gate("cx", 0, 1), gate("h", 0))


def test_invert_gates_of_repeated_objects():
    t, cx, s = gate("t", 0), gate("cx", 0, 1), gate("s", 1)
    gates = [t, cx, s, t, cx, t]
    inverses = invert_gates(gates)
    assert inverses == tuple(g.inverse() for g in reversed(gates))
    assert inverses[0] is inverses[2] is inverses[5]
    assert inverses[1] is cx and inverses[4] is cx


def test_invert_gates_shares_one_inverse_per_distinct_gate():
    # Fresh but equal gates in, one inverse object per distinct value out.
    gates = [Gate(kind, tuple(qubits)) for kind, qubits in
             [("t", [0]), ("cx", [0, 1]), ("s", [1]), ("t", [0]), ("cx", [0, 1]), ("s", [1])]]
    inverses = invert_gates(gates)
    assert inverses == tuple(g.inverse() for g in reversed(gates))
    assert len(set(map(id, inverses))) == len(set(gates)) == 3


def test_equal_gates_are_worked_on_once(monkeypatch):
    # Fresh but equal objects are one value: formatted once, inverted once.
    calls = Counter()
    to_text, invert = Gate.__str__, Gate.inverse

    def counted_str(g):
        calls["str", g] += 1
        return to_text(g)

    def counted_inverse(g):
        calls["inverse", g] += 1
        return invert(g)

    monkeypatch.setattr(Gate, "__str__", counted_str)
    monkeypatch.setattr(Gate, "inverse", counted_inverse)
    gates = [Gate(kind, tuple(qubits)) for kind, qubits in
             [("t", [0]), ("cx", [0, 1]), ("t", [0]), ("cx", [0, 1]), ("t", [0])]]
    assert gates[0] is not gates[2] and gates[1] is not gates[3]
    t, cx = gate("t", 0), gate("cx", 0, 1)
    assert emit(Circuit(2, 0, gates)) == "qubits 2\nt 0\ncx 0 1\nt 0\ncx 0 1\nt 0\n"
    assert invert_gates(gates) == (gate("tdg", 0), cx, gate("tdg", 0), cx, gate("tdg", 0))
    assert calls == {("str", t): 1, ("str", cx): 1, ("inverse", t): 1, ("inverse", cx): 1}


def test_metrics_record():
    m = metrics(toffoli_nc())
    assert (m.t_count, m.t_depth_as_written) == (7, 6)
    assert m.gate_count == 16
    empty = metrics(Circuit(2, 1))
    assert (empty.t_count, empty.depth, empty.gate_count) == (0, 0, 0)
    assert (empty.n_main, empty.n_anc) == (2, 1)


_kinds = st.sampled_from(["x", "h", "s", "t", "tdg", "cx", "cz", "ccx", "swap"])


@st.composite
def circuits(draw, min_qubits=1):
    n = draw(st.integers(min_qubits, 5))
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(_kinds)
        arity = GATES[kind].arity
        if arity > n:
            continue
        qubits = draw(
            st.permutations(range(n)).map(lambda p: tuple(p[:arity]))
        )
        gates.append(Gate(kind, qubits))
    return Circuit(n, 0, tuple(gates))


@given(circuits())
def test_metric_ordering_invariant(c):
    m = metrics(c)
    assert m.t_depth_scheduled <= m.t_depth_as_written <= m.t_count
    assert m.t_depth_scheduled <= m.depth


@given(circuits())
def test_dagger_is_involutive_and_preserves_metrics(c):
    assert dagger(dagger(c)) == c
    m1, m2 = metrics(c), metrics(dagger(c))
    assert m1 == m2


@given(circuits(), st.integers(0, 30))
def test_swapping_adjacent_disjoint_gates_preserves_schedules(c, index):
    if len(c.gates) < 2:
        return
    i = index % (len(c.gates) - 1)
    a, b = c.gates[i], c.gates[i + 1]
    if set(a.qubits) & set(b.qubits):
        return
    swapped = Circuit(
        c.n_main, c.n_anc, c.gates[:i] + (b, a) + c.gates[i + 2 :]
    )
    assert t_depth_scheduled(swapped) == t_depth_scheduled(c)
    assert depth(swapped) == depth(c)


@given(circuits(), circuits())
def test_depth_subadditive_under_concatenation(c1, c2):
    n = max(c1.n_main, c2.n_main)
    joined = Circuit(n, 0, c1.gates + c2.gates)
    assert depth(joined) <= depth(c1) + depth(c2)


# Heavy in one-qubit Cliffords, which the schedule skips, and in ccx/ccz.
_SCHEDULE_KINDS = st.sampled_from(
    ["x", "y", "z", "h", "s", "sdg"] * 3 + ["t", "tdg", "ccx", "ccz"] * 2
    + ["cx", "cz", "cs", "swap"]
)


@st.composite
def schedule_circuits(draw, kinds=_SCHEDULE_KINDS):
    """Circuits on the lowest and highest three wires of their width."""
    width = draw(st.sampled_from([3, 6, 3_000_000_000]))
    wires = range(width)
    ends = sorted({*wires[:3], *wires[-3:]})
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(kinds)
        qubits = draw(st.permutations(ends))[: GATES[kind].arity]
        gates.append(Gate(kind, tuple(qubits)))
    return Circuit(width, 0, tuple(gates))


@settings(max_examples=300)
@given(schedule_circuits())
def test_t_depth_scheduled_matches_reference(c):
    assert t_depth_scheduled(c) == ref.t_depth_scheduled(c)


@settings(max_examples=300)
@given(schedule_circuits(st.sampled_from(sorted(GATES))))
def test_depth_matches_reference(c):
    assert depth(c) == ref.depth(c)
