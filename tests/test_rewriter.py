"""Single-T-stage rewriting: equivalence, contracts, and growth bounds."""

import random

import pytest
from hypothesis import given, strategies as st

from tdo.circuit import GATES, T_KINDS, Circuit, Gate, t_count, t_depth_scheduled
from tdo.constructions import toffoli_ammr, toffoli_nc
from tdo.rewriter import (
    NotAlmostClassical,
    rewrite_budgeted,
    rewrite_tdepth1,
    validate_gateset,
)
from tdo.sim import equivalence_phase, induced_unitary
from tdo.text import emit, parse

import reference_sim as ref
from conftest import gate, random_monomial_circuit


def toffoli_core() -> Circuit:
    gates = tuple(g for g in toffoli_nc().gates if g.kind != "h")
    return Circuit(3, 0, gates)


def test_validate_gateset_examples():
    clean = Circuit(3, 0, (gate("s", 0), gate("x", 1), gate("cx", 0, 1),
                           gate("ccx", 0, 1, 2), gate("ccz", 0, 1, 2),
                           gate("t", 0), gate("tdg", 1)))
    assert validate_gateset(clean) == []
    assert validate_gateset(Circuit(1, 0, (gate("h", 0),))) == [0]
    assert validate_gateset(toffoli_ammr()) == [0, 15]


def test_rewrite_toffoli_core():
    core = toffoli_core()
    out = rewrite_tdepth1(core)
    assert out.n_anc == 7
    assert t_depth_scheduled(out) == 1
    assert equivalence_phase(out, core) == 0


def test_rewrite_no_t_gates_returns_input():
    c = Circuit(2, 0, (gate("cx", 0, 1), gate("s", 0)))
    out = rewrite_tdepth1(c)
    assert out is c


def test_rewrite_rejects_hadamard():
    with pytest.raises(NotAlmostClassical) as excinfo:
        rewrite_tdepth1(Circuit(2, 0, (gate("t", 0), gate("h", 1))))
    assert excinfo.value.position == 1
    assert excinfo.value.kind == "h"


def test_rewrite_keeps_input_ancillas_as_wires():
    c = Circuit(1, 1, (gate("cx", 0, 1), gate("t", 1), gate("cx", 0, 1)))
    out = rewrite_tdepth1(c)
    assert (out.n_main, out.n_anc) == (1, 2)
    assert equivalence_phase(out, c) == 0


def test_budgeted_matches_single_stage_when_s_is_one():
    core = toffoli_core()
    assert rewrite_budgeted(core, 1) == rewrite_tdepth1(core)


def test_budgeted_halves_ancillas_for_two_stages():
    core = toffoli_core()
    out = rewrite_budgeted(core, 2)
    assert out.n_anc == 4
    assert t_depth_scheduled(out) <= 2
    assert equivalence_phase(out, core) == 0


def test_budgeted_large_budget_uses_one_ancilla():
    core = toffoli_core()
    out = rewrite_budgeted(core, t_count(core) + 3)
    assert out.n_anc == 1
    assert t_depth_scheduled(out) <= t_count(core)
    assert equivalence_phase(out, core) == 0


def test_budgeted_rejects_zero_stages():
    with pytest.raises(ValueError):
        rewrite_budgeted(toffoli_core(), 0)


def test_compute_stage_uncompute_prefix_is_diagonal():
    # The block before the T-free remainder implements a diagonal operator.
    c = Circuit(2, 0, (gate("x", 0), gate("t", 0), gate("cx", 0, 1), gate("tdg", 1)))
    out = rewrite_tdepth1(c)
    prefix_len = len(out.gates) - sum(1 for g in c.gates if g.kind not in T_KINDS)
    prefix = Circuit(out.width, 0, out.gates[:prefix_len])
    assert ref.is_diagonal(induced_unitary(prefix))


def test_random_rewrites_keep_semantics(rng):
    for _ in range(30):
        c = random_monomial_circuit(rng)
        out = rewrite_tdepth1(c)
        assert t_depth_scheduled(out) <= 1
        assert out.n_anc == t_count(c)
        assert len(out.gates) <= 3 * (len(c.gates) + t_count(c))
        assert induced_unitary(out) == induced_unitary(c)


def test_random_budgeted_rewrites(rng):
    for _ in range(20):
        c = random_monomial_circuit(rng)
        out = rewrite_budgeted(c, 2)
        assert t_depth_scheduled(out) <= 2
        assert out.n_anc == -(-t_count(c) // 2)
        assert induced_unitary(out) == induced_unitary(c)


@st.composite
def _monomial_inputs(draw):
    """A monomial circuit with input ancillas, often T-free, T gates often at an end."""
    n_main = draw(st.integers(1, 3))
    n_anc = draw(st.integers(0, 2))
    width = n_main + n_anc
    kinds = sorted(k for k, spec in GATES.items() if spec.action is not None and spec.arity <= width)
    gate = st.sampled_from(kinds).flatmap(
        lambda k: st.permutations(range(width)).map(lambda p: Gate(k, tuple(p[:GATES[k].arity])))
    )
    t_gate = st.builds(Gate, st.sampled_from(sorted(T_KINDS)), st.tuples(st.integers(0, width - 1)))
    gates = draw(st.lists(gate, max_size=24))
    if draw(st.booleans()):
        gates = [g for g in gates if g.kind not in T_KINDS]
    gates = draw(st.lists(t_gate, max_size=2)) + gates + draw(st.lists(t_gate, max_size=2))
    return Circuit(n_main, n_anc, tuple(gates))


@given(_monomial_inputs(), st.data())
def test_rewrite_matches_the_reference_segment_loop(c, data):
    stages = data.draw(st.integers(1, t_count(c) + 2))
    out = rewrite_budgeted(c, stages)
    want = ref.rewrite_budgeted(c, stages)
    assert out == want
    assert emit(out) == emit(want)


@given(_monomial_inputs(), st.data())
def test_rewrite_refuses_h_like_the_reference(c, data):
    gates = list(c.gates)
    for _ in range(data.draw(st.integers(1, 2))):
        gates.insert(data.draw(st.integers(0, len(gates))), Gate("h", (0,)))
    c = c._replace(gates=tuple(gates))
    stages = data.draw(st.integers(1, t_count(c) + 2))
    with pytest.raises(NotAlmostClassical) as got:
        rewrite_budgeted(c, stages)
    with pytest.raises(NotAlmostClassical) as want:
        ref.rewrite_budgeted(c, stages)
    assert (got.value.kind, got.value.position) == (want.value.kind, want.value.position)
    assert str(got.value) == str(want.value)


def test_multi_segment_rewrite_holds_one_object_per_distinct_gate(rng):
    # parse gives one object per distinct input line. No input kind here has
    # a different inverse kind that is also in the input (s but no sdg), so
    # an inverse never equals an input gate object it could have been.
    lines = ["qubits 3", "ancillas 1"]
    for _ in range(300):
        kind = rng.choice(["t", "tdg", "s", "cx", "ccz"])
        lines.append(" ".join([kind, *map(str, rng.sample(range(4), GATES[kind].arity))]))
    c = parse("\n".join(lines))
    for stages in (2, 5, 40):
        gates = rewrite_budgeted(c, stages).gates
        assert len(set(map(id, gates))) == len(set(gates))


def test_equal_input_gates_share_one_inverse():
    # Fresh equal gates in: each value's inverse is one object out.
    c = Circuit(2, 0, tuple(Gate(k, (q,)) for _ in range(3) for k in ("s", "t") for q in (0, 1)))
    out = rewrite_budgeted(c, 3)
    inverses = [g for g in out.gates if g.kind == "sdg"]
    assert len(inverses) == 6 and len(set(map(id, inverses))) == len(set(inverses)) == 2
