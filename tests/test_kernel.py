"""The integer-coefficient kernel and the gate table against the reference simulator."""

import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tdo.circuit import GATES, Circuit, Gate
from tdo.cli import main
from tdo.packed import ROTATE
from tdo.ring import ONE, RingScalar, omega_pow
from tdo.sim import (
    AncillaContractViolated,
    ExactMatrix,
    ExactState,
    TooWide,
    apply_circuit,
    equivalence_phase,
    induced_unitary,
)

import tdo
import reference_sim as ref
from conftest import gate, gate_unitary

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
    return Circuit(n, 0, tuple(gates)), ref.state(n, amps)


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


def _omega_j(wire, j):
    """omega^j times the identity: x P x P on one wire, P = s^(j//2) t^(j%2)."""
    half = [Gate("s", (wire,))] * (j // 2) + [Gate("t", (wire,))] * (j % 2)
    return [Gate("x", (wire,))] + half + [Gate("x", (wire,))] + half


def _sandwich(draw, width):
    """A drawn `_omega_j` on one wire.

    An optional leading h h pair is the identity too, but it can reorder
    the entries of a sparse column.
    """
    wire = draw(st.integers(0, width - 1))
    pad = [Gate("h", (wire,))] * 2 if draw(st.booleans()) else []
    return pad + _omega_j(wire, draw(st.integers(0, 7)))


def _leak(draw, n_main, n_anc):
    """A gate that leaves an ancilla dirty on some or all basis inputs."""
    ancilla = n_main + draw(st.integers(0, n_anc - 1))
    if n_main and draw(st.booleans()):
        return Gate("cx", (draw(st.integers(0, n_main - 1)), ancilla))
    return Gate("x", (ancilla,))


@st.composite
def verify_pairs(draw, kind_sets=(ALL_KINDS + ["h"] * 4, MONOMIAL_KINDS), n_mains=st.integers(0, 4)):
    """Circuit pairs as `verify` meets them.

    c2 is c1 itself, c1 with one t and tdg swapped, c1 after a controlled
    gate (which fixes basis input 0 and so leaves column 0 alone), or an
    unrelated circuit on as many main wires. It may then be followed by an
    omega^j sandwich. Ancilla leaks are added to c1, c2 or both.
    """
    kinds = draw(st.sampled_from(kind_sets))
    c1 = draw(ancilla_circuits(kinds, n_mains=n_mains, leak_odds=40))
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


# Coefficients of every bit length up to 100, so that some sit just under a
# field width and the fields widen part-way through a run.
wide_scalars = st.builds(
    RingScalar,
    *[st.integers(0, 100).flatmap(lambda b: st.integers(-(1 << b), 1 << b))] * 4,
    st.integers(0, 5),
)


@st.composite
def circuits_on_some_wires(draw):
    """Up to 8 wires; gates touch a drawn subset, and the support may vary anywhere."""
    n = draw(st.integers(1, 8))
    touched = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    kinds = ALL_KINDS + ["h"] * 6
    gates = [_draw_gate(draw, touched, kinds) for _ in range(draw(st.integers(0, 40)))]
    amps = draw(st.dictionaries(st.integers(0, (1 << n) - 1), wide_scalars, max_size=1 << n))
    return Circuit(n, 0, tuple(gates)), ref.state(n, amps)


@settings(max_examples=200)
@given(circuits_on_some_wires())
# 8190 fills the headroom of a 16-bit field: unless the fields widen, the
# third h overflows one.
@example((
    Circuit(2, 0, (gate("h", 1), gate("h", 0), gate("h", 1))),
    ExactState(2, {0: (8190, 8190, -1, 8190), 2: (8190, 8190, 8190, 8190)}, 0),
))
# The support varies on wire 0, which no gate touches; the two h gates
# can spread it over all three lanes, so the packed kernel runs it.
@example((
    Circuit(3, 0, (gate("h", 2), gate("h", 1), gate("cx", 2, 1), gate("t", 1))),
    ref.state(3, {0: ONE, 4: RingScalar(0, 1 << 100, 0, 0, 3)}),
))
# The lanes are wires 0-1, 3-5 and 7, three runs of index bits; the support
# varies on wire 5, which no gate touches, and holds wire 6 at 1. The five h
# gates can spread it over all six lanes, so the packed kernel runs it.
@example((
    Circuit(8, 0, (gate("h", 0), gate("h", 1), gate("cx", 1, 3), gate("h", 3), gate("h", 4),
                   gate("ccz", 0, 4, 7), gate("t", 7), gate("h", 7), gate("swap", 0, 3))),
    ref.state(8, {2: ONE, 6: RingScalar(0, 3, -1, 0, 1)}),
))
def test_apply_circuit_matches_reference_on_wide_coefficients(case):
    c, state = case
    assert apply_circuit(state, c) == ref.apply_circuit(state, c)


@given(circuits_on_some_wires(), st.integers(0, 3))
@example((Circuit(1), ExactState.basis(1, 0)), 1)
def test_apply_circuit_output_is_canonical(case, doublings):
    # k is the lowest that keeps every coefficient an integer: 0, or some
    # amplitude w + x*omega + y*omega^2 + z*omega^3 has w != y or x != z (mod 2).
    # The input is given over a k raised by 2 * doublings, which it must not keep.
    c, state = case
    raised = {i: tuple(x << doublings for x in v) for i, v in state.amps.items()}
    _, amps, k = apply_circuit(ExactState(state.n, raised, state.k + 2 * doublings), c)
    assert k == 0 or any(((w ^ y) | (x ^ z)) & 1 for w, x, y, z in amps.values())


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


# A phase kicked back through an ancilla, beside a controlled phase.
_KICKBACK = Circuit(2, 1, (gate("cx", 0, 2), gate("t", 2), gate("cx", 0, 2), gate("cs", 0, 1)))
# z = h x h: the same operator with and without h.
_Z_WITHOUT_H = Circuit(1, 0, (gate("z", 0),))
_Z_WITH_H = Circuit(1, 0, (gate("h", 0), gate("x", 0), gate("h", 0)))


def _sliced_examples(test):
    """Pairs for the bit-sliced comparison of h-free circuits."""
    pairs = [
        # No main wires: one lane, here omega times the identity.
        (Circuit(0, 1, (gate("x", 0), gate("t", 0), gate("x", 0))), Circuit(0)),
        # One circuit without h and one with, in both orders.
        (_Z_WITHOUT_H, _Z_WITH_H),
        (_Z_WITH_H, _Z_WITHOUT_H),
        # Both leak; c1's first violating input (2) is reported, not c2's (1).
        (Circuit(2, 1, (gate("cx", 0, 2),)), Circuit(2, 1, (gate("cx", 1, 2),))),
        # Only input 7 sets ancilla 4.
        (Circuit(3, 2, (gate("ccx", 0, 1, 3), gate("ccx", 2, 3, 4), gate("ccx", 0, 1, 3))), Circuit(3)),
    ]
    # Equal up to omega^j for each j.
    pairs += [
        (_KICKBACK, Circuit(2, 1, _KICKBACK.gates + tuple(_omega_j(1, j))))
        for j in range(1, 8)
    ]
    for pair in pairs:
        test = example(pair)(test)
    return test


# No deadline: the reference's dense phase search on 7 main qubits can take
# longer than Hypothesis's default 200 ms on a loaded machine.
@settings(max_examples=300, deadline=None)
@given(verify_pairs(kind_sets=(MONOMIAL_KINDS,), n_mains=st.integers(0, 7)))
@_sliced_examples
def test_equivalence_phase_without_h_matches_reference(pair):
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


def _run_limited(script, cap):
    """Run a script in a child with TDO_MAX_QUBITS=cap and a 256 MiB address space."""
    src = str(Path(tdo.__file__).resolve().parent.parent)
    env = dict(os.environ, TDO_MAX_QUBITS=str(cap))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    limit = 1 << 28
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@given(st.tuples(*[st.integers(-99, 99)] * 4), st.integers(0, 6))
def test_rotate_multiplies_by_a_power_of_omega(coeffs, k):
    for e in range(8):
        assert RingScalar(*ROTATE[e](*coeffs), k) == omega_pow(e) * RingScalar(*coeffs, k)


# The kernels compute on coefficient tuples, so the commands and states that
# only simulate never load the ring. Runs in a fresh interpreter, because this
# one has loaded it; the last two calls build ring scalars and load it.
_WITHOUT_RING = """
import io, json, sys
from pathlib import Path
from tdo.circuit import Circuit, Gate
from tdo.cli import main
from tdo.sim import ExactMatrix, ExactState, apply_circuit, induced_unitary
ring = {"tdo.ring", "fractions", "decimal", "numbers"}
work = Path(sys.argv[1])
runs = [["verify", work / "toffoli1.tdo", work / "ccx.tdo"],
        ["verify", work / "free.tdo", work / "free.tdo"], ["emit", "controlled-t"]]
outs = []
for argv in runs:
    out = io.StringIO()
    assert main([str(a) for a in argv], out, io.StringIO()) == 0, argv
    outs.append(out.getvalue())
h3 = Circuit(3, 0, tuple(Gate("h", (q,)) for q in range(3)))
chain = Circuit(3, 0, (Gate("cx", (0, 1)), Gate("t", (2,))))
outs += [repr(apply_circuit(ExactState.basis(3, 0), h3)), repr(apply_circuit(ExactState.basis(3, 5), chain))]
assert not ring & set(sys.modules), ring & set(sys.modules)
assert ExactMatrix.from_columns(2, [{}, {}]).rows == ((0, 0), (0, 0))
assert "tdo.ring" in sys.modules
from tdo.ring import INV_SQRT2
assert induced_unitary(Circuit(1, 0, (Gate("h", (0,)),))).rows == ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
print(json.dumps(outs))
"""


def test_simulation_loads_no_ring(tmp_path):
    toffoli = io.StringIO()
    assert main(["emit", "toffoli-tdepth1"], toffoli, io.StringIO()) == 0
    (tmp_path / "toffoli1.tdo").write_text(toffoli.getvalue())
    (tmp_path / "ccx.tdo").write_text("qubits 3\nccx 0 1 2\n")
    (tmp_path / "free.tdo").write_text("qubits 3\nt 0\ncx 0 1\nccz 0 1 2\ntdg 2\n")
    emitted = io.StringIO()
    assert main(["emit", "controlled-t"], emitted, io.StringIO()) == 0
    h3 = Circuit(3, 0, tuple(gate("h", q) for q in range(3)))
    chain = Circuit(3, 0, (gate("cx", 0, 1), gate("t", 2)))
    src = str(Path(tdo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_RING, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        '{"equivalent": true}\n', '{"equivalent": true}\n', emitted.getvalue(),
        repr(ref.apply_circuit(ExactState.basis(3, 0), h3)),
        repr(ref.apply_circuit(ExactState.basis(3, 5), chain)),
    ]


def test_induced_unitary_checks_cap_before_allocating():
    # A 2^30-square matrix would not fit in 256 MiB; TooWide must come first.
    script = (
        "from tdo.circuit import Circuit\n"
        "from tdo.sim import TooWide, induced_unitary\n"
        "try:\n"
        "    induced_unitary(Circuit(30))\n"
        "except TooWide:\n"
        "    print('TooWide')\n"
    )
    proc = _run_limited(script, 12)
    assert (proc.returncode, proc.stdout) == (0, "TooWide\n"), proc.stderr


def test_apply_circuit_bounds_support(monkeypatch):
    # A full cap-wide state passes; an h that leaves more amplitudes does not.
    def all_h(n):
        return Circuit(n, 0, tuple(Gate("h", (q,)) for q in range(n)))

    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    assert len(apply_circuit(ExactState.basis(12, 0), all_h(12)).amps) == 4096
    with pytest.raises(TooWide):
        apply_circuit(ExactState.basis(13, 0), all_h(13))
    monkeypatch.setenv("TDO_MAX_QUBITS", "13")
    assert len(apply_circuit(ExactState.basis(13, 0), all_h(13)).amps) == 8192


def test_apply_circuit_caps_the_lanes_it_can_fill(monkeypatch):
    # Lanes are the touched wires plus the wires on which the support varies.
    # A state whose h gates can spread it over every lane must fit the cap;
    # one they cannot spread that far answers past it, as its support allows.
    monkeypatch.setenv("TDO_MAX_QUBITS", "2")
    state = ExactState(3, {0: (1, 0, 0, 0), 4: (1, 0, 0, 0)}, 0)
    for c in [
        Circuit(3, 0, (gate("h", 2),)),
        Circuit(3, 0, (gate("x", 1), gate("x", 2))),
        Circuit(3, 0, (gate("h", 1), gate("cx", 1, 2), gate("t", 2))),
    ]:
        assert apply_circuit(state, c) == ref.apply_circuit(state, c)
    with pytest.raises(TooWide):
        apply_circuit(state, Circuit(3, 0, (gate("h", 1), gate("h", 2))))
    spread = ExactState(3, {0: (1, 0, 0, 0), 7: (1, 0, 0, 0)}, 0)
    assert apply_circuit(spread, Circuit(3)) == spread


def test_apply_circuit_keeps_sparse_states_sparse(monkeypatch):
    # 20 lanes at the default cap: the support never exceeds 4 amplitudes.
    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    chain = tuple(gate("cx", q - 1, q) for q in range(1, 20))
    pair = ExactState(20, {0: (1, 0, 0, 0), 1 << 19: (1, 0, 0, 0)}, 0)
    for state in [ExactState.basis(20, 1 << 19), pair]:
        for c in [
            Circuit(20, 0, chain),
            Circuit(20, 0, (gate("h", 0), *chain, gate("t", 19), gate("h", 5))),
        ]:
            assert apply_circuit(state, c) == ref.apply_circuit(state, c)


def test_apply_circuit_memory_follows_the_lanes():
    # 26 wires, 3 of them lanes, which the h gates fill: a packed layout over
    # every wire would need 2^26 fields.
    c = Circuit(26, 0, (gate("x", 3), gate("h", 3), gate("h", 17), gate("cx", 3, 17), gate("h", 25)))
    script = (
        "from tdo.circuit import Circuit, Gate\n"
        "from tdo.sim import ExactState, apply_circuit\n"
        f"print(apply_circuit(ExactState.basis(26, 5), Circuit(26, 0, {c.gates!r})))\n"
    )
    proc = _run_limited(script, 26)
    want = ref.apply_circuit(ExactState.basis(26, 5), c)
    assert (proc.returncode, proc.stdout) == (0, f"{want}\n"), proc.stderr


def test_apply_circuit_checks_lanes_before_allocating():
    # 27 lanes that the h gates can fill, at a cap of 26: four 2^27-field
    # integers would not fit in 256 MiB. In the second case one lane comes
    # only from the support.
    script = (
        "from tdo.circuit import Circuit, Gate\n"
        "from tdo.sim import ExactState, TooWide, apply_circuit\n"
        "cases = [\n"
        "    (ExactState.basis(27, 0), Circuit(27, 0, tuple(Gate('h', (q,)) for q in range(27)))),\n"
        "    (ExactState(27, {0: (1, 0, 0, 0), 1 << 26: (1, 0, 0, 0)}, 0),\n"
        "     Circuit(27, 0, tuple(Gate('h', (q,)) for q in range(1, 27)))),\n"
        "]\n"
        "for state, c in cases:\n"
        "    try:\n"
        "        apply_circuit(state, c)\n"
        "    except TooWide:\n"
        "        print('TooWide')\n"
    )
    proc = _run_limited(script, 26)
    assert (proc.returncode, proc.stdout) == (0, "TooWide\nTooWide\n"), proc.stderr
