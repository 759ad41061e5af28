"""Reference simulator: one RingScalar multiply or add per amplitude update.

This is the library's original per-gate kernel, kept as an independent
oracle for the integer-coefficient kernel in `tdo.sim`. It shares no gate
semantics with `tdo.circuit.GATES` or `tdo.sim`: every kind is spelled out
as its own branch over RingScalar amplitudes. Only the result containers
(ExactState, ExactMatrix) and the ancilla-contract exception are shared, so
results compare with `==`.
"""

from __future__ import annotations

from tdo.circuit import GATE_ARITY, Circuit, Gate
from tdo.ring import IM, INV_SQRT2, MINUS_ONE, OMEGA, RingScalar
from tdo.sim import AncillaContractViolated, ExactMatrix, ExactState

_PHASES = {
    "z": MINUS_ONE,
    "s": IM,
    "sdg": -IM,
    "t": OMEGA,
    "tdg": OMEGA.conjugate(),
}


def _accumulate(out: dict[int, RingScalar], index: int, value: RingScalar) -> None:
    held = out.get(index)
    out[index] = value if held is None else held + value


def apply_gate(amps: dict[int, RingScalar], gate: Gate, n: int) -> dict[int, RingScalar]:
    kind = gate.kind
    qs = gate.qubits
    if kind == "cx":
        cbit = 1 << (n - 1 - qs[0])
        tbit = 1 << (n - 1 - qs[1])
        return {(i ^ tbit if i & cbit else i): v for i, v in amps.items()}
    if kind in _PHASES:
        bit = 1 << (n - 1 - qs[0])
        phase = _PHASES[kind]
        return {i: (v * phase if i & bit else v) for i, v in amps.items()}
    if kind == "h":
        bit = 1 << (n - 1 - qs[0])
        out: dict[int, RingScalar] = {}
        for i, v in amps.items():
            w = v * INV_SQRT2
            _accumulate(out, i & ~bit, w)
            _accumulate(out, i | bit, -w if i & bit else w)
        return {i: v for i, v in out.items() if v}
    if kind == "x":
        bit = 1 << (n - 1 - qs[0])
        return {i ^ bit: v for i, v in amps.items()}
    if kind == "y":
        bit = 1 << (n - 1 - qs[0])
        return {i ^ bit: (v * (-IM) if i & bit else v * IM) for i, v in amps.items()}
    if kind == "cz":
        mask = (1 << (n - 1 - qs[0])) | (1 << (n - 1 - qs[1]))
        return {i: (-v if i & mask == mask else v) for i, v in amps.items()}
    if kind in ("cs", "csdg"):
        mask = (1 << (n - 1 - qs[0])) | (1 << (n - 1 - qs[1]))
        phase = IM if kind == "cs" else -IM
        return {i: (v * phase if i & mask == mask else v) for i, v in amps.items()}
    if kind == "swap":
        abit = 1 << (n - 1 - qs[0])
        bbit = 1 << (n - 1 - qs[1])
        both = abit | bbit
        return {
            (i ^ both if bool(i & abit) != bool(i & bbit) else i): v
            for i, v in amps.items()
        }
    if kind == "ccx":
        cmask = (1 << (n - 1 - qs[0])) | (1 << (n - 1 - qs[1]))
        tbit = 1 << (n - 1 - qs[2])
        return {(i ^ tbit if i & cmask == cmask else i): v for i, v in amps.items()}
    if kind == "ccz":
        mask = (1 << (n - 1 - qs[0])) | (1 << (n - 1 - qs[1])) | (1 << (n - 1 - qs[2]))
        return {i: (-v if i & mask == mask else v) for i, v in amps.items()}
    raise ValueError(f"unsupported gate kind {kind!r}")


def apply_circuit(state: ExactState, c: Circuit) -> ExactState:
    assert state.n == c.width
    amps = {i: state.amplitude(i) for i in state.support()}
    for gate in c.gates:
        amps = apply_gate(amps, gate, state.n)
    return ExactState(state.n, amps)


def induced_unitary(c: Circuit) -> ExactMatrix:
    """Columns over main-register basis inputs, ancillas in |0> and checked."""
    anc_mask = (1 << c.n_anc) - 1
    dim = 1 << c.n_main
    columns = []
    for x in range(dim):
        state = apply_circuit(ExactState.basis(c.width, x << c.n_anc), c)
        column: dict[int, RingScalar] = {}
        for index in state.support():
            if index & anc_mask:
                raise AncillaContractViolated(x)
            column[index >> c.n_anc] = state.amplitude(index)
        columns.append(column)
    return ExactMatrix.from_columns(dim, columns)


def gate_matrix(kind: str) -> ExactMatrix:
    """The matrix of one gate kind over its own wires, most significant first."""
    n = GATE_ARITY[kind]
    return induced_unitary(Circuit(n, 0, (Gate(kind, tuple(range(n))),)))
