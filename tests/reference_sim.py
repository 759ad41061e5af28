"""Reference simulator and the dense oracles that only tests need.

The simulator is the library's original per-gate kernel and dense phase
search, kept as independent oracles for the integer-coefficient kernel and
the sparse column comparison in `tdo.sim`. It shares no gate semantics with
`tdo.circuit.GATES` or `tdo.sim`: every kind is spelled out as its own
branch over RingScalar amplitudes. Only the result containers (ExactState,
ExactMatrix) and the ancilla-contract, width-mismatch and width-cap
exceptions are shared, so results compare with `==` and refusals by type
and message.

`canonical` rewrites a RingScalar column in the coefficient-table form
that `tdo.sim.induced_columns` yields and an ExactState holds; `state`
builds an ExactState from RingScalar amplitudes that way, and `scalars`
reads one back as RingScalars, so the reference kernel runs on RingScalars
alone. `x0_expectation` is the
obstruction's X_0 expectation from an explicit |phi> (x) |0...0> input, an
oracle for `tdo.obstruction.expectation_direct`.
The rest is dense matrix algebra over those containers (products,
adjoints, unitarity and shape checks), phase diagonals, the k-controlled
X matrix, the single-qubit Clifford group, state norms, the exact sign of
a RealValue, the plain per-wire loop of the scheduled T-depth metric, and
a layer-by-layer depth.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from tdo.circuit import GATES, Circuit, Gate
from tdo.ring import IM, INV_SQRT2, MINUS_ONE, OMEGA, ONE, ZERO, RealValue, RingScalar, omega_pow
from tdo.sim import AncillaContractViolated, ExactMatrix, ExactState, TooWide, WidthMismatch

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


def state(n: int, amps: Mapping[int, RingScalar]) -> ExactState:
    """The n-qubit ExactState of RingScalar amplitudes."""
    return ExactState(n, *canonical(amps))


def scalars(psi: ExactState) -> dict[int, RingScalar]:
    """The amplitudes of an ExactState as RingScalars."""
    return {i: RingScalar(*v, psi.k) for i, v in psi.amps.items()}


def apply_circuit(psi: ExactState, c: Circuit) -> ExactState:
    assert psi.n == c.width
    amps = scalars(psi)
    for gate in c.gates:
        amps = apply_gate(amps, gate, psi.n)
    return state(psi.n, amps)


def x0_expectation(c: Circuit, phi: str) -> RealValue:
    """<psi| X_0 |psi> for psi = c(|phi> (x) |0...0>), phi "zero" or "plus".

    The input is built from explicit amplitudes (|+> on wire 0 is INV_SQRT2
    at the two indices that differ there), and X_0 pairs each amplitude with
    its partner across wire 0: the sum of conj(amp) * partner.
    """
    n = c.width
    top = 1 << (n - 1)
    start = {0: ONE} if phi == "zero" else {0: INV_SQRT2, top: INV_SQRT2}
    amps = scalars(apply_circuit(state(n, start), c))
    total = ZERO
    for index, amp in amps.items():
        partner = amps.get(index ^ top)
        if partner is not None:
            total = total + amp.conjugate() * partner
    return total.to_real()


def induced_columns(c: Circuit, cap: int | None = None) -> list[dict[int, RingScalar]]:
    """Columns over main-register basis inputs, each input run on its own.

    Ancillas start in |0> and are checked after each input's run. With a
    cap, the main register must fit it, and the first input whose support
    after an h exceeds 2^cap raises TooWide, worded as the library words it.
    """
    if cap is not None and c.n_main > cap:
        raise TooWide(f"{c.n_main}-main-qubit induced operator exceeds the width cap")
    anc_mask = (1 << c.n_anc) - 1
    columns = []
    for x in range(1 << c.n_main):
        amps = {x << c.n_anc: ONE}
        for gate in c.gates:
            amps = apply_gate(amps, gate, c.width)
            if cap is not None and gate.kind == "h" and len(amps) > 1 << cap:
                raise TooWide(f"state support exceeds 2^{cap} amplitudes, the width cap")
        if any(index & anc_mask for index in amps):
            raise AncillaContractViolated(x)
        columns.append({index >> c.n_anc: v for index, v in amps.items()})
    return columns


def canonical(column: Mapping[int, RingScalar]) -> tuple[dict[int, tuple], int]:
    """A column in `tdo.sim.induced_columns`' form: ({index: (a, b, c, d)}, k).

    Each amplitude's coefficients are scaled to k, the largest k among the
    amplitudes, by multiplying by sqrt2 = omega - omega^3 as often as needed.
    """
    k = max((v.k for v in column.values()), default=0)
    out = {}
    for i, v in column.items():
        a, b, c, d = v.a, v.b, v.c, v.d
        for _ in range(k - v.k):
            a, b, c, d = b - d, a + c, b + d, c - a
        out[i] = (a, b, c, d)
    return out, k


def induced_unitary(c: Circuit) -> ExactMatrix:
    """`induced_columns` with no cap, as a dense matrix."""
    return ExactMatrix.from_columns(1 << c.n_main, induced_columns(c))


def equivalence_phase(c1: Circuit, c2: Circuit) -> int | None:
    """The library's original phase search: two dense matrices, then up to
    seven scaled copies of the second, one per omega^j."""
    if c1.n_main != c2.n_main:
        raise WidthMismatch("circuits act on different main registers")
    u1 = induced_unitary(c1)
    u2 = induced_unitary(c2)
    if u1 == u2:
        return 0
    for j in range(1, 8):
        if u1 == u2.scaled(omega_pow(j)):
            return j
    return None


def gate_matrix(kind: str) -> ExactMatrix:
    """The matrix of one gate kind over its own wires, most significant first."""
    n = GATES[kind].arity
    return induced_unitary(Circuit(n, 0, (Gate(kind, tuple(range(n))),)))


def k_controlled_x_matrix(k: int) -> ExactMatrix:
    """X on the last of k + 1 wires when the first k all hold 1."""
    dim = 1 << (k + 1)
    controls = ((1 << k) - 1) << 1
    rows = [[ZERO] * dim for _ in range(dim)]
    for x in range(dim):
        y = x ^ 1 if x & controls == controls else x
        rows[y][x] = ONE
    return ExactMatrix(rows)


def identity(dim: int) -> ExactMatrix:
    return diagonal([ONE] * dim)


def diagonal(entries: Sequence[RingScalar]) -> ExactMatrix:
    return ExactMatrix.from_columns(len(entries), [{i: v} for i, v in enumerate(entries)])


def matmul(*factors: ExactMatrix) -> ExactMatrix:
    """The product of square matrices of one dimension, left to right."""
    left = factors[0]
    for right in factors[1:]:
        if left.dim != right.dim:
            raise ValueError("dimension mismatch")
        out = [[ZERO] * left.dim for _ in range(left.dim)]
        for arow, orow in zip(left.rows, out):
            for aik, brow in zip(arow, right.rows):
                if aik.is_zero:
                    continue
                for j, bkj in enumerate(brow):
                    if not bkj.is_zero:
                        orow[j] = orow[j] + aik * bkj
        left = ExactMatrix(out)
    return left


def adjoint(m: ExactMatrix) -> ExactMatrix:
    """The conjugate transpose."""
    return ExactMatrix([[row[i].conjugate() for row in m.rows] for i in range(m.dim)])


def is_unitary(m: ExactMatrix) -> bool:
    return matmul(m, adjoint(m)) == identity(m.dim)


def is_diagonal(m: ExactMatrix) -> bool:
    return all(v.is_zero for i, row in enumerate(m.rows) for j, v in enumerate(row) if i != j)


def is_almost_classical(m: ExactMatrix) -> bool:
    """Whether the matrix is monomial: one nonzero entry per row and column."""
    rows = [[not v.is_zero for v in row] for row in m.rows]
    return all(sum(row) == 1 for row in rows) and all(sum(col) == 1 for col in zip(*rows))


@dataclass(frozen=True)
class PhaseSpec:
    """A diagonal of eighth-root phases: entry omega^(sum sign*parity(mask, x)).

    Each term is a nonempty set of qubit indices and a sign; parity is the
    XOR of the basis bits selected by the mask.
    """

    n: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, n: int, terms: Iterable[tuple[Iterable[int], int]]) -> None:
        object.__setattr__(self, "n", n)
        normalised = []
        for mask, sign in terms:
            qubits = tuple(sorted(set(mask)))
            if not qubits:
                raise ValueError("phase masks must be nonempty")
            if any(q < 0 or q >= n for q in qubits):
                raise ValueError("phase mask qubit out of range")
            if sign not in (-1, 1):
                raise ValueError("phase sign must be +1 or -1")
            normalised.append((qubits, sign))
        masks = [m for m, _ in normalised]
        if len(set(masks)) != len(masks):
            raise ValueError("phase masks must be distinct")
        object.__setattr__(self, "terms", tuple(normalised))


def phase_diagonal(spec: PhaseSpec) -> ExactMatrix:
    """Materialise a PhaseSpec as an exact diagonal matrix."""
    n = spec.n
    bitmasks = [(sum(1 << (n - 1 - q) for q in mask), sign) for mask, sign in spec.terms]
    return diagonal([
        omega_pow(sum(sign * (bin(x & bits).count("1") & 1) for bits, sign in bitmasks))
        for x in range(1 << n)
    ])


def single_qubit_cliffords() -> tuple[ExactMatrix, ...]:
    """The 24 single-qubit Clifford operators modulo global phase.

    Enumerated as products of the Hadamard and phase gates, with each
    coset represented by its lexicographically least omega-scaling.
    """

    def canonical(m: ExactMatrix) -> ExactMatrix:
        def key(mat: ExactMatrix) -> tuple:
            return tuple((v.a, v.b, v.c, v.d, v.k) for row in mat.rows for v in row)

        return min((m.scaled(omega_pow(j)) for j in range(8)), key=key)

    generators = (gate_matrix("h"), gate_matrix("s"))
    start = canonical(identity(2))
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for m in frontier:
            for g in generators:
                candidate = canonical(matmul(g, m))
                if candidate not in seen:
                    seen.add(candidate)
                    grown.append(candidate)
        frontier = grown
    return tuple(seen)


def norm_squared(psi: ExactState) -> RingScalar:
    total = ZERO
    for v in scalars(psi).values():
        total = total + v * v.conjugate()
    return total


def real_sign(v: RealValue) -> int:
    """The exact sign of p + q*sqrt2.

    The sqrt2 part decides unless q = 0, or p and q disagree in sign and
    p^2 > 2*q^2.
    """
    p, q = v.p, v.q
    if q == 0 or (p != 0 and (p > 0) != (q > 0) and p * p > 2 * q * q):
        return (p > 0) - (p < 0)
    return 1 if q > 0 else -1


def t_depth_scheduled(c: Circuit) -> int:
    """Scheduled T-depth with no shortcut: every gate visits every wire.

    A t/tdg bumps its wire's level; any other gate sets the levels of all
    its wires to their maximum, one-qubit gates included.
    """
    level: defaultdict[int, int] = defaultdict(int)
    for gate in c.gates:
        qubits = gate.qubits
        if gate.kind in ("t", "tdg"):
            level[qubits[0]] += 1
        else:
            peak = max([level[q] for q in qubits])
            for q in qubits:
                level[q] = peak
    return max(level.values(), default=0)


def depth(c: Circuit) -> int:
    """Depth with no per-wire counters: the gates are laid out in layers.

    Each gate goes into the layer just after the last layer that holds a
    gate on one of its wires, and the depth is the number of layers.
    """
    layers: list[set[int]] = []
    for gate in c.gates:
        wires = set(gate.qubits)
        k = len(layers)
        while k and not layers[k - 1] & wires:
            k -= 1
        if k == len(layers):
            layers.append(set())
        layers[k] |= wires
    return len(layers)
