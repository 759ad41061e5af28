"""Exact simulation over ring scalars: states, unitaries, and oracles.

Qubit 0 is the most significant bit of a basis index, matching the
top-to-bottom wire order of circuit diagrams: on three wires the basis
state |x y z> has index 4x + 2y + z. A state stores only its nonzero
amplitudes internally (most circuits here are permutation+phase and keep
basis inputs on a single branch); `amplitudes` materialises the dense
vector on demand.

The kernel compiles a circuit once per call into one step per gate: a
monomial gate becomes the bitmask moves (control mask, flip mask, omega
exponent) of its `GATES` action, and h keeps the bit of its wire. While a
circuit runs, a state is a dict from basis index to four Python ints
(a, b, c, d) over one shared denominator exponent k, meaning
(a + b*omega + c*omega^2 + d*omega^3) / sqrt2^k. A phase omega^e is a
signed rotation of the four ints; h adds and subtracts amplitude pairs and
raises k by one, after which the whole state is divided by sqrt2 for as
long as every amplitude allows it. RingScalar values are built only when
the run ends, and their constructor normalises each amplitude, so results
are canonical whatever k the run held. Nothing rounds.

Operators are extracted column by column over basis inputs. When the
compiled circuit has no h, each column is one (index, omega exponent) pair
of ints; otherwise each column runs through `apply_circuit`.

Width caps guard the dense entry points: full-unitary extraction defaults
to 10 qubits, state simulation to 12 qubits, and induced-unitary
extraction, which builds a 2^n_main square matrix, to 12 main qubits. The
TDO_MAX_QUBITS environment variable overrides the defaults, and
`unitary_of` and the obstruction test also take a per-call cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from .circuit import GATES, Circuit, Gate
from .ring import ONE, ZERO, RingScalar, omega_pow

DEFAULT_STATE_CAP = 12
DEFAULT_UNITARY_CAP = 10


class WidthMismatch(ValueError):
    """State and circuit widths disagree."""


class TooWide(ValueError):
    """The request exceeds the configured simulation width cap."""


class AncillaContractViolated(Exception):
    """Some basis input leaves an ancilla nonzero or entangled."""

    def __init__(self, basis_input: int) -> None:
        super().__init__(
            f"ancillas not restored to |0> for main-register basis input {basis_input}"
        )
        self.basis_input = basis_input


def _cap(explicit: int | None, default: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("TDO_MAX_QUBITS")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"TDO_MAX_QUBITS must be an integer, got {env!r}") from None


# A compiled gate is (h bit, moves): a nonzero h bit is a Hadamard on that
# wire; otherwise each move (control mask, flip mask, omega exponent) acts
# in order on the basis indices that hold every control bit.
Move = tuple[int, int, int]
CompiledGate = tuple[int, tuple[Move, ...]]

# omega^e * (a + b*omega + c*omega^2 + d*omega^3), using omega^4 = -1.
_ROTATE = (
    lambda a, b, c, d: (a, b, c, d),
    lambda a, b, c, d: (-d, a, b, c),
    lambda a, b, c, d: (-c, -d, a, b),
    lambda a, b, c, d: (-b, -c, -d, a),
    lambda a, b, c, d: (-a, -b, -c, -d),
    lambda a, b, c, d: (d, -a, -b, -c),
    lambda a, b, c, d: (c, d, -a, -b),
    lambda a, b, c, d: (b, c, d, -a),
)

_OMEGA_POWERS = tuple(omega_pow(e) for e in range(8))

_ZERO_COEFFS = (0, 0, 0, 0)


def _compile(c: Circuit) -> list[CompiledGate]:
    """One step per gate, with qubit positions turned into basis-index bits."""
    n = c.width
    steps = []
    for gate in c.gates:
        bits = [1 << (n - 1 - q) for q in gate.qubits]
        action = GATES[gate.kind].action
        if action is None:  # h, the one kind that is not monomial
            steps.append((bits[0], ()))
        else:
            steps.append((0, tuple(
                (sum(bits[p] for p in controls), sum(bits[p] for p in flips), e & 7)
                for controls, flips, e in action
            )))
    return steps


def _move(amps: dict[int, tuple], cmask: int, fmask: int, e: int) -> dict[int, tuple]:
    if e:
        rotate = _ROTATE[e]
        out = dict(amps)
        for i, v in amps.items():
            if i & cmask == cmask:
                out[i] = rotate(*v)
        amps = out
    if fmask:
        if cmask:
            amps = {(i ^ fmask if i & cmask == cmask else i): v for i, v in amps.items()}
        else:
            amps = {i ^ fmask: v for i, v in amps.items()}
    return amps


def _hadamard(amps: dict[int, tuple], bit: int) -> dict[int, tuple]:
    """H on one wire, without its 1/sqrt2: the caller raises k by one."""
    out = {}
    get = amps.get
    for i, v in amps.items():
        if i & bit:
            partner = i ^ bit
            if partner in amps:
                continue  # handled with its partner
            a, b, c, d = v
            out[partner] = v
            out[i] = (-a, -b, -c, -d)
        else:
            partner = i | bit
            w = get(partner)
            if w is None:
                out[i] = out[partner] = v
                continue
            a, b, c, d = v
            p, q, r, s = w
            total = (a + p, b + q, c + r, d + s)
            if total != _ZERO_COEFFS:
                out[i] = total
            difference = (a - p, b - q, c - r, d - s)
            if difference != _ZERO_COEFFS:
                out[partner] = difference
    return out


def _halved(amps: dict[int, tuple]) -> dict[int, tuple] | None:
    """Every amplitude divided by sqrt2, or None if one is not divisible.

    a + b*omega + c*omega^2 + d*omega^3 is divisible by sqrt2 in Z[omega]
    exactly when a = c and b = d (mod 2); see ring._divide_by_sqrt2.
    """
    out = {}
    for i, (a, b, c, d) in amps.items():
        if ((a ^ c) | (b ^ d)) & 1:
            return None
        out[i] = ((b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1)
    return out


def _apply_gate(amps: dict[int, tuple], step: CompiledGate, n: int) -> dict[int, tuple]:
    """One compiled gate on an n-qubit state of shared-k coefficient tuples.

    Returns the new amplitudes; after an h step they are over a denominator
    one power of sqrt2 higher. The masks already encode the width n, which
    stays in the signature because perfbench/tracing.py wraps this function
    by name and position to count gate applications and support sizes.
    """
    bit, moves = step
    if bit:
        return _hadamard(amps, bit)
    for move in moves:
        amps = _move(amps, *move)
    return amps


class ExactState:
    """An n-qubit state vector with exact amplitudes.

    Equality is exact; amplitudes that cancel are dropped, so two states
    are equal iff they are the same vector.
    """

    __slots__ = ("n", "_amps")

    def __init__(
        self, n: int, amplitudes: Mapping[int, RingScalar] | Sequence[RingScalar]
    ) -> None:
        if isinstance(amplitudes, Mapping):
            items = amplitudes.items()
        else:
            if len(amplitudes) != 1 << n:
                raise ValueError(f"expected {1 << n} amplitudes")
            items = enumerate(amplitudes)
        amps = {i: v for i, v in items if v}
        for i in amps:
            if not 0 <= i < 1 << n:
                raise ValueError(f"basis index {i} out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_amps", amps)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactState is immutable")

    @classmethod
    def basis(cls, n: int, index: int) -> ExactState:
        return cls(n, {index: ONE})

    def amplitude(self, index: int) -> RingScalar:
        return self._amps.get(index, ZERO)

    @property
    def amplitudes(self) -> tuple[RingScalar, ...]:
        """Dense amplitude vector in basis-index order."""
        return tuple(self._amps.get(i, ZERO) for i in range(1 << self.n))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._amps))

    def norm_squared(self) -> RingScalar:
        total = ZERO
        for v in self._amps.values():
            total = total + v * v.conjugate()
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactState):
            return self.n == other.n and self._amps == other._amps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._amps.items()))))

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {v}" for i, v in sorted(self._amps.items()))
        return f"ExactState({self.n}, {{{inside}}})"


def apply_circuit(
    state: ExactState, c: Circuit, *, compiled: list[CompiledGate] | None = None
) -> ExactState:
    """Run the gate list over the state; exact amplitudes, new state.

    A caller that runs one circuit on many inputs passes ``compiled``, the
    circuit's ``_compile(c)``, so that it is compiled only once.
    """
    if state.n != c.width:
        raise WidthMismatch(
            f"state has {state.n} qubits but the circuit needs {c.width}"
        )
    n = state.n
    k = max((v.k for v in state._amps.values()), default=0)
    amps = {i: v._scaled(k - v.k) for i, v in state._amps.items()}
    for step in compiled if compiled is not None else _compile(c):
        amps = _apply_gate(amps, step, n)
        if step[0]:
            k += 1
            while k and (halved := _halved(amps)) is not None:
                amps, k = halved, k - 1
    return ExactState(n, {i: RingScalar(*v, k) for i, v in amps.items()})


class ExactMatrix:
    """A dense square matrix of ring scalars."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence[RingScalar]]) -> None:
        dim = len(rows)
        frozen = tuple(tuple(row) for row in rows)
        for row in frozen:
            if len(row) != dim:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, dim: int) -> ExactMatrix:
        return cls(
            [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
        )

    @classmethod
    def diagonal(cls, entries: Sequence[RingScalar]) -> ExactMatrix:
        dim = len(entries)
        return cls(
            [[entries[i] if i == j else ZERO for j in range(dim)] for i in range(dim)]
        )

    @classmethod
    def from_columns(cls, dim: int, columns: Sequence[Mapping[int, RingScalar]]) -> ExactMatrix:
        rows = [[ZERO] * dim for _ in range(dim)]
        for j, column in enumerate(columns):
            for i, v in column.items():
                rows[i][j] = v
        return cls(rows)

    def __getitem__(self, index: int) -> tuple[RingScalar, ...]:
        return self.rows[index]

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        out = [[ZERO] * dim for _ in range(dim)]
        for i in range(dim):
            arow = self.rows[i]
            orow = out[i]
            for k in range(dim):
                aik = arow[k]
                if aik.is_zero:
                    continue
                brow = other.rows[k]
                for j in range(dim):
                    bkj = brow[j]
                    if bkj.is_zero:
                        continue
                    orow[j] = orow[j] + aik * bkj
        return ExactMatrix(out)

    def dagger(self) -> ExactMatrix:
        return ExactMatrix(
            [
                [self.rows[j][i].conjugate() for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )

    def scaled(self, scalar: RingScalar) -> ExactMatrix:
        return ExactMatrix([[scalar * v for v in row] for row in self.rows])

    def is_unitary(self) -> bool:
        return self @ self.dagger() == ExactMatrix.identity(self.dim)

    def is_diagonal(self) -> bool:
        return all(
            v.is_zero
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if i != j
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactMatrix):
            return self.dim == other.dim and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix(dim={self.dim})"


def gate_matrix(kind: str) -> ExactMatrix:
    """The exact matrix of a gate kind over its own wires (MSB first)."""
    spec = GATES.get(kind)
    if spec is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    n = spec.arity
    c = Circuit(n, 0, (Gate(kind, tuple(range(n))),))
    return unitary_of(c, max_qubits=n)


def _operator(c: Circuit, n_anc: int) -> ExactMatrix:
    """The operator on all but the last n_anc wires, which start in |0>.

    Every basis input is simulated; if any output touches a nonzero pattern
    on the last n_anc wires, AncillaContractViolated reports that input.
    """
    steps = _compile(c)
    anc_mask = (1 << n_anc) - 1
    dim = 1 << (c.width - n_anc)
    columns: list[dict[int, RingScalar]] = []
    if not any(bit for bit, _ in steps):
        moves = [move for _, gate_moves in steps for move in gate_moves]
        for x in range(dim):
            index, e = x << n_anc, 0
            for cmask, fmask, j in moves:
                if index & cmask == cmask:
                    index ^= fmask
                    e += j
            if index & anc_mask:
                raise AncillaContractViolated(x)
            columns.append({index >> n_anc: _OMEGA_POWERS[e & 7]})
    else:
        n = c.width
        for x in range(dim):
            state = apply_circuit(ExactState.basis(n, x << n_anc), c, compiled=steps)
            column: dict[int, RingScalar] = {}
            for index, v in state._amps.items():
                if index & anc_mask:
                    raise AncillaContractViolated(x)
                column[index >> n_anc] = v
            columns.append(column)
    return ExactMatrix.from_columns(dim, columns)


def unitary_of(c: Circuit, max_qubits: int | None = None) -> ExactMatrix:
    """Full 2^width unitary via columnwise simulation."""
    n = c.width
    if n > _cap(max_qubits, DEFAULT_UNITARY_CAP):
        raise TooWide(f"{n}-qubit unitary exceeds the width cap")
    return _operator(c, 0)


def induced_unitary(c: Circuit) -> ExactMatrix:
    """The operator on the main register, checking the ancilla contract.

    Every main-register basis input is simulated with ancillas in |0>; if
    any output amplitude touches a nonzero ancilla pattern the contract is
    broken and AncillaContractViolated reports the offending input. The
    main register is capped like state simulation (TooWide).
    """
    if c.n_main > _cap(None, DEFAULT_STATE_CAP):
        raise TooWide(f"{c.n_main}-main-qubit induced operator exceeds the width cap")
    return _operator(c, c.n_anc)


def equivalence_phase(c1: Circuit, c2: Circuit) -> int | None:
    """The j with induced(c1) = omega^j * induced(c2), or None."""
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


def equivalent(c1: Circuit, c2: Circuit, up_to_global_phase: bool = False) -> bool:
    """Exact equality of induced unitaries, optionally modulo omega^j."""
    phase = equivalence_phase(c1, c2)
    if up_to_global_phase:
        return phase is not None
    return phase == 0


def is_almost_classical(m: ExactMatrix) -> bool:
    """Whether the matrix is monomial: one nonzero entry per row and column."""
    dim = m.dim
    col_counts = [0] * dim
    for row in m.rows:
        row_count = 0
        for j, v in enumerate(row):
            if not v.is_zero:
                row_count += 1
                col_counts[j] += 1
        if row_count != 1:
            return False
    return all(count == 1 for count in col_counts)


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
    bitmasks = [
        (sum(1 << (n - 1 - q) for q in mask), sign) for mask, sign in spec.terms
    ]
    entries = []
    for x in range(1 << n):
        exponent = sum(
            sign * (bin(x & bits).count("1") & 1) for bits, sign in bitmasks
        )
        entries.append(omega_pow(exponent))
    return ExactMatrix.diagonal(entries)


def single_qubit_cliffords() -> tuple[ExactMatrix, ...]:
    """The 24 single-qubit Clifford operators modulo global phase.

    Enumerated as products of the Hadamard and phase gates, with each
    coset represented by its lexicographically least omega-scaling.
    """

    def canonical(m: ExactMatrix) -> ExactMatrix:
        def key(mat: ExactMatrix) -> tuple:
            return tuple(
                (v.a, v.b, v.c, v.d, v.k) for row in mat.rows for v in row
            )

        return min((m.scaled(omega_pow(j)) for j in range(8)), key=key)

    generators = (gate_matrix("h"), gate_matrix("s"))
    seen: dict[tuple, ExactMatrix] = {}
    frontier = [canonical(ExactMatrix.identity(2))]
    seen[frontier[0].rows] = frontier[0]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                candidate = canonical(g @ m)
                if candidate.rows not in seen:
                    seen[candidate.rows] = candidate
                    nxt.append(candidate)
        frontier = nxt
    return tuple(seen.values())
