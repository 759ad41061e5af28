"""Exact simulation over ring scalars: states and induced operators.

Qubit 0 is the most significant bit of a basis index, matching the
top-to-bottom wire order of circuit diagrams: on three wires the basis
state |x y z> has index 4x + 2y + z. A state stores only its nonzero
amplitudes (most circuits here are permutation+phase and keep basis
inputs on a single branch).

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

Operators are extracted as sparse columns, one `{index: amplitude}` dict
per basis input (`induced_columns`). When the compiled circuit has no h,
each column is one (index, omega exponent) pair of ints; otherwise each
column runs through `apply_circuit`. Equivalence checking compares the
columns directly; only `induced_unitary` densifies them into an
`ExactMatrix`.

One width cap bounds the 2^n simulations: 12 qubits for state simulation
and for the main register of an induced operator, whose columns are
simulated one per main-register basis input. The same cap bounds the
support: a state that an h leaves with more than 2^cap nonzero amplitudes
raises TooWide, so ancillas that gates touch cannot grow a column past
what a full cap-wide state holds. The TDO_MAX_QUBITS environment variable,
a string of ASCII digits, overrides it; `width_cap()` reads it on each use.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence

from .circuit import GATES, Circuit, DomainError, Gate, is_ascii_decimal
from .ring import ONE, ZERO, RingScalar, omega_pow

DEFAULT_CAP = 12


class WidthMismatch(DomainError, ValueError):
    """Widths disagree: a state and its circuit, or a circuit and its use."""


class TooWide(DomainError, ValueError):
    """The request exceeds the configured simulation width cap."""


class BadWidthCap(DomainError, ValueError):
    """TDO_MAX_QUBITS is set to something other than ASCII digits."""


class AncillaContractViolated(DomainError):
    """Some basis input leaves an ancilla nonzero or entangled."""

    def __init__(self, basis_input: int) -> None:
        super().__init__(
            f"ancillas not restored to |0> for main-register basis input {basis_input}"
        )
        self.basis_input = basis_input


def width_cap() -> int:
    """The width cap, read from TDO_MAX_QUBITS on every call."""
    env = os.environ.get("TDO_MAX_QUBITS")
    if not env:
        return DEFAULT_CAP
    if not is_ascii_decimal(env):
        raise BadWidthCap(f"TDO_MAX_QUBITS must be an integer, got {env!r}")
    return int(env)


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

    def __init__(self, n: int, amplitudes: Mapping[int, RingScalar]) -> None:
        amps = {i: v for i, v in amplitudes.items() if v}
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

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._amps))

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
    circuit's ``_compile(c)``, so that it is compiled only once. TooWide is
    raised once an h leaves more than 2^width_cap() nonzero amplitudes.
    """
    if state.n != c.width:
        raise WidthMismatch(
            f"state has {state.n} qubits but the circuit needs {c.width}"
        )
    n = state.n
    cap = width_cap()
    k = max((v.k for v in state._amps.values()), default=0)
    amps = {i: v._scaled(k - v.k) for i, v in state._amps.items()}
    for step in compiled if compiled is not None else _compile(c):
        amps = _apply_gate(amps, step, n)
        if step[0]:
            # More than 2^cap amplitudes, without building 2^cap for a huge cap.
            if (len(amps) - 1) >> cap > 0:
                raise TooWide(f"state support exceeds 2^{cap} amplitudes, the width cap")
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
    def from_columns(cls, dim: int, columns: Sequence[Mapping[int, RingScalar]]) -> ExactMatrix:
        rows = [[ZERO] * dim for _ in range(dim)]
        for j, column in enumerate(columns):
            for i, v in column.items():
                rows[i][j] = v
        return cls(rows)

    def scaled(self, scalar: RingScalar) -> ExactMatrix:
        return ExactMatrix([[scalar * v for v in row] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactMatrix):
            return self.dim == other.dim and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix(dim={self.dim})"


def induced_columns(c: Circuit) -> list[dict[int, RingScalar]]:
    """One sparse column {output index: amplitude} per main-register input.

    Ancillas start in |0>. Every input is simulated; AncillaContractViolated
    reports the first whose output touches a nonzero ancilla pattern. The
    main register is capped like state simulation (TooWide). An ancilla
    that no gate touches stays |0> and changes no column, so only the
    touched ancillas are simulated, renumbered densely after the main wires.
    """
    if c.n_main > width_cap():
        raise TooWide(f"{c.n_main}-main-qubit induced operator exceeds the width cap")
    touched = sorted({q for gate in c.gates for q in gate.qubits if q >= c.n_main})
    if len(touched) < c.n_anc:
        wire = {q: c.n_main + i for i, q in enumerate(touched)}
        c = Circuit(c.n_main, len(touched), tuple(
            Gate(gate.kind, tuple(wire.get(q, q) for q in gate.qubits)) for gate in c.gates
        ))
    n, n_anc = c.width, c.n_anc
    steps = _compile(c)
    anc_mask = (1 << n_anc) - 1
    dim = 1 << c.n_main
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
        for x in range(dim):
            state = apply_circuit(ExactState.basis(n, x << n_anc), c, compiled=steps)
            column: dict[int, RingScalar] = {}
            for index, v in state._amps.items():
                if index & anc_mask:
                    raise AncillaContractViolated(x)
                column[index >> n_anc] = v
            columns.append(column)
    return columns


def induced_unitary(c: Circuit) -> ExactMatrix:
    """`induced_columns` as a dense 2^n_main square matrix."""
    return ExactMatrix.from_columns(1 << c.n_main, induced_columns(c))


def _times_omega(v: RingScalar, e: int) -> RingScalar:
    """omega^e * v as a rotation of v's coefficients, with no ring multiply."""
    return RingScalar(*_ROTATE[e](v.a, v.b, v.c, v.d), v.k)


def equivalence_phase(c1: Circuit, c2: Circuit) -> int | None:
    """The j with induced(c1) = omega^j * induced(c2), or None.

    Both circuits' columns are extracted in full, c1's first, so a contract
    violation is reported whether or not the operators differ. j is read
    off one entry of column 0; then each column pair is compared once.
    """
    if c1.n_main != c2.n_main:
        raise WidthMismatch("circuits act on different main registers")
    cols1 = induced_columns(c1)
    cols2 = induced_columns(c2)
    # A unitary's column is never empty.
    i, v = next(iter(cols1[0].items()))
    w = cols2[0].get(i)
    if w is None:
        return None
    j = next((j for j in range(8) if v == _times_omega(w, j)), None)
    if j is None:
        return None
    for col1, col2 in zip(cols1, cols2):
        if col1.keys() != col2.keys():
            return None
        for i, v in col1.items():
            if v != _times_omega(col2[i], j):
                return None
    return j
