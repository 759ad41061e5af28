"""Exact simulation over ring scalars: states and induced operators.

Qubit 0 is the most significant bit of a basis index, matching the
top-to-bottom wire order of circuit diagrams: on three wires the basis
state |x y z> has index 4x + 2y + z. A state stores only its nonzero
amplitudes (most circuits here are permutation+phase and keep basis
inputs on a single branch).

Both kernels compile a circuit once per call, each distinct gate once,
over a layout that gives each simulated wire one index bit: a monomial gate
becomes the bitmask moves (control mask, flip mask, omega exponent) of its
`GATES` action, where a one-wire mask is the layout's own integer, shared
by every gate on that wire, and h keeps the bit of its wire. An amplitude
is four Python ints (a, b, c, d) over one denominator exponent k that the
whole state shares, meaning (a + b*omega + c*omega^2 + d*omega^3) / sqrt2^k.
A phase omega^e is a signed rotation of the four ints; h adds and subtracts
amplitude pairs and raises k by one, after which the whole state is divided
by sqrt2 for as long as every amplitude allows it. RingScalar values are
built only when the run ends, and their constructor normalises each
amplitude, so results are canonical whatever k the run held. Nothing rounds.

State simulation (`apply_circuit`) runs over lanes: the wires that gates
touch plus the wires on which the input's support varies; every other wire
keeps its one value, so memory follows the lanes, not the state's width.
Each h at most doubles the support, so when the input's support times
2^(h count) stays under 2^lanes the state cannot fill its lanes, and the
dict kernel `_run` runs it sparse, as it runs columns. Otherwise the state
can turn dense, and it runs in `packed`: each of the four coefficients is
one big integer with a W-bit two's-complement field per basis index of the
lanes, 4 x 2^lanes x W bits in all. A gate is a handful of whole-integer
operations with no carry between fields: a phase rotates the four integers
inside a control mask, a controlled flip shifts the masked fields by
2^p * W bits, and h adds and subtracts each field and its partner. The test
for division by sqrt2 and the division itself act on every field at once.
Fields start 16 bits wide, wider if an input coefficient needs it, and
double before any h that could overflow one, so every input is simulated
exactly.

Operators are extracted as sparse columns, one `{index: amplitude}` dict
per basis input, yielded in input order (`induced_columns`). With an h,
the inputs run in groups through `_run`, whose state is a dict from basis
index to coefficient tuple: a column is often a few amplitudes over
thousands of touched ancillas, which no dense layout could hold, and one
kernel call per column per gate would cost more than the amplitudes do.
Each input is tagged in index bits above every wire, which no compiled mask
touches, so a group of up to _GROUP_SUPPORT inputs runs as one state with
one k; RingScalar normalises each column at the end. A group that an h
leaves with more than _GROUP_SUPPORT amplitudes (or 2^cap) splits in two by
tag, and each half resumes after that h, the lower half first. A single
column is capped like a sparse state, so refusals and their order are those
of inputs run one by one. Groups run only while a tagged index fits a
machine word; a wider layout runs each column alone, untagged. An
h-free circuit runs once for all inputs, bit-sliced: each wire is one
2^n_main-bit integer whose bit x is the wire's value on main-register input
x, and the omega exponent mod 8 is three such bit-planes. A move ANDs its
control wires into a mask, adds e times the mask into the planes with a
3-bit ripple add, then XORs the mask into its flip wires, so a gate costs a
few big-integer operations whatever n_main is. The slices take (main +
touched ancilla wires) x 2^n_main bits. The ancilla contract stays
exhaustive: the OR of the ancilla wires is zero exactly when every input
restores them, and its lowest set bit is the first input that does not.
Equivalence checking of two h-free circuits compares the slices
themselves; otherwise it compares the two column streams pair by pair,
holding one group's columns of each. Only `induced_unitary` densifies
columns into an `ExactMatrix`.

One width cap bounds the 2^n simulations, packed, bit-sliced or not: 12
qubits for the lanes of a packed state, checked before anything is
allocated, and for the main register of an induced operator. The same cap
bounds the support: a sparse state or single column that an h leaves with
more than 2^cap nonzero amplitudes raises TooWide, so wires that gates
touch cannot grow it past what a full cap-wide state holds. The
TDO_MAX_QUBITS environment variable, a string of ASCII digits no larger
than MAX_CAP, overrides it; `circuit.width_cap()` reads it on each use.
"""

from __future__ import annotations

import sys
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .circuit import GATES, Circuit, DomainError, Gate, width_cap
from .packed import run_packed, start_pattern
from .ring import ONE, ROTATE, ZERO, RingScalar, omega_pow


class WidthMismatch(DomainError, ValueError):
    """Widths disagree: a state and its circuit, or a circuit and its use."""


class TooWide(DomainError, ValueError):
    """The request exceeds the configured simulation width cap."""


class AncillaContractViolated(DomainError):
    """Some basis input leaves an ancilla nonzero or entangled."""

    def __init__(self, basis_input: int) -> None:
        super().__init__(
            f"ancillas not restored to |0> for main-register basis input {basis_input}"
        )
        self.basis_input = basis_input


# A compiled gate is (h bit, moves): a nonzero h bit is a Hadamard on that
# wire; otherwise each move (control mask, flip mask, omega exponent) acts
# in order on the basis indices that hold every control bit.
Move = tuple[int, int, int]
CompiledGate = tuple[int, tuple[Move, ...]]

_OMEGA_POWERS = tuple(omega_pow(e) for e in range(8))

_ZERO_COEFFS = (0, 0, 0, 0)

# induced_columns runs columns together while a group of them holds at most
# this many amplitudes (and at most a full cap-wide state) after each h.
_GROUP_SUPPORT = 1 << 7


def _compile(gates: Sequence[Gate], bit: Mapping[int, int]) -> list[CompiledGate]:
    """One step per gate, each distinct gate compiled once; wire q is index bit bit[q]."""
    steps = dict.fromkeys(gates)
    for gate in steps:
        bits = [bit[q] for q in gate.qubits]
        action = GATES[gate.kind].action
        if action is None:  # h, the one kind that is not monomial
            steps[gate] = (bits[0], ())
        else:
            steps[gate] = (0, tuple(
                (_mask(bits, controls), _mask(bits, flips), e & 7) for controls, flips, e in action
            ))
    return [steps[gate] for gate in gates]


def _mask(bits: list[int], positions: Sequence[int]) -> int:
    """The sum of the bits at positions; a lone bit is the layout's own integer, not a copy."""
    return bits[positions[0]] if len(positions) == 1 else sum(bits[p] for p in positions)


def _move(amps: dict[int, tuple], cmask: int, fmask: int, e: int) -> dict[int, tuple]:
    if e:
        rotate = ROTATE[e]
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
    """One compiled gate on n wires of shared-k coefficient tuples.

    The dict kernel's step, for sparse states, columns and groups of tagged
    columns alike: masks touch wire bits only. Returns the new amplitudes;
    after an h step they are over a denominator one power of sqrt2 higher.
    The masks already encode the width n, which stays in the signature
    because perfbench/tracing.py wraps this function by name and position to
    count gate applications and support sizes.
    """
    bit, moves = step
    if bit:
        return _hadamard(amps, bit)
    for move in moves:
        amps = _move(amps, *move)
    return amps


class ExactState(namedtuple("ExactState", "n amps")):
    """An n-qubit state vector with exact amplitudes.

    ``amps`` maps each basis index to its nonzero amplitude; amplitudes
    that cancel are dropped, so two states are equal iff they are the same
    vector.
    """

    __slots__ = ()

    def __new__(cls, n: int, amps: Mapping[int, RingScalar]) -> ExactState:
        amps = {i: v for i, v in amps.items() if v}
        for i in amps:
            if not 0 <= i < 1 << n:
                raise ValueError(f"basis index {i} out of range")
        return super().__new__(cls, n, amps)

    @classmethod
    def _make(cls, fields: Iterable) -> ExactState:
        return cls(*fields)  # _replace calls this, so both check like the constructor

    @classmethod
    def basis(cls, n: int, index: int) -> ExactState:
        return cls(n, {index: ONE})

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.amps.items()))))

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {v}" for i, v in sorted(self.amps.items()))
        return f"ExactState({self.n}, {{{inside}}})"


def _run(
    amps: dict, k: int, steps: list[CompiledGate], n: int, limit: int, at: int = 0
) -> tuple[dict, int, int | None]:
    """Compiled steps from `at` on, over shared-k coefficient tuples.

    The one gate loop of the dict kernel: the state is a sparse state, one
    column, or a group of tagged columns. Returns the amplitudes, k and
    None once every step has run. As soon as an h leaves more than `limit`
    nonzero amplitudes it stops instead, returning the index of the step
    after that h, so the caller can refuse, or split a group and resume.
    """
    for at in range(at, len(steps)):
        step = steps[at]
        amps = _apply_gate(amps, step, n)
        if step[0]:
            k += 1
            while k and (halved := _halved(amps)) is not None:
                amps, k = halved, k - 1
            if len(amps) > limit:
                return amps, k, at + 1
    return amps, k, None


def _support_exceeds(cap: int) -> TooWide:
    return TooWide(f"state support exceeds 2^{cap} amplitudes, the width cap")


def apply_circuit(state: ExactState, c: Circuit) -> ExactState:
    """Run the gate list over the state; exact amplitudes, new state.

    Only the lanes are simulated: the wires that gates touch or on which the
    state's support varies. Every other wire keeps its one value. Each h at
    most doubles the support, so the state can fill its 2^lanes fields only
    when its support times 2^(h count) reaches that: then the packed kernel
    runs, and TooWide is raised before anything is allocated when there are
    more lanes than width_cap(). Otherwise the support stays sparse and the
    dict kernel runs it, raising TooWide once an h leaves more than
    2^width_cap() nonzero amplitudes.
    """
    if state.n != c.width:
        raise WidthMismatch(f"state has {state.n} qubits but the circuit needs {c.width}")
    n, amps = state.n, state.amps
    first = next(iter(amps), 0)
    varying = 0
    for i in amps:
        varying |= i ^ first
    wires = {q for gate in c.gates for q in gate.qubits}
    while varying:
        lowest = varying & -varying
        wires.add(n - lowest.bit_length())
        varying ^= lowest
    lanes = sorted(wires)
    m = len(lanes)
    # Lane j is field-index bit m - 1 - j, so fields keep the basis order.
    bit = {q: 1 << (m - 1 - j) for j, q in enumerate(lanes)}
    steps = _compile(c.gates, bit)
    cap = width_cap()
    dense = len(amps) << sum(1 for h, _ in steps if h) >= 1 << m
    if dense and m > cap:
        raise TooWide(f"state simulation over {m} wires exceeds the width cap of {cap}")
    shifts = [n - 1 - q for q in lanes]
    k = max((v.k for v in amps.values()), default=0)
    fields = {}
    for i, v in amps.items():
        f = 0
        for s in shifts:
            f = f << 1 | i >> s & 1
        fields[f] = v._scaled(k - v.k)
    if dense:
        fields, k = run_packed(fields, k, steps, m)
    else:
        fields, k, stopped = _run(fields, k, steps, m, 1 << cap)
        if stopped is not None:
            raise _support_exceeds(cap)
    constant = first & ~sum(1 << s for s in shifts)
    out = {}
    for f, v in fields.items():
        i = constant
        for j, s in enumerate(shifts):
            i |= (f >> (m - 1 - j) & 1) << s
        out[i] = RingScalar(*v, k)
    return ExactState(n, out)


class ExactMatrix(namedtuple("ExactMatrix", "rows")):
    """A dense square matrix of ring scalars."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[RingScalar]]) -> ExactMatrix:
        rows = tuple(tuple(row) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows)

    @classmethod
    def _make(cls, fields: Iterable) -> ExactMatrix:
        return cls(*fields)  # _replace calls this, so both check like the constructor

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_columns(cls, dim: int, columns: Iterable[Mapping[int, RingScalar]]) -> ExactMatrix:
        rows = [[ZERO] * dim for _ in range(dim)]
        for j, column in enumerate(columns):
            for i, v in column.items():
                rows[i][j] = v
        return cls(rows)

    def scaled(self, scalar: RingScalar) -> ExactMatrix:
        return ExactMatrix([[scalar * v for v in row] for row in self.rows])

    def __repr__(self) -> str:
        return f"ExactMatrix(dim={self.dim})"


def _h_free(c: Circuit) -> bool:
    return all(GATES[gate.kind].action is not None for gate in c.gates)


def _main_inputs(c: Circuit) -> int:
    """2^n_main, the count of main-register basis inputs; TooWide past the cap."""
    if c.n_main > width_cap():
        raise TooWide(f"{c.n_main}-main-qubit induced operator exceeds the width cap")
    return 1 << c.n_main


def _ripple_add(xs: Sequence[int], ys: Sequence[int], carry: int = 0) -> tuple[int, ...]:
    """Lane-wise xs + ys + carry over bit-planes, least significant first.

    The carry out of the last plane is dropped, so three planes add mod 8.
    """
    out = []
    for x, y in zip(xs, ys):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return tuple(out)


def _sliced(c: Circuit) -> tuple[list[int], tuple[int, ...]]:
    """An h-free circuit run on every main-register input at once.

    Lane x of each big integer belongs to basis input x. Returns the main
    wires' output values and the three bit-planes of the omega exponent
    (least significant first). Ancillas start at 0; one that no gate
    touches never gets an integer. Raises AncillaContractViolated for the
    lowest lane that leaves an ancilla set, and TooWide past the cap.
    """
    n = c.n_main
    lanes = _main_inputs(c)
    full = (1 << lanes) - 1
    wires = {q: start_pattern(n - 1 - q, lanes) for q in range(n)}
    planes: tuple[int, ...] = (0, 0, 0)
    for gate in c.gates:
        qubits = gate.qubits
        for controls, flips, e in GATES[gate.kind].action:
            mask = full
            for p in controls:
                mask &= wires.get(qubits[p], 0)
            if not mask:
                continue
            if e:
                planes = _ripple_add(planes, [mask if e >> i & 1 else 0 for i in range(3)])
            for p in flips:
                q = qubits[p]
                wires[q] = wires.get(q, 0) ^ mask
    leaked = 0
    for q, value in wires.items():
        if q >= n:
            leaked |= value
    if leaked:
        raise AncillaContractViolated((leaked & -leaked).bit_length() - 1)
    return [wires[q] for q in range(n)], planes


def induced_columns(c: Circuit) -> Iterator[dict[int, RingScalar]]:
    """One sparse column {output index: amplitude} per main-register input, in order.

    Ancillas start in |0>. Every input is simulated; AncillaContractViolated
    reports the first whose output touches a nonzero ancilla pattern. The
    main register is capped like state simulation (TooWide), and so is each
    column's support. An h-free circuit is read off its bit-sliced run;
    otherwise the inputs run in tagged groups that split after an h as they
    grow (see the module docstring), and only the ancillas that gates touch
    get a bit, after the mains. Either way refusals come at the first input
    that would refuse if each ran alone.
    """
    if _h_free(c):
        mains, planes = _sliced(c)
        lanes = 1 << c.n_main
        # Each lane's output index, then its exponent, as one integer read
        # off the wires bit by bit: qubit 0 first, so it ends as the MSB.
        codes = [0] * lanes
        for value in (*mains, *reversed(planes)):
            bits = reversed(format(value, f"0{lanes}b"))
            codes = [2 * code + (bit == "1") for code, bit in zip(codes, bits)]
        yield from ({code >> 3: _OMEGA_POWERS[code & 7]} for code in codes)
        return
    dim = _main_inputs(c)
    touched = sorted({q for gate in c.gates for q in gate.qubits if q >= c.n_main})
    n, n_anc = c.n_main + len(touched), len(touched)
    # The mains, then the touched ancillas, from the most significant bit down.
    bit = {q: 1 << (n - 1 - p) for p, q in enumerate([*range(c.n_main), *touched])}
    steps = _compile(c.gates, bit)
    cap = width_cap()
    wires, anc_mask = (1 << n) - 1, (1 << n_anc) - 1
    # Columns run in groups of up to span inputs from start, input start + t
    # at index t << n | (start + t) << n_anc: its tag t sits above every wire
    # bit. Groups need a tagged index to fit a word; otherwise span is 1.
    span = min(dim, _GROUP_SUPPORT) if _GROUP_SUPPORT << n <= sys.maxsize else 1
    for start in range(0, dim, span):
        pending = [({t << n | (start + t) << n_anc: (1, 0, 0, 0) for t in range(span)}, 0, 0, 0, span)]
        while pending:
            # The columns of tags lo..hi-1, resuming at step at; a piece split
            # off at step at > 0 holds what the h before that step left.
            amps, k, at, lo, hi = pending.pop()
            first, lone = start + lo, hi - lo == 1
            if lone:  # drops its tag, to run as if it had run alone throughout
                amps, lo, hi = {i & wires: v for i, v in amps.items()}, 0, 1
            limit = 1 << cap if lone else min(_GROUP_SUPPORT, 1 << cap)
            if not at or len(amps) <= limit:
                amps, k, at = _run(amps, k, steps, n, limit, at)
            if at is not None:
                if lone:
                    raise _support_exceeds(cap)
                mid = (lo + hi) // 2
                lower, upper = {}, {}
                for i, v in amps.items():
                    (lower if i >> n < mid else upper)[i] = v
                pending += [(upper, k, at, mid, hi), (lower, k, at, lo, mid)]
                continue
            # Input first + j has tag lo + j.
            leaked = [(i >> n) - lo for i in amps if i & anc_mask]
            if leaked:
                raise AncillaContractViolated(first + min(leaked))
            columns = [amps]
            if not lone:
                columns = [{} for _ in range(lo, hi)]
                for i, v in amps.items():
                    columns[(i >> n) - lo][i & wires] = v
            for column in columns:
                yield {i >> n_anc: RingScalar(*v, k) for i, v in column.items()}


def induced_unitary(c: Circuit) -> ExactMatrix:
    """`induced_columns` as a dense 2^n_main square matrix, capped before it is allocated."""
    return ExactMatrix.from_columns(_main_inputs(c), induced_columns(c))


def _rotated(column: Mapping[int, RingScalar], e: int) -> dict[int, RingScalar]:
    """omega^e times a column, as rotations of its coefficients with no ring multiply."""
    return {i: RingScalar(*ROTATE[e](v.a, v.b, v.c, v.d), v.k) for i, v in column.items()}


def equivalence_phase(c1: Circuit, c2: Circuit) -> int | None:
    """The j with induced(c1) = omega^j * induced(c2), or None.

    Both circuits are simulated on every input, and a refusal from c1 wins
    over one from c2, so a contract violation is reported whether or not
    the operators differ. Two h-free circuits are compared bit-sliced: equal
    main wires, and an exponent difference that is the same j on every
    lane, so each difference plane is all zeros or all ones. Otherwise j is
    read off column 0, and the two column streams are compared pair by
    pair, one group's columns of each held at a time.
    """
    if c1.n_main != c2.n_main:
        raise WidthMismatch("circuits act on different main registers")
    if _h_free(c1) and _h_free(c2):
        mains1, planes1 = _sliced(c1)
        mains2, planes2 = _sliced(c2)
        if mains1 != mains2:
            return None
        full = (1 << (1 << c1.n_main)) - 1
        # planes1 - planes2 as planes1 + ~planes2 + 1.
        difference = _ripple_add(planes1, [full ^ plane for plane in planes2], full)
        if any(plane not in (0, full) for plane in difference):
            return None
        return sum(1 << i for i, plane in enumerate(difference) if plane)
    columns1 = induced_columns(c1)
    columns2 = induced_columns(c2)
    j: int | None = None
    for x, col1 in enumerate(columns1):
        try:
            col2 = next(columns2)
        except (DomainError, MemoryError) as exc:
            # c1's refusal wins, as if c1 ran in full first; c2's traceback is let go meanwhile.
            exc.with_traceback(None)
            deque(columns1, maxlen=0)
            raise
        if not x:
            j = next((j for j in range(8) if col1 == _rotated(col2, j)), None)
        if j is not None and col1 != _rotated(col2, j):
            j = None
    return j
