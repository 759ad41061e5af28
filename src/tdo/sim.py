"""Exact simulation over ring scalars: states and induced operators.

Qubit 0 is the most significant bit of a basis index, matching the
top-to-bottom wire order of circuit diagrams: on three wires the basis
state |x y z> has index 4x + 2y + z. A state stores only its nonzero
amplitudes (most circuits here are permutation+phase and keep basis
inputs on a single branch).

Both kernels compile a circuit once per call, each distinct gate once,
over one layout, its lanes: the wires that gates touch plus those on which
the input varies, sorted, lane j at index bit lanes - 1 - j. A monomial
gate becomes the bitmask moves (control mask, flip mask, omega exponent)
of its `GATES` action, where a one-wire mask is the layout's own integer,
shared by every gate on that wire, and h keeps the bit of its wire. An
amplitude is four Python ints (a, b, c, d) over one denominator exponent k
that the whole state shares, meaning (a + b*omega + c*omega^2 +
d*omega^3) / sqrt2^k. A phase omega^e is a signed rotation of the four
ints; h adds and subtracts amplitude pairs and raises k by one, after
which the whole state is divided by sqrt2 for as long as every amplitude
allows it. States and columns hold that canonical table as it is, and only
`induced_unitary` and `ExactMatrix.from_columns` import `ring`. Nothing rounds.

State simulation (`apply_circuit`) varies on its input's support; every
other wire keeps its one value, so memory follows the lanes, not the
state's width. Each h at most doubles the support, so when the input's
support times 2^(h count) stays under 2^lanes the state cannot fill its
lanes, and the dict kernel `_run` runs it sparse, as it runs columns.
Otherwise the state can turn dense, and it runs in `packed`: each of the
four coefficients is one big integer with a W-bit two's-complement field
per basis index of the lanes, 4 x 2^lanes x W bits in all. A gate is a
handful of whole-integer operations with no carry between fields: a phase
rotates the four integers inside a control mask, a controlled flip shifts
the masked fields by 2^p * W bits, and h adds and subtracts each field and
its partner. The test for division by sqrt2 and the division itself act on
every field at once. Fields start 16 bits wide, wider if an input
coefficient needs it, and double before any h that could overflow one, so
every input is simulated exactly.

Operators are extracted as sparse columns, one canonical coefficient table
per basis input, yielded in input order (`induced_columns`). The inputs
run in groups through `_run`, whose state is a dict from basis index to
coefficient tuple: a column is often a few amplitudes over thousands of
touched ancillas, which no dense layout could hold, and one kernel call
per column per gate would cost more than the amplitudes do.
Each input is tagged in index bits above every wire, which no compiled mask
touches, so a group of up to _GROUP_SUPPORT inputs runs as one state with
one k, and each column leaves at its own lowest k. A group that an h
leaves with more than _GROUP_SUPPORT amplitudes (or 2^cap) splits in two by
tag, and each half resumes after that h, the lower half first. A piece's
tags count from its own first input, so a one-column piece runs untagged
and is capped like a sparse state: refusals and their order are those of
inputs run one by one. Only `equivalence_phase` of two h-free circuits
runs bit-sliced, once for all inputs: each wire is one 2^n_main-bit integer
whose bit x is the wire's value on main-register input x, and the omega
exponent mod 8 is three such bit-planes. A move ANDs its control wires into
a mask, adds e times the mask into the planes with a 3-bit ripple add, then
XORs the mask into its flip wires, so a gate costs a few big-integer
operations whatever n_main is. The slices take (main + touched ancilla
wires) x 2^n_main bits. The ancilla contract stays exhaustive: the OR of the
ancilla wires is zero exactly when every input restores them, and its
lowest set bit is the first input that does not. It compares the slices
themselves; any other pair, one h-free circuit included, compares the two
column streams pair by pair, holding one group's columns of each. Only
`induced_unitary` densifies columns into an `ExactMatrix`.

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

from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .circuit import GATES, MONOMIAL_KINDS, Circuit, DomainError, Gate, width_cap
from .packed import ROTATE, run_packed, start_pattern


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

_ZERO_COEFFS = (0, 0, 0, 0)

# induced_columns runs columns together while a group of them holds at most
# this many amplitudes (and at most a full cap-wide state) after each h.
_GROUP_SUPPORT = 1 << 7


def _compile(
    gates: Sequence[Gate], varying: Iterable[int]
) -> tuple[list[int], list[CompiledGate]]:
    """The lanes (the wires that gates touch plus `varying`, sorted; lane j is index
    bit len(lanes) - 1 - j), then one step per gate, each distinct gate compiled once."""
    steps = dict.fromkeys(gates)
    lanes = sorted({q for gate in steps for q in gate.qubits}.union(varying))
    bit = {q: 1 << (len(lanes) - 1 - j) for j, q in enumerate(lanes)}
    for gate in steps:
        bits = [bit[q] for q in gate.qubits]
        action = GATES[gate.kind].action
        if action is None:  # h, the one kind that is not monomial
            steps[gate] = (bits[0], ())
        else:
            steps[gate] = (0, tuple(
                (_mask(bits, controls), _mask(bits, flips), e & 7) for controls, flips, e in action
            ))
    return lanes, [steps[gate] for gate in gates]


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


def _lowest(amps: dict[int, tuple], k: int) -> tuple[dict[int, tuple], int]:
    """The amplitudes and k, divided by sqrt2 while k > 0 and every amplitude allows it.

    a + b*omega + c*omega^2 + d*omega^3 is divisible by sqrt2 in Z[omega]
    exactly when a = c and b = d (mod 2); see ring._divide_by_sqrt2. So the
    result is canonical: k is 0, or some amplitude is not divisible.
    """
    while k:
        halved = {}
        for i, (a, b, c, d) in amps.items():
            if ((a ^ c) | (b ^ d)) & 1:
                return amps, k
            halved[i] = ((b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1)
        amps, k = halved, k - 1
    return amps, k


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


class ExactState(namedtuple("ExactState", "n amps k")):
    """An n-qubit state vector with exact amplitudes.

    ``amps`` maps each basis index to the four int coefficients (a, b, c, d) of
    its nonzero amplitude over sqrt2^k, an `induced_columns` column's form. Zero
    tuples are dropped and k lowered as far as it goes, so two states are equal
    iff they are the same vector. n, each basis index and k must be ints.
    """

    __slots__ = ()

    def __new__(cls, n: int, amps: Mapping[int, tuple], k: int) -> ExactState:
        if type(n) is not int or type(k) is not int:
            raise TypeError(f"qubit count {n!r} and denominator exponent {k!r} must be ints")
        end, kept = 1 << n, {}
        for i, v in amps.items():
            if type(i) is not int:
                raise TypeError(f"basis index {i!r} is not an int")
            try:
                a, b, c, d = v if type(v) is tuple else ()
                nonzero = a | b | c | d | 0  # a TypeError unless all four are ints
            except (TypeError, ValueError):
                raise TypeError(f"amplitude at basis index {i} is not a tuple of four ints") from None
            if nonzero:
                if not 0 <= i < end:
                    raise ValueError(f"basis index {i} out of range")
                kept[i] = v
        if k < 0:
            raise ValueError(f"denominator exponent {k} is negative")
        return super().__new__(cls, n, *_lowest(kept, k))

    @classmethod
    def _make(cls, fields: Iterable) -> ExactState:
        return cls(*fields)  # _replace calls this, so both check like the constructor

    @classmethod
    def basis(cls, n: int, index: int) -> ExactState:
        return cls(n, {index: (1, 0, 0, 0)}, 0)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.amps.items())), self.k))

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {v}" for i, v in sorted(self.amps.items()))
        return f"ExactState({self.n}, {{{inside}}}, {self.k})"


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
            amps, k = _lowest(amps, k + 1)
            if len(amps) > limit:
                return amps, k, at + 1
    return amps, k, None


def _support_exceeds(cap: int) -> TooWide:
    return TooWide(f"state support exceeds 2^{cap} amplitudes, the width cap")


def apply_circuit(state: ExactState, c: Circuit) -> ExactState:
    """Run the gate list over the state; exact amplitudes, new state.

    The state's table and k go to the kernels as they are, and the output's
    come back as the new state. Only the lanes are simulated: the wires that
    gates touch or on which the state's support varies. Every other wire
    keeps its one value. Each h at most doubles the support, so the state
    can fill its 2^lanes fields only when its support times 2^(h count)
    reaches that: then the packed kernel runs, and TooWide is raised before
    anything is allocated when there are more lanes than width_cap().
    Otherwise the support stays sparse and the dict kernel runs it, raising
    TooWide once an h leaves more than 2^width_cap() nonzero amplitudes.
    """
    if state.n != c.width:
        raise WidthMismatch(f"state has {state.n} qubits but the circuit needs {c.width}")
    n, amps, k = state
    first = next(iter(amps), 0)
    varying = 0
    for i in amps:
        varying |= i ^ first
    lanes, steps = _compile(c.gates, [q for q, bit in enumerate(f"{varying:0{n}b}") if bit == "1"])
    m = len(lanes)
    cap = width_cap()
    dense = len(amps) << sum(1 for h, _ in steps if h) >= 1 << m
    if dense and m > cap:
        raise TooWide(f"state simulation over {m} wires exceeds the width cap of {cap}")
    # Each run of consecutive lanes moves as one block: (field shift, index shift, mask).
    runs = []
    for j, q in enumerate(lanes):
        if j and lanes[j - 1] == q - 1:
            t, s, w = runs[-1]
            runs[-1] = (t - 1, s - 1, w << 1 | 1)
        else:
            runs.append((m - 1 - j, n - 1 - q, 1))
    fields = {sum((i >> s & w) << t for t, s, w in runs): v for i, v in amps.items()}
    if dense:
        fields, k = run_packed(fields, k, steps, m)
    else:
        fields, k, stopped = _run(fields, k, steps, m, 1 << cap)
        if stopped is not None:
            raise _support_exceeds(cap)
    constant = first & ~sum(w << s for _, s, w in runs)
    out = {constant | sum((f >> t & w) << s for t, s, w in runs): v for f, v in fields.items()}
    return ExactState(n, out, k)


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
        from .ring import ZERO

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
    return all(gate.kind in MONOMIAL_KINDS for gate in c.gates)


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


def induced_columns(c: Circuit) -> Iterator[tuple[dict[int, tuple], int]]:
    """One canonical column ({index: (a, b, c, d)}, k) per main-register input, in order.

    Coefficients are over the lowest k at which all are integers; that k is
    unique, so equal columns are equal pairs. Ancillas start in |0>. Every
    input is simulated; AncillaContractViolated reports the first whose
    output touches a nonzero ancilla pattern. The main register is capped
    like state simulation (TooWide), and so is each column's support. The
    inputs run in tagged groups that split after an h as they grow (see the
    module docstring), h-free or not, and only the ancillas that gates touch
    get a bit, after the mains. Refusals come at the first input that would
    refuse if each ran alone.
    """
    dim = _main_inputs(c)
    # A group of columns varies on the main wires: the mains, then the touched ancillas.
    lanes, steps = _compile(c.gates, range(c.n_main))
    n, n_anc = len(lanes), len(lanes) - c.n_main
    cap = width_cap()
    wires, anc_mask = (1 << n) - 1, (1 << n_anc) - 1
    # Columns run in groups of up to span inputs. In a piece of count inputs
    # from first, input first + t sits at index t << n | (first + t) << n_anc:
    # its tag t counts from the piece's first input, above every wire bit, so
    # a one-column piece is untagged.
    span = min(dim, _GROUP_SUPPORT)
    for start in range(0, dim, span):
        pending = [({t << n | (start + t) << n_anc: (1, 0, 0, 0) for t in range(span)}, 0, 0, start, span)]
        while pending:
            # Resuming at step at; a piece split off at step at > 0 holds
            # what the h before that step left.
            amps, k, at, first, count = pending.pop()
            limit = 1 << cap if count == 1 else min(_GROUP_SUPPORT, 1 << cap)
            if len(amps) <= limit:
                amps, k, at = _run(amps, k, steps, n, limit, at)
            if at is not None:
                if count == 1:
                    raise _support_exceeds(cap)
                half = count // 2
                offset = half << n
                lower = {i: v for i, v in amps.items() if i < offset}
                upper = {i - offset: v for i, v in amps.items() if i >= offset}
                pending += [(upper, k, at, first + half, count - half), (lower, k, at, first, half)]
                continue
            leaked = [i >> n for i in amps if i & anc_mask]
            if leaked:
                raise AncillaContractViolated(first + min(leaked))
            columns = [{} for _ in range(count)]
            for i, v in amps.items():
                columns[i >> n][(i & wires) >> n_anc] = v
            for column in columns:
                yield _lowest(column, k)


def induced_unitary(c: Circuit) -> ExactMatrix:
    """`induced_columns` as a dense 2^n_main square matrix, capped before it is allocated."""
    from .ring import RingScalar

    return ExactMatrix.from_columns(_main_inputs(c), (
        {i: RingScalar(*v, k) for i, v in column.items()} for column, k in induced_columns(c)))


def _rotated(column: tuple[dict[int, tuple], int], e: int) -> tuple[dict[int, tuple], int]:
    """omega^e times a canonical column: each entry rotated, k unchanged; e = 0 copies none."""
    if not e:
        return column
    return {i: ROTATE[e](*v) for i, v in column[0].items()}, column[1]


def equivalence_phase(c1: Circuit, c2: Circuit) -> int | None:
    """The j with induced(c1) = omega^j * induced(c2), or None.

    Both circuits are simulated on every input, and a refusal from c1 wins
    over one from c2, so a contract violation is reported whether or not
    the operators differ. Two h-free circuits are compared bit-sliced: equal
    main wires, and an exponent difference that is the same j on every
    lane, so each difference plane is all zeros or all ones. Otherwise, one
    h-free circuit included, j is read off column 0, and the two canonical
    column streams are compared pair by pair as tables, one group's columns
    of each held at a time.
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
        elif j is not None and col1 != _rotated(col2, j):
            j = None
    return j
