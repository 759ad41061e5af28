"""The dense kernel behind `sim.apply_circuit`: every basis index at once.

A state over m lanes has 2^m basis indices. Coefficient s of every
index's amplitude (a, b, c, d), all over one shared sqrt2^k, sits in one
big integer, the slot s: field f, bits [f*w, (f+1)*w), holds index f's
coefficient in w-bit two's complement. Field arithmetic is carry-free (no
carry or borrow crosses a field boundary), so a gate is a handful of
whole-integer operations on the four slots, whatever m is. Fields start 16
bits wide, wider if an input coefficient needs it, and double before any h
that could overflow one, so the kernel is exact for every input. `ROTATE`,
the omega^e rotation of one amplitude that both kernels apply, lives here.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import compress

# omega^e * (a + b*omega + c*omega^2 + d*omega^3), using omega^4 = -1.
ROTATE = (
    lambda a, b, c, d: (a, b, c, d),
    lambda a, b, c, d: (-d, a, b, c),
    lambda a, b, c, d: (-c, -d, a, b),
    lambda a, b, c, d: (-b, -c, -d, a),
    lambda a, b, c, d: (-a, -b, -c, -d),
    lambda a, b, c, d: (d, -a, -b, -c),
    lambda a, b, c, d: (c, d, -a, -b),
    lambda a, b, c, d: (b, c, d, -a),
)

# For each omega^e, the signed source of each slot: slot i of the rotated
# value is slot abs(j) - 1 of the old one, negated when j < 0.
_SLOT_SOURCES = tuple(ROTATE[e](1, 2, 3, 4) for e in range(8))


def start_pattern(h: int, width: int) -> int:
    """The width-bit integer whose bit b is bit h of b: runs of 2^h zeros, then ones.

    Built by doubling, with shifts and ORs only; width is a power of two
    of at least 2^(h+1).
    """
    run = 1 << h
    pattern = ((1 << run) - 1) << run
    done = 2 * run
    while done < width:
        pattern |= pattern << done
        done *= 2
    return pattern


def _bit_positions(mask: int) -> list[int]:
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


class _Fields:
    """The layout and carry-free arithmetic of 2^m fields of w bits, lowest field first.

    w is a power of two from 16 up, so fields are whole bytes. Masks are
    built when a gate needs them, so that a run holds the four slots and a
    few temporaries, not a mask per lane.
    """

    __slots__ = ("m", "w", "full", "ones", "high", "low")

    def __init__(self, m: int, w: int) -> None:
        self.m = m
        self.w = w
        self.full = (1 << (w << m)) - 1
        self.ones = self.full // ((1 << w) - 1)  # bit 0 of every field
        self.high = self.ones << (w - 1)  # every field's sign bit
        self.low = self.high - self.ones  # every field's other bits

    def lane(self, t: int) -> int:
        """The fields whose m-bit index has bit t set."""
        return start_pattern(self.w.bit_length() - 1 + t, self.w << self.m)

    def add(self, x: int, y: int) -> int:
        return ((x & self.low) + (y & self.low)) ^ ((x ^ y) & self.high)

    def sub(self, x: int, y: int) -> int:
        return ((x | self.high) - (y & self.low)) ^ ((x ^ y) & self.high) ^ self.high

    def neg(self, x: int) -> int:
        return (self.high - (x & self.low)) ^ (x & self.high) ^ self.high

    def half(self, x: int) -> int:
        """Each field shifted right by one, keeping its sign."""
        return ((x >> 1) & self.low) | (x & self.high)

    def roomy(self, x: int) -> bool:
        """Whether every field's top three bits agree, so that neither an h nor the
        halving after it can overflow one."""
        return not (x ^ x << 1) & (self.high | self.high >> 1)

    def controlled(self, positions: Sequence[int]) -> tuple[int, int]:
        """The fields whose index has every bit in positions set, and the other fields."""
        control = self.full
        for t in positions:
            control &= self.lane(t)
        return control, self.full ^ control

    def hadamard(self, slots: Sequence[int], t: int) -> list[int]:
        """H on lane bit t, without its 1/sqrt2: in each slot, each field x with
        bit t clear and its partner y become x + y and x - y."""
        shift = self.w << t
        lo = self.full ^ self.lane(t)
        out = []
        for s in slots:
            x = s & lo
            y = s >> shift & lo
            out.append(self.add(x, y) | self.sub(x, y) << shift)
        return out

    def halved(self, slots: Sequence[int]) -> list[int] | None:
        """Every field divided by sqrt2, or None if one is not divisible; see `sim._lowest`."""
        a, b, c, d = slots
        if ((a ^ c) | (b ^ d)) & self.ones:
            return None
        add, sub, half = self.add, self.sub, self.half
        return [half(sub(b, d)), half(add(a, c)), half(add(b, d)), half(sub(c, a))]

    def pack(self, fields: Mapping[int, tuple]) -> list[int]:
        """Four slot integers: field f of slot s holds coefficient s of fields[f]."""
        size = self.w >> 3
        slots = []
        for s in range(4):
            buf = bytearray(size << self.m)
            for f, coeffs in fields.items():
                buf[f * size:(f + 1) * size] = coeffs[s].to_bytes(size, "little", signed=True)
            slots.append(int.from_bytes(buf, "little"))
        return slots

    def unpack(self, slots: Sequence[int]) -> dict[int, tuple]:
        """The nonzero fields of four slot integers, as coefficient tuples."""
        size = self.w >> 3
        end = size << self.m
        either = slots[0] | slots[1] | slots[2] | slots[3]
        # A field's sign bit, then its top byte, is set exactly when the field is nonzero.
        flags = (((either & self.low) + self.low) | either) & self.high
        live = list(compress(range(1 << self.m), flags.to_bytes(end, "little")[size - 1::size]))
        columns = []
        for packed in slots:
            data = packed.to_bytes(end, "little")
            columns.append([int.from_bytes(data[f * size:(f + 1) * size], "little", signed=True)
                            for f in live])
        return dict(zip(live, zip(*columns)))


def run_packed(fields: dict[int, tuple], k: int, steps: Sequence[tuple], m: int,
               ) -> tuple[dict[int, tuple], int]:
    """`sim._compile`'s steps, over field-index bits, on 2^m fields of shared-k coefficients.

    Takes and returns the nonzero fields as coefficient tuples, with k.
    """
    lane_steps = {}
    for h, moves in dict.fromkeys(steps):
        lane_steps[h, moves] = (h.bit_length() - 1, tuple(
            (_bit_positions(cmask), _bit_positions(fmask), e) for cmask, fmask, e in moves
        ))
    need = 3 + max((abs(x).bit_length() for v in fields.values() for x in v), default=0)
    w = 16
    while w < need:
        w *= 2
    f = _Fields(m, w)
    slots = f.pack(fields)
    for step in steps:
        t, moves = lane_steps[step]
        if t >= 0:
            if not all(f.roomy(s) for s in slots):
                fields = f.unpack(slots)
                f = _Fields(m, 2 * f.w)
                slots = f.pack(fields)
            slots = f.hadamard(slots, t)
            k += 1
            while k and (halved := f.halved(slots)) is not None:
                slots, k = halved, k - 1
            continue
        for controls, flips, e in moves:
            control, rest = f.controlled(controls)
            held = [s & control for s in slots] if rest else slots
            if e:
                held = [held[j - 1] if j > 0 else f.neg(held[-j - 1]) for j in _SLOT_SOURCES[e]]
            for t in flips:
                shift, down = f.w << t, f.lane(t)
                up = f.full ^ down
                held = [(x & up) << shift | (x & down) >> shift for x in held]
            slots = [(s & rest) | x for s, x in zip(slots, held)] if rest else held
    return f.unpack(slots), k
