"""Exact arithmetic in Z[1/sqrt2, omega] with omega = exp(i*pi/4).

Every scalar appearing in Clifford+T simulation lives in this ring, so
equality, realness, and rationality all have exact answers. A value is
stored as four integer coefficients over the basis (1, omega, omega^2,
omega^3) together with a denominator exponent k:

    value = (a + b*omega + c*omega^2 + d*omega^3) / sqrt2^k

with omega^4 = -1 and sqrt2 = omega - omega^3. Construction always reduces
to canonical form (k = 0, or the numerator not divisible by sqrt2 in
Z[omega]), so structural equality coincides with value equality no matter
how a result was computed. Integers are unbounded; nothing here ever
rounds.

Real ring elements are dyadic combinations p + q*sqrt2; they get their own
type `RealValue`, which carries the exact rationality test used for
expectation-value ratios (p1 + q1*sqrt2)/(p2 + q2*sqrt2).
"""

from __future__ import annotations

from fractions import Fraction


class NotReal(Exception):
    """A scalar with a nonzero imaginary part was asked for its real form."""


def _divide_by_sqrt2(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    # Valid exactly when a = c and b = d (mod 2); checked by the caller.
    return (b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2


def _times_sqrt2(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    return b - d, a + c, b + d, c - a


class RingScalar:
    """One exact ring element; immutable and hashable.

    The constructor normalises, so ``RingScalar(2, 0, 0, 0, 2)`` (meaning
    2/2) and ``RingScalar(1)`` are the same object value. Arithmetic is via
    the usual operators; ints coerce on either side.
    """

    __slots__ = ("a", "b", "c", "d", "k")

    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0, k: int = 0) -> None:
        if k < 0:
            raise ValueError("denominator exponent must be non-negative")
        if a == 0 and b == 0 and c == 0 and d == 0:
            k = 0
        else:
            while k > 0 and (a - c) % 2 == 0 and (b - d) % 2 == 0:
                a, b, c, d = _divide_by_sqrt2(a, b, c, d)
                k -= 1
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.k = k

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    @property
    def is_real(self) -> bool:
        return self.c == 0 and self.b + self.d == 0

    def conjugate(self) -> RingScalar:
        """Complex conjugate; omega maps to omega^-1 = -omega^3."""
        return RingScalar(self.a, -self.d, -self.c, -self.b, self.k)

    def to_real(self) -> RealValue:
        """Exact real form p + q*sqrt2; raises NotReal if imaginary."""
        if not self.is_real:
            raise NotReal(f"{self} has a nonzero imaginary part")
        # value = (a + b*sqrt2) / sqrt2^k
        if self.k % 2 == 0:
            scale = 1 << (self.k // 2)
            return RealValue(Fraction(self.a, scale), Fraction(self.b, scale))
        return RealValue(
            Fraction(self.b, 1 << ((self.k - 1) // 2)),
            Fraction(self.a, 1 << ((self.k + 1) // 2)),
        )

    def __add__(self, other: RingScalar | int) -> RingScalar:
        if isinstance(other, int):
            other = RingScalar(other)
        elif not isinstance(other, RingScalar):
            return NotImplemented
        k = max(self.k, other.k)
        a1, b1, c1, d1 = self._scaled(k - self.k)
        a2, b2, c2, d2 = other._scaled(k - other.k)
        return RingScalar(a1 + a2, b1 + b2, c1 + c2, d1 + d2, k)

    __radd__ = __add__

    def __sub__(self, other: RingScalar | int) -> RingScalar:
        if isinstance(other, int):
            other = RingScalar(other)
        elif not isinstance(other, RingScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RingScalar | int) -> RingScalar:
        return (-self) + other

    def __neg__(self) -> RingScalar:
        out = RingScalar.__new__(RingScalar)
        out.a = -self.a
        out.b = -self.b
        out.c = -self.c
        out.d = -self.d
        out.k = self.k
        return out

    def __mul__(self, other: RingScalar | int) -> RingScalar:
        if isinstance(other, int):
            other = RingScalar(other)
        elif not isinstance(other, RingScalar):
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # omega^(i+j) wraps with a sign: omega^4 = -1.
        return RingScalar(
            a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            self.k + other.k,
        )

    __rmul__ = __mul__

    def _scaled(self, t: int) -> tuple[int, int, int, int]:
        a, b, c, d = self.a, self.b, self.c, self.d
        if t & 1:
            a, b, c, d = _times_sqrt2(a, b, c, d)
        s = 1 << (t >> 1)
        return a * s, b * s, c * s, d * s

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingScalar):
            return (
                self.a == other.a
                and self.b == other.b
                and self.c == other.c
                and self.d == other.d
                and self.k == other.k
            )
        if isinstance(other, int):
            return (
                self.k == 0
                and self.b == 0
                and self.c == 0
                and self.d == 0
                and self.a == other
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self.k == 0 and self.b == 0 and self.c == 0 and self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d, self.k))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"RingScalar({self.a}, {self.b}, {self.c}, {self.d}, {self.k})"

    def __str__(self) -> str:
        return render_ring(self)


ZERO = RingScalar(0)
ONE = RingScalar(1)
MINUS_ONE = RingScalar(-1)
OMEGA = RingScalar(0, 1)
IM = RingScalar(0, 0, 1)
SQRT2 = RingScalar(0, 1, 0, -1)
INV_SQRT2 = RingScalar(1, 0, 0, 0, 1)


def omega_pow(e: int) -> RingScalar:
    """omega^e for any integer e (reduced modulo 8)."""
    e &= 7
    coeffs = [0, 0, 0, 0]
    coeffs[e & 3] = -1 if e >= 4 else 1
    return RingScalar(*coeffs)


class RealValue:
    """Exact real number p + q*sqrt2 with dyadic rational p and q.

    The value is rational if and only if q = 0.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: Fraction | int, q: Fraction | int = 0) -> None:
        p = Fraction(p)
        q = Fraction(q)
        for part in (p, q):
            if part.denominator & (part.denominator - 1):
                raise ValueError(f"{part} is not dyadic")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RealValue is immutable")

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RealValue):
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"RealValue({self.p!r}, {self.q!r})"

    def __str__(self) -> str:
        return render_real(self)


def ratio_is_rational(x: RealValue, y: RealValue) -> bool:
    """Whether (p1 + q1*sqrt2)/(p2 + q2*sqrt2) is rational, exactly.

    Rationalising the denominator leaves sqrt2-coefficient q1*p2 - p1*q2,
    so the ratio is rational iff that determinant vanishes. Raises
    ZeroDivisionError when y = 0.
    """
    if y.is_zero:
        raise ZeroDivisionError("ratio against zero")
    return x.q * y.p - x.p * y.q == 0


def _render_dyadic(f: Fraction) -> str:
    j = f.denominator.bit_length() - 1
    if j == 0:
        return str(f.numerator)
    return f"{f.numerator}/2^{j}"


def render_ring(x: RingScalar) -> str:
    """Canonical text form ``(a + b*w + c*w^2 + d*w^3)/sqrt2^k``."""
    return f"({x.a} + {x.b}*w + {x.c}*w^2 + {x.d}*w^3)/sqrt2^{x.k}"


def render_real(v: RealValue) -> str:
    """Canonical text form ``p + q*sqrt2`` with dyadic parts as ``n/2^j``."""
    return f"{_render_dyadic(v.p)} + {_render_dyadic(v.q)}*sqrt2"
