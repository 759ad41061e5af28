"""Ring arithmetic: canonical forms, exactness, and the rationality test."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tdo.ring import (
    INV_SQRT2,
    MINUS_ONE,
    NotReal,
    OMEGA,
    ONE,
    RealValue,
    RingScalar,
    SQRT2,
    ZERO,
    omega_pow,
    ratio_is_rational,
)

import reference_sim as ref

scalars = st.builds(
    RingScalar,
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(0, 10),
)


def test_additive_inverse():
    assert RingScalar(1) + RingScalar(-1) == ZERO


def test_basis_addition():
    assert OMEGA + RingScalar(0, 0, 0, 1) == RingScalar(0, 1, 0, 1)


def test_half_sqrt2_doubles_to_sqrt2():
    total = INV_SQRT2 + INV_SQRT2
    assert total == SQRT2
    assert total * total == RingScalar(2)


def test_omega_times_omega_cubed():
    assert OMEGA * RingScalar(0, 0, 0, 1) == MINUS_ONE


def test_inv_sqrt2_squared_has_canonical_k2():
    half = INV_SQRT2 * INV_SQRT2
    assert (half.a, half.b, half.c, half.d, half.k) == (1, 0, 0, 0, 2)


def test_omega_fourth_power_is_minus_one():
    # exponent 4*x*y*z with x = y = z = 1
    assert omega_pow(4) == MINUS_ONE


def test_conjugation_basics():
    assert OMEGA.conjugate() == -RingScalar(0, 0, 0, 1)
    assert SQRT2.conjugate() == SQRT2
    assert omega_pow(2).conjugate() == -omega_pow(2)


def test_omega_pow_wraps_modulo_8():
    assert omega_pow(0) == ONE
    assert omega_pow(-1) == OMEGA.conjugate()
    for e in range(-16, 17):
        assert omega_pow(e) == omega_pow(e % 8)


def test_sqrt2_divisibility_rule_against_multiplication_oracle():
    # The canonicalisation step divides (a,b,c,d) by sqrt2 when a=c, b=d
    # mod 2; multiplying the claimed quotient back by omega - omega^3 must
    # recover the original numerator.
    cases = [(2, 0, 2, 0), (1, 3, 1, 1), (0, 2, 0, 2), (5, -1, 3, 7), (4, 4, 4, 4)]
    for a, b, c, d in cases:
        assert (a - c) % 2 == 0 and (b - d) % 2 == 0
        quotient = RingScalar((b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2)
        product = quotient * SQRT2
        assert (product.a, product.b, product.c, product.d, product.k) == (a, b, c, d, 0)


@given(scalars, scalars)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(scalars, scalars)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(scalars, scalars, st.builds(RingScalar, st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 4)))
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars, scalars, st.integers(-40, 40))
def test_negation_and_subtraction(x, y, n):
    assert -x == MINUS_ONE * x
    assert hash(-x) == hash(MINUS_ONE * x)
    assert x - y + y == x
    assert x - x == ZERO
    assert n - x == -(x - n)


def test_negative_denominator_exponent_raises():
    with pytest.raises(ValueError):
        RingScalar(1, k=-1)


@given(scalars | st.integers(-40, 40).map(RingScalar), st.integers(-40, 40))
def test_ints_act_as_their_ring_element(x, n):
    assert (x == n) == (x == RingScalar(n)) == (n == x)
    if x == n:
        assert hash(x) == hash(n)
    assert x * n == n * x == x * RingScalar(n)
    assert x + n == n + x


def test_int_equality_is_by_value_and_a_float_does_not_coerce():
    assert RingScalar(2, 0, 0, 0, 2) == 1
    assert RingScalar(1) != 1.0


@given(scalars)
def test_arithmetic_with_a_float_raises(x):
    for operate in (lambda: x + 1.5, lambda: x - 1.5, lambda: x * 1.5):
        with pytest.raises(TypeError):
            operate()
    with pytest.raises(TypeError, match="for -: 'float' and 'RingScalar'"):
        1.5 - x
    with pytest.raises(TypeError, match="for -: 'str' and 'RingScalar'"):
        "a" - x
    assert (x == "1") is False


@given(scalars)
def test_canonical_form_stable_and_value_preserving(x):
    # Rebuilding from the stored coefficients is the identity, and
    # multiplying back by sqrt2^k recovers an integer-coefficient value.
    assert RingScalar(x.a, x.b, x.c, x.d, x.k) == x
    restored = x
    for _ in range(x.k):
        restored = restored * SQRT2
    assert restored.k == 0


@given(scalars)
def test_conjugation_is_an_involution_and_fixes_norms(x):
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    assert norm.is_real
    assert ref.real_sign(norm.to_real()) >= 0


def test_to_real_examples():
    assert INV_SQRT2.to_real() == RealValue(0, Fraction(1, 2))
    assert RingScalar(1, 0, 0, 0, 2).to_real() == RealValue(Fraction(1, 2), 0)
    with pytest.raises(NotReal):
        OMEGA.to_real()


def test_to_real_of_integers_is_rational():
    for n in range(-5, 6):
        value = RingScalar(n).to_real()
        assert value.is_rational
        assert value.p == n


def test_ratio_examples():
    e_zero = INV_SQRT2.to_real()
    e_plus = RingScalar(1, 0, 0, 0, 2).to_real()
    assert not ratio_is_rational(e_zero, e_plus)
    assert ratio_is_rational(RealValue(0), RealValue(1))
    assert ratio_is_rational(RealValue(0, 3), RealValue(0, 1))


def test_ratio_against_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ratio_is_rational(RealValue(1), RealValue(0))


def test_real_value_rejects_non_dyadic():
    with pytest.raises(ValueError):
        RealValue(Fraction(1, 3))


def test_real_value_rejects_float_parts():
    # Every float is dyadic, so the dyadic check alone would let a rounded 0.1 through.
    for p, q in ((0.1, 0), (0, 0.5), (1.0, 0)):
        with pytest.raises(TypeError):
            RealValue(p, q)
    assert str(RealValue(1, Fraction(1, 4))) == "1 + 1/2^2*sqrt2"


def test_repr_spells_the_constructor_call():
    assert repr(RingScalar(1, 0, 0, 0, 1)) == "RingScalar(1, 0, 0, 0, 1)"


def test_renderings():
    assert str(OMEGA) == "(0 + 1*w + 0*w^2 + 0*w^3)/sqrt2^0"
    assert str(INV_SQRT2) == "(1 + 0*w + 0*w^2 + 0*w^3)/sqrt2^1"
    assert str(INV_SQRT2.to_real()) == "0 + 1/2^1*sqrt2"
    assert str(RealValue(Fraction(1, 2))) == "1/2^1 + 0*sqrt2"
    assert str(RealValue(3)) == "3 + 0*sqrt2"
