"""Exact cyclotomic arithmetic and certified sign determination."""
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from lambdatower import cyclo
from lambdatower.cyclo import (
    CyclotomicNumber,
    PrecisionExhausted,
    certified_sign,
    compare_cos_turns,
    degree_of,
    zeta,
)

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 27, 32]


def complex_value(x, s=1, dps=60):
    """Independent oracle: evaluate at zeta -> exp(2 pi i s/d) in high precision."""
    with mpmath.workdps(dps):
        z = mpmath.exp(2j * mpmath.pi * s / x.order)
        return sum(mpmath.mpf(c.numerator) / c.denominator * z**k
                   for k, c in enumerate(x.coeffs))


def random_element(rng, d, span=6, denom=4):
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, denom))
              for _ in range(degree_of(d))]
    return CyclotomicNumber.from_coeffs(d, coeffs)


def test_zeta4_squares_to_minus_one():
    assert zeta(4) ** 2 == -1


def test_conj_is_inverse_on_roots():
    assert zeta(8).conj() * zeta(8) == 1


def test_one_minus_zeta4_norm():
    x = (1 - zeta(4)) * (1 - zeta(4) ** -1)
    assert x == 2
    # oracle: |1 - i|^2 = 2 numerically
    val = complex_value(CyclotomicNumber.of(4, 2))
    assert abs(val - 2) < mpmath.mpf(10) ** -40


def test_non_prime_power_order_rejected():
    with pytest.raises(ValueError):
        zeta(6)
    with pytest.raises(ValueError):
        zeta(12)


def test_degree_cap():
    assert degree_of(625) == 500
    with pytest.raises(cyclo.ResourceCapExceeded, match="degree 1030"):
        zeta(1031)


def test_is_prime_matches_trial_division():
    def naive(n):
        return n >= 2 and all(n % k for k in range(2, n))

    primes = [n for n in range(-3, 5000) if naive(n)]
    assert [n for n in range(-3, 5000) if cyclo.is_prime(n)] == primes
    powers = {p ** a: (p, a) for p in primes for a in range(1, 13)
              if p ** a < 5000}
    assert {n: cyclo.prime_power_split(n) for n in range(-3, 5000)} == \
        {n: powers.get(n) for n in range(-3, 5000)}


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        zeta(4) + zeta(8)


def test_rational_embedding_and_integer_ops():
    x = 1 + zeta(9) - zeta(9)
    assert x.is_rational() and x.rational_value() == 1
    assert (3 * zeta(4)) / 3 == zeta(4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zeta(4) / CyclotomicNumber.of(4, 0)


@pytest.mark.parametrize("d", ORDERS)
def test_canonical_idempotence_and_field_laws(d):
    rng = random.Random(d * 101)
    one = CyclotomicNumber.of(d, 1)
    for _ in range(100):
        x = random_element(rng, d)
        y = random_element(rng, d)
        z = random_element(rng, d)
        # re-canonicalizing canonical coefficients is the identity
        assert CyclotomicNumber.from_coeffs(d, x.coeffs) == x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not y.is_zero():
            assert (x / y) * y == x
        assert (x * one) == x
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


def test_zeta_power_reduction_against_oracle():
    rng = random.Random(7)
    for d in (4, 8, 9, 16):
        for _ in range(20):
            k = rng.randint(0, 3 * d)
            x = zeta(d) ** k
            val = complex_value(x)
            with mpmath.workdps(60):
                ref = mpmath.exp(2j * mpmath.pi * k / d)
                assert abs(val - ref) < mpmath.mpf(10) ** -40


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=60, deadline=None)
def test_ring_laws_hypothesis(a, b, c):
    d = 8
    x = CyclotomicNumber.from_coeffs(d, [a, b, c])
    y = CyclotomicNumber.from_coeffs(d, [c, a, 0, b])
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x


def test_certified_sign_exact_zero():
    x = zeta(4) + zeta(4) ** -1  # i + (-i) = 0, syntactically
    assert x.is_zero()
    assert certified_sign(x) == 0


def test_certified_sign_embedding_three():
    x = 2 + zeta(8) + zeta(8) ** -1
    # 2 + 2 cos(3*pi/4) = 2 - sqrt(2) > 0
    assert certified_sign(x, embedding=3) == 1
    with mpmath.workdps(40):
        assert complex_value(x, s=3).real > 0


def test_certified_sign_requires_real_and_coprime():
    with pytest.raises(ValueError):
        certified_sign(zeta(4))
    with pytest.raises(ValueError):
        certified_sign(CyclotomicNumber.of(4, 1), embedding=2)


@pytest.mark.parametrize("d", [4, 8, 9, 16])
def test_certified_sign_matches_numeric_and_multiplies(d):
    rng = random.Random(d)
    found = 0
    while found < 25:
        x = random_element(rng, d)
        x = x + x.conj()  # force real
        y = random_element(rng, d)
        y = y * y.conj() + 1  # strictly positive under every embedding
        for s in range(1, d):
            if cyclo.gcd(s, d) != 1:
                continue
            sx = certified_sign(x, s)
            numeric = complex_value(x, s).real
            if sx == 0:
                assert x.is_zero()
            else:
                assert (numeric > 0) == (sx > 0)
            assert certified_sign(y, s) == 1
            assert certified_sign(x * y, s) == sx  # multiplicativity by a positive
        found += 1


def test_embedding_consistency_across_precision():
    rng = random.Random(11)
    for _ in range(10):
        x = random_element(rng, 16)
        x = x + x.conj()
        lo = cyclo.embedding_interval(x, 1, 64)
        hi = cyclo.embedding_interval(x, 1, 128)
        assert lo.a <= hi.a and hi.b <= lo.b


def test_precision_cap_is_loud():
    old = cyclo.set_precision_cap(64)
    try:
        # 2 - zeta - zeta^-1 at d=16, s=1 is ~0.076, fine at 64 bits; build a
        # tiny but nonzero value instead: (2 - z - z^-1)^12 is ~ 4e-14, still
        # separable at 64 bits, so force failure via the cap on a harder one.
        x = (2 - zeta(16) - zeta(16) ** -1) ** 40
        with pytest.raises(PrecisionExhausted):
            certified_sign(x)
    finally:
        cyclo.set_precision_cap(old)
    assert certified_sign(x) == 1


def test_compare_cos_turns_exact_points():
    assert compare_cos_turns(Fraction(1, 2), Fraction(1, 6)) == 0
    assert compare_cos_turns(Fraction(1, 2), Fraction(1, 4)) == 1
    assert compare_cos_turns(Fraction(-1), Fraction(1, 2)) == 0
    assert compare_cos_turns(0, Fraction(5, 6)) == -1


def test_compare_cos_turns_certified_branch():
    # cos(2*pi/5) = (sqrt(5)-1)/4 ~ 0.309
    assert compare_cos_turns(Fraction(1, 3), Fraction(1, 5)) == 1
    assert compare_cos_turns(Fraction(3, 10), Fraction(1, 5)) == -1
    assert compare_cos_turns(Fraction(99, 100), Fraction(1, 1000)) == -1
