"""Exact cyclotomic arithmetic and certified sign determination."""
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
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
from lambdatower.witt import embeddings

from mutation import assert_killed

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
    return CyclotomicNumber.from_terms(d, enumerate(coeffs))


def power(x, k):
    """x^k for k >= 0 by repeated products."""
    out = CyclotomicNumber.of(x.order, 1)
    for _ in range(k):
        out = out * x
    return out


def test_zeta4_squares_to_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_conj_is_inverse_on_roots():
    assert zeta(8).conj() * zeta(8) == 1


def test_one_minus_zeta4_norm():
    one = CyclotomicNumber.of(4, 1)
    x = (one - zeta(4)) * (one - zeta(4, -1))
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


def test_miller_rabin_matches_factoring():
    # below 10^5 against the factoring path, then at strong pseudoprimes to
    # every prime base up to 7 (3,215,031,751), 31 (3,825,123,056,546,413,051)
    # and 37, the last exposed by the base 41 alone
    assert all(cyclo.is_prime(n) == (cyclo.prime_power_split(n) == (n, 1))
               for n in range(10 ** 5))
    pseudoprime_37 = 399_165_290_221 * 798_330_580_441
    assert pseudoprime_37 == 318_665_857_834_031_151_167_461
    for n in (3_215_031_751, 3_825_123_056_546_413_051, pseudoprime_37):
        assert not cyclo.is_prime(n)
    # Carmichael numbers with no prime factor up to 41, 211 * 421 * 631 and
    # 271 * 541 * 811: a^(n-1) = 1 for every base, so only a square root of
    # 1 other than -1 along the squarings exposes them
    for n in (56_052_361, 118_901_521):
        assert not cyclo.is_prime(n)
    # primes beyond the trial-division cap are decided without factoring
    for p in (10 ** 13 + 37, 10 ** 18 + 3, 2 ** 61 - 1):
        assert cyclo.is_prime(p)
    # above the bound of the thirteen bases is_prime factors, under the cap
    with pytest.raises(cyclo.ResourceCapExceeded):
        cyclo.is_prime(2 ** 89 - 1)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        zeta(4) + zeta(8)


def test_rational_embedding_and_integer_ops():
    x = 1 + zeta(9) - zeta(9)
    assert x.is_rational() and x.rational_value() == 1
    assert (3 * zeta(4)) * Fraction(1, 3) == zeta(4)


def test_from_terms_normalises_rational_terms():
    # z^5 = -z and z^-1 = -z^3 in Q(zeta_8); a Fraction term lands over
    # the lcm of the denominators, in lowest terms
    x = CyclotomicNumber.from_terms(8, [(5, Fraction(4, 6)), (-1, 2), (8, 1)])
    assert (x.num, x.den) == ((3, -2, 0, -6), 3)
    assert x == CyclotomicNumber.from_terms(
        8, enumerate([1, 0, 0, 0, 0, Fraction(2, 3), 0, 2]))
    with pytest.raises(TypeError):
        CyclotomicNumber.from_terms(8, [(1, 0.5)])


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.of(4, 0).inverse()


@pytest.mark.parametrize("d", ORDERS)
def test_canonical_idempotence_and_field_laws(d):
    rng = random.Random(d * 101)
    one = CyclotomicNumber.of(d, 1)
    for _ in range(100):
        x = random_element(rng, d)
        y = random_element(rng, d)
        z = random_element(rng, d)
        # re-canonicalizing canonical coefficients is the identity
        assert CyclotomicNumber.from_terms(d, enumerate(x.coeffs)) == x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not y.is_zero():
            assert (x * y.inverse()) * y == x
        assert (x * one) == x
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


def test_zeta_power_reduction_against_oracle():
    rng = random.Random(7)
    for d in (4, 8, 9, 16):
        for _ in range(20):
            k = rng.randint(0, 3 * d)
            x = power(zeta(d), k)
            assert x == zeta(d, k)
            val = complex_value(x)
            with mpmath.workdps(60):
                ref = mpmath.exp(2j * mpmath.pi * k / d)
                assert abs(val - ref) < mpmath.mpf(10) ** -40


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=60, deadline=None)
def test_ring_laws_hypothesis(a, b, c):
    d = 8
    x = CyclotomicNumber.from_terms(d, enumerate([a, b, c]))
    y = CyclotomicNumber.from_terms(d, enumerate([c, a, 0, b]))
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x


def test_certified_sign_exact_zero():
    x = zeta(4) + zeta(4, -1)  # i + (-i) = 0, syntactically
    assert x.is_zero()
    assert certified_sign(x) == 0


def test_certified_sign_embedding_three():
    x = 2 + zeta(8) + zeta(8, -1)
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


def rotation_enclosure(x, s, prec):
    """Rationals lo <= x <= hi under zeta -> e^(2 pi i s/d), from the integer
    sum over the rotation table at prec bits that certified_sign reads."""
    d = x.order
    bits, err, cs, _ = cyclo._rotations(d, prec)
    total = 0
    for k, c in zip(x.exps, x.coefs):
        v = 2 * k * s % (2 * d)
        v = min(v, 2 * d - v)
        total += c * (cs[v] if 2 * v <= d else -cs[d - v])
    slack = err * sum(map(abs, x.coefs))
    scale = x.den << bits
    return Fraction(total - slack, scale), Fraction(total + slack, scale)


def test_embedding_consistency_across_precision():
    rng = random.Random(11)
    for _ in range(10):
        x = random_element(rng, 16)
        x = x + x.conj()
        lo = rotation_enclosure(x, 1, 64)
        hi = rotation_enclosure(x, 1, 128)
        assert lo[0] <= hi[0] and hi[1] <= lo[1]
        with mpmath.workdps(80):
            low, high = (mpmath.mpf(b.numerator) / b.denominator for b in hi)
            assert low <= complex_value(x, 1, dps=80).real <= high


def test_precision_cap_is_loud():
    old = cyclo.set_precision_cap(64)
    try:
        # 2 - zeta - zeta^-1 at d=16, s=1 is ~0.076, fine at 64 bits; build a
        # tiny but nonzero value instead: (2 - z - z^-1)^12 is ~ 4e-14, still
        # separable at 64 bits, so force failure via the cap on a harder one.
        x = power(CyclotomicNumber.of(16, 2) - zeta(16) - zeta(16, -1), 40)
        with pytest.raises(PrecisionExhausted):
            certified_sign(x)
    finally:
        cyclo.set_precision_cap(old)
    assert certified_sign(x) == 1


def test_precision_cap_message_names_no_coefficient():
    # coefficients of over 4,400 digits, past the limit for printing an int
    # (sys.get_int_max_str_digits): the message gives the order, the
    # embedding, the number of terms and the cap, and no coefficient
    x = power(CyclotomicNumber.of(16, 2) - zeta(16) - zeta(16, -1), 40)
    x = x * (10 ** 4400 + 1)
    old = cyclo.set_precision_cap(64)
    try:
        with pytest.raises(PrecisionExhausted) as info:
            certified_sign(x)
    finally:
        cyclo.set_precision_cap(old)
    message = str(info.value)
    assert message == (f"could not separate the sign of a {len(x.coefs)}-term "
                       f"element of Q(zeta_16) at embedding 1 within 64 bits")
    assert min(map(abs, x.coefs)) > 10 ** 4400


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


def test_prime_power_split_memo_is_bounded():
    info = cyclo.prime_power_split.cache_info()
    assert info.maxsize is not None and info.maxsize > 0


def _count_certified(monkeypatch):
    calls = []
    original = cyclo.certified_sign

    def counted(x, s=1):
        calls.append((x, s))
        return original(x, s)

    monkeypatch.setattr(cyclo, "certified_sign", counted)
    return calls


@pytest.mark.parametrize("d", [4, 8, 9, 16, 27, 81, 125, 243])
def test_embedding_signs_match_certified_sign(d, monkeypatch):
    rng = random.Random(300 + d)
    xs = [CyclotomicNumber.of(d, Fraction(-7, 3))]
    while len(xs) < 7:
        x = random_element(rng, d)
        if not (x + x.conj()).is_zero():
            xs.append(x + x.conj())
    units = [s for s in range(1, d) if cyclo.gcd(s, d) == 1]
    ss = tuple(units[::max(1, len(units) // 16)])
    want = [[certified_sign(x, s) for s in ss] for x in xs]
    calls = _count_certified(monkeypatch)
    assert [list(row) for row in cyclo.embedding_signs(xs, ss)] == want
    assert calls == []  # random elements are far from zero in floats


def near_zero_elements(d):
    """a + b (z + z^-1) for consecutive convergents a/b of -2 cos(2 pi/d):
    real elements whose standard embedding nearly cancels."""
    with mpmath.workdps(80):
        target = -2 * mpmath.cos(2 * mpmath.pi / d)
        out = []
        p0, q0, p1, q1 = 1, 0, int(mpmath.floor(target)), 1
        rest = target - p1
        z = zeta(d)
        w = z + z.conj()
        for _ in range(30):
            rest = 1 / rest
            a = int(mpmath.floor(rest))
            rest -= a
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            out.append(CyclotomicNumber.of(d, p1) + w * q1)
        return out


@pytest.mark.parametrize("d", [8, 9, 16, 25])
def test_embedding_signs_near_cancellation(d, monkeypatch):
    xs = near_zero_elements(d)
    want = []
    for x in xs:
        value = complex_value(x, 1, dps=80).real
        want.append([1 if value > 0 else -1])
    calls = _count_certified(monkeypatch)
    assert [list(row) for row in cyclo.embedding_signs(xs, (1,))] == want
    # the closest convergents cancel below the float bound, so
    # certified_sign decides them
    assert calls


def test_embedding_signs_validate_like_certified_sign():
    with pytest.raises(ValueError, match="fixed by the involution"):
        cyclo.embedding_signs([zeta(4)], (1,))
    with pytest.raises(ValueError, match="not coprime"):
        cyclo.embedding_signs([CyclotomicNumber.of(4, 1)], (2,))
    with pytest.raises(ValueError, match="share"):
        cyclo.embedding_signs([CyclotomicNumber.of(4, 1),
                               CyclotomicNumber.of(8, 1)], (1,))
    assert cyclo.embedding_signs([], (1,)) == ()
    assert cyclo.embedding_signs([CyclotomicNumber.of(9, 0)], (1, 2)) == ((0, 0),)


def test_embedding_signs_leave_huge_coefficients_to_intervals(monkeypatch):
    x = CyclotomicNumber.of(8, Fraction(10 ** 400, 3))
    tiny = CyclotomicNumber.of(8, Fraction(1, 10 ** 400))
    calls = _count_certified(monkeypatch)
    assert cyclo.embedding_signs([x, tiny * -1], (1, 3)) == ((1, 1), (-1, -1))
    assert len(calls) == 4


def test_float_sign_bound_is_exact_at_its_edge():
    """A value equal to the documented bound, (2 phi + 9) u (|C| |T| +
    sum |c|), stays undecided, and one ulp above it is decided; so the float
    stage fails this test if its bound is one ulp smaller."""
    u = 2.0 ** -53
    table = np.array([[1.0], [0.0]])  # phi = 2 coefficients, one embedding

    def bound(a, b):
        return (13 * u) * ((abs(a) * 1.0 + abs(b) * 0.0) + (abs(a) + abs(b)))

    for b in (1.0, 0.75, 3.0):
        a = 0.0
        for _ in range(50):  # iterate to a value equal to its own bound
            if bound(a, b) == a:
                break
            a = bound(a, b)
        assert bound(a, b) == a
        up = math.nextafter(a, 1.0)
        assert bound(up, b) < up
        got = cyclo._float_signs(np.array([[a, b], [-a, b], [up, b],
                                           [-up, b]]), table)
        assert got.tolist() == [[0], [0], [1], [-1]]


@pytest.mark.parametrize("d", [4, 27, 243, 729, 1024, 2048])
def test_cos_table_intervals_fit_the_float_bound(d):
    # _float_signs assumes each rounded cosine is within 2 u: the rotation
    # table is within 2^-64 and the rounding adds at most u / 2.  The cosines
    # that certified_sign reads at prec bits are within 2d / 2^F < 2^-prec,
    # so at its first rung, 64 bits, they are well within 2^-56.
    for prec in (64, 128):
        bits, err, _, _ = cyclo._rotations(d, prec)
        assert err < 2 ** (bits - prec)
    ss = tuple(s for s in (1, 2, 5, d - 1) if cyclo.gcd(s, d) == 1)
    table = cyclo._float_cos_table(d, ss)
    with mpmath.workdps(40):
        for k in range(0, cyclo.degree_of(d), max(1, d // 97)):
            for j, s in enumerate(ss):
                exact = mpmath.cos(2 * mpmath.pi * k * s / d)
                assert abs(table[k, j] - exact) <= 2 * 2.0 ** -53


def _assert_cot_table_encloses(d):
    lo, hi = cyclo.cot_table(d)
    assert math.isnan(lo[0]) and math.isnan(hi[0])
    with mpmath.workprec(256):
        for u in range(1, d):
            cot = mpmath.cot(mpmath.pi * u / d)
            assert lo[u] <= cot <= hi[u] and lo[u] < hi[u], (d, u)


@pytest.mark.parametrize("d", [768, 2187, 4096])
def test_cot_table_encloses_cot_at_every_root(d):
    _assert_cot_table_encloses(d)


@given(st.integers(1, 3000))
@settings(max_examples=15, deadline=None)
def test_cot_tables_enclose_cot(d):
    _assert_cot_table_encloses(d)


@pytest.mark.parametrize("d", [1, 2, 7, 768, 2187, 4096])
def test_rotations_stay_within_their_bound(d):
    # at the float stages' 64 bits and at a rung of certified_sign
    for prec in (64, 256):
        bits, err, cs, ss = cyclo._rotations(d, prec)
        assert bits == prec + 2 * d.bit_length()
        assert len(cs) == len(ss) == d // 2 + 1 and err == 2 * d
        scale = mpmath.mpf(2) ** bits
        with mpmath.workprec(2 * bits):
            for u in range(0, d // 2 + 1, max(1, d // 200)):
                angle = mpmath.pi * u / d
                assert abs(cs[u] - scale * mpmath.cos(angle)) <= err
                assert abs(ss[u] - scale * mpmath.sin(angle)) <= err


def test_one_rotation_table_per_order_over_two_sessions():
    # the ten witt orders of a query session, twice: each order's rotations
    # are computed once, for its cot table and its float cosines, and the
    # float table keeps every order
    orders = (16, 27, 32, 49, 64, 81, 125, 128, 243, 256)
    for table in (cyclo._rotations, cyclo.cot_table, cyclo._float_cos_table):
        table.cache_clear()
    for _ in range(2):
        for d in orders:
            cyclo.cot_table(d)
            cyclo._float_cos_table(d, embeddings(d))
    assert cyclo._rotations.cache_info().misses == len(orders)
    assert cyclo._float_cos_table.cache_info().misses == len(orders)


@pytest.mark.parametrize("function, old, new, test", [
    # the lower end without its slack: C/S rounds past cot at d = 16
    (cyclo.cot_table, "low = (c - err) / (s + err if c >= err else s - err)",
     "low = c / s", lambda: _assert_cot_table_encloses(16)),
    # the upper end without its slack: only cot = 0, at u = d/2, needs it,
    # so d = 4 kills this mutant and d = 3, 7, 9, 16, 27, 64, 768, 2187 and
    # 4096 do not
    (cyclo.cot_table, "(c + err) / (s - err)", "c / s",
     lambda: _assert_cot_table_encloses(4)),
], ids=["cot-low-slack", "cot-high-slack"])
def test_mutants_fail_their_test(monkeypatch, function, old, new, test):
    assert_killed(monkeypatch, function, old, new, test)


def test_cot_table_is_bounded_and_read_only():
    assert cyclo.cot_table(cyclo._MAX_COT_ORDER + 1) is None
    lo, _ = cyclo.cot_table(16)
    with pytest.raises(ValueError):
        lo[1] = 0.0


def test_equal_elements_hash_equally():
    # one representation per element, so the dataclass hash of (order, num,
    # den) agrees with equality
    rng = random.Random(5)
    for d in (4, 9, 27):
        x = random_element(rng, d)
        same = CyclotomicNumber.from_terms(d, enumerate(x.coeffs))
        assert same == x and same is not x
        assert hash(same) == hash(x)
        assert len({x, same, x * CyclotomicNumber.of(d, 1)}) == 1
