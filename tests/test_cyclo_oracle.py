"""Term-stored Q(zeta_d) arithmetic against the Fraction reference oracle.

`CyclotomicNumber` holds its nonzero terms over one denominator, scales by
a rational operand, multiplies every other pair of elements term by term,
reduced modulo Phi_d by one fold, and inverts by Galois norms once the
integer content is out: down the subfield tower, then from Q(zeta_p) to Q
along a chain of subgroups of (Z/p)^*.  Every operation here is compared,
coefficient by coefficient, with the direct Fraction algorithms of
`fraction_oracle` (the inverse with its extended Euclid, an independent
algorithm), on zero elements, negative coefficients, wide coefficients
beside each power 2^(8 k - 1) up to 9 bytes and past 64 bits, coefficients
of 2^300, mixed denominators, and operands from one term up to dense.
"""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import fraction_oracle as oracle
from mutation import assert_killed
from lambdatower import cyclo
from lambdatower.cyclo import CyclotomicNumber, degree_of
from lambdatower.witt import diagonalize, lambda_block, witt_invariants

ORDERS = [4, 8, 9, 16, 27, 32, 49, 64, 81, 125, 128, 243, 256]

# Wide coefficients: |c| at and beside 2^(8 k - 1) for k up to 9 bytes, so
# that products pass 64 bits and carry across every byte width.
BOUNDARIES = sorted({sign * (2 ** (8 * k - 1) + e)
                     for k in range(1, 10) for e in (-1, 0, 1)
                     for sign in (1, -1)})

# A low-degree element across the one- and two-byte digit boundaries
LOW = [2 ** 15 + 1, -(2 ** 7), 2 ** 7 - 1, Fraction(-(2 ** 8), 5)]


def vectors(d: int) -> dict:
    """Named coefficient vectors of length phi(d), one per edge case."""
    rng = random.Random(7000 + d)
    phi = degree_of(d)

    def draw(f):
        return [f() for _ in range(phi)]

    sparse = [0] * phi
    sparse[-1] = -(2 ** 15)
    sparse[rng.randrange(phi)] = 7
    sparse[0] = Fraction(-1, 3)
    return {
        "zero": [0] * phi,
        "one": [1] + [0] * (phi - 1),
        "rational": [Fraction(-7, 3)] + [0] * (phi - 1),
        "negative": draw(lambda: rng.randint(-9, -1)),
        "small": draw(lambda: rng.randint(-9, 9)),
        "boundary": draw(lambda: rng.choice(BOUNDARIES)),
        # products whose coefficients reach the top of their digits
        "extreme": [-(2 ** 63)] * phi,
        "huge": draw(lambda: rng.choice((1, -1)) * 2 ** 300 + rng.randint(-3, 3)),
        "mixed": draw(lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))),
        "sparse": sparse,
        "low": LOW + [0] * (phi - len(LOW)),
    }


PAIRS = [("zero", "small"), ("small", "zero"), ("zero", "zero"),
         ("negative", "negative"), ("boundary", "boundary"),
         ("boundary", "small"), ("extreme", "extreme"), ("huge", "mixed"),
         ("mixed", "mixed"), ("sparse", "huge"), ("rational", "boundary"),
         ("low", "sparse"), ("small", "small")]

def element(d, vec):
    return CyclotomicNumber.from_terms(d, enumerate(vec))


def assert_canonical(x):
    """The stored terms are the one form of x: exponents increasing and
    below phi(d), integer coefficients none zero, den > 0 in lowest terms;
    and the dense view agrees."""
    phi = degree_of(x.order)
    assert type(x.exps) is tuple and type(x.coefs) is tuple
    assert len(x.exps) == len(x.coefs)
    assert list(x.exps) == sorted(set(x.exps))
    assert all(type(e) is int and 0 <= e < phi for e in x.exps)
    assert all(type(c) is int and c for c in x.coefs)
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *x.coefs) == 1
    assert len(x.num) == phi
    assert all(type(c) is int for c in x.num)
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert [x.num[e] for e in x.exps] == list(x.coefs)
    assert sum(map(bool, x.num)) == len(x.exps)


@pytest.mark.parametrize("d", ORDERS)
def test_coeffs_match_oracle(d):
    for name, vec in vectors(d).items():
        x = element(d, vec)
        assert_canonical(x)
        assert list(x.coeffs) == oracle.reduce(vec, d), name
        assert all(isinstance(c, Fraction) for c in x.coeffs)
        assert CyclotomicNumber.from_terms(d, enumerate(x.coeffs)) == x


@pytest.mark.parametrize("d", ORDERS)
def test_ring_operations_match_oracle(d):
    vecs = vectors(d)
    for left, right in PAIRS:
        x, y = element(d, vecs[left]), element(d, vecs[right])
        a, b = list(x.coeffs), list(y.coeffs)
        for got, want in ((x * y, oracle.mul(a, b, d)),
                          (x + y, oracle.add(a, b)),
                          (x - y, oracle.add(a, [-c for c in b]))):
            assert_canonical(got)
            assert list(got.coeffs) == want, (left, right)
    for name, vec in vecs.items():
        x = element(d, vec)
        assert_canonical(x.conj())
        assert list(x.conj().coeffs) == oracle.conj(list(x.coeffs), d), name
        assert list((x * x).coeffs) == oracle.mul(x.coeffs, x.coeffs, d), name


def assert_inverse_matches_oracle(x):
    inv = x.inverse()
    assert_canonical(inv)
    assert list(inv.coeffs) == oracle.inverse(list(x.coeffs), x.order)
    assert x * inv == 1


@pytest.mark.parametrize("d", ORDERS)
def test_inverse_matches_oracle(d):
    vecs = vectors(d)
    # the Fraction Euclid takes seconds on inverses of high degree in a field
    # of high degree, so those are checked at the lower orders only
    high = ("sparse", "negative", "small", "boundary", "mixed")
    for name in ("one", "rational", "low") + (high if degree_of(d) <= 20 else ()):
        assert_inverse_matches_oracle(element(d, vecs[name]))
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.of(d, 0).inverse()


@pytest.mark.parametrize("d", [3, 5, 7, 11, 101])
def test_inverse_at_prime_order_matches_oracle(d):
    # Q(zeta_p) has no subfield to descend to, so the norm to Q is taken
    # along the chain of subgroups of (Z/p)^*, one prime of p - 1 a step
    rng = random.Random(d)
    vecs = [[Fraction(-7, 3)], LOW, [Fraction(-1, 3), 0, 0, 0, 0, -(2 ** 15)]]
    if d < 100:
        vecs.append([rng.choice(BOUNDARIES) for _ in range(12)])
    for vec in vecs:
        assert_inverse_matches_oracle(element(d, vec))


@pytest.mark.parametrize("p", [131, 257])
def test_dense_inverse_at_large_prime_order(p):
    # dense elements of degree 130 and 256, past the Fraction Euclid's reach
    rng = random.Random(p)
    x = element(p, [rng.randint(-9, 9) for _ in range(p - 1)])
    inv = x.inverse()
    assert_canonical(inv)
    assert x * inv == 1


def test_norm_chain_enumerates_the_units():
    # the products of step powers h^j, 0 <= j < l, one from each step, are
    # the units mod p, each once, so the chain's images multiply to the norm
    for p in filter(cyclo.is_prime, range(3, 200)):
        units = [1]
        for h, l in cyclo._norm_chain(p):
            units = [u * pow(h, j, p) % p for u in units for j in range(l)]
        assert sorted(units) == list(range(1, p)), p


def test_inverse_of_huge_coefficients():
    assert_inverse_matches_oracle(element(16, vectors(16)["huge"]))


@pytest.mark.parametrize("d", ORDERS)
def test_discriminant_strings_match_oracle(d):
    # witt prints disc_coeffs as str of each coefficient of the pivot product
    form = lambda_block(((-1, 1), (0, -1)), 2, d, 1)
    pivots = diagonalize(form).pivots
    k = len(pivots)
    disc = oracle.reduce([(-1) ** (k * (k - 1) // 2)], d)
    for p in pivots:
        disc = oracle.mul(disc, p.coeffs, d)
    assert witt_invariants(form).to_json()["disc_coeffs"] == \
        [str(c) for c in disc]


def coefficient_lists(d):
    value = st.one_of(
        st.integers(-9, 9),
        st.sampled_from(BOUNDARIES),
        st.integers(-(2 ** 300), 2 ** 300),
        st.fractions(max_denominator=50).filter(lambda f: abs(f) < 10 ** 6))
    return st.lists(value, min_size=1, max_size=degree_of(d))


@pytest.mark.parametrize("d", [8, 9, 16, 27, 49, 128])
@settings(max_examples=25)
@given(data=st.data())
def test_products_and_sums_match_oracle_hypothesis(d, data):
    a = data.draw(coefficient_lists(d))
    b = data.draw(coefficient_lists(d))
    x, y = element(d, a), element(d, b)
    fa, fb = oracle.reduce(a, d), oracle.reduce(b, d)
    assert list((x * y).coeffs) == oracle.mul(fa, fb, d)
    assert list((x + y).coeffs) == oracle.add(fa, fb)
    assert list(x.conj().coeffs) == oracle.conj(fa, d)


# Orders with p = 2, 3, 5 and 7, prime orders among them.
SPARSE_ORDERS = (5, 7, 8, 9, 16, 25, 27, 49, 125, 128, 243, 256)


def sparse_vectors(d, terms):
    """Coefficient vectors of length phi(d) with the given number of terms at
    arbitrary exponents, the top ones drawn often, so that exponent sums pass
    phi(d) and, for odd p, d; integer, huge and fractional coefficients."""
    phi = degree_of(d)
    exponent = st.one_of(st.integers(0, phi - 1),
                         st.integers(max(0, phi - 3), phi - 1))
    value = st.one_of(
        st.integers(-9, 9).filter(bool),
        st.integers(2 ** 64, 2 ** 72).map(lambda c: -c),
        st.fractions(max_denominator=50).filter(lambda f: f and abs(f) < 10 ** 6))

    @st.composite
    def draw_vector(draw):
        vec = [0] * phi
        for e in draw(st.lists(exponent, min_size=terms, max_size=terms,
                               unique=True)):
            vec[e] = draw(value)
        return vec
    return draw_vector()


@st.composite
def sparse_operands(draw):
    """(d, a, b) for two operands of the term product, each with from one
    term up to phi(d) at phi(d) <= 64, so that dense times dense is drawn
    too.  Drawing many terms is slow, so above phi(d) = 64 each keeps to
    at most 16 terms, as many as any pivot of the witt menu has."""
    d = draw(st.sampled_from(SPARSE_ORDERS))
    phi = degree_of(d)
    na, nb = (draw(st.integers(1, phi if phi <= 64 else 16)) for _ in "ab")
    return d, draw(sparse_vectors(d, na)), draw(sparse_vectors(d, nb))


@given(sparse_operands(), st.sampled_from((2, 6, 2 ** 65 + 2)),
       st.sampled_from((1, 5, 7, 11 ** 3)))
@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@seed(2029)
# 10 z^8 = -10 (z^2 + z^5) in Q(zeta_9), and the inverse of 6/7 z^5
@example((9, [0, 0, 0, 0, 0, 2], [0, 0, 0, 5, 0, 0]), 6, 7)
# 2 (z/2) = z, a rational operand whose product cancels the denominator
@example((9, [2, 0, 0, 0, 0, 0], [0, Fraction(1, 2), 0, 0, 0, 0]), 2, 1)
def test_sparse_operands_match_oracle(operands, content, den):
    """Products of operands from one term up to dense, conjugates, and
    inverses of elements whose integer content g > 1 (coprime to den) comes
    off before the norms: against the oracle at phi(d) <= 20, elsewhere by
    x x^-1 = 1."""
    d, a, b = operands
    x, y = element(d, a), element(d, b)
    fa, fb = oracle.reduce(a, d), oracle.reduce(b, d)
    product = x * y
    assert_canonical(product)
    assert list(product.coeffs) == oracle.mul(fa, fb, d)
    assert list(x.conj().coeffs) == oracle.conj(fa, d)
    g = gcd(*x.num)
    w = element(d, [Fraction(content * c // g, den) for c in x.num])
    assert gcd(*w.num) == content and w.den == den
    inv = w.inverse()
    assert_canonical(inv)
    if degree_of(d) <= 20:
        assert list(inv.coeffs) == oracle.inverse(list(w.coeffs), d)
    assert w * inv == 1


@pytest.mark.parametrize("function, old, new, test", [
    # z^((p-1) m + r) folded onto +z^(j m + r)
    (cyclo._fold, "acc[k] = get(k, 0) - c", "acc[k] = get(k, 0) + c",
     test_sparse_operands_match_oracle),
    # the integer content taken out of the inverse's numerators but left
    # out of its denominator
    (cyclo._inverse, "_scaled(inv, x.den, g)", "_scaled(inv, x.den, 1)",
     test_sparse_operands_match_oracle),
    # the scalar short-cut's denominator left unreduced
    (cyclo._scaled,
     "return _element(x.order, x.exps, [c * n for c in x.coefs], x.den * q)",
     "return CyclotomicNumber(x.order, x.exps, "
     "tuple([c * n for c in x.coefs]), x.den * q)",
     test_sparse_operands_match_oracle),
    # the norm chain's step left un-powered: at p = 5 both steps take
    # zeta -> zeta^2, so the images miss zeta -> zeta^3
    (cyclo._norm_chain, "h = pow(h, l, p)", "pass",
     lambda: test_inverse_at_prime_order_matches_oracle(5)),
    # a non-generator accepted: 2 has order 3 mod 7
    (cyclo._norm_chain, "if all(pow(g, (p - 1) // l, p) != 1",
     "if any(pow(g, (p - 1) // l, p) != 1",
     lambda: test_inverse_at_prime_order_matches_oracle(7)),
], ids=["fold-sign", "content-strip", "scalar-unreduced", "step-unpowered",
        "non-generator"])
def test_mutants_fail_their_test(monkeypatch, function, old, new, test):
    assert_killed(monkeypatch, function, old, new, test)
