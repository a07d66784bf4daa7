"""Exact arithmetic in Q(zeta_d) for prime-power d, with certified signs.

Elements live in the power basis 1, z, ..., z^(phi(d)-1) modulo the
cyclotomic polynomial Phi_d, stored as their nonzero terms: sorted
exponents, nonzero integer coefficients and one denominator in lowest terms.
That form is unique, so equality and zero testing are exact syntactic
checks, and an element can key a memo, as witt's memo of pivot inverses
does.  Arithmetic reads only the terms: a rational operand scales the
other's coefficients, every other product goes term by term and is reduced
modulo Phi_d by the one fold that Galois images and from_terms use too, and
inverses take out the integer content and divide by Galois norms, down the
tower of subfields and then to Q.  The sign of an element fixed by the
involution z -> z^-1, under the embedding z -> exp(2*pi*i*s/d), is certified
from one rotation table per order and precision: powers of a certified
e^(i pi/d) in fixed-point integers, with an error bound that needs no
precision cap.  Exact zeros short-circuit, and a nonzero element is
separated from zero at some finite precision.  For many elements at many
embeddings, a float evaluation with an a priori error bound decides first
and leaves only the close calls; its cosines, and the cot enclosures of the
signature sweeps, come from the 64-bit table.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, inf, lcm, log10, nextafter
from typing import Union

import numpy as np
from mpmath import iv, mp

__all__ = [
    "MAX_FIELD_DEGREE",
    "MAX_TRIAL_DIVISOR",
    "CyclotomicNumber",
    "InputError",
    "PrecisionExhausted",
    "ResourceCapExceeded",
    "certified_sign",
    "compare_cos_turns",
    "cot_table",
    "degree_of",
    "embedding_signs",
    "factor",
    "interval_precision",
    "is_prime",
    "is_prime_power",
    "precision_cap",
    "prime_power_split",
    "set_precision_cap",
    "zeta",
]

START_PRECISION = 64
_precision_cap = 1 << 16

# Largest degree phi(d) of Q(zeta_d) that exact arithmetic accepts; the
# largest in use is 500 (d = 625).
MAX_FIELD_DEGREE = 1024

# Largest trial divisor factor uses, so it decides every n below 10^12 and
# every n whose cofactor after the primes up to 10^6 is below 10^12 or a
# prime that Miller-Rabin decides; the largest n in use is a discriminant
# of a few digits.  A part left over _TRIAL_BITS bits long is tried only up
# to MAX_TRIAL_DIVISOR _TRIAL_BITS / bitlen, so that no trial pass costs
# more than one over a number of _TRIAL_BITS bits.
MAX_TRIAL_DIVISOR = 10 ** 6
_TRIAL_BITS = 256

Scalar = Union[int, Fraction]


class PrecisionExhausted(ArithmeticError):
    """Interval refinement hit the precision cap without separating a sign."""


class ResourceCapExceeded(RuntimeError):
    """A field, a tower build or a word would exceed its resource cap."""


class InputError(ValueError):
    """An argument is out of range; name is the parameter at fault."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def set_precision_cap(bits: int) -> int:
    """Set the hard precision cap (in bits) and return the previous value."""
    global _precision_cap
    if bits < START_PRECISION:
        raise InputError("precision_cap", f"precision cap {bits} below "
                         f"starting precision {START_PRECISION}")
    old = _precision_cap
    _precision_cap = bits
    return old


def precision_cap() -> int:
    """The current hard precision cap in bits."""
    return _precision_cap


def _trial_cap(n: int) -> int:
    """The largest trial divisor factor tries on a cofactor n."""
    return MAX_TRIAL_DIVISOR * _TRIAL_BITS // max(_TRIAL_BITS, n.bit_length())


def factor(n: int) -> dict:
    """Prime factorization {prime: exponent} of n by trial division, in
    increasing order of the primes; empty for n < 2.  A cofactor left above
    the trial cap is kept when Miller-Rabin proves it prime; otherwise
    ResourceCapExceeded is raised.  The cap is MAX_TRIAL_DIVISOR, less for
    a cofactor over _TRIAL_BITS bits."""
    out = {}
    q = 2
    cap = _trial_cap(n)
    while q * q <= n:
        if q > cap:
            # below the bound is_prime does not factor, so this never recurs
            if n < _MILLER_RABIN_BOUND and is_prime(n):
                break
            k = int(log10(n))  # within 1 of the digit count less 1
            digits = k + (n >= 10 ** k) + (n >= 10 ** (k + 1))
            raise ResourceCapExceeded(
                f"factoring needs trial divisors above the cap {cap}"
                f"{'' if cap == MAX_TRIAL_DIVISOR else ' for its size'}: a "
                f"cofactor of {digits} digits has no prime factor up to it, "
                f"is not below its square and is not proven prime")
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
            cap = _trial_cap(n)
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=1 << 12)
def prime_power_split(d: int):
    """Return (p, a) with d = p**a, or None if d is not a prime power >= 2."""
    split = factor(d)
    return next(iter(split.items())) if len(split) == 1 else None


def is_prime_power(d: int) -> bool:
    return prime_power_split(d) is not None


# Miller-Rabin to the first 13 prime bases decides every n below
# _MILLER_RABIN_BOUND, the least strong pseudoprime to all of them (Sorenson
# and Webster, Math. Comp. 86, 2017); is_prime factors larger n.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n >= _MILLER_RABIN_BOUND:
        return prime_power_split(n) == (n, 1)
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^twos * odd
    for a in _MILLER_RABIN_BASES:
        x = pow(a, (n - 1) >> twos, n)
        if x == 1:
            continue
        for _ in range(twos):  # n is prime only if -1 comes before 1
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@lru_cache(maxsize=1 << 12)
def _field_params(d: int):
    split = prime_power_split(d)
    if split is None:
        raise ValueError(f"order {d} is not a prime power")
    p, a = split
    m = p ** (a - 1)
    if (p - 1) * m > MAX_FIELD_DEGREE:
        raise ResourceCapExceeded(
            f"Q(zeta_{d}) has degree {(p - 1) * m}, over the cap "
            f"{MAX_FIELD_DEGREE} for exact arithmetic")
    return p, a, m, (p - 1) * m


def degree_of(d: int) -> int:
    """Degree phi(d) of Q(zeta_d) over Q for prime-power d."""
    return _field_params(d)[3]


def _lowest(vec: list, den: int):
    """(vec, den) divided by gcd(den, *vec), with the sign that makes den > 0."""
    if den == 1:
        return vec, den
    g = gcd(den, *vec)
    if den < 0:
        g = -g
    if g != 1:
        vec = [c // g for c in vec]
        den //= g
    return vec, den


def _ratio(value: Scalar) -> tuple:
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"cannot coerce {type(value).__name__} into Q(zeta_d)")


def _element(d: int, exps, coefs, den: int) -> "CyclotomicNumber":
    """The element sum coefs[i] z^exps[i] / den in lowest terms, for sorted
    exponents below phi(d) and nonzero integer coefficients."""
    coefs, den = _lowest(coefs, den)
    return CyclotomicNumber(d, tuple(exps), tuple(coefs), den)


def _fold(d: int, exps, coefs) -> tuple:
    """(exps, coefs), the nonzero terms of sum c z^e in the power basis over
    the exponents e and coefficients c, for any integer exponents: the one
    reduction modulo Phi_d."""
    p, _, m, phi = _field_params(d)
    acc = {}
    get = acc.get
    for e, c in zip(exps, coefs):
        e %= d  # z^d = 1
        if e < phi:
            acc[e] = get(e, 0) + c
        else:
            # Phi_{p^a}(z) = sum_{j<p} z^(j m) with m = p^(a-1), so
            # z^((p-1) m + r) = -sum_{j<p-1} z^(j m + r)
            for k in range(e - phi, phi, m):
                acc[k] = get(k, 0) - c
    exps = [e for e in sorted(acc) if acc[e]]
    return exps, [acc[e] for e in exps]


def _dense(x: "CyclotomicNumber", size: int) -> list:
    """The first size power-basis coefficients of the numerator of x."""
    vec = [0] * size
    for e, c in zip(x.exps, x.coefs):
        vec[e] = c
    return vec


def _scaled(x: "CyclotomicNumber", n: int, q: int) -> "CyclotomicNumber":
    """x n / q for integers n != 0 and q > 0: the terms keep their exponents."""
    return _element(x.order, x.exps, [c * n for c in x.coefs], x.den * q)


def _product(x: "CyclotomicNumber", y: "CyclotomicNumber") -> "CyclotomicNumber":
    """x y: a rational operand scales the other; otherwise every pair of
    terms multiplies, and _fold reduces the sum modulo Phi_d."""
    if len(x.exps) > len(y.exps):
        x, y = y, x
    if not any(x.exps):  # x is rational: 0, or one term at z^0
        return _scaled(y, x.coefs[0], x.den) if x.coefs else x
    terms = _fold(x.order, [i + j for i in x.exps for j in y.exps],
                  [a * b for a in x.coefs for b in y.coefs])
    return _element(x.order, *terms, x.den * y.den)


def _galois(x: "CyclotomicNumber", k: int) -> "CyclotomicNumber":
    """Image of x under zeta -> zeta^k, for k coprime to the order."""
    exps, coefs = _fold(x.order, [e * k for e in x.exps], x.coefs)
    # a ring automorphism of Z[zeta_d] keeps the gcd of the numerators, and
    # den stays in lowest terms
    return CyclotomicNumber(x.order, tuple(exps), tuple(coefs), x.den)


def _conjugates(x: "CyclotomicNumber", h: int, l: int) -> "CyclotomicNumber":
    """The product of the l - 1 images of x under zeta -> zeta^(h^i) for
    0 < i < l, for h coprime to the order."""
    rest = _galois(x, h)
    for i in range(2, l):
        rest = _product(rest, _galois(x, pow(h, i, x.order)))
    return rest


def _norm_chain(p: int) -> list:
    """The steps [(h, l), ...] that take an element of Q(zeta_p), for an odd
    prime p, to its norm over Q.

    (Z/p)^* is cyclic of order p - 1.  For its least generator g and the
    primes l_1, l_2, ... of p - 1, with multiplicity, step i pairs l_i with
    h_i = g^(l_1 ... l_(i-1)).  Every unit mod p is exactly one product of
    powers h_i^(j_i) with 0 <= j_i < l_i, so multiplying y by its l_i - 1
    images under h_i, step after step from y = x, leaves the product of all
    p - 1 conjugates of x.
    """
    primes = factor(p - 1)
    h = next(g for g in count(2)
             if all(pow(g, (p - 1) // l, p) != 1 for l in primes))
    chain = []
    for l in [l for l, e in primes.items() for _ in range(e)]:
        chain.append((h, l))
        h = pow(h, l, p)
    return chain


def _inverse(x: "CyclotomicNumber") -> "CyclotomicNumber":
    """Inverse of a nonzero x, by Galois norms down to Q.

    Each step multiplies y, from y = x, by its l - 1 images under a cyclic
    subgroup of order l; with r the product of all those images, x r is a
    norm and 1/x = r / (x r).  For d = p^a with a > 1 one step, over the
    conjugates zeta -> zeta^(1 + j d/p) for j < p, gives the relative norm
    to Q(zeta_d^p), supported on the powers z^(p i) and inverted at a p-th
    of the degree.  Q(zeta_p) takes the steps of _norm_chain down to N(x) in
    Q, positive since Q(zeta_p) is totally imaginary.  A rational x is
    inverted directly.  The integer content comes off first, since
    N(g y) = g^phi N(y) would carry it through every norm.
    """
    d, exps, coefs = x.order, x.exps, x.coefs
    if exps == (0,):
        return CyclotomicNumber.of(d, Fraction(x.den, coefs[0]))
    g = gcd(*coefs)
    if g != 1 or x.den != 1:
        # x = (g / den) y for the primitive y in Z[zeta_d]
        inv = _inverse(CyclotomicNumber(d, exps, tuple([c // g for c in coefs])))
        return _scaled(inv, x.den, g)
    p, a, m, _ = _field_params(d)
    norm, rest = x, None
    for h, l in [(1 + m, p)] if a > 1 else _norm_chain(p):
        images = _conjugates(norm, h, l)
        norm = _product(norm, images)
        rest = images if rest is None else _product(rest, images)
    if a == 1:
        return _scaled(rest, norm.den, norm.coefs[0])
    sub = _inverse(CyclotomicNumber(d // p, tuple([e // p for e in norm.exps]),
                                    norm.coefs, norm.den))
    return _product(rest, CyclotomicNumber(d, tuple([e * p for e in sub.exps]),
                                           sub.coefs, sub.den))


@dataclass(frozen=True, slots=True)
class CyclotomicNumber:
    """An element of Q(zeta_d), d a prime power, over the reduced power basis
    1, z, ..., z^(phi(d)-1), stored as its nonzero terms.

    exps holds the exponents of the nonzero coefficients, increasing and
    below phi(d); coefs their integer numerators, none zero; den > 0 their
    one common denominator, in lowest terms: gcd(den, *coefs) == 1.  So every
    element has exactly one representation: equality and zero tests are
    syntactic, and an element is a dictionary key for its value, as the
    memo of pivot inverses in witt uses it.  Products, Galois images and
    inverses read and write the terms alone; num and coeffs are the dense
    views over all phi(d) basis elements.
    """

    order: int
    exps: tuple
    coefs: tuple
    den: int = 1

    @property
    def num(self) -> tuple:
        """The phi(d) integer numerators over den."""
        return tuple(_dense(self, degree_of(self.order)))

    @property
    def coeffs(self) -> tuple:
        """The phi(d) coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @staticmethod
    def from_terms(d: int, terms) -> "CyclotomicNumber":
        """sum c zeta^e over the pairs (e, c) of terms, for integer exponents
        e and rational coefficients c."""
        exps, nums, dens = [], [], []
        for e, c in terms:
            n, q = _ratio(c)
            exps.append(e)
            nums.append(n)
            dens.append(q)
        den = lcm(*dens)
        if den != 1:
            nums = [n * (den // q) for n, q in zip(nums, dens)]
        return _element(d, *_fold(d, exps, nums), den)

    @staticmethod
    def of(d: int, value: Scalar) -> "CyclotomicNumber":
        n, q = _ratio(value)
        degree_of(d)  # d names a field under the degree cap
        if not n:
            return CyclotomicNumber(d, (), ())
        return CyclotomicNumber(d, (0,), (n,), q)

    def _check_same_field(self, other: "CyclotomicNumber"):
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}; embed explicitly"
            )

    def _lift(self, other):
        if isinstance(other, CyclotomicNumber):
            self._check_same_field(other)
            return other
        return CyclotomicNumber.of(self.order, other)

    def _combine(self, other, sign: int):
        """self + sign other, for sign 1 or -1."""
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        den, ua, ub = self.den, 1, sign
        if den != other.den:
            g = gcd(den, other.den)
            ua, ub = other.den // g, sign * (den // g)
            den *= ua
        acc = dict(zip(self.exps, self.coefs if ua == 1
                       else [c * ua for c in self.coefs]))
        get = acc.get
        for e, c in zip(other.exps, other.coefs):
            acc[e] = get(e, 0) + c * ub
        exps = [e for e in sorted(acc) if acc[e]]
        return _element(self.order, exps, [acc[e] for e in exps], den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        return _product(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.order})")
        return _inverse(self)

    def conj(self) -> "CyclotomicNumber":
        """Image under the involution zeta -> zeta^-1."""
        return _galois(self, -1)

    def is_zero(self) -> bool:
        return not self.coefs

    def is_rational(self) -> bool:
        return not any(self.exps)  # no term, or one at z^0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(sum(self.coefs), self.den)

    def is_real(self) -> bool:
        return self == self.conj()

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return (self.order == other.order and self.den == other.den
                    and self.exps == other.exps and self.coefs == other.coefs)
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and sum(self.coefs) == other.numerator
                    and self.den == other.denominator)
        return NotImplemented


def zeta(d: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_d**k as an element of Q(zeta_d)."""
    return CyclotomicNumber.from_terms(d, [(k, 1)])


class interval_precision:
    """Temporarily set the interval context precision."""

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        self.old = iv.prec
        iv.prec = self.bits

    def __exit__(self, *exc):
        iv.prec = self.old


# Unit roundoff of IEEE double arithmetic.
_UNIT = 2.0 ** -53
# The float stage of embedding_signs takes an element only when each nonzero
# coefficient lies in this range, so that no product under- or overflows.
_FLOAT_RANGE = (2.0 ** -900, 2.0 ** 900)


@lru_cache(maxsize=16)
def _rotations(d: int, prec: int) -> tuple:
    """(F, E, C, S) with C[u] and S[u] integers within E of 2^F cos(pi u/d)
    and 2^F sin(pi u/d) for 0 <= u <= d/2, where F = prec + 2 bitlen(d) and
    E = 2d, for d >= 1 and prec >= 64.  So C[u] / 2^F is within
    2d / 2^F < 2^-prec of the cosine.

    The seed z_1 = C[1] + i S[1] is read off one mpmath interval of
    e^(i pi/d) at F + 16 bits: each part is an integer within 1 of its scaled
    value, so |z_1 - 2^F w| <= sqrt 2 for w = e^(i pi/d).  Then z_u is
    z_(u-1) z_1 / 2^F with each part floored, an error below sqrt 2, so
    e_u = |z_u - 2^F w^u| obeys e_0 = 0 and
    e_u <= e_(u-1) |z_1| / 2^F + |z_1 - 2^F w| + sqrt 2
        <= e_(u-1) (1 + eps) + 2 sqrt 2,  eps = sqrt 2 / 2^F,
    hence e_u <= 2 sqrt 2 u (1 + eps)^u < 3u <= E, as u eps < 2^-prec.  Each
    part is off by at most e_u.  The bound holds at any precision cap.
    """
    bits = prec + 2 * d.bit_length()
    work = bits + 16
    seed = []
    with interval_precision(work):
        angle = iv.pi / d
        boxes = (iv.cos(angle), iv.sin(angle))
    with mp.workprec(work):  # the endpoints have work bits: exact
        for box in boxes:
            lo = int(mp.floor(mp.ldexp(mp.mpf(box.a), bits)))
            hi = int(mp.ceil(mp.ldexp(mp.mpf(box.b), bits)))
            if hi - lo > 2:  # mpmath's enclosure is a few ulps wide
                raise ArithmeticError(f"no {bits}-bit seed for order {d}")
            seed.append((lo + hi) // 2)  # within 1 of every point of [lo, hi]
    c1, s1 = seed
    x, y = 1 << bits, 0
    cs, ss = [x], [y]
    for _ in range(d // 2):
        x, y = (x * c1 - y * s1) >> bits, (x * s1 + y * c1) >> bits
        cs.append(x)
        ss.append(y)
    return bits, 2 * d, tuple(cs), tuple(ss)


def certified_sign(x: CyclotomicNumber, embedding: int = 1) -> int:
    """Sign in {-1, 0, 1} of a real element under zeta -> e^(2 pi i s/d).

    Exact zero short-circuits before any numeric work.  Otherwise x den is
    sum_k c_k cos(2 pi k s/d), and each cosine is read from the rotation
    table of _rotations at prec bits as +-C[v] / 2^F, within E / 2^F of it,
    so the integer sum T = sum_k c_k (+-C[v_k]) is within E sum_k |c_k| of
    2^F x den.  Where T clears that slack its sign is the sign of x; else
    prec doubles from 64 bits, which must separate a nonzero algebraic
    number from zero.
    """
    d = x.order
    if gcd(embedding, d) != 1:
        raise ValueError(f"embedding exponent {embedding} not coprime to {d}")
    if not x.is_real():
        raise ValueError("sign is only defined for elements fixed by the involution")
    if x.is_zero():
        return 0
    prec = START_PRECISION
    while prec <= _precision_cap:
        _, err, cs, _ = _rotations(d, prec)
        total = 0
        for k, c in zip(x.exps, x.coefs):
            # cos(2 pi k s/d) = cos(pi v/d) with v folded into [0, d], and
            # past pi/2 cos(pi v/d) = -cos(pi (d - v)/d)
            v = 2 * k * embedding % (2 * d)
            v = min(v, 2 * d - v)
            total += c * cs[v] if 2 * v <= d else -c * cs[d - v]
        slack = err * sum(map(abs, x.coefs))
        if total > slack:
            return 1
        if total < -slack:
            return -1
        prec *= 2
    raise PrecisionExhausted(
        f"could not separate the sign of a {len(x.coefs)}-term element of "
        f"Q(zeta_{d}) at embedding {embedding} within {_precision_cap} bits")


# Largest order d whose cot table is built (2d floats); at larger orders the
# float stages leave every root to the mpmath intervals.
_MAX_COT_ORDER = 1 << 14


@lru_cache(maxsize=64)
def cot_table(d: int):
    """Read-only float arrays (lo, hi) with lo[u] <= cot(pi u/d) <= hi[u]
    for 0 < u < d (nan at u = 0), or None when d > _MAX_COT_ORDER.

    For u <= d/2, cot = C/S over the scaled parts of _rotations, which lie
    within E of C[u] and S[u].  There sin(pi u/d) >= sin(pi/d) >= 2/d, so
    the scaled sine is at least 2^(F+1)/d > 2^65 d > E, and the cosine is
    at least 0; so cot lies between (C - E)/(S + E) (or (C - E)/(S - E)
    when C < E) and (C + E)/(S - E).  Python's int division rounds these to
    nearest and one ulp outward encloses them.  The rest of the table is
    cot(pi (d - u)/d) = -cot(pi u/d).
    """
    if d > _MAX_COT_ORDER:
        return None
    _, err, cs, ss = _rotations(d, START_PRECISION)
    half = d // 2
    lo, hi = np.full(d, np.nan), np.full(d, np.nan)
    for u in range(1, half + 1):
        c, s = cs[u], ss[u]
        low = (c - err) / (s + err if c >= err else s - err)
        lo[u] = nextafter(low, -inf)
        hi[u] = nextafter((c + err) / (s - err), inf)
    mirror = d - np.arange(half + 1, d)
    lo[half + 1:], hi[half + 1:] = -hi[mirror], -lo[mirror]
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


@lru_cache(maxsize=16)
def _float_cos_table(d: int, embeddings: tuple) -> np.ndarray:
    """cos(2 pi k s/d) at row k < phi(d) and column s in embeddings.

    cos(2 pi m/d) is the real part of w^(2m), w = e^(i pi/d), read from the
    rotation table of _rotations as C[v] / 2^F: the angle pi v/d is folded
    into [0, pi], and past pi/2 cos(pi v/d) = -cos(pi (d - v)/d).  C[v] / 2^F
    is within 2d / 2^F < 2^-64 of the cosine, and int division rounds it to
    nearest, within 2^-54, so every entry is within 2^-54 + 2^-64 < 2 u of
    the cosine.
    """
    bits, _, cs, _ = _rotations(d, START_PRECISION)
    half = np.array([c / (1 << bits) for c in cs])  # cos(pi v/d), v <= d/2
    # cos(pi v/d) for v <= d
    arc = np.concatenate([half, -half[d - np.arange(d // 2 + 1, d + 1)]])
    k = np.arange(degree_of(d))[:, None]
    v = 2 * k * np.array(embeddings)[None, :] % (2 * d)
    return arc[np.minimum(v, 2 * d - v)]


def _float_coeffs(x: CyclotomicNumber):
    """The nonzero coefficients of x rounded to nearest (int true division
    rounds correctly), or None when one falls outside _FLOAT_RANGE."""
    lo, hi = _FLOAT_RANGE
    try:
        out = [c / x.den for c in x.coefs]
    except OverflowError:
        return None
    return out if all(lo <= abs(f) <= hi for f in out) else None


def _float_signs(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Signs of coeffs @ table, 0 where rounding could account for the value.

    Row i of coeffs holds the rounded coefficients c^_k of an element, and
    column j of table the rounded cosines t^_k of an embedding, with
    |c^_k - c_k| <= u |c_k| and |t^_k - t_k| <= 2 u.  The computed product v^
    is within gamma_phi sum |c^_k||t^_k| of sum c^_k t^_k (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3, in any summation order),
    which is within 4 u sum |c^_k| of the true value.  With those two sums
    computed in floats as R1 = |coeffs| @ |table| and R2 = sum |c^_k|, the
    error is below (phi + 4) u (R1 + R2) / (1 - 2 phi u); the bound used,
    (2 phi + 9) u (R1 + R2) in floats, covers that and its own rounding.  A
    sign is kept where |v^| exceeds it.
    """
    phi = coeffs.shape[1]
    values = coeffs @ table
    mags = np.abs(coeffs)
    bound = ((2 * phi + 9) * _UNIT) * (mags @ np.abs(table)
                                       + mags.sum(axis=1)[:, None])
    return np.where(np.abs(values) > bound, np.sign(values), 0).astype(int)


def embedding_signs(xs, embeddings) -> tuple:
    """Signs of real elements of one Q(zeta_d) at several embeddings.

    Row i holds the sign of xs[i] under zeta -> e^(2 pi i s/d) for each s in
    embeddings.  Every element is evaluated at every embedding in one float
    matrix product with an a priori error bound (_float_signs); only the
    pairs that bound leaves undecided go to certified_sign.
    """
    xs = tuple(xs)
    embeddings = tuple(embeddings)
    if not xs:
        return ()
    d = xs[0].order
    if any(x.order != d for x in xs):
        raise ValueError("elements of one call must share their field")
    for s in embeddings:
        if gcd(s, d) != 1:
            raise ValueError(f"embedding exponent {s} not coprime to {d}")
    floats = []
    for x in xs:
        if not x.is_real():
            raise ValueError("sign is only defined for elements fixed by the involution")
        floats.append(_float_coeffs(x))
    rows = [i for i, f in enumerate(floats) if f is not None]
    signs = np.zeros((len(xs), len(embeddings)), dtype=int)
    if rows and embeddings:
        coeffs = np.zeros((len(rows), degree_of(d)))
        for row, i in zip(coeffs, rows):
            row[list(xs[i].exps)] = floats[i]
        signs[rows] = _float_signs(coeffs, _float_cos_table(d, embeddings))
    out = signs.tolist()
    for i, j in zip(*np.nonzero(signs == 0)):
        out[i][j] = certified_sign(xs[i], embeddings[j])
    return tuple(map(tuple, out))


# angles 2*pi*u with rational cosine (Niven): cos is rational only at these u.
_RATIONAL_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(1, 4): Fraction(0),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(1, 2): Fraction(-1),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(3, 4): Fraction(0),
    Fraction(5, 6): Fraction(1, 2),
}


def compare_cos_turns(c, u) -> int:
    """Certified sign of c - cos(2*pi*u) for exact rationals c and u.

    At the eight angles where cos(2*pi*u) is rational the comparison is exact;
    everywhere else cos(2*pi*u) is irrational, so interval refinement always
    terminates.
    """
    c = Fraction(*_ratio(c))
    u = Fraction(*_ratio(u)) % 1
    exact = _RATIONAL_COS.get(u)
    if exact is not None:
        diff = c - exact
        return (diff > 0) - (diff < 0)
    if c >= 1:
        return 1
    if c <= -1:
        return -1
    prec = START_PRECISION
    while prec <= _precision_cap:
        with interval_precision(prec):
            box = iv.cos(2 * iv.pi * u.numerator / u.denominator)
            lo = iv.mpf(c.numerator) / c.denominator - box
        if lo.a > 0:
            return 1
        if lo.b < 0:
            return -1
        prec *= 2
    raise PrecisionExhausted(f"could not compare {c} with cos(2*pi*{u})")
