"""Exact arithmetic in Q(zeta_d) for prime-power d, with certified signs.

Elements are coefficient vectors over the power basis 1, z, ..., z^(phi(d)-1)
reduced modulo the cyclotomic polynomial Phi_d, so equality and zero testing
are exact syntactic checks on rational vectors.  The sign of an element fixed
by the involution z -> z^-1, under the embedding z -> exp(2*pi*i*s/d), is
decided by adaptive-precision interval arithmetic: exact zeros short-circuit,
and a nonzero element is separated from zero at some finite precision.  For
many elements at many embeddings, a float evaluation with an a priori error
bound decides first and leaves only the close calls to the intervals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

import numpy as np
from mpmath import iv

__all__ = [
    "MAX_FIELD_DEGREE",
    "CyclotomicNumber",
    "InputError",
    "PrecisionExhausted",
    "ResourceCapExceeded",
    "certified_sign",
    "compare_cos_turns",
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
        raise ValueError(f"precision cap {bits} below starting precision {START_PRECISION}")
    old = _precision_cap
    _precision_cap = bits
    return old


def precision_cap() -> int:
    """The current hard precision cap in bits."""
    return _precision_cap


def factor(n: int) -> dict:
    """Prime factorization {prime: exponent} of n by trial division, in
    increasing order of the primes; empty for n < 2."""
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
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


def is_prime(n: int) -> bool:
    return prime_power_split(n) == (n, 1)


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


def _reduce(vec, d: int):
    # Phi_{p^a}(x) = sum_{j<p} x^(j*m) with m = p^(a-1), so
    # x^phi = -sum_{j<p-1} x^(j*m) rewrites one top coefficient at a time.
    p, _, m, phi = _field_params(d)
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            base = i - phi
            for j in range(p - 1):
                vec[base + j * m] -= c
    del vec[phi:]
    while len(vec) < phi:
        vec.append(Fraction(0))
    return vec


def _poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for j, bj in enumerate(b):
        out[j] -= bj
    return _poly_trim(out)


def _phi_poly(d: int):
    p, _, m, phi = _field_params(d)
    coeffs = [Fraction(0)] * (phi + 1)
    for j in range(p):
        coeffs[j * m] = Fraction(1)
    return coeffs


def _invert_mod_phi(a, d: int):
    # extended Euclid in Q[x]; Phi_d is irreducible so any nonzero a is a unit.
    phi_poly = _phi_poly(d)
    r0, r1 = phi_poly, _poly_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    # r0 = gcd = nonzero constant; s0 * a == r0 (mod Phi_d)
    c = r0[0]
    return [x / c for x in s0]


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into Q(zeta_d)")


@dataclass(frozen=True)
class CyclotomicNumber:
    """An element of Q(zeta_d), d a prime power, in the reduced power basis."""

    order: int
    coeffs: tuple

    @staticmethod
    def from_coeffs(d: int, coeffs) -> "CyclotomicNumber":
        vec = [_coerce(c) for c in coeffs]
        if len(vec) > degree_of(d):
            vec = _reduce(vec, d)
        else:
            vec += [Fraction(0)] * (degree_of(d) - len(vec))
        return CyclotomicNumber(d, tuple(vec))

    @staticmethod
    def of(d: int, value: Scalar) -> "CyclotomicNumber":
        return CyclotomicNumber.from_coeffs(d, [_coerce(value)])

    def _check_same_field(self, other: "CyclotomicNumber"):
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}; embed explicitly"
            )

    def _lift(self, other):
        if isinstance(other, CyclotomicNumber):
            self._check_same_field(other)
            return other
        return CyclotomicNumber.of(self.order, _coerce(other))

    def __add__(self, other):
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        return CyclotomicNumber(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return CyclotomicNumber(self.order, tuple(_reduce(out, self.order)))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.order})")
        inv = _invert_mod_phi(self.coeffs, self.order)
        inv += [Fraction(0)] * (len(self.coeffs) - len(inv))
        return CyclotomicNumber(self.order, tuple(inv))

    def __truediv__(self, other):
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.of(self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "CyclotomicNumber":
        """Image under the involution zeta -> zeta^-1."""
        d = self.order
        vec = [Fraction(0)] * d
        for k, c in enumerate(self.coeffs):
            if c:
                vec[(-k) % d] += c
        return CyclotomicNumber(d, tuple(_reduce(vec, d)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def is_real(self) -> bool:
        return self == self.conj()

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "z" if k == 1 else f"z^{k}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in Q(zeta_{self.order})>"


def zeta(d: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_d**k as an element of Q(zeta_d)."""
    k %= d
    vec = [Fraction(0)] * (k + 1)
    vec[k] = Fraction(1)
    return CyclotomicNumber.from_coeffs(d, vec)


class interval_precision:
    """Temporarily set the interval context precision."""

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        self.old = iv.prec
        iv.prec = self.bits

    def __exit__(self, *exc):
        iv.prec = self.old


@lru_cache(maxsize=64)
def _cos_table(d: int, prec: int):
    with interval_precision(prec):
        two_pi = 2 * iv.pi
        return tuple(iv.cos(two_pi * k / d) for k in range(d))


def _embed_interval(x: CyclotomicNumber, s: int, prec: int):
    # For x fixed by the involution the embedded value is real and equals
    # sum_k c_k cos(2*pi*k*s/d).
    table = _cos_table(x.order, prec)
    with interval_precision(prec):
        acc = iv.mpf(0)
        for k, c in enumerate(x.coeffs):
            if c:
                acc += (iv.mpf(c.numerator) / c.denominator) * table[(k * s) % x.order]
        return acc


def embedding_interval(x: CyclotomicNumber, s: int, prec: int):
    """Interval enclosure (as an mpmath iv.mpf) of x under zeta -> e^(2 pi i s/d)."""
    if not x.is_real():
        raise ValueError("interval enclosure is only provided for real elements")
    return _embed_interval(x, s, prec)


def certified_sign(x: CyclotomicNumber, embedding: int = 1) -> int:
    """Sign in {-1, 0, 1} of a real element under zeta -> e^(2 pi i s/d).

    Exact zero short-circuits before any numeric work; otherwise the interval
    enclosure is refined (doubling precision from 64 bits) until it separates
    from zero, which must happen for a nonzero algebraic number.
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
        box = _embed_interval(x, embedding, prec)
        if box.a > 0:
            return 1
        if box.b < 0:
            return -1
        prec *= 2
    raise PrecisionExhausted(
        f"could not separate sign of {x!r} at embedding {embedding} "
        f"within {_precision_cap} bits"
    )


# Unit roundoff of IEEE double arithmetic.
_UNIT = 2.0 ** -53
# The float stage of embedding_signs takes an element only when each nonzero
# coefficient lies in this range, so that no product under- or overflows.
_FLOAT_RANGE = (2.0 ** -900, 2.0 ** 900)


@lru_cache(maxsize=8)
def _float_cos_table(d: int, embeddings: tuple) -> np.ndarray:
    """cos(2 pi k s/d) at row k < phi(d) and column s in embeddings, each
    rounded to nearest from the midpoint of its 64-bit interval.  Those
    intervals are narrower than 2^-56, so every entry is within
    2^-53 + 2^-56 < 2 u of the cosine."""
    mids = np.array([float(box.mid) for box in _cos_table(d, START_PRECISION)])
    k = np.arange(degree_of(d))[:, None]
    return mids[(k * np.array(embeddings)[None, :]) % d]


def _float_coeffs(x: CyclotomicNumber):
    """The coefficients of x rounded to nearest (Fraction to float rounds
    correctly), or None when a nonzero one falls outside _FLOAT_RANGE."""
    try:
        out = [float(c) for c in x.coeffs]
    except OverflowError:
        return None
    lo, hi = _FLOAT_RANGE
    if all(lo <= abs(f) <= hi for c, f in zip(x.coeffs, out) if c):
        return out
    return None


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
        signs[rows] = _float_signs(np.array([floats[i] for i in rows]),
                                   _float_cos_table(d, embeddings))
    return tuple(
        tuple(int(v) if v else certified_sign(x, s)
              for v, s in zip(row, embeddings))
        for x, row in zip(xs, signs))


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
    c = _coerce(c)
    u = _coerce(u) % 1
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
