"""Seifert matrices, Levine-Tristram signatures, Arf invariants, formal knots.

A FormalKnot is a connected sum of signed (r,1)-cables of base knots, tracked
at the level of the abelian invariants everything downstream consumes: the
signature function sigma(omega) and the Arf invariant.  sigma has two
independent evaluators that are cross-checked in tests: a hermitian matrix
path at prime-power roots of unity, and a jump-profile path for the twist
family with exact algebraic jump positions.  The matrix path has one float
stage: per (matrix, order) one cached pass decides every root of the order
from the signs of the leading principal minors (Jacobi's rule), over one
certified cot table per order, after a unimodular congruence that keeps
every minor a nonzero polynomial.  The roots it leaves open go to an
interval LDL^T of the realification, with 2 x 2 block pivots, in mpmath at
64, 128, 256, ... bits up to the precision cap: real intervals, since
mpmath 1.3.0 cannot even conjugate an interval mpc.  Neither builds an
element of Q(zeta_d).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from mpmath import iv, mp

from .cyclo import (
    START_PRECISION,
    PrecisionExhausted,
    compare_cos_turns,
    cot_table,
    interval_precision,
    is_prime_power,
    precision_cap,
)
# Not called here: bench/test_bench.py checks that the benchmark tracer
# rebinds this name in every module that imports it.
from .witt import diagonalize  # noqa: F401

__all__ = [
    "Atom",
    "FormalKnot",
    "Jump",
    "SeifertMatrix",
    "SigmaEvaluation",
    "SigmaIntegral",
    "SignatureProfile",
    "arf",
    "omega_signature",
    "sigma",
    "sigma_details",
    "sigma_many",
    "signature_profile",
    "signature_sweep",
    "twist_cmp",
    "twist_knot",
    "twist_matrix",
    "twist_parameter",
]


def _int_det(rows) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _integer(value, what: str) -> int:
    """value itself when it is an int and not a bool, else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix A with det(A - A^T) = +-1."""

    rows: tuple

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "SeifertMatrix":
        mat = tuple(tuple(_integer(v, "matrix entry") for v in row)
                    for row in rows)
        n = len(mat)
        for row in mat:
            if len(row) != n:
                raise ValueError("Seifert matrix must be square")
        skew = [[mat[i][j] - mat[j][i] for j in range(n)] for i in range(n)]
        det = _int_det(skew)
        if det not in (1, -1):
            raise ValueError(
                f"det(A - A^T) = {det}, not a unit: not a Seifert matrix of a knot")
        return SeifertMatrix(mat)

    def to_json(self) -> list:
        return [list(row) for row in self.rows]

    @staticmethod
    def from_json(data) -> "SeifertMatrix":
        if not (isinstance(data, list)
                and all(isinstance(row, list) for row in data)):
            raise ValueError("a matrix must be a list of rows")
        return SeifertMatrix.from_rows(data)


def twist_matrix(n: int) -> SeifertMatrix:
    """Seifert matrix [[-1,1],[0,-n]] of the n-twist family; n=1 is the trefoil."""
    if n < 1:
        raise ValueError(f"twist parameter must be >= 1, got {n}")
    return SeifertMatrix.from_rows([[-1, 1], [0, -n]])


def twist_parameter(matrix: SeifertMatrix) -> Optional[int]:
    """Recognize [[-1,1],[0,-n]] and return n, else None."""
    r = matrix.rows
    if len(r) == 2 and r[0] == (-1, 1) and r[1][0] == 0 and r[1][1] <= -1:
        return -r[1][1]
    return None


@dataclass(frozen=True)
class Atom:
    """One summand: sign * (cable,1)-cable of the knot with the given matrix."""

    matrix: SeifertMatrix
    cable: int = 1
    sign: int = 1

    def __post_init__(self):
        if self.cable < 1:
            raise ValueError(f"cable parameter must be >= 1, got {self.cable}")
        if self.sign not in (1, -1):
            raise ValueError(f"atom sign must be +-1, got {self.sign}")


@dataclass(frozen=True)
class FormalKnot:
    atoms: tuple = ()

    @staticmethod
    def of(*atoms: Atom) -> "FormalKnot":
        return FormalKnot(tuple(atoms))

    def __add__(self, other: "FormalKnot") -> "FormalKnot":
        return FormalKnot(self.atoms + other.atoms)

    def __neg__(self) -> "FormalKnot":
        return FormalKnot(tuple(
            Atom(a.matrix, a.cable, -a.sign) for a in self.atoms))

    def __sub__(self, other: "FormalKnot") -> "FormalKnot":
        return self + (-other)

    def cable(self, r: int) -> "FormalKnot":
        """(r,1)-cable: multiplies every atom's cable parameter by r."""
        if r < 1:
            raise ValueError(f"cable parameter must be >= 1, got {r}")
        return FormalKnot(tuple(
            Atom(a.matrix, a.cable * r, a.sign) for a in self.atoms))

    def to_json(self) -> list:
        out = []
        for a in self.atoms:
            n = twist_parameter(a.matrix)
            entry = {"r": a.cable, "sign": a.sign}
            if n is not None:
                entry["n"] = n
            else:
                entry["matrix"] = a.matrix.to_json()
            out.append(entry)
        return out

    @staticmethod
    def from_json(data) -> "FormalKnot":
        if not (isinstance(data, list)
                and all(isinstance(entry, dict) for entry in data)):
            raise ValueError("expected a list of atom objects")
        atoms = []
        for entry in data:
            if "n" in entry:
                matrix = twist_matrix(_integer(entry["n"], "n"))
            elif "matrix" in entry:
                matrix = SeifertMatrix.from_json(entry["matrix"])
            else:
                raise ValueError("an atom needs an n or a matrix")
            atoms.append(Atom(matrix, _integer(entry.get("r", 1), "r"),
                              _integer(entry.get("sign", 1), "sign")))
        return FormalKnot(tuple(atoms))


def twist_knot(n: int, cable: int = 1, sign: int = 1) -> FormalKnot:
    return FormalKnot.of(Atom(twist_matrix(n), cable, sign))


def _matrix_of(matrix) -> SeifertMatrix:
    if isinstance(matrix, SeifertMatrix):
        return matrix
    return SeifertMatrix.from_rows(matrix)


_DOWN = -math.inf
_UP = math.inf
_next = math.nextafter


def _ldl_signature(N) -> Optional[int]:
    """Signature of a real symmetric matrix whose eigenvalues come in equal
    pairs, by LDL^T in mpmath intervals (rows, eliminated in place), or None
    when undecided.

    Each step takes the diagonal pivot farthest from zero; failing that, the
    2 x 2 principal block of most negative certified determinant (Bunch and
    Kaufman 1977), which has inertia (1, 1) and adds 0.  With every pivot
    certified, the exact factorization with the same pivots exists, so by
    Sylvester's law they give the inertia.  With all but the last certified,
    N has rank len(N) - 1 or more and an even nullity, so it is nonsingular,
    and the last sign makes the count of positive eigenvalues even.  A step
    with neither kind of pivot, or an infinite endpoint, returns None.
    """
    def mignitude(x):  # least absolute value over x, 0 when x holds 0
        return x.a if x.a > 0 else -x.b if x.b < 0 else 0

    live, sig = list(range(len(N))), 0
    while live:
        k = max(live, key=lambda i: mignitude(N[i][i]))
        if mignitude(N[k][k]):
            sig += 1 if N[k][k].a > 0 else -1
            block, adjugate, det = [k], [[1]], N[k][k]
        elif len(live) == 1:
            return sig + (1 if (len(N) - 1 + sig) // 2 % 2 else -1)
        else:
            pairs = [(N[i][i] * N[j][j] - N[i][j] ** 2, i, j)
                     for x, i in enumerate(live) for j in live[x + 1:]]
            pairs = [pair for pair in pairs if pair[0].b < 0]
            if not pairs:
                return None
            det, i, j = min(pairs, key=lambda pair: pair[0].b)
            block = [i, j]
            adjugate = [[N[j][j], -N[i][j]], [-N[i][j], N[i][i]]]
        live = [i for i in live if i not in block]
        # the Schur complement N[i][j] - N[i][B] adj(B) N[B][j] / det(B)
        weights = {i: [sum(N[i][u] * adjugate[x][y] for x, u in enumerate(block))
                       for y in range(len(block))] for i in live}
        for x, i in enumerate(live):
            for j in live[x:]:
                N[i][j] = N[j][i] = N[i][j] - sum(
                    w * N[v][j] for w, v in zip(weights[i], block)) / det
        if not all(_DOWN < N[i][j].a and N[i][j].b < _UP
                   for i in live for j in live):
            return None
    return sig


def _interval_signature(rows: tuple, d: int, s: int, prec: int) -> Optional[int]:
    """Signature of M(zeta_d^s) by _ldl_signature at `prec` bits, or None.

    At w = e^(2 pi i s/d), M = (1-w)A + (1-w^-1)A^T is the positive multiple
    2 sin^2(phi) of N = S - i t K, with phi = pi s/d, t = cot(phi),
    S = A + A^T and K = A - A^T.  The realification R = [[S, tK], [-tK, S]]
    of N has its eigenvalues, each taken twice.
    """
    n = len(rows)
    with interval_precision(prec):
        phi = iv.pi * s / d
        t = iv.cos(phi) / iv.sin(phi)
        S = [[iv.mpf(rows[i][j] + rows[j][i]) for j in range(n)] for i in range(n)]
        tK = [[t * (rows[i][j] - rows[j][i]) for j in range(n)] for i in range(n)]
        sig = _ldl_signature([S[i] + tK[i] for i in range(n)]
                             + [[-x for x in tK[i]] + S[i] for i in range(n)])
    return None if sig is None else sig // 2


def _cascade_signature(rows: tuple, d: int, s: int) -> int:
    """The signature of M(zeta_d^s) by _interval_signature at 64 bits,
    doubling up to the precision cap in force, for the roots the float pass
    leaves open; PrecisionExhausted beyond the cap."""
    if s == 0:
        return 0
    cap = precision_cap()
    prec = START_PRECISION
    while prec <= cap:
        sig = _interval_signature(rows, d, s, prec)
        if sig is not None:
            return sig
        prec *= 2
    raise PrecisionExhausted(
        f"could not certify the signature of M(zeta_{d}^{s}) within the "
        f"precision cap of {cap} bits")


def omega_signature(matrix, d: int, s: int) -> int:
    """Signature of (1-w)A + (1-w^-1)A^T at w = zeta_d^s, certified.

    signature_sweep(rows, d, [s])[0]: the float pass of the order d, then
    the mpmath cascade if the pass leaves the root open.  d must be a prime
    power: det(A - A^T) = +-1 makes the Alexander polynomial a unit at such
    roots, so M is nonsingular, enough bits always decide it, and no
    jump-averaging is ever needed on this path.
    """
    mat = _matrix_of(matrix)
    if not is_prime_power(d):
        raise ValueError(f"order {d} is not a prime power; "
                         f"use the profile path for other roots of unity")
    return signature_sweep(mat.rows, d, [s])[0]


# Relative half-width of the cached enclosure of t_n.  Its endpoints are
# then about 2^-40 / n from t_n in cosine, which compare_cos_turns separates
# at about n.bit_length() + 40 bits.
_TURN_SLACK = Fraction(1, 1 << 40)


@lru_cache(maxsize=1 << 12)
def _twist_enclosure(n: int, cap: int) -> Optional[tuple]:
    """Rationals (lo, hi) with lo < t_n < hi, for n >= 2, or None when the
    estimate fails its certificate.  cap is the precision cap in force; it
    is part of the key, so that a box certified under a higher cap is never
    served under a lower one.

    t_n = arccos(1 - 1/(2n)) / (2 pi) = asin(1 / (2 sqrt(n))) / pi, and the
    arcsine form loses nothing to cancellation, so a 64-bit mpmath estimate
    is good to about 2^-60 relative for every n (mpf exponents do not
    underflow).  Each endpoint is then certified by one compare_cos_turns
    call.
    """
    with mp.workprec(START_PRECISION):
        man, exp = (mp.asin(1 / (2 * mp.sqrt(n))) / mp.pi).man_exp
    est = Fraction(man) * Fraction(2) ** exp
    lo, hi = est * (1 - _TURN_SLACK), est * (1 + _TURN_SLACK)
    return (lo, hi) if _encloses(n, lo, hi) else None


def _encloses(n: int, lo: Fraction, hi: Fraction) -> bool:
    """Whether lo < t_n < hi, certified, for 0 <= lo < hi <= 1/2: both
    angles lie in [0, pi], where cos decreases."""
    c = Fraction(2 * n - 1, 2 * n)
    return compare_cos_turns(c, lo) < 0 < compare_cos_turns(c, hi)


def twist_cmp(n: int, x: Fraction) -> int:
    """Sign of t_n - x, where t_n = arccos((2n-1)/(2n)) / (2 pi).

    x is first compared with a cached certified enclosure of t_n; only an x
    inside it costs a certified cosine comparison.
    """
    if n == 1:
        t = Fraction(1, 6)
        return (t > x) - (t < x)
    if x <= 0:
        return 1
    if 2 * x >= 1:
        return -1
    try:
        box = _twist_enclosure(n, precision_cap())
    except PrecisionExhausted:  # the cap is too low to certify the box
        box = None
    if box is not None:
        if x <= box[0]:
            return 1
        if x >= box[1]:
            return -1
    # both angles in (0, pi) where cos is strictly decreasing
    return -compare_cos_turns(Fraction(2 * n - 1, 2 * n), x)


@dataclass(frozen=True)
class Jump:
    """One signature jump of a cabled twist atom, at an exact algebraic angle.

    The position in turns is (k + t_n)/cable for branch +1 and
    (k + 1 - t_n)/cable for branch -1, with t_n = arccos((2n-1)/(2n))/(2 pi).
    """

    n: int
    cable: int
    k: int
    branch: int
    height: int

    def rational_position(self) -> Optional[Fraction]:
        if self.n != 1:
            return None
        if self.branch > 0:
            return Fraction(6 * self.k + 1, 6 * self.cable)
        return Fraction(6 * self.k + 5, 6 * self.cable)

    def compare_to_turn(self, u: Fraction) -> int:
        """Sign of (position - u), certified."""
        pos = self.rational_position()
        if pos is not None:
            return (pos > u) - (pos < u)
        x = u * self.cable - self.k
        if self.branch > 0:
            return twist_cmp(self.n, x)
        return -twist_cmp(self.n, 1 - x)

    def position_approx(self) -> float:
        theta = math.acos((2 * self.n - 1) / (2 * self.n)) / (2 * math.pi)
        delta = theta if self.branch > 0 else 1 - theta
        return (self.k + delta) / self.cable


@dataclass(frozen=True)
class SigmaIntegral:
    """Exact value pi_coeff * pi + sum coeff * arccos(c) of the sigma integral.

    Zero testing is structural (all coefficients zero); this is sufficient for
    the cancellations arising from mirrors and cables, where terms cancel
    symbol by symbol, and is not claimed to detect every hidden relation
    between arccos values of different rationals.
    """

    pi_coeff: Fraction = Fraction(0)
    arccos_terms: tuple = ()  # sorted pairs (c, coeff), c = cos of the angle

    def __add__(self, other: "SigmaIntegral") -> "SigmaIntegral":
        terms = dict(self.arccos_terms)
        for c, coeff in other.arccos_terms:
            terms[c] = terms.get(c, Fraction(0)) + coeff
        cleaned = tuple(sorted((c, v) for c, v in terms.items() if v))
        return SigmaIntegral(self.pi_coeff + other.pi_coeff, cleaned)

    def is_zero(self) -> bool:
        return not self.pi_coeff and not self.arccos_terms

    def value(self):
        with mp.workdps(30):
            acc = self.pi_coeff * mp.pi
            for c, coeff in self.arccos_terms:
                acc += coeff * mp.acos(mp.mpf(c.numerator) / c.denominator)
            return acc

    def to_json(self) -> dict:
        return {"pi_coeff": str(self.pi_coeff),
                "arccos_terms": [[str(c), str(v)] for c, v in self.arccos_terms],
                "value_approx": float(self.value())}


@dataclass(frozen=True)
class SignatureProfile:
    """Piecewise-constant sigma as a merged list of exact jumps on [0, 1)."""

    jumps: tuple

    def evaluate(self, u: Fraction) -> tuple:
        """(sigma value at turn u, at_jump flag); the value at a jump is the
        average of the one-sided limits, an integer since heights are even."""
        u = Fraction(u) % 1
        below = 0
        at = 0
        for j in self.jumps:
            c = j.compare_to_turn(u)
            if c < 0:
                below += j.height
            elif c == 0:
                at += j.height
        return below + at // 2, at != 0

    def evaluate_all(self, d: int) -> list:
        """[self.evaluate(Fraction(s, d)) for s in range(d)], for d >= 1.

        Each jump is placed once among the turns s/d: the float estimate
        ceil(position * d) is corrected by certified comparisons at its
        neighbours, so an order costs O(jumps) comparisons, not
        O(jumps * d).  The values are prefix sums of the heights.
        """
        steps = [0] * (d + 1)  # steps[s]: height first counted at turn s
        at = [0] * d
        for j in self.jumps:
            # the least s with position <= s/d; every position lies in (0, 1)
            s = min(d, max(1, math.ceil(j.position_approx() * d)))
            while s > 1 and j.compare_to_turn(Fraction(s - 1, d)) <= 0:
                s -= 1
            while s < d and (c := j.compare_to_turn(Fraction(s, d))) > 0:
                s += 1
            if s < d and c == 0:
                at[s] += j.height
                s += 1
            steps[s] += j.height
        out = []
        below = 0
        for step, a in zip(steps, at):
            below += step
            out.append((below + a // 2, a != 0))
        return out

    def integral(self) -> SigmaIntegral:
        """Integral over the circle: sum of height * (2 pi - angle) per jump."""
        total = SigmaIntegral()
        for j in self.jumps:
            h, c, k = Fraction(j.height), j.cable, j.k
            pi_coeff = 2 * h - 2 * h * k / c
            cos_val = Fraction(2 * j.n - 1, 2 * j.n)
            if j.branch > 0:
                arc = -h / c
            else:
                pi_coeff -= 2 * h / c
                arc = h / c
            if j.n == 1:  # arccos(1/2) = pi/3 folds into the pi coefficient
                term = SigmaIntegral(pi_coeff + arc / 3)
            else:
                term = SigmaIntegral(pi_coeff, ((cos_val, arc),))
            total = total + term
        return total


def signature_profile(knot: FormalKnot) -> SignatureProfile:
    """Exact jump list of a twist-family FormalKnot, merged and cancelled."""
    merged = {}
    for atom in knot.atoms:
        n = twist_parameter(atom.matrix)
        if n is None:
            raise ValueError(
                "profile path supports twist-family atoms only; a non-twist "
                "matrix takes the matrix path, which needs a prime-power "
                "order d")
        for k in range(atom.cable):
            for branch, height in ((1, -2 * atom.sign), (-1, 2 * atom.sign)):
                jump = Jump(n, atom.cable, k, branch, height)
                pos = jump.rational_position()
                key = ("q", pos) if pos is not None else ("a", n, atom.cable, k, branch)
                if key in merged:
                    old = merged[key]
                    merged[key] = Jump(old.n, old.cable, old.k, old.branch,
                                       old.height + height)
                else:
                    merged[key] = jump
    jumps = tuple(sorted((j for j in merged.values() if j.height),
                         key=lambda j: (j.position_approx(), j.n, j.cable,
                                        j.k, j.branch)))
    return SignatureProfile(jumps)


@dataclass(frozen=True)
class SigmaEvaluation:
    value: int
    at_jump: bool
    path: str


def sigma_details(knot: FormalKnot, d: int, s: int) -> SigmaEvaluation:
    """Evaluate sigma at omega = zeta_d^s, exactly, by whichever path applies.

    The exponent is reduced first, so any (d, s) with prime-power reduced
    denominator take sigma_many at that order; other roots need twist atoms.
    """
    if d < 1:
        raise ValueError(f"root order must be positive, got {d}")
    u = Fraction(s % d, d)
    if u == 0:
        return SigmaEvaluation(0, False, "trivial")
    if is_prime_power(u.denominator):
        return SigmaEvaluation(
            sigma_many(knot, u.denominator, [u.numerator])[0], False, "matrix")
    value, at_jump = signature_profile(knot).evaluate(u)
    return SigmaEvaluation(value, at_jump, "profile")


def sigma(knot: FormalKnot, d: int, s: int) -> int:
    return sigma_details(knot, d, s).value


def _interpolate(values) -> tuple:
    """Coefficients, lowest degree first, of the integer polynomial of
    degree < len(values) that takes values[x] at x = 0, 1, ...: Newton's
    forward differences times the binomials binom(x, j)."""
    coeffs = [Fraction(0)] * len(values)
    binom = [Fraction(1)]  # coefficients of binom(x, j)
    diffs = list(values)
    for j in range(len(values)):
        for i, b in enumerate(binom):
            coeffs[i] += diffs[0] * b
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        # binom(x, j + 1) = binom(x, j) (x - j) / (j + 1)
        binom = [(low - j * high) / (j + 1)
                 for low, high in zip([0] + binom, binom + [0])]
    return tuple(int(c) for c in coeffs)


def _basis_change(a: list, k: int, j: int, l: int, sign: int) -> list:
    """P^T a P for the integer unimodular P that swaps e_k and e_j, then
    adds sign * e_l to the new e_k (l != k; sign 0 adds nothing)."""
    b = [list(row) for row in a]
    b[k], b[j] = b[j], b[k]
    for row in b:
        row[k], row[j] = row[j], row[k]
    if sign:
        b[k] = [x + sign * y for x, y in zip(b[k], b[l])]
        for row in b:
            row[k] += sign * row[l]
    return b


def _minor_poly(a: list, k: int) -> tuple:
    """det N_k of the leading k x k block A_k of a, as an integer polynomial
    in y = c^2, coefficients lowest first.

    N_k = (1 - ic) A_k + (1 + ic) A_k^T.  With det(A_k + mu A_k^T) =
    sum_m p_m mu^m, interpolated from k + 1 integer determinants, det N_k =
    sum_m p_m (1 - ic)^(k-m) (1 + ic)^m, and its coefficient of c^n is
    i^n sum_m p_m sum_j (-1)^j C(k-m, j) C(m, n-j).  det N_k is real, so
    only the even n = 2h remain, with i^n = (-1)^h.
    """
    p = _interpolate([_int_det([[a[i][j] + mu * a[j][i] for j in range(k)]
                                for i in range(k)]) for mu in range(k + 1)])
    return tuple((-1) ** h * sum(
        pm * sum((-1) ** j * math.comb(k - m, j) * math.comb(m, 2 * h - j)
                 for j in range(min(k - m, 2 * h) + 1))
        for m, pm in enumerate(p)) for h in range(k // 2 + 1))


_FLOAT_BOUND = 1 << 1000  # minor coefficients from here on defer the pass


@lru_cache(maxsize=1 << 10)
def _leading_minors(rows: tuple) -> Optional[tuple]:
    """The leading principal minors det N_k, k = 1..g, of N = S - i c K for
    P^T A P, as integer polynomials in y = c^2 (_minor_poly), or None
    when a coefficient reaches _FLOAT_BOUND.

    P is a small integer unimodular matrix, chosen column by column so that
    no minor is the zero polynomial, which would leave Jacobi's rule nothing
    to read at any root (a zero diagonal of S, as in [[0,1],[0,0]], makes
    det N_1 = 0).  Column k is the first of e_j, j >= k, then of e_j +- e_l,
    l > k, that makes det N_k nonzero; the columns before it stay, and so
    do the minors before it.  When there is none, e_k stays and its minor
    is zero, which leaves every root to the cascade.  N of P^T A P is
    P^T N P, so by Sylvester's law of inertia no signature changes.
    """
    a, g = [list(row) for row in rows], len(rows)
    out = []
    for k in range(g):
        moves = [(j, k, 0) for j in range(k, g)] + [
            (j, l, sign) for j in range(k, g) for l in range(k + 1, g)
            for sign in (1, -1)]
        for move in moves:
            b = _basis_change(a, k, *move)
            poly = _minor_poly(b, k + 1)
            if any(poly):
                a = b
                break
        if any(abs(q) >= _FLOAT_BOUND for q in poly):
            return None
        out.append(poly)
    return tuple(out)


def _minor_signs(minors: tuple, lo, hi) -> np.ndarray:
    """Signs of the leading principal minors of N at cot(phi) in the float
    intervals [lo, hi] (arrays, one per root): row k for det N_(k+1), 0
    where its enclosure holds 0.  y = cot^2 is enclosed, then each minor by
    Horner's rule in y, every operation rounded one ulp outward."""
    with np.errstate(invalid="ignore", over="ignore"):
        y_lo = np.maximum(np.nextafter(np.where(
            lo > 0, lo * lo, np.where(hi < 0, hi * hi, 0.0)), _DOWN), 0.0)
        y_hi = np.nextafter(np.maximum(lo * lo, hi * hi), _UP)
        signs = np.zeros((len(minors), len(lo)))
        for k, poly in enumerate(minors):
            # a coefficient beyond 2^53 is not a float: float(q) rounds it to
            # nearest, so the ulps next to float(q) enclose it
            v_lo = np.full(len(lo), _next(float(poly[-1]), _DOWN))
            v_hi = np.full(len(lo), _next(float(poly[-1]), _UP))
            for q in map(float, poly[-2::-1]):
                # y >= 0, so v y is least at v_lo and greatest at v_hi
                v_lo = np.nextafter(np.nextafter(np.minimum(
                    v_lo * y_lo, v_lo * y_hi), _DOWN) + _next(q, _DOWN), _DOWN)
                v_hi = np.nextafter(np.nextafter(np.maximum(
                    v_hi * y_lo, v_hi * y_hi), _UP) + _next(q, _UP), _UP)
            signs[k] = np.where(v_lo > 0, 1.0, np.where(v_hi < 0, -1.0, 0.0))
    return signs


@lru_cache(maxsize=1 << 8)
def _float_pass(rows: tuple, d: int) -> Optional[tuple]:
    """The signature of M(zeta_d^u) at every u < d, None where the float
    pass leaves it undecided; or None for the whole order when d has no
    cot table or a minor a coefficient beyond _FLOAT_BOUND.

    One _minor_signs call over cot_table(d) decides u = 1..d/2.  Where no
    minor is 0, Jacobi's rule gives the inertia: the pivots of the LDL^H of
    N = M / (2 sin^2(pi u/d)) are det N_k / det N_(k-1), so N has as many
    negative eigenvalues as 1, det N_1, ..., det N_g has sign changes.
    M(zeta_d^(d-u)) is the conjugate of M(zeta_d^u), of the same signature,
    and the minors, polynomials in cot^2, have the same enclosures there.
    At u = 0, M = 0 and the signature is 0.
    """
    minors = _leading_minors(rows)
    table = None if minors is None else cot_table(d)
    if table is None:
        return None
    half = np.arange(1, d // 2 + 1)
    signs = _minor_signs(minors, table[0][half], table[1][half])
    before = np.concatenate([np.ones((1, len(half))), signs])[:-1]
    changes = (signs * before < 0).sum(axis=0)
    decided = (signs != 0).all(axis=0)
    sigs = [len(rows) - 2 * c if ok else None
            for ok, c in zip(decided.tolist(), changes.tolist())]
    return (0, *sigs, *sigs[:(d - 1) // 2][::-1])


def signature_sweep(rows: tuple, d: int, exponents) -> list:
    """[signature of M(zeta_d^u) for u in exponents] of an integer matrix,
    certified; M must be nonsingular at each root but u = 0 (M = 0,
    signature 0).

    Each root is read off the cached float pass of the whole order
    (_float_pass).  A root it leaves open, and every root of an order
    without a pass, goes through the mpmath cascade (_cascade_signature)
    at its reduced order, under the precision cap, folded to u <= d/2 as
    the float pass folds it: M(zeta^(d-u)) is the conjugate of M(zeta^u).
    """
    row = _float_pass(rows, d)
    sigs = []
    for u in exponents:
        u %= d
        sig = None if row is None else row[u]
        if sig is None:
            u = min(u, d - u)
            g = math.gcd(u, d)
            sig = _cascade_signature(rows, d // g, u // g)
        sigs.append(sig)
    return sigs


def sigma_many(knot: FormalKnot, d: int, exponents) -> list:
    """[sigma(knot, d, s) for s in exponents] at a prime-power order d: one
    signature_sweep of order d per atom matrix, at every s * cable mod d.

    Other orders raise ValueError; sigma_details alone chooses between this
    path and the profile path.  No caller needs another order: lift degrees
    are orbit sizes of a p-group, powers of the deck prime, as character
    and family orders are.
    """
    if not is_prime_power(d):
        raise ValueError(f"order {d} is not a prime power; "
                         f"use sigma_details for other roots of unity")
    exponents = list(exponents)
    cabled = [(atom, [s * atom.cable % d for s in exponents])
              for atom in knot.atoms]
    reach = {}  # matrix rows -> the exponents mod d it is needed at
    for atom, ups in cabled:
        reach.setdefault(atom.matrix.rows, set()).update(ups)
    tables = {}  # matrix rows -> {exponent mod d: signature}
    for rows, needed in reach.items():
        ups = sorted(needed)
        tables[rows] = dict(zip(ups, signature_sweep(rows, d, ups)))
    totals = [0] * len(exponents)
    for atom, ups in cabled:
        table = tables[atom.matrix.rows]
        totals = [v + atom.sign * table[u] for v, u in zip(totals, ups)]
    return totals


def arf(knot: FormalKnot) -> int:
    """Arf invariant in Z_2 via Delta(-1) mod 8, additive over atoms.

    The cabled Alexander polynomial is Delta_base(t^r), so even cables
    contribute Delta_base(1) = +-1, hence 0; odd cables contribute the base
    value det(A + A^T) mod 8.
    """
    total = 0
    for atom in knot.atoms:
        if atom.cable % 2 == 0:
            continue
        rows = atom.matrix.rows
        n = len(rows)
        doubled = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        if _int_det(doubled) % 8 not in (1, 7):
            total += 1
    return total % 2
