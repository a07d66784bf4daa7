"""Witt-class invariants of hermitian forms over Q(zeta_d) and Hilbert symbols.

Forms are diagonalized by an exact LDL^H that writes each pivot's Schur
complement into the upper triangle of the trailing block, and takes pivot
inverses from a memo that lasts the process, since pivots recur across the
forms of a session.  Elements of Q(zeta_d) have one representation each, so
its pivots and radical are exactly those of the elimination by column
operations on the whole form, which the tests keep as the reference.  A class
is represented by its invariant tuple: signatures at the real embedding
classes, rank parity of the nonsingular part, and the discriminant disc =
(-1)^(k(k-1)/2) det in the real subfield modulo norms.  For d = 4 the norm
subgroup of Q^x is computable (positive, even valuation at primes = 3 mod 4),
so discriminants reduce to a finite exact datum there; separating classes
rationally uses the Hilbert symbols (disc, -1)_q.

The r-block forms lambda_block(A, r, d, t) of an integer g x g matrix A split
over C into the forms M(lambda) of A at the r-th roots of zeta_d^t, so
block_invariants reads their class off g x g data: the discriminant from a
closed form in det A and a degree-g polynomial, the signatures from one
certified sweep over those roots.  Only a singular A or a form with a radical
is built and diagonalized.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Optional, Sequence, Union

from .cyclo import (
    CyclotomicNumber,
    ResourceCapExceeded,
    degree_of,
    embedding_signs,
    factor,
    is_prime,
    zeta,
)

__all__ = [
    "MAX_BLOCK_WORK",
    "DiscClass",
    "HermitianForm",
    "WittClass",
    "block_invariants",
    "diagonalize",
    "embeddings",
    "hilbert_symbol",
    "lambda_block",
    "witt_add",
    "witt_invariants",
    "witt_neg",
    "witt_zero",
]

Entry = Union[int, Fraction, CyclotomicNumber]

# Largest (r g)^3 phi(d)^2 that lambda_block and block_invariants accept for
# r blocks of a g x g matrix over Q(zeta_d); the largest in use is 1.3e7
# (r g = 8, d = 243).  It bounds the exact elimination of `witt --matrix`,
# which builds and diagonalizes every block form: just under it, the
# trefoil's 31 blocks at d = 64 take 20-21 ms that way (median in process
# on a shared 2-core x86-64 machine, Python 3.11) and a few milliseconds
# through block_invariants.
MAX_BLOCK_WORK = 260_000_000


def _entry(d: int, value: Entry) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        if value.order != d:
            raise ValueError(f"entry order {value.order} does not match form order {d}")
        return value
    return CyclotomicNumber.of(d, value)


@dataclass(frozen=True)
class HermitianForm:
    """A hermitian matrix over Q(zeta_d) with respect to zeta -> zeta^-1."""

    order: int
    entries: tuple

    @staticmethod
    def from_rows(d: int, rows: Sequence[Sequence[Entry]]) -> "HermitianForm":
        mat = tuple(tuple(_entry(d, v) for v in row) for row in rows)
        n = len(mat)
        for row in mat:
            if len(row) != n:
                raise ValueError("hermitian form must be square")
        for i in range(n):
            for j in range(i, n):
                if mat[i][j] != mat[j][i].conj():
                    raise ValueError(f"matrix is not conjugate-symmetric at ({i},{j})")
        return HermitianForm(d, mat)

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Diagonalization:
    """Pivots of a congruence T* F T = diag(pivots) + zero block of dimension
    radical."""

    order: int
    pivots: tuple
    radical: int


# Pivot inverses recur across the forms of a session: the first pivot
# (2 - w - w^-1) a_00 of every r = 1 form recurs across the matrices at the
# same (d, t).  A two-round query-session asks for 480 pivot inverses, of
# which 209-235 are distinct (95-105 of those not rational, about 150 kB of
# coefficients in all), so 256 entries hold a session.
@lru_cache(maxsize=256)
def _pivot_inverse(p: CyclotomicNumber) -> CyclotomicNumber:
    return p.inverse()


def diagonalize(form: HermitianForm) -> Diagonalization:
    """Exact hermitian diagonalization with the radical split off: an LDL^H
    that updates the Schur complement of each pivot in the trailing block
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 11).

    The pivot is the first nonzero diagonal of the trailing block, moved to
    the front by a swap.  When every diagonal is zero, the first nonzero
    entry a = F[j][k] is folded in by the basis change v_j += c v_k, with
    c = 1, or c = zeta when a is purely imaginary, which makes F[j][j] =
    2 Re(c a) nonzero.  Each step is a congruence by a swap or by a
    unitriangular matrix, so the product of the pivots is det F when there
    is no radical, and their number is the rank of F.

    Clearing the pivot row by the basis changes v_j -= (F[i][j]/p) v_i
    leaves F[j][k] - F[j][i] F[i][k]/p in the trailing block: its Schur
    complement, which is what the update writes, F[j][k] -= conj(F[i][j])
    ell_k with ell_k = F[i][k]/p.  Elements of Q(zeta_d) have one
    representation each, so the pivots are the ones those column operations
    give, element by element.  Only the upper triangle is kept up to date:
    an entry below the diagonal is read as the conjugate of its mirror.
    Pivot inverses come from a memo (_pivot_inverse).
    """
    d = form.order
    n = form.size
    # only F[j][k] for k >= j is kept up to date; F[k][j] is its conjugate
    work = [list(row) for row in form.entries]
    pivots = []
    i = 0
    while i < n:
        pivot_at = next((j for j in range(i, n) if not work[j][j].is_zero()), None)
        if pivot_at is None:
            off = next(((j, k) for j in range(i, n) for k in range(j + 1, n)
                        if not work[j][k].is_zero()), None)
            if off is None:
                break  # remaining block is the radical
            j, k = off
            a = work[j][k]
            # a is purely imaginary when a + conj(a) = 0; then zeta a +
            # conj(zeta a) = (zeta - zeta^-1) a, nonzero for d > 2
            c = zeta(d) if (a + a.conj()).is_zero() else CyclotomicNumber.of(d, 1)
            cc = c.conj()
            # v_j += c v_k: column j gains column k times c, then row j
            # gains cc times row k; rows i..j-1 of the block are zero, so
            # only row j changes
            work[j][j] = work[j][j] + a * c + cc * (a.conj() + work[k][k] * c)
            for b in range(j + 1, n):
                work[j][b] = work[j][b] + cc * (work[k][b] if b >= k
                                                else work[b][k].conj())
            pivot_at = j
        if pivot_at != i:
            # swap v_i and v_q: an entry that crosses the diagonal is
            # conjugated
            q = pivot_at
            for b in range(i + 1, q):
                work[i][b], work[b][q] = work[b][q].conj(), work[i][b].conj()
            for b in range(q + 1, n):
                work[i][b], work[q][b] = work[q][b], work[i][b]
            work[i][i], work[q][q] = work[q][q], work[i][i]
            work[i][q] = work[i][q].conj()
        p = work[i][i]
        targets = [k for k in range(i + 1, n) if not work[i][k].is_zero()]
        if targets:
            p_inv = _pivot_inverse(p)
            ell = {k: work[i][k] * p_inv for k in targets}
            for at, j in enumerate(targets):
                left, out = work[i][j].conj(), work[j]  # left = F[j][i]
                out[j] = out[j] - left * ell[j]
                for k in targets[at + 1:]:
                    out[k] = out[k] - left * ell[k]
        pivots.append(p)
        i += 1
    return Diagonalization(d, tuple(pivots), n - len(pivots))


def embeddings(d: int) -> tuple:
    """Real embedding classes: exponents s coprime to d with 0 < s < d/2.

    Conjugate embeddings s and d-s give equal signatures, so one per pair; for
    d <= 2 the field is already real and the single class is s = 1.
    """
    if d <= 2:
        return (1,)
    return tuple(s for s in range(1, (d + 1) // 2) if gcd(s, d) == 1)


@dataclass(frozen=True)
class DiscClass:
    """Discriminant class in Q^x modulo norms from Q(zeta_4).

    Norms are exactly the positive rationals with even valuation at every prime
    congruent to 3 mod 4 (2 and primes = 1 mod 4 are norms), so the class is a
    sign together with the set of odd-valuation primes = 3 mod 4.
    """

    sign: int
    primes: frozenset

    @staticmethod
    def of(x: Fraction) -> "DiscClass":
        if x == 0:
            raise ValueError("discriminant of a nonsingular form cannot vanish")
        # numerator and denominator are coprime, so their factors are disjoint
        split = factor(abs(x.numerator)) | factor(x.denominator)
        odd = frozenset(q for q, e in split.items() if q % 4 == 3 and e % 2)
        return DiscClass(1 if x > 0 else -1, odd)

    def __mul__(self, other: "DiscClass") -> "DiscClass":
        return DiscClass(self.sign * other.sign, self.primes ^ other.primes)

    def is_trivial(self) -> bool:
        return self.sign == 1 and not self.primes

    def representative(self) -> Fraction:
        r = Fraction(self.sign)
        for q in self.primes:
            r *= q
        return r


@dataclass(frozen=True)
class WittClass:
    """Invariant tuple of a hermitian form: the data the Witt class determines.

    `disc` is an exact real-subfield representative (None when unavailable, see
    `partial`); `disc_class` is its finite reduction for d = 4.  The tuple
    composes under orthogonal sum via witt_add/witt_neg, with
    disc(F1 + F2) = (-1)^(k1 k2) disc(F1) disc(F2).
    """

    order: int
    rank_mod_2: int
    signatures: tuple  # pairs (s, signature)
    disc: Optional[CyclotomicNumber] = None
    disc_class: Optional[DiscClass] = None
    radical: int = 0
    partial: bool = False  # True when only signatures are carried

    def signature_at(self, s: int) -> int:
        for e, v in self.signatures:
            if e == s:
                return v
        raise KeyError(f"no embedding class {s} for order {self.order}")

    @property
    def sign(self) -> int:
        """Signature at the standard embedding zeta -> e^(2 pi i/d)."""
        return self.signature_at(1)

    def is_trivial(self) -> bool:
        if any(v for _, v in self.signatures) or self.rank_mod_2:
            return False
        if self.partial:
            return False
        if self.disc_class is not None:
            return self.disc_class.is_trivial()
        return self.disc == 1

    def to_json(self) -> dict:
        out = {
            "order": self.order,
            "rank_mod_2": self.rank_mod_2,
            "signatures": {str(s): v for s, v in self.signatures},
            "radical": self.radical,
            "partial": self.partial,
        }
        if self.disc is not None:
            den = self.disc.den
            out["disc_coeffs"] = [_fraction_text(c, den) for c in self.disc.num]
        if self.disc_class is not None:
            out["disc_class"] = {
                "sign": self.disc_class.sign,
                "primes": sorted(self.disc_class.primes),
            }
        return out


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0."""
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:  # str refuses an integer over the digit limit
        raise ResourceCapExceeded(
            f"a discriminant coefficient has more than "
            f"{sys.get_int_max_str_digits()} digits, the limit for printing "
            f"an integer (sys.get_int_max_str_digits)") from None


def witt_invariants(form: HermitianForm) -> WittClass:
    """Diagonalize and read off the invariant tuple of the nonsingular part."""
    diag = diagonalize(form)
    d = form.order
    k = len(diag.pivots)
    ss = embeddings(d)
    signs = embedding_signs(diag.pivots, ss)  # certified, one row per pivot
    # one column sum per embedding, from a zero row so that k = 0 sums to 0
    sigs = tuple(zip(ss, map(sum, zip([0] * len(ss), *signs))))
    disc = CyclotomicNumber.of(d, (-1) ** (k * (k - 1) // 2))
    for p in diag.pivots:
        disc = disc * p
    disc_class = None
    if d == 4:
        disc_class = DiscClass.of(disc.rational_value())
    return WittClass(order=d, rank_mod_2=k % 2, signatures=sigs, disc=disc,
                     disc_class=disc_class, radical=diag.radical)


def witt_zero(d: int) -> WittClass:
    return WittClass(order=d, rank_mod_2=0,
                     signatures=tuple((s, 0) for s in embeddings(d)),
                     disc=CyclotomicNumber.of(d, 1),
                     disc_class=DiscClass(1, frozenset()) if d == 4 else None)


def witt_add(a: WittClass, b: WittClass) -> WittClass:
    if a.order != b.order:
        raise ValueError(f"cannot add Witt classes of orders {a.order} and {b.order}")
    sigs = tuple((s, va + vb) for (s, va), (_, vb) in zip(a.signatures, b.signatures))
    partial = a.partial or b.partial
    disc = disc_class = None
    if not partial:
        twist = (-1) ** (a.rank_mod_2 * b.rank_mod_2)
        disc = a.disc * b.disc * twist
        if a.disc_class is not None and b.disc_class is not None:
            disc_class = a.disc_class * b.disc_class
            if twist < 0:
                disc_class = DiscClass(-1, frozenset()) * disc_class
    return WittClass(order=a.order, rank_mod_2=(a.rank_mod_2 + b.rank_mod_2) % 2,
                     signatures=sigs, disc=disc, disc_class=disc_class,
                     partial=partial)


def witt_neg(a: WittClass) -> WittClass:
    sigs = tuple((s, -v) for s, v in a.signatures)
    disc = disc_class = None
    if not a.partial:
        twist = (-1) ** a.rank_mod_2  # det(-F) = (-1)^k det(F)
        disc = a.disc * twist
        if a.disc_class is not None:
            disc_class = a.disc_class
            if twist < 0:
                disc_class = DiscClass(-1, frozenset()) * disc_class
    return WittClass(order=a.order, rank_mod_2=a.rank_mod_2, signatures=sigs,
                     disc=disc, disc_class=disc_class, partial=a.partial)


def _legendre(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    t = pow(a, (q - 1) // 2, q)
    return 1 if t == 1 else -1


def _split_valuation(n: int, q: int):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def hilbert_symbol(a, b, q) -> int:
    """Hilbert symbol (a, b)_q over Q_q, with q a prime or the string "inf".

    Classical closed forms: for odd q, (a,b)_q = (-1)^(alpha beta eps(q))
    (u|q)^beta (v|q)^alpha with a = q^alpha u, b = q^beta v; for q = 2 the
    (-1)^(eps(u)eps(v) + alpha omega(v) + beta omega(u)) formula; at the real
    place -1 iff both arguments are negative.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    # (a,b) depends on square classes; clear denominators
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if q == "inf":
        return -1 if (ai < 0 and bi < 0) else 1
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"place must be a prime or 'inf', got {q!r}")
    sa, sb = (1 if ai > 0 else -1), (1 if bi > 0 else -1)
    alpha, u = _split_valuation(abs(ai), q)
    beta, v = _split_valuation(abs(bi), q)
    u *= sa
    v *= sb
    if q == 2:
        eps_u, eps_v = ((u - 1) // 2) % 2, ((v - 1) // 2) % 2
        om_u, om_v = ((u * u - 1) // 8) % 2, ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    eps = ((q - 1) // 2) % 2
    result = (-1) ** (alpha * beta * eps)
    if beta % 2:
        result *= _legendre(u, q)
    if alpha % 2:
        result *= _legendre(v, q)
    return result


def _matrix_rows(A) -> tuple:
    rows = tuple(tuple(row) for row in getattr(A, "rows", A))
    bad = [v for row in rows for v in row if type(v) is not int]
    if bad:
        raise ValueError(f"matrix entry must be an integer, got {bad[0]!r}")
    return rows


def _block_rows(A, r: int, d: int) -> tuple:
    """The rows of A, once (A, r, d) passes the checks on block forms: r is
    positive, A a square integer matrix, Q(zeta_d) under the degree cap and
    the work (r g)^3 phi(d)^2 under MAX_BLOCK_WORK."""
    if r < 1:
        raise ValueError(f"block count r must be positive, got {r}")
    rows = _matrix_rows(A)
    g = len(rows)
    if any(len(row) != g for row in rows):
        raise ValueError("matrix must be square")
    work = (r * g) ** 3 * degree_of(d) ** 2
    if work > MAX_BLOCK_WORK:
        raise ResourceCapExceeded(
            f"{r} blocks of a {g} x {g} matrix over Q(zeta_{d}) have work "
            f"(r g)^3 phi(d)^2 = {work}, over the cap {MAX_BLOCK_WORK} on block forms")
    return rows


def lambda_block(A, r: int, d: int, t: int) -> HermitianForm:
    """The r x r block hermitian form of an integer Seifert-type matrix.

    Blocks: A + A^T on the diagonal, -A on the superdiagonal, -A^T on the
    subdiagonal, and the wraparound entries twisted by omega = zeta_d^t:
    -omega^-1 A^T in the top-right corner and -omega A in the bottom-left.
    For r = 1 everything lands in the single block, giving
    (1-omega)A + (1-omega^-1)A^T.

    Each entry is an integer triple (a, b, c), the element a + b omega +
    c omega^-1, so the form is hermitian when the entry at (j, i) is the
    triple (a, c, b) of the entry at (i, j).  Every block family gives that
    by construction, so no entry is checked: A + A^T is symmetric, -A at
    (i, i+1) faces -A^T at (i+1, i), and the wrap factors omega and omega^-1
    face each other.  At r = 1 and r = 2, where the families land on the
    same blocks, the sums keep it.
    """
    rows = _block_rows(A, r, d)
    g = len(rows)
    n = r * g
    parts = [[[0] * n for _ in range(n)] for _ in range(3)]  # a, b and c

    def add_block(bi, bj, part, sign, transpose):
        for x in range(g):
            row = parts[part][bi * g + x]
            for y in range(g):
                row[bj * g + y] += sign * (rows[y][x] if transpose else rows[x][y])

    # superdiagonal family (i, i+1 mod r): -A, with wrap factor omega at the
    # bottom-left; subdiagonal family (i, i-1 mod r): -A^T, with wrap factor
    # omega^-1 at the top-right.  For r = 1 both wrap onto the diagonal.
    for i in range(r):
        add_block(i, i, 0, 1, False)
        add_block(i, i, 0, 1, True)
        j = (i + 1) % r
        add_block(i, j, 1 if j <= i else 0, -1, False)
        j = (i - 1) % r
        add_block(i, j, 2 if j >= i else 0, -1, True)
    out = [list(zip(*part_rows)) for part_rows in zip(*parts)]
    # one element per distinct triple, so equal entries (zero among them)
    # are one object
    elements = {(a, b, c): CyclotomicNumber.from_terms(d, [(0, a), (t, b), (-t, c)])
                for a, b, c in {v for row in out for v in row}}
    return HermitianForm(d, tuple(tuple(elements[v] for v in row) for row in out))


def _mat_mul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@lru_cache(maxsize=1 << 10)
def _block_rational(rows: tuple, r: int) -> tuple:
    """(c, chi) for a g x g integer matrix A: c = det A and, when c != 0,
    chi the characteristic polynomial of B^r, B = A^-1 A^T, as Fractions
    lowest degree first; (0, ()) when c = 0.

    det(xA - A^T) = c det(x - B), so the roots of chi are the r-th powers
    of the roots of Delta(x) = det(xA - A^T).  Its coefficients come from
    the power sums tr(B^(r m)), m <= g, by Newton's identities.
    """
    g = len(rows)
    # Gauss-Jordan on [A | A^T] leaves [I | B]; c is the pivot product
    m = [[Fraction(v) for v in row] + [Fraction(rows[j][i]) for j in range(g)]
         for i, row in enumerate(rows)]
    c = Fraction(1)
    for i in range(g):
        p = next((j for j in range(i, g) if m[j][i]), None)
        if p is None:
            return 0, ()
        if p != i:
            m[i], m[p] = m[p], m[i]
            c = -c
        pivot = m[i][i]
        c *= pivot
        m[i] = [v / pivot for v in m[i]]
        for j in range(g):
            if j != i and m[j][i]:
                f = m[j][i]
                m[j] = [x - f * y for x, y in zip(m[j], m[i])]
    b = [row[g:] for row in m]
    power = b  # B^r, by squaring from the top bit of r down
    for bit in bin(r)[3:]:
        power = _mat_mul(power, power)
        if bit == "1":
            power = _mat_mul(power, b)
    # e_k, the k-th elementary symmetric function of the roots of chi:
    # k e_k = sum_(i <= k) (-1)^(i-1) e_(k-i) p_i, p_i = tr(B^(r i))
    e, sums, step = [Fraction(1)], [], power
    for k in range(1, g + 1):
        sums.append(sum(step[i][i] for i in range(g)))
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1]
                     for i in range(1, k + 1)) / k)
        step = _mat_mul(step, power)
    return int(c), tuple((-1) ** (g - j) * e[g - j] for j in range(g + 1))


def block_invariants(A, r: int, d: int, t: int) -> WittClass:
    """witt_invariants(lambda_block(A, r, d, t)), from the g x g integer
    matrix A without building the r g x r g form over Q(zeta_d).

    A twisted DFT, which is unitary, conjugates the block form to the sum
    of M(lambda) = (1 - lambda)A + (1 - lambda^-1)A^T over the r roots of
    lambda^r = omega, omega = zeta_d^t (Viro 1973).  So at the embedding
    zeta -> e^(2 pi i s/d) the signature is the sum of the signatures of
    M(lambda_j), lambda_j = e^(2 pi i (t s + d j)/(d r)), all decided by
    one signature_sweep of order d r, and det F is the product of
    det M(lambda) = ((1 - lambda)/lambda)^g Delta(lambda).  With c = det A
    and Delta = c prod (x - alpha_i), the product over lambda of
    Delta(lambda) is c^r (-1)^((r+1) g) chi(omega), chi = prod (x - alpha_i^r);
    the products of 1 - lambda and of lambda are 1 - omega and
    (-1)^(r+1) omega.  So with k = r g,
    disc = (-1)^(k(k-1)/2) c^r (omega^-1 - 1)^g chi(omega).
    disc != 0 certifies that F and every M(lambda_j) are nonsingular at
    every embedding, so the sweep's cascade terminates.  When c = 0 the
    closed form does not apply, and when disc = 0 the form has a radical,
    whose pivot product depends on the elimination: then the form is built
    and diagonalized.
    """
    rows = _block_rows(A, r, d)
    g, k, t = len(rows), r * len(rows), t % d
    c, chi = _block_rational(rows, r)
    disc = None
    if c:
        # one Laurent polynomial in zeta_d: (zeta^-t - 1)^g chi(zeta^t)
        scale = (-1) ** (k * (k - 1) // 2) * c ** r
        disc = CyclotomicNumber.from_terms(
            d, [((m - j) * t, scale * comb(g, j) * (-1) ** (g - j) * x)
                for j in range(g + 1) for m, x in enumerate(chi)])
    if disc is None or disc.is_zero():
        return witt_invariants(lambda_block(rows, r, d, t))
    # seifert imports this module, so the sweep is imported when first used
    from .seifert import signature_sweep
    ss = embeddings(d)
    n = d * r
    values = signature_sweep(rows, n, [(t * s + d * j) % n
                                       for s in ss for j in range(r)])
    sigs = tuple((s, sum(values[i * r:(i + 1) * r])) for i, s in enumerate(ss))
    disc_class = DiscClass.of(disc.rational_value()) if d == 4 else None
    return WittClass(order=d, rank_mod_2=k % 2, signatures=sigs, disc=disc,
                     disc_class=disc_class)
