"""Reference arithmetic in Q(zeta_d) on vectors of Fraction coefficients.

The direct rational algorithms: schoolbook products reduced modulo Phi_d one
top coefficient at a time, and inverses by extended Euclid in Q[x] with every
coefficient a Fraction.  `cyclo.CyclotomicNumber` holds its nonzero terms
over one denominator, multiplies term by term and folds each power z^e
into the basis; the property tests check it against these, coefficient by
coefficient.
"""
from fractions import Fraction


def field(d: int):
    """(p, m, phi) for d = p^a: m = p^(a-1) and phi = (p-1) m."""
    p = next(q for q in range(2, d + 1) if d % q == 0)
    return p, d // p, (p - 1) * (d // p)


def reduce(vec, d: int) -> list:
    # Phi_{p^a}(x) = sum_{j<p} x^(j*m) with m = p^(a-1), so
    # x^phi = -sum_{j<p-1} x^(j*m) rewrites one top coefficient at a time.
    p, m, phi = field(d)
    vec = [Fraction(c) for c in vec]
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            base = i - phi
            for j in range(p - 1):
                vec[base + j * m] -= c
    del vec[phi:]
    vec += [Fraction(0)] * (phi - len(vec))
    return vec


def poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return poly_trim(q), poly_trim(a)


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def poly_sub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for j, bj in enumerate(b):
        out[j] -= bj
    return poly_trim(out)


def phi_poly(d: int) -> list:
    p, m, phi = field(d)
    coeffs = [Fraction(0)] * (phi + 1)
    for j in range(p):
        coeffs[j * m] = Fraction(1)
    return coeffs


def add(a, b) -> list:
    return [x + y for x, y in zip(a, b)]


def mul(a, b, d: int) -> list:
    return reduce(poly_mul(list(a), list(b)) or [0], d)


def conj(a, d: int) -> list:
    vec = [Fraction(0)] * d
    for k, c in enumerate(a):
        vec[(-k) % d] += c
    return reduce(vec, d)


def inverse(a, d: int) -> list:
    # extended Euclid in Q[x]; Phi_d is irreducible so any nonzero a is a unit.
    r0, r1 = phi_poly(d), poly_trim([Fraction(c) for c in a])
    if not r1:
        raise ZeroDivisionError("zero has no inverse")
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    # r0 = gcd = nonzero constant; s0 * a == r0 (mod Phi_d)
    c = r0[0]
    return reduce([x / c for x in s0], d)
