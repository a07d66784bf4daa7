"""Constructive search for bump knots and signature-independent knot families.

A bump knot concentrates its signature function near a chosen angle: a band
J = twist(n-1) # -twist(n) between two adjacent twist-family jump angles is
combined with the mirrored (2,1)-cable K = J # -cable_2(J), which kills the
signature integral while keeping support inside the window orbit.  Families
are built inductively over a sequence of prime powers d_i with windows chosen
so that the i-th knot is invisible at all d_j-th roots of unity for j < i.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .cyclo import InputError, ResourceCapExceeded, is_prime, prime_power_split
from .seifert import (
    Atom,
    FormalKnot,
    arf,
    sigma_details,
    sigma_many,
    signature_profile,
    twist_cmp,
    twist_knot,
    twist_matrix,
)

__all__ = [
    "MAX_FAMILY_ORDER",
    "BumpPlan",
    "BumpSearchError",
    "BumpSpec",
    "FamilyEntry",
    "KnotFamily",
    "build_family",
    "plan_bump",
    "verify_family",
]


# Largest family order build_family accepts: 3^7, the last order of the
# default family for q = 27 (orders 27, 243, 2187).
MAX_FAMILY_ORDER = 3 ** 7


class BumpSearchError(ValueError):
    """No admissible twist band exists within the searched lattice."""


@dataclass(frozen=True)
class BumpSpec:
    """Window angles theta0 > theta1, stored as exact rational multiples of pi.

    The support window is I = {omega : theta1/3 < arg(omega) < theta0}, and a
    constructed knot's signature vanishes wherever the whole conjugation and
    negation orbit of omega avoids I.
    """

    theta0: Fraction
    theta1: Fraction

    def __post_init__(self):
        t0, t1 = Fraction(self.theta0), Fraction(self.theta1)
        object.__setattr__(self, "theta0", t0)
        object.__setattr__(self, "theta1", t1)
        if not (0 < t1 < t0 < Fraction(1, 2)):
            raise ValueError(
                f"window needs 0 < theta1 < theta0 < pi/2, got "
                f"theta1 = {t1} pi, theta0 = {t0} pi")

    def window_turns(self) -> tuple:
        """Open window (theta1/3, theta0) converted from radians to turns."""
        return (self.theta1 / 6, self.theta0 / 2)


@dataclass(frozen=True)
class BumpPlan:
    """A successful bump search: the band indices and the found knot."""

    spec: BumpSpec
    d: int
    s: int
    tau: Fraction  # target argument in turns, folded into (0, 1/2)
    n: int  # band lies between the jump angles of twist(n-1) and twist(n)
    epsilon: Fraction  # rational half-width certificate for the band, in turns
    knot: FormalKnot


def _twist_bracket(tau: Fraction) -> int:
    """Least n >= 2 with t_n < tau, for 0 < tau < 1/6.

    t_n = arccos(1 - 1/(2n)) / (2 pi) strictly decreases in n, and t_n < tau
    exactly when n > 1/(2(1 - cos(2 pi tau))) = 1/(4 sin(pi tau)^2).  That
    bound is at most 1/(16 tau^2), since sin(pi tau) >= 2 tau, so evaluating
    it with 64 bits more than twice the size of tau's denominator puts it
    within one of the true value.  Certified comparisons at its neighbours
    then make the result exact.
    """
    with mp.workprec(2 * tau.denominator.bit_length() + 64):
        x = mp.pi * tau.numerator / tau.denominator
        m = max(2, int(1 / (4 * mp.sin(x) ** 2)) + 1)
    while m > 2 and twist_cmp(m - 1, tau) < 0:
        m -= 1
    while twist_cmp(m, tau) >= 0:
        m += 1
    return m


def plan_bump(spec: BumpSpec, d: int, s: int,
              positivity: bool = False) -> BumpPlan:
    """Search the twist lattice for a band realizing a bump at zeta_d^s.

    The band (t_n, t_{n-1}) between adjacent twist jump angles must contain
    the target, fit in the window together with its half-angle image, and stay
    within a third of the target angle on each side (so that the squared
    target stays clear).  With positivity requested, the band must also avoid
    every even-index d-th root, which makes the signature nonnegative at all
    d-th roots of unity.
    """
    w_lo, w_hi = spec.window_turns()
    s_folded = min(s % d, -s % d)
    tau = Fraction(s_folded, d)
    if not (w_lo < tau < w_hi):
        raise ValueError(
            f"target argument {tau} turns lies outside the open window "
            f"({w_lo}, {w_hi})")
    if positivity:
        if d % 2:
            raise BumpSearchError(
                f"positivity at all roots needs even order, got d = {d}")
        if s_folded % 2 == 0:
            raise BumpSearchError(
                f"positivity is impossible: zeta_{d}^{s} is an even-index "
                f"root, which itself lies under a negative half-angle arc")

    if twist_cmp(1, tau) <= 0:
        raise BumpSearchError(
            f"no twist jump angle exceeds the target {tau} turns "
            f"(largest is arccos(1/2)/2pi = 1/6)")
    m = _twist_bracket(tau)

    lo = max(2 * w_lo, 2 * tau / 3)
    hi = min(w_hi, 4 * tau / 3)
    if positivity:
        lo = max(lo, Fraction(s_folded - 1, d))
        hi = min(hi, Fraction(s_folded + 1, d))
    if twist_cmp(m, lo) < 0:
        raise BumpSearchError(
            f"band lower edge (twist {m}) falls below the constraint {lo} "
            f"turns for target {tau}; no admissible band")
    if twist_cmp(m - 1, hi) > 0:
        raise BumpSearchError(
            f"band upper edge (twist {m - 1}) exceeds the constraint {hi} "
            f"turns for target {tau}; no admissible band")

    j = twist_knot(m - 1) - twist_knot(m)
    knot = j - j.cable(2)
    epsilon = min(tau / 3, w_hi - tau)
    return BumpPlan(spec, d, s, tau, m, epsilon, knot)


@dataclass(frozen=True)
class FamilyEntry:
    knot: FormalKnot
    d: int


@dataclass(frozen=True)
class KnotFamily:
    """Knots K_i with prime powers d_i, d_1 >= 4 and d_{i+1} > 3 d_i."""

    p: int
    entries: tuple

    def __post_init__(self):
        for v in (self.p, *(entry.d for entry in self.entries)):
            if type(v) is not int:
                raise ValueError(f"p and every d must be integers, got {v!r}")
        prev = None
        for entry in self.entries:
            split = prime_power_split(entry.d)
            if split is None or split[0] != self.p:
                raise ValueError(f"{entry.d} is not a power of {self.p}")
            if prev is None and entry.d < 4:
                raise ValueError(f"first order must be >= 4, got {entry.d}")
            if prev is not None and entry.d <= 3 * prev:
                raise ValueError(
                    f"orders must grow faster than threefold: {entry.d} after {prev}")
            prev = entry.d

    def to_json(self) -> dict:
        return {"p": self.p,
                "entries": [{"d": e.d, "knot": e.knot.to_json()}
                            for e in self.entries]}

    @staticmethod
    def from_json(data) -> "KnotFamily":
        if not (isinstance(data, dict) and "p" in data
                and isinstance(data.get("entries"), list)):
            raise ValueError("a family must be an object with p and a list "
                             "of entries")
        if not all(isinstance(e, dict) and "d" in e and "knot" in e
                   for e in data["entries"]):
            raise ValueError("each family entry must be an object with d "
                             "and knot")
        return KnotFamily(data["p"], tuple(
            FamilyEntry(FormalKnot.from_json(e["knot"]), e["d"])
            for e in data["entries"]))


def _head_knot() -> FormalKnot:
    """The d = 4 head: the window recipe degenerates there (theta1 would be
    pi/2 > theta0 = pi/3), but -cable_2 # cable_4 of the trefoil has signature
    (0, +2, 0, +2) at the fourth roots, zero integral, and vanishing Arf."""
    return FormalKnot.of(Atom(twist_matrix(1), 2, -1), Atom(twist_matrix(1), 4, 1))


def build_family(p: int, count: int, d_seed: int) -> KnotFamily:
    """Inductive family construction over orders d_seed, then minimal powers
    of p beyond threefold growth; deterministic for fixed inputs.  The whole
    order sequence is checked against MAX_FAMILY_ORDER before any search."""
    if not is_prime(p):
        raise InputError("p", f"{p} is not a prime")
    if count < 0:
        raise InputError("count", f"count must be nonnegative, got {count}")
    split = prime_power_split(d_seed)
    if split is None or split[0] != p:
        raise InputError("d_seed",
                         f"seed order {d_seed} is not a power of {p}")
    if d_seed < 4:
        raise InputError("d_seed", f"seed order must be >= 4, got {d_seed}")
    # The first knot's window is (2/d_seed, 1/3) pi, empty unless d_seed > 6;
    # only the d = 4 head at p = 2 is built without one.
    if count and d_seed <= 6 and not (p == 2 and d_seed == 4):
        raise InputError(
            "d_seed", f"seed order {d_seed} leaves the first knot no window "
                      f"(theta1 = 2/{d_seed} pi is not below theta0 = 1/3 pi)")

    orders = []
    d = d_seed
    while len(orders) < count:
        if d > MAX_FAMILY_ORDER:
            raise ResourceCapExceeded(
                f"family order {d} is over the cap {MAX_FAMILY_ORDER} on family orders")
        orders.append(d)
        d *= p if p > 3 else p * p  # the least power of p above 3 d

    entries = []
    prev = 2  # window seed: theta0 = 2 pi / (3 * 2) = pi/3 for the first knot
    for d in orders:
        if p == 2 and d == 4:
            knot = _head_knot()
        else:
            spec = BumpSpec(Fraction(2, 3 * prev), Fraction(2, d))
            knot = plan_bump(spec, d, 1, positivity=(p == 2)).knot
        value = sigma_details(knot, d, 1).value
        if value < 0:
            knot = -knot
        elif value == 0:
            raise BumpSearchError(
                f"constructed knot is invisible at its own target zeta_{d}")
        if arf(knot):
            knot = knot + knot
        entries.append(FamilyEntry(knot, d))
        prev = d
    return KnotFamily(p, tuple(entries))


def verify_family(family: KnotFamily) -> tuple:
    """Exhaustive audit of the family properties at all relevant roots: one
    check row per property, with its values.

    For every knot K_j the signature is evaluated at all d_i-th roots, i <= j,
    through both sigma paths (matrix and profile), each in one sweep of the
    order; the matrix values feed the positivity and vanishing checks, and
    the profile the integral.
    """
    checks = []
    for j, ej in enumerate(family.entries, 1):
        prof = signature_profile(ej.knot)
        for i, ei in enumerate(family.entries[:j], 1):
            values = sigma_many(ej.knot, ei.d, range(ei.d))
            dual_ok = all(v == pval and not at_jump for v, (pval, at_jump)
                          in zip(values, prof.evaluate_all(ei.d)))
            checks.append({"property": "dual_oracle_agreement", "i": i, "j": j,
                           "values": values, "ok": dual_ok})
            if i == j:
                checks.append({"property": "positive_at_seed_root", "i": i,
                               "j": j, "value": values[1], "ok": values[1] > 0})
                if family.p == 2:
                    checks.append({"property": "nonnegative_at_all_roots",
                                   "i": i, "j": j, "values": values,
                                   "ok": all(v >= 0 for v in values)})
            else:
                checks.append({"property": "vanishing_at_lower_roots", "i": i,
                               "j": j, "values": values,
                               "ok": all(v == 0 for v in values)})
        integral = prof.integral()
        checks.append({"property": "zero_integral", "j": j,
                       "value": integral.to_json(), "ok": integral.is_zero()})
        arf_value = arf(ej.knot)
        checks.append({"property": "vanishing_arf", "j": j, "value": arf_value,
                       "ok": arf_value == 0})
    return tuple(checks)
