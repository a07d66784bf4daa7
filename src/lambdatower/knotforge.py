"""Constructive search for bump knots and signature-independent knot families.

A bump knot concentrates its signature function near a chosen angle: a band
J = twist(n-1) # -twist(n) between two adjacent twist-family jump angles is
combined with the mirrored (2,1)-cable K = J # -cable_2(J), which kills the
signature integral while keeping support inside the window orbit.  Families
are built inductively over a sequence of prime powers d_i with windows chosen
so that the i-th knot is invisible at all d_j-th roots of unity for j < i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cyclo import prime_power_split
from .seifert import (
    Atom,
    FormalKnot,
    arf,
    integral_sigma,
    sigma_details,
    signature_profile,
    twist_knot,
    twist_matrix,
    _twist_cmp,
)

__all__ = [
    "BumpPlan",
    "BumpSearchError",
    "BumpSpec",
    "CertificateReport",
    "FamilyEntry",
    "FamilyInputError",
    "KnotFamily",
    "build_family",
    "make_bump",
    "plan_bump",
    "verify_family",
    "window_audit",
]


class BumpSearchError(ValueError):
    """No admissible twist band exists within the searched lattice."""


class FamilyInputError(ValueError):
    """An argument of build_family is out of range; name is the parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


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


def _fold_turns(d: int, s: int) -> Fraction:
    u = Fraction(s % d, d)
    return 1 - u if 2 * u > 1 else u


def _twist_bracket(tau: Fraction, n_max: int) -> Optional[int]:
    """Least n in [2, n_max] with t_n < tau, for 0 < tau < 1/6, else None.

    t_n = arccos(1 - 1/(2n)) / (2 pi) strictly decreases in n, and t_n < tau
    exactly when n > 1/(2(1 - cos(2 pi tau))) = 1/(4 sin(pi tau)^2).  The
    float estimate of that bound is corrected by certified comparisons at its
    neighbours, so the result is exact whatever the rounding error.
    """
    half = math.sin(math.pi * tau)
    bound = 1 / (4 * half * half) if half else math.inf
    m = max(2, math.floor(min(bound, n_max)) + 1)
    while m > 2 and _twist_cmp(m - 1, tau) < 0:
        m -= 1
    while m <= n_max and _twist_cmp(m, tau) >= 0:
        m += 1
    return m if m <= n_max else None


def plan_bump(spec: BumpSpec, d: int, s: int, positivity: bool = False,
              n_max: int = 64) -> BumpPlan:
    """Search the twist lattice for a band realizing a bump at zeta_d^s.

    The band (t_n, t_{n-1}) between adjacent twist jump angles must contain
    the target, fit in the window together with its half-angle image, and stay
    within a third of the target angle on each side (so that the squared
    target stays clear).  With positivity requested, the band must also avoid
    every even-index d-th root, which makes the signature nonnegative at all
    d-th roots of unity.
    """
    w_lo, w_hi = spec.window_turns()
    tau = _fold_turns(d, s)
    if not (w_lo < tau < w_hi):
        raise ValueError(
            f"target argument {tau} turns lies outside the open window "
            f"({w_lo}, {w_hi})")
    s_folded = (d - s % d) % d if 2 * (s % d) > d else s % d
    if positivity:
        if d % 2:
            raise BumpSearchError(
                f"positivity at all roots needs even order, got d = {d}")
        if s_folded % 2 == 0:
            raise BumpSearchError(
                f"positivity is impossible: zeta_{d}^{s} is an even-index "
                f"root, which itself lies under a negative half-angle arc")

    if _twist_cmp(1, tau) <= 0:
        raise BumpSearchError(
            f"no twist jump angle exceeds the target {tau} turns "
            f"(largest is arccos(1/2)/2pi = 1/6); tried n = 1..{n_max}")
    m = _twist_bracket(tau, n_max)
    if m is None:
        raise BumpSearchError(
            f"no adjacent twist pair brackets the target {tau} turns within "
            f"n <= {n_max}; raise the n_max bound")

    lo = max(2 * w_lo, 2 * tau / 3)
    hi = min(w_hi, 4 * tau / 3)
    if positivity:
        lo = max(lo, Fraction(s_folded - 1, d))
        hi = min(hi, Fraction(s_folded + 1, d))
    if _twist_cmp(m, lo) < 0:
        raise BumpSearchError(
            f"band lower edge (twist {m}) falls below the constraint {lo} "
            f"turns for target {tau}; no admissible band in n <= {n_max}")
    if _twist_cmp(m - 1, hi) > 0:
        raise BumpSearchError(
            f"band upper edge (twist {m - 1}) exceeds the constraint {hi} "
            f"turns for target {tau}; no admissible band in n <= {n_max}")

    j = twist_knot(m - 1) - twist_knot(m)
    knot = j - j.cable(2)
    epsilon = min(tau / 3, w_hi - tau)
    return BumpPlan(spec, d, s, tau, m, epsilon, knot)


def make_bump(spec: BumpSpec, d: int, s: int, positivity: bool = False,
              n_max: int = 64) -> FormalKnot:
    return plan_bump(spec, d, s, positivity, n_max).knot


def window_audit(knot: FormalKnot, spec: BumpSpec) -> tuple:
    """Jumps of the knot's profile outside the closed window orbit.

    The orbit of the closed window [a, b] (in turns) under conjugation and
    negation is [a, b], [1/2 - b, 1/2 - a] and their mirrors; a jump at a
    window endpoint counts as inside.  Returns the offending jumps.
    """
    a, b = spec.window_turns()
    bad = []
    for jump in signature_profile(knot).jumps:
        folded_arcs = ((a, b), (Fraction(1, 2) - b, Fraction(1, 2) - a))
        ok = False
        for lo, hi in folded_arcs:
            for arc_lo, arc_hi in ((lo, hi), (1 - hi, 1 - lo)):
                if jump.compare_to_turn(arc_lo) >= 0 and \
                        jump.compare_to_turn(arc_hi) <= 0:
                    ok = True
        if not ok:
            bad.append(jump)
    return tuple(bad)


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
        return KnotFamily(data["p"], tuple(
            FamilyEntry(FormalKnot.from_json(e["knot"]), e["d"])
            for e in data["entries"]))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


def _head_knot() -> FormalKnot:
    """The d = 4 head: the window recipe degenerates there (theta1 would be
    pi/2 > theta0 = pi/3), but -cable_2 # cable_4 of the trefoil has signature
    (0, +2, 0, +2) at the fourth roots, zero integral, and vanishing Arf."""
    return FormalKnot.of(Atom(twist_matrix(1), 2, -1), Atom(twist_matrix(1), 4, 1))


def build_family(p: int, count: int, d_seed: int, n_max: int = 64) -> KnotFamily:
    """Inductive family construction over orders d_seed, then minimal powers
    of p beyond threefold growth; deterministic for fixed inputs."""
    if not _is_prime(p):
        raise FamilyInputError("p", f"{p} is not a prime")
    if count < 0:
        raise FamilyInputError("count", f"count must be nonnegative, got {count}")
    split = prime_power_split(d_seed)
    if split is None or split[0] != p:
        raise FamilyInputError("d_seed",
                               f"seed order {d_seed} is not a power of {p}")
    if d_seed < 4:
        raise FamilyInputError("d_seed", f"seed order must be >= 4, got {d_seed}")
    # The first knot's window is (2/d_seed, 1/3) pi, empty unless d_seed > 6;
    # only the d = 4 head at p = 2 is built without one.
    if count and d_seed <= 6 and not (p == 2 and d_seed == 4):
        raise FamilyInputError(
            "d_seed", f"seed order {d_seed} leaves the first knot no window "
                      f"(theta1 = 2/{d_seed} pi is not below theta0 = 1/3 pi)")

    entries = []
    prev = 2  # window seed: theta0 = 2 pi / (3 * 2) = pi/3 for the first knot
    d = d_seed
    for _ in range(count):
        if p == 2 and d == 4:
            knot = _head_knot()
        else:
            spec = BumpSpec(Fraction(2, 3 * prev), Fraction(2, d))
            effective = max(n_max, d * d // 25 + 8)
            knot = make_bump(spec, d, 1, positivity=(p == 2), n_max=effective)
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
        step = p
        while step <= 3 * d:
            step *= p
        d = step
    return KnotFamily(p, tuple(entries))


@dataclass(frozen=True)
class CertificateReport:
    """Machine-readable audit: one row per checked property, with values."""

    passed: bool
    checks: tuple

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [dict(c) for c in self.checks]}


def verify_family(family: KnotFamily) -> CertificateReport:
    """Exhaustive audit of the family properties at all relevant roots.

    For every knot K_j the signature is evaluated at all d_i-th roots, i <= j,
    through both sigma paths (matrix and profile); the values feed the
    positivity, vanishing, integral, and Arf checks.
    """
    checks = []
    for j, ej in enumerate(family.entries, 1):
        prof = signature_profile(ej.knot)
        for i, ei in enumerate(family.entries[:j], 1):
            values = []
            dual_ok = True
            for s in range(ei.d):
                ev = sigma_details(ej.knot, ei.d, s)
                pval, at_jump = prof.evaluate(Fraction(s, ei.d))
                if ev.value != pval or at_jump:
                    dual_ok = False
                values.append(ev.value)
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
        integral = integral_sigma(ej.knot)
        checks.append({"property": "zero_integral", "j": j,
                       "value": integral.to_json(), "ok": integral.is_zero()})
        arf_value = arf(ej.knot)
        checks.append({"property": "vanishing_arf", "j": j, "value": arf_value,
                       "ok": arf_value == 0})
    return CertificateReport(all(c["ok"] for c in checks), tuple(checks))
