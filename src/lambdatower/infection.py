"""Witt-valued invariants of string links obtained by infection.

A p-structure is a tower of covers together with a Z_d-valued edge cocycle on
the top level.  Infecting the trivial string link along a curve alpha with a
formal knot changes the invariant by a sum over the loop lifts of alpha: each
lift of covering degree r with cocycle value t contributes the class of the
r-block hermitian form at zeta_d^t minus its baseline at 1.  The trivial link
itself contributes nothing, so the sum is the whole invariant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .covers import (
    Character,
    Tower,
    alpha_word,
    character_f,
    free_reduce,
    lift_profile,
)
# Not called here: bench/test_bench.py checks that the benchmark tracer
# rebinds this name in every module that imports it.
from .covers import enumerate_lifts  # noqa: F401
from .cyclo import prime_power_split
from .seifert import FormalKnot, sigma
from .witt import (
    WittClass,
    embeddings,
    lambda_block,
    witt_add,
    witt_invariants,
    witt_neg,
    witt_zero,
)

__all__ = [
    "InfectedStringLink",
    "LambdaResult",
    "LiftContribution",
    "PStructure",
    "lambda_T",
    "lambda_T_sum",
    "signature_prediction",
    "tower_infection",
    "x_infection",
]


@dataclass(frozen=True)
class PStructure:
    """A tower with a Z_d-valued character on its top level.

    d must be a power of the same prime as the tower's deck order, and the
    character's modulus must be d.
    """

    tower: Tower
    theta: Character
    d: int

    def __post_init__(self):
        p, _ = prime_power_split(self.tower.q)
        split = prime_power_split(self.d)
        if split is None:
            raise ValueError(
                f"character order must be a prime power, got {self.d}")
        dp, _ = split
        if dp != p:
            raise ValueError(
                f"character order {self.d} is not a power of the deck prime {p}")
        if self.theta.modulus != self.d:
            raise ValueError(
                f"character modulus {self.theta.modulus} does not match order {self.d}")

    @staticmethod
    def canonical(tower: Tower, d: int) -> "PStructure":
        """The structure carried by the tower itself: its two-edge character
        reduced mod d."""
        return PStructure(tower, character_f(tower).reduce(d), d)

    def to_json(self) -> dict:
        return {"tower": {"m": self.tower.m, "n": self.tower.n, "q": self.tower.q},
                "d": self.d, "theta": self.theta.to_json()}


@dataclass(frozen=True)
class InfectedStringLink:
    """The result of infecting the trivial m-string link along a curve.

    The curve is a word in the free group on the m meridians; the infection
    ties the formal knot into every strand passing through it.
    """

    m: int
    infection_word: tuple
    knot: FormalKnot

    def __post_init__(self):
        word = free_reduce(self.infection_word)
        for gen, _ in word:
            if not (0 <= gen < self.m):
                raise ValueError(
                    f"infection word uses generator {gen}, but there are only "
                    f"{self.m} strands")
        object.__setattr__(self, "infection_word", word)

    def to_json(self) -> dict:
        return {"m": self.m,
                "infection_word": [list(l) for l in self.infection_word],
                "knot": self.knot.to_json()}

    @staticmethod
    def from_json(data) -> "InfectedStringLink":
        word = tuple((int(g), int(e)) for g, e in data["infection_word"])
        return InfectedStringLink(data["m"], word,
                                  FormalKnot.from_json(data["knot"]))


def x_infection(m: int, i: int, knot: FormalKnot) -> InfectedStringLink:
    """Infection along the i-th meridian itself: a local knot on strand i."""
    return InfectedStringLink(m, ((i, 1),), knot)


def tower_infection(m: int, n: int, knot: FormalKnot) -> InfectedStringLink:
    """Infection along the height-n commutator word on the first two strands."""
    return InfectedStringLink(m, alpha_word(n), knot)


@dataclass(frozen=True)
class LiftContribution:
    """One loop lift of the infection curve: covering degree, cocycle value,
    and the Witt class it contributes (None when the value is 0, which
    contributes nothing by construction)."""

    r: int
    theta_value: int
    witt: Optional[WittClass]

    @property
    def present(self) -> bool:
        return self.witt is not None

    def to_json(self) -> dict:
        return {"r": self.r, "theta_value": self.theta_value,
                "present": self.present,
                "witt": self.witt.to_json() if self.present else None}


@dataclass(frozen=True)
class LambdaResult:
    """Total Witt class with its per-lift breakdown.

    constant_c counts the lifts with nonzero cocycle value; the total equals
    the sum of the present contributions by construction.
    """

    witt: WittClass
    per_lift: tuple
    constant_c: int

    def to_json(self) -> dict:
        return {"witt": self.witt.to_json(),
                "per_lift": [row.to_json() for row in self.per_lift],
                "constant_c": self.constant_c}


def _atom_rows(atom) -> tuple:
    """Effective Seifert matrix of a signed atom: the mirror is the negated
    transpose."""
    rows = atom.matrix.rows
    if atom.sign == 1:
        return rows
    n = len(rows)
    return tuple(tuple(-rows[j][i] for j in range(n)) for i in range(n))


def _full_class(knot: FormalKnot, r: int, d: int, t: int) -> WittClass:
    total = witt_zero(d)
    for atom in knot.atoms:
        form = lambda_block(_atom_rows(atom), r, d, t)
        total = witt_add(total, witt_invariants(form))
    return total


def _partial_class(knot: FormalKnot, r: int, d: int, t: int) -> WittClass:
    """Signatures-only class of the r-block form at zeta_d^t, via the
    evaluation identity: its signature at embedding s is the sum of the knot
    signatures over the r-th roots of zeta_d^(t s)."""
    sigs = []
    for s in embeddings(d):
        value = sum(
            sigma(knot, r * d, (t * s + k * d) % (r * d)) for k in range(r))
        sigs.append((s, value))
    return WittClass(order=d, rank_mod_2=0, signatures=tuple(sigs), partial=True)


def _contribution(knot: FormalKnot, r: int, d: int, t: int,
                  full: bool) -> WittClass:
    if full:
        at_root = _full_class(knot, r, d, t)
        baseline = _full_class(knot, r, d, 0)
    else:
        at_root = _partial_class(knot, r, d, t)
        baseline = _partial_class(knot, r, d, 0)
    return witt_add(at_root, witt_neg(baseline))


def lambda_T(structure: PStructure, link: InfectedStringLink,
             disc: Optional[bool] = None) -> LambdaResult:
    """The invariant of an infected string link under a p-structure.

    Lifts of the infection curve are enumerated on the top cover; a lift of
    degree r with cocycle value t contributes the class of the r-block form at
    zeta_d^t minus the baseline at 1, and lifts with t = 0 contribute exactly
    nothing.  With disc=None the result carries discriminant data when every
    atom of the knot has cable parameter 1 and falls back to signatures only
    otherwise; disc=True insists on discriminant data and rejects cabled
    atoms, disc=False always restricts to signatures.
    """
    if link.m != structure.tower.m:
        raise ValueError(
            f"link has {link.m} strands but the tower covers a wedge of "
            f"{structure.tower.m} circles")
    cabled = any(atom.cable != 1 for atom in link.knot.atoms)
    if disc is None:
        full = not cabled
    elif disc and cabled:
        raise ValueError(
            "discriminant-level output needs explicit Seifert matrices, but "
            "the knot has an atom with cable parameter > 1")
    else:
        full = disc
    d = structure.d
    _, _, degrees, values = lift_profile(
        structure.tower.top, link.infection_word, structure.theta)
    contributions = {}  # (r, t) -> its LiftContribution, evaluated once
    rows = []
    total = witt_zero(d)
    for r, t in zip(degrees.tolist(), values.tolist()):
        row = contributions.get((r, t))
        if row is None:
            witt = _contribution(link.knot, r, d, t, full) if t else None
            row = contributions[(r, t)] = LiftContribution(r, t, witt)
        rows.append(row)
        if row.present:
            total = witt_add(total, row.witt)
    constant_c = sum(1 for row in rows if row.theta_value)
    return LambdaResult(total, tuple(rows), constant_c)


def lambda_T_sum(structure: PStructure,
                 links: Sequence[tuple],
                 disc: Optional[bool] = None) -> LambdaResult:
    """Integer-weighted sum of invariants under one structure.

    Each entry is (coefficient, link).  The per-lift table repeats each
    contribution |coefficient| times, negated for negative coefficients, so
    the total is still literally the sum of its rows.  constant_c is reported
    when all summands agree on it and as 0 for mixed sums.
    """
    rows = []
    total = witt_zero(structure.d)
    counts = set()
    for coefficient, link in links:
        result = lambda_T(structure, link, disc=disc)
        counts.add(result.constant_c)
        if coefficient == 0:
            continue
        for _ in range(abs(coefficient)):
            for row in result.per_lift:
                if not row.present:
                    rows.append(row)
                    continue
                witt = row.witt if coefficient > 0 else witt_neg(row.witt)
                rows.append(LiftContribution(row.r, row.theta_value, witt))
                total = witt_add(total, witt)
    constant_c = counts.pop() if len(counts) == 1 else 0
    return LambdaResult(total, tuple(rows), constant_c)


def signature_prediction(structure: PStructure, link: InfectedStringLink,
                         s: int = 1) -> int:
    """Signature of the invariant re-derived from knot signatures alone.

    Walks the same lifts, but evaluates every contribution as a sum of
    Levine-Tristram signatures of the knot at the r-th roots of zeta_d^(t s),
    minus the baseline sum at the r-th roots of unity; no hermitian forms are
    built.
    """
    if link.m != structure.tower.m:
        raise ValueError(
            f"link has {link.m} strands but the tower covers a wedge of "
            f"{structure.tower.m} circles")
    d = structure.d
    knot = link.knot
    _, _, degrees, values = lift_profile(
        structure.tower.top, link.infection_word, structure.theta)
    total = 0
    nonzero = values != 0
    for r, t in zip(degrees[nonzero].tolist(), values[nonzero].tolist()):
        for k in range(r):
            total += sigma(knot, r * d, (t * s + k * d) % (r * d))
            total -= sigma(knot, r, k % r)
    return total
