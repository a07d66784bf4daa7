"""Witt-valued invariants of string links obtained by infection.

A p-structure is a tower of covers together with a Z_d-valued edge cocycle on
the top level.  Infecting the trivial string link along a curve alpha with a
formal knot changes the invariant by a sum over the loop lifts of alpha: each
lift of covering degree r with cocycle value t contributes the class of the
r-block hermitian form at zeta_d^t minus its baseline at 1.  The trivial link
itself contributes nothing, so the sum is the whole invariant.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .covers import (
    Character,
    Program,
    Tower,
    alpha_word,
    character_f,
    derived_programs,
    free_reduce,
    lift_profile,
)
# Not called here: bench/test_bench.py checks that the benchmark tracer
# rebinds this name in every module that imports it.
from .covers import enumerate_lifts  # noqa: F401
from .cyclo import InputError, prime_power_split
from .seifert import FormalKnot, sigma, sigma_many
from .witt import (
    WittClass,
    block_invariants,
    embeddings,
    witt_add,
    witt_neg,
    witt_zero,
)

__all__ = [
    "InfectedStringLink",
    "JoinedRows",
    "LambdaResult",
    "LiftContribution",
    "PStructure",
    "lambda_T",
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


@dataclass(frozen=True)
class InfectedStringLink:
    """The result of infecting the trivial m-string link along a curve.

    The curve is a word in the free group on the m meridians; the infection
    ties the formal knot into every strand passing through it.  program, a
    straight-line program that spells the word, is what the lifts walk; by
    default it is the word itself.
    """

    m: int
    infection_word: tuple
    knot: FormalKnot
    program: Optional[Program] = field(default=None, compare=False)

    def __post_init__(self):
        word = free_reduce(self.infection_word)
        for gen, _ in word:
            if not (0 <= gen < self.m):
                raise ValueError(
                    f"infection word uses generator {gen}, but there are only "
                    f"{self.m} strands")
        object.__setattr__(self, "infection_word", word)
        if self.program is None:
            object.__setattr__(self, "program", Program.word(word))


def x_infection(m: int, i: int, knot: FormalKnot) -> InfectedStringLink:
    """Infection along the i-th meridian itself: a local knot on strand i."""
    return InfectedStringLink(m, ((i, 1),), knot)


def tower_infection(m: int, n: int, knot: FormalKnot) -> InfectedStringLink:
    """Infection along the height-n commutator word on the first two strands."""
    return InfectedStringLink(m, alpha_word(n), knot, derived_programs(n)[0])


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


class JoinedRows(list):
    """A table whose rows repeat: row i is distinct[index[i]].  It is the
    list of those rows, and the command line's JSON writer renders each
    distinct row once and writes the table as joins over index."""

    def __init__(self, distinct: list, index: Sequence[int]):
        super().__init__(map(distinct.__getitem__, index))
        self.distinct = distinct
        self.index = index


@dataclass(frozen=True, eq=False)
class LambdaResult:
    """Total Witt class with its per-lift breakdown.

    contributions holds one LiftContribution per distinct (r, t) pair and
    lift_group, a read-only integer array with one entry per lift, the
    position of its contribution there; per_lift spells the rows out.  The
    index is kept as an array: as a tuple of ints it kept 1.8 MB more
    resident through the emission of a 65,536-lift table.  constant_c
    counts the lifts with nonzero cocycle value; the total equals the sum
    of the present contributions by construction.  Results compare by
    identity.
    """

    witt: WittClass
    contributions: tuple
    lift_group: np.ndarray
    constant_c: int

    @property
    def per_lift(self) -> tuple:
        return tuple(map(self.contributions.__getitem__,
                         self.lift_group.tolist()))

    def to_json(self) -> dict:
        rows = [row.to_json() for row in self.contributions]
        return {"witt": self.witt.to_json(),
                "per_lift": JoinedRows(rows, self.lift_group.tolist()),
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
        total = witt_add(total, block_invariants(_atom_rows(atom), r, d, t))
    return total


def _partial_class(knot: FormalKnot, r: int, d: int, t: int) -> WittClass:
    """Signatures-only class of the r-block form at zeta_d^t, via the
    evaluation identity: its signature at embedding s is the sum of the knot
    signatures over the r-th roots of zeta_d^(t s)."""
    ss = embeddings(d)
    values = sigma_many(knot, r * d, [(t * s + k * d) % (r * d)
                                      for s in ss for k in range(r)])
    sigs = tuple((s, sum(values[i * r:(i + 1) * r])) for i, s in enumerate(ss))
    return WittClass(order=d, rank_mod_2=0, signatures=sigs, partial=True)


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
             disc: Optional[bool] = None, lifts: Optional[tuple] = None
             ) -> LambdaResult:
    """The invariant of an infected string link under a p-structure.

    Lifts of the infection curve are enumerated on the top cover; a lift of
    degree r with cocycle value t contributes the class of the r-block form at
    zeta_d^t minus the baseline at 1, and lifts with t = 0 contribute exactly
    nothing.  With disc=None the result carries discriminant data when every
    atom of the knot has cable parameter 1 and falls back to signatures only
    otherwise; disc=True insists on discriminant data and rejects cabled
    atoms, disc=False always restricts to signatures.  lifts, when given, is
    the lift_profile of link.program under structure.theta on the top level.
    """
    if link.m != structure.tower.m:
        raise ValueError(
            f"link has {link.m} strands but the tower covers a wedge of "
            f"{structure.tower.m} circles")
    cabled = any(atom.cable != 1 for atom in link.knot.atoms)
    if disc is None:
        full = not cabled
    elif disc and cabled:
        raise InputError(
            "disc", "discriminant-level output needs explicit Seifert "
            "matrices, but the knot has an atom with cable parameter > 1")
    else:
        full = disc
    d = structure.d
    _, _, degrees, values = lifts or lift_profile(
        structure.tower.top, link.program, structure.theta,
        work_cap=structure.tower.work_cap)
    # Lifts grouped by (r, t); each pair is evaluated once, in the order of
    # its first lift, so any cap error is the one a lift-order walk meets.
    _, first, group = np.unique(degrees * d + values, return_index=True,
                                return_inverse=True)
    by_group = [None] * first.size
    for g in np.argsort(first).tolist():
        r, t = int(degrees[first[g]]), int(values[first[g]])
        witt = _contribution(link.knot, r, d, t, full) if t else None
        by_group[g] = LiftContribution(r, t, witt)
    total = None  # an empty sum is the zero class, built at the end
    for g in group[values != 0].tolist():
        witt = by_group[g].witt
        total = witt if total is None else witt_add(total, witt)
    constant_c = int(np.count_nonzero(values))
    if total is None and disc is False:  # no Q(zeta_d) element is built
        total = WittClass(order=d, rank_mod_2=0, partial=True,
                          signatures=tuple((s, 0) for s in embeddings(d)))
    elif total is None:
        total = witt_zero(d)
    group.flags.writeable = False
    return LambdaResult(total, tuple(by_group), group, constant_c)


def signature_prediction(structure: PStructure, link: InfectedStringLink,
                         s: int = 1, lifts: Optional[tuple] = None) -> int:
    """Signature of the invariant re-derived from knot signatures alone.

    Walks the same lifts, but evaluates every contribution as a sum of
    Levine-Tristram signatures of the knot at the r-th roots of zeta_d^(t s),
    minus the baseline sum at the r-th roots of unity; no hermitian forms are
    built.  lifts, when given, is as in lambda_T.
    """
    if link.m != structure.tower.m:
        raise ValueError(
            f"link has {link.m} strands but the tower covers a wedge of "
            f"{structure.tower.m} circles")
    d = structure.d
    knot = link.knot
    _, _, degrees, values = lifts or lift_profile(
        structure.tower.top, link.program, structure.theta,
        work_cap=structure.tower.work_cap)
    total = 0
    nonzero = values != 0
    for r, t in zip(degrees[nonzero].tolist(), values[nonzero].tolist()):
        for k in range(r):
            total += sigma(knot, r * d, (t * s + k * d) % (r * d))
            total -= sigma(knot, r, k % r)
    return total
