"""Reproduction certificates for the driver computations.

A certificate is a self-contained JSON record: echoed inputs, an evaluation
table embedding every computed number, a list of property checks with their
values, and the verdict they imply. Re-running a certificate's echoed inputs
reproduces the table bit-for-bit; the content hash covers everything except
the timestamp, so byte-level determinism is checkable.
"""

import hashlib
import json
from dataclasses import KW_ONLY, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .cyclo import InputError, is_prime, prime_power_split
from .covers import (
    DEFAULT_CAP_EDGES,
    audit_tower,
    build_tower,
    derived_programs,
    verify_lift_behaviour,
)
from .infection import (
    PStructure,
    lambda_T,
    signature_prediction,
    tower_infection,
)
from .knotforge import BumpSearchError, KnotFamily, build_family, verify_family
from .seifert import sigma, sigma_many, signature_profile
from .witt import HermitianForm, hilbert_symbol, witt_invariants

__all__ = [
    "CERTIFICATE_KINDS",
    "Certificate",
    "default_family",
    "family_certificate",
    "independence_certificate",
    "z2_certificate",
    "tower_certificate",
]

CERTIFICATE_KINDS = (
    "family",
    "independence-Z",
    "independence-Z2",
    "tower-audit",
)

def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class Certificate:
    """Deterministic record of one driver run.

    Every driver is deterministic, so the record's seed is always null; it
    and the package version are written as constants of the content.
    """

    kind: str
    inputs: dict
    table: tuple
    checks: tuple
    _: KW_ONLY  # a fifth positional argument, such as a verdict, is refused
    data: dict = field(default_factory=dict)
    timestamp: str = field(default_factory=_now)

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    @property
    def verdict(self) -> str:
        """PASS exactly when every check holds."""
        return "PASS" if all(c["ok"] for c in self.checks) else "FAIL"

    def content(self) -> dict:
        """Everything the hash covers; the timestamp is deliberately left out."""
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "data": self.data,
            "table": list(self.table),
            "checks": list(self.checks),
            "verdict": self.verdict,
            "seed": None,
            "version": __version__,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.content(), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=False).encode("utf-8")

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_json(self) -> dict:
        out = self.content()
        out["timestamp"] = self.timestamp
        out["content_hash"] = self.content_hash()
        return out


# ---------------------------------------------------------------------------
# Family reproduction.


def family_certificate(p: int, count: int, d_seed: int) -> Certificate:
    """Build the knot family and audit it exhaustively.

    The table holds one row per (knot, root of unity) pair over all family
    orders, so it has count * sum(d_i) rows; each row carries both signature
    evaluations. Search exhaustion yields a FAIL certificate rather than an
    exception; genuinely malformed inputs still raise.
    """
    inputs = {"p": p, "count": count, "d_seed": d_seed}
    try:
        family = build_family(p, count, d_seed)
    except BumpSearchError as exc:
        checks = ({"property": "family_search", "ok": False, "detail": str(exc)},)
        return Certificate("family", inputs, (), checks)
    checks = list(verify_family(family))
    table = []
    for j, ej in enumerate(family.entries, 1):
        profile = signature_profile(ej.knot)
        for ei in family.entries:
            values = sigma_many(ej.knot, ei.d, range(ei.d))
            for s, (value, (pval, at_jump)) in enumerate(
                    zip(values, profile.evaluate_all(ei.d))):
                table.append({"knot": j, "d": ei.d, "s": s,
                              "sigma": value, "profile": pval,
                              "agree": value == pval and not at_jump})
    checks.append({"property": "table_dual_oracle",
                   "ok": all(row["agree"] for row in table)})
    return Certificate("family", inputs, tuple(table), tuple(checks),
                       data={"family": family.to_json()})


# ---------------------------------------------------------------------------
# Independence over the integers.


def _deck_prime(q: int) -> int:
    split = prime_power_split(q)
    if split is None or q < 3:
        raise InputError("q", f"q must be a prime power > 2, got {q}")
    return split[0]


def default_family(q: int) -> KnotFamily:
    """The three-knot family certified against towers of deck order q: seed
    order q, or p^2 when q = p is too small for a window."""
    p = _deck_prime(q)
    return build_family(p, 3, q if q >= 4 else p * p)


def independence_certificate(m: int, n: int, q: int,
                             family: Optional[KnotFamily] = None,
                             cap_edges: int = DEFAULT_CAP_EDGES) -> Certificate:
    """Evaluate the triangular sign matrix S[i][j] = sign of the invariant of
    the j-th infected link under the i-th structure.

    Verifies strict triangularity, nonzero diagonal factoring as c times the
    knot's own signature, the constancy of c across orders together with an
    independent lift recount, a signature-sum re-derivation of every entry,
    and, at p = 2, nonnegativity of each diagonal knot's signatures at all of
    its own roots.
    """
    p = _deck_prime(q)
    if family is None:
        family = default_family(q)
    if family.p != p:
        raise InputError(
            "family", f"family prime {family.p} does not match tower prime {p}")
    inputs = {"m": m, "n": n, "q": q, "family": family.to_json()}
    tower = build_tower(m, n, q, cap_edges=cap_edges)
    checks = [{"property": "family_verified",
               "ok": all(c["ok"] for c in verify_family(family))}]

    alpha = derived_programs(n)[0]
    structures = [PStructure.canonical(tower, e.d) for e in family.entries]
    table = []
    signs = []
    c_values = []
    for i, structure in enumerate(structures, 1):
        row = []
        row_c = None
        lifts = structure.lifts(alpha)
        for j, entry in enumerate(family.entries, 1):
            link = tower_infection(m, n, entry.knot)  # its program is alpha
            result = lambda_T(structure, link, lifts=lifts)
            prediction = signature_prediction(structure, link, lifts=lifts)
            theta_values = sorted(r.theta_value for r in result.per_lift
                                  if r.theta_value)
            table.append({"i": i, "j": j, "d": structure.d,
                          "sign": result.witt.sign, "c": result.constant_c,
                          "prediction": prediction,
                          "theta_values": theta_values,
                          "agree": result.witt.sign == prediction})
            row.append(result.witt.sign)
            row_c = result.constant_c
        signs.append(row)
        c_values.append(row_c)

    size = len(family.entries)
    triangular = all(signs[i][j] == 0 for i in range(size)
                     for j in range(i + 1, size))
    checks.append({"property": "strictly_triangular", "ok": triangular})
    diagonal = [signs[i][i] for i in range(size)]
    checks.append({"property": "diagonal_nonzero", "values": diagonal,
                   "ok": all(v != 0 for v in diagonal)})
    factor_rows = []
    for i, entry in enumerate(family.entries):
        seed_sigma = sigma(entry.knot, entry.d, 1)
        factor_rows.append({"i": i + 1, "c": c_values[i],
                            "sigma": seed_sigma,
                            "ok": diagonal[i] == c_values[i] * seed_sigma})
    checks.append({"property": "diagonal_factorization", "rows": factor_rows,
                   "ok": all(r["ok"] for r in factor_rows)})
    checks.append({"property": "c_independent_of_order", "values": c_values,
                   "ok": len(set(c_values)) <= 1})
    recounts = [int((s.lifts(alpha)[3] != 0).sum()) for s in structures]
    checks.append({"property": "c_matches_lift_count", "values": recounts,
                   "ok": recounts == c_values})
    checks.append({"property": "sigma_sum_rederivation",
                   "ok": all(row["agree"] for row in table)})
    if p == 2:
        coherence = []
        for i, entry in enumerate(family.entries, 1):
            values = sigma_many(entry.knot, entry.d, range(entry.d))
            coherence.append({"i": i, "values": values,
                              "ok": all(v >= 0 for v in values)})
        checks.append({"property": "sign_coherence", "rows": coherence,
                       "ok": all(r["ok"] for r in coherence)})

    return Certificate("independence-Z", inputs, tuple(table), tuple(checks),
                       data={"matrix": signs, "c": c_values})


# ---------------------------------------------------------------------------
# The mod-2 norm-residue pattern.


def z2_certificate(primes: Sequence[int] = (3, 7, 11, 19)) -> Certificate:
    """Norm-residue symbol matrix (dis w_i, -1) at each dual prime.

    The forms w_i are the rank-one classes <p_i> over the fourth cyclotomic
    field; the expected pattern is -1 on the diagonal and +1 elsewhere.
    """
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"dual primes must be prime, got {p}")
    if len(set(primes)) != len(primes):
        raise ValueError(f"dual primes must be distinct, got {primes}")
    forms = [witt_invariants(HermitianForm.from_rows(4, [[Fraction(p)]]))
             for p in primes]
    inputs = {"primes": list(primes)}
    discs = [w.disc_class.representative() for w in forms]
    table = []
    for i, x in enumerate(discs, 1):
        for j, p in enumerate(primes, 1):
            symbol = hilbert_symbol(x, Fraction(-1), p)
            expected = -1 if i == j else 1
            table.append({"i": i, "j": j, "dual_prime": p,
                          "dis": [x.numerator, x.denominator],
                          "symbol": symbol, "expected": expected,
                          "ok": symbol == expected})
    checks = ({"property": "diagonal_minus_one",
               "ok": all(r["ok"] for r in table if r["i"] == r["j"])},
              {"property": "off_diagonal_plus_one",
               "ok": all(r["ok"] for r in table if r["i"] != r["j"])})
    matrix = [[r["symbol"] for r in table if r["i"] == i + 1]
              for i in range(len(discs))]
    return Certificate("independence-Z2", inputs, tuple(table), checks,
                       data={"matrix": matrix,
                             "forms": [w.to_json() for w in forms]})


# ---------------------------------------------------------------------------
# Tower audits.


def tower_certificate(m: int, n: int, q: int,
                      cap_edges: int = DEFAULT_CAP_EDGES) -> Certificate:
    """Covering, connectivity, Betti identity, and collapse normal forms at
    every admissible level."""
    inputs = {"m": m, "n": n, "q": q}
    tower = build_tower(m, n, q, cap_edges=cap_edges)
    checks = list(audit_tower(tower))
    betti = {c["level"]: c["value"] for c in checks
             if c["check"] == "betti_audit"}
    table = []
    for k, graph in enumerate(tower.levels):
        table.append({"level": k, "size": graph.size,
                      "edges": graph.edge_count(), "betti1": betti[k]})
    for k in range(n):
        report = verify_lift_behaviour(tower, k)
        checks.append({"check": "lift_behaviour", "level": k,
                       "checked": report.checked,
                       "mismatches": len(report.mismatches),
                       "ok": report.passed})
    return Certificate("tower-audit", inputs, tuple(table), tuple(checks))
