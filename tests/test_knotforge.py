"""Tests for the bump-knot search and family construction."""
import json
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from lambdatower import knotforge
from lambdatower.cyclo import ResourceCapExceeded
from lambdatower.knotforge import (
    BumpPlan,
    BumpSearchError,
    BumpSpec,
    FamilyEntry,
    KnotFamily,
    MAX_FAMILY_ORDER,
    _twist_bracket,
    build_family,
    plan_bump,
    verify_family,
)
from lambdatower.seifert import (
    arf,
    sigma,
    sigma_details,
    signature_profile,
    twist_cmp,
    twist_knot,
    twist_parameter,
)


def atom_shapes(knot):
    return [(twist_parameter(a.matrix), a.cable, a.sign) for a in knot.atoms]


def window_audit(knot, spec):
    """Jumps of the knot's profile outside the closed window orbit.

    The orbit of the closed window [a, b] (in turns) under conjugation and
    negation is [a, b], [1/2 - b, 1/2 - a] and their mirrors; a jump at a
    window endpoint counts as inside.  Returns the offending jumps.
    """
    a, b = spec.window_turns()
    folded_arcs = ((a, b), (Fraction(1, 2) - b, Fraction(1, 2) - a))
    bad = []
    for jump in signature_profile(knot).jumps:
        if not any(jump.compare_to_turn(arc_lo) >= 0
                   and jump.compare_to_turn(arc_hi) <= 0
                   for lo, hi in folded_arcs
                   for arc_lo, arc_hi in ((lo, hi), (1 - hi, 1 - lo))):
            bad.append(jump)
    return tuple(bad)


class TestBumpSpec:
    def test_window_turns(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        assert spec.window_turns() == (Fraction(1, 24), Fraction(1, 6))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            BumpSpec(Fraction(1, 4), Fraction(1, 3))

    def test_rejects_wide_angle(self):
        with pytest.raises(ValueError):
            BumpSpec(Fraction(2, 3), Fraction(1, 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BumpSpec(Fraction(1, 3), Fraction(0))


class TestMakeBump:
    # Window (pi/12, pi/3) around the eighth root of unity: the band between
    # the twist-1 and twist-2 jump angles (1/6 and arccos(3/4)/2pi turns)
    # brackets 1/8 and touches the upper window edge exactly.
    def test_eighth_root_plan(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        plan = plan_bump(spec, 8, 1)
        assert plan.n == 2
        assert plan.tau == Fraction(1, 8)
        assert plan.epsilon == Fraction(1, 24)
        assert atom_shapes(plan.knot) == [
            (1, 1, 1), (2, 1, -1), (1, 2, -1), (2, 2, 1)]

    def test_eighth_root_signature_table(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        knot = plan_bump(spec, 8, 1).knot
        assert [sigma(knot, 8, s) for s in range(8)] == [0, 2, 0, 0, 0, 0, 0, 2]

    def test_eighth_root_integral_vanishes(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        knot = plan_bump(spec, 8, 1).knot
        assert signature_profile(knot).integral().is_zero()

    def test_support_stays_in_window_orbit(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        knot = plan_bump(spec, 8, 1).knot
        assert window_audit(knot, spec) == ()

    def test_epsilon_chain(self):
        # The rational certificate epsilon satisfies the window chain
        # tau/3 <= tau/2 - eps/2 < tau + eps <= theta0 (in turns) and the
        # band lies inside [tau - eps, tau + eps].
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        plan = plan_bump(spec, 8, 1)
        tau, eps = plan.tau, plan.epsilon
        assert tau / 3 <= tau / 2 - eps / 2 < tau + eps <= spec.window_turns()[1]
        assert twist_cmp(plan.n, tau - eps) >= 0
        assert twist_cmp(plan.n - 1, tau + eps) <= 0

    def test_positivity_flag_keeps_nonnegative_values(self):
        spec = BumpSpec(Fraction(1, 6), Fraction(1, 8))
        knot = plan_bump(spec, 16, 1, positivity=True).knot
        values = [sigma(knot, 16, s) for s in range(16)]
        assert min(values) == 0
        assert values[1] == 2

    def test_target_outside_window(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        with pytest.raises(ValueError, match="window"):
            plan_bump(spec, 3, 1)

    def test_band_above_window_rejected(self):
        # Window upper edge 3pi/20 sits below the twist-1 jump angle pi/3,
        # so the unique band bracketing 1/8 cannot fit.
        spec = BumpSpec(Fraction(3, 10), Fraction(1, 4))
        with pytest.raises(BumpSearchError, match="upper edge"):
            plan_bump(spec, 8, 1)

    def test_positivity_rejects_even_index_target(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        with pytest.raises(BumpSearchError, match="even-index"):
            plan_bump(spec, 16, 2, positivity=True)

    def test_positivity_rejects_odd_order(self):
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        with pytest.raises(BumpSearchError, match="even order"):
            plan_bump(spec, 9, 1, positivity=True)

    def test_target_at_sixth_turn_has_no_band(self):
        # 1/6 is the largest twist jump angle, so nothing brackets it.
        spec = BumpSpec(Fraction(5, 12), Fraction(1, 4))
        with pytest.raises(BumpSearchError, match="1/6"):
            plan_bump(spec, 6, 1)

    def test_deterministic(self):
        spec = BumpSpec(Fraction(1, 6), Fraction(1, 8))
        assert plan_bump(spec, 16, 1).knot == plan_bump(spec, 16, 1).knot


def scan_brackets(targets):
    """The linear scan plan_bump ran before its closed form: for each target
    tau, the least n >= 2 with t_n < tau.

    Targets are swept in decreasing order and each scan resumes where the
    previous one stopped.  A smaller target accepts only n that a larger one
    accepts, so its least n is no smaller, and resuming skips no n that a
    scan from 2 would accept.
    """
    out = {}
    n = 2
    for tau in sorted(targets, reverse=True):
        while twist_cmp(n, tau) >= 0:
            n += 1
        out[tau] = n
    return out


class TestTwistBracket:
    def test_matches_linear_scan(self):
        # Every target below 1/6 with denominator <= 48, and two seeded
        # targets for each denominator 49..729.  The scan's cost grows like
        # 1/tau^2 (13,462 certified comparisons at 1/729), so the seeded
        # targets stay at or above 1/200; test_bracket_at_one_729th covers
        # 1/729.
        rng = random.Random(729)
        targets = {Fraction(s, d) for d in range(7, 49) for s in range(1, d)
                   if gcd(s, d) == 1 and 6 * s < d}
        targets |= {Fraction(rng.randint(-(-d // 200), (d - 1) // 6), d)
                    for d in range(49, 730) for _ in range(2)}
        expected = scan_brackets(targets)
        for tau in targets:
            assert _twist_bracket(tau) == expected[tau], tau

    def test_bracket_at_one_729th(self):
        tau = Fraction(1, 729)
        with mpmath.workdps(50):
            bound = 1 / (4 * mpmath.sin(mpmath.pi / 729) ** 2)
        m = int(bound) + 1
        assert m == 13462
        assert _twist_bracket(tau) == m
        assert _twist_bracket(Fraction(1, 7)) == 2

    def test_tiny_target_stays_exact(self):
        # A double would lose this bound (about 2.5e58) to rounding, and its
        # sine underflows below 1e-308.
        for tau in (Fraction(1, 10 ** 30), Fraction(3, 10 ** 400)):
            with mpmath.workdps(2000):
                bound = 1 / (4 * mpmath.sin(mpmath.pi * tau.numerator
                                            / tau.denominator) ** 2)
            assert _twist_bracket(tau) == int(bound) + 1


class TestWindowAudit:
    def test_trefoil_fails_narrow_window(self):
        spec = BumpSpec(Fraction(1, 6), Fraction(1, 8))
        assert window_audit(twist_knot(1), spec) != ()

    def test_jump_on_closed_edge_passes(self):
        # The twist-1 jump at 1/6 turns sits exactly on the upper edge of
        # the window (pi/12, pi/3); the audit treats the window as closed.
        spec = BumpSpec(Fraction(1, 3), Fraction(1, 4))
        band = twist_knot(1) - twist_knot(2)
        assert window_audit(band, spec) == ()


class TestKnotFamily:
    def test_rejects_slow_growth(self):
        entries = (FamilyEntry(twist_knot(1), 4), FamilyEntry(twist_knot(1), 8))
        with pytest.raises(ValueError, match="threefold"):
            KnotFamily(2, entries)

    def test_rejects_wrong_prime(self):
        with pytest.raises(ValueError, match="power of 3"):
            KnotFamily(3, (FamilyEntry(twist_knot(1), 4),))

    def test_rejects_small_head_order(self):
        with pytest.raises(ValueError, match=">= 4"):
            KnotFamily(2, (FamilyEntry(twist_knot(1), 2),))

    def test_json_round_trip(self):
        family = build_family(2, 2, 4)
        data = json.loads(json.dumps(family.to_json()))
        assert KnotFamily.from_json(data) == family


class TestBuildFamily:
    def test_orders_quadruple_from_seed_four(self):
        family = build_family(2, 3, 4)
        assert [e.d for e in family.entries] == [4, 16, 64]

    def test_head_knot_for_order_four(self):
        family = build_family(2, 1, 4)
        assert atom_shapes(family.entries[0].knot) == [(1, 2, -1), (1, 4, 1)]
        values = [sigma(family.entries[0].knot, 4, s) for s in range(4)]
        assert values == [0, 2, 0, 2]

    def test_band_indices_scale_with_order(self):
        family = build_family(2, 3, 4)
        assert sorted({twist_parameter(a.matrix)
                       for a in family.entries[1].knot.atoms}) == [6, 7]
        assert sorted({twist_parameter(a.matrix)
                       for a in family.entries[2].knot.atoms}) == [103, 104]

    def test_generic_entries_are_doubled_for_arf(self):
        family = build_family(2, 2, 4)
        second = family.entries[1].knot
        assert len(second.atoms) == 8
        assert arf(second) == 0
        half = second.atoms[:4]
        assert second.atoms[4:] == half

    def test_signature_tables(self):
        family = build_family(2, 3, 4)
        k2, k3 = family.entries[1].knot, family.entries[2].knot
        table2 = [sigma(k2, 16, s) for s in range(16)]
        assert table2 == [0, 4] + [0] * 13 + [4]
        nonzero3 = {s: v for s in range(64) if (v := sigma(k3, 64, s))}
        assert nonzero3 == {1: 4, 63: 4}

    def test_seed_eight_uses_generic_head(self):
        family = build_family(2, 2, 8)
        assert [e.d for e in family.entries] == [8, 32]
        assert sorted({twist_parameter(a.matrix)
                       for a in family.entries[0].knot.atoms}) == [1, 2]

    def test_odd_prime_family(self):
        family = build_family(3, 2, 9)
        assert [e.d for e in family.entries] == [9, 81]
        assert sorted({twist_parameter(a.matrix)
                       for a in family.entries[0].knot.atoms}) == [2, 3]
        values = [sigma(family.entries[0].knot, 9, s) for s in range(9)]
        assert values == [0, 4, 0, 0, -4, -4, 0, 0, 4]

    def test_deterministic(self):
        assert build_family(2, 3, 4) == build_family(2, 3, 4)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError, match="not a prime"):
            build_family(4, 1, 4)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="power of 2"):
            build_family(2, 1, 6)
        with pytest.raises(ValueError, match=">= 4"):
            build_family(2, 1, 2)

    def test_order_cap_is_checked_before_any_search(self, monkeypatch):
        # Orders 9, 81, 729, 6561: the fourth passes 3^7, so nothing is
        # searched; 27, 243, 2187 (the default family for q = 27) is the
        # largest sequence allowed.
        def no_search(*args, **kwargs):
            raise AssertionError("the bump search started")

        monkeypatch.setattr(knotforge, "plan_bump", no_search)
        with pytest.raises(ResourceCapExceeded, match="order 6561"):
            build_family(3, 4, 9)
        with pytest.raises(ResourceCapExceeded, match="order 8192"):
            build_family(2, 6, 8)
        monkeypatch.undo()
        assert MAX_FAMILY_ORDER == 3 ** 7
        assert [e.d for e in build_family(3, 3, 27).entries] == [27, 243, 2187]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_family(2, -1, 4)


class TestVerifyFamily:
    def test_default_family_passes(self):
        checks = verify_family(build_family(2, 3, 4))
        assert isinstance(checks, tuple)
        assert checks and all(c["ok"] for c in checks)

    def test_checks_cover_all_pairs(self):
        checks = verify_family(build_family(2, 3, 4))
        pairs = {(c["i"], c["j"]) for c in checks
                 if c["property"] == "dual_oracle_agreement"}
        assert pairs == {(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}
        vanish = [c for c in checks
                  if c["property"] == "vanishing_at_lower_roots"]
        assert {(c["i"], c["j"]) for c in vanish} == {(1, 2), (1, 3), (2, 3)}

    def test_values_are_recorded(self):
        checks = verify_family(build_family(2, 1, 4))
        dual = next(c for c in checks
                    if c["property"] == "dual_oracle_agreement")
        assert dual["values"] == [0, 2, 0, 2]

    def test_odd_prime_family_passes_without_positivity(self):
        checks = verify_family(build_family(3, 2, 9))
        assert all(c["ok"] for c in checks)
        assert not any(c["property"] == "nonnegative_at_all_roots"
                       for c in checks)

    def test_trefoil_head_fails(self):
        family = build_family(2, 2, 4)
        spoiled = KnotFamily(2, (FamilyEntry(twist_knot(1), 4),
                                 family.entries[1]))
        failed = {c["property"] for c in verify_family(spoiled) if not c["ok"]}
        assert "zero_integral" in failed
        assert "vanishing_arf" in failed
        assert "positive_at_seed_root" in failed

    def test_empty_family_passes_vacuously(self):
        checks = verify_family(KnotFamily(2, ()))
        assert checks == () and all(c["ok"] for c in checks)

    def test_report_json(self):
        # family certificates embed these checks as they are
        checks = verify_family(build_family(2, 1, 4))
        assert all(c["ok"] for c in checks)
        data = json.loads(json.dumps(list(checks)))
        assert {c["property"] for c in data} == {
            "dual_oracle_agreement", "positive_at_seed_root",
            "nonnegative_at_all_roots", "zero_integral", "vanishing_arf"}
