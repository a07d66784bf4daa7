"""Tests for infected string links and their Witt-valued invariants."""
import random
from collections import Counter

import pytest

from lambdatower import infection
from lambdatower.covers import Character, build_tower, character_f, lift_profile
from lambdatower.infection import (
    InfectedStringLink,
    PStructure,
    lambda_T,
    signature_prediction,
    tower_infection,
)
from lambdatower.knotforge import build_family
from lambdatower.seifert import (
    Atom,
    FormalKnot,
    SeifertMatrix,
    sigma,
    twist_knot,
    twist_matrix,
)
from lambdatower.witt import witt_add, witt_zero


TOWER = build_tower(2, 1, 4)
TOWER2 = build_tower(2, 2, 4)


def random_knot(rng, max_atoms=3, max_twist=5, max_cable=1):
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        atoms.append(Atom(twist_matrix(rng.randint(1, max_twist)),
                          rng.randint(1, max_cable),
                          rng.choice((1, -1))))
    return FormalKnot(tuple(atoms))


class TestPStructure:
    def test_canonical(self):
        structure = PStructure.canonical(TOWER, 4)
        assert structure.d == 4
        assert structure.theta.modulus == 4
        assert structure.theta == character_f(TOWER).reduce(4)

    def test_rejects_wrong_prime(self):
        with pytest.raises(ValueError):
            PStructure.canonical(TOWER, 9)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            PStructure.canonical(TOWER, 12)

    def test_rejects_modulus_mismatch(self):
        theta = character_f(TOWER).reduce(8)
        with pytest.raises(ValueError):
            PStructure(TOWER, theta, 4)


class TestInfectedStringLink:
    def test_word_is_reduced(self):
        link = InfectedStringLink(2, ((0, 1), (0, -1), (1, 1)), twist_knot(1))
        assert link.infection_word == ((1, 1),)

    def test_rejects_out_of_range_generator(self):
        with pytest.raises(ValueError):
            InfectedStringLink(2, ((2, 1),), twist_knot(1))

    def test_helpers(self):
        link = tower_infection(2, 1, twist_knot(1))
        assert link.infection_word == ((0, 1), (1, 1), (0, -1), (1, -1))
        # the tower word walks as its program; any other as its letters
        assert link.program.op == "cat"
        local = InfectedStringLink(3, ((2, 1),), twist_knot(1))
        assert local.program.letters == ((2, 1),)


def test_lifts_grouped_once_in_first_seen_order(monkeypatch):
    # each distinct nonzero (r, t) is evaluated once, in the order of its
    # first lift, and every lift of it shares the one row
    rng = random.Random(16)
    weights = {(rng.randint(0, 1), rng.randrange(TOWER2.top.size)):
               rng.randint(1, 15) for _ in range(40)}
    structure = PStructure(TOWER2, Character.of(16, weights), 16)
    link = InfectedStringLink(2, ((0, 1), (1, 1), (0, 1)), twist_knot(1))
    calls = []
    real = infection._contribution

    def contribution(knot, r, d, t, full):
        calls.append((r, t))
        return real(knot, r, d, t, full)

    monkeypatch.setattr(infection, "_contribution", contribution)
    result = lambda_T(structure, link)
    _, _, degrees, values = lift_profile(TOWER2.top, link.infection_word,
                                         structure.theta)
    pairs = list(zip(degrees.tolist(), values.tolist()))
    assert [(row.r, row.theta_value) for row in result.per_lift] == pairs
    firsts = list(dict.fromkeys(pair for pair in pairs if pair[1]))
    assert calls == firsts
    assert len({r for r, _ in firsts}) > 1 and len(firsts) > 4
    shared = {}
    for row in result.per_lift:
        assert shared.setdefault((row.r, row.theta_value), row) is row
    assert result.constant_c == sum(1 for _, t in pairs if t)


class TestLocalKnotAnnihilation:
    def test_trefoil_on_each_strand(self):
        structure = PStructure.canonical(TOWER, 4)
        for i in (0, 1):
            link = InfectedStringLink(2, ((i, 1),), twist_knot(1))
            result = lambda_T(structure, link)
            assert result.witt.is_trivial()
            assert result.constant_c == 0
            assert all(not row.present for row in result.per_lift)

    def test_meridian_lifts_cover_fully(self):
        structure = PStructure.canonical(TOWER, 4)
        link = InfectedStringLink(2, ((0, 1),), twist_knot(1))
        result = lambda_T(structure, link)
        assert {row.r for row in result.per_lift} == {4}
        assert len(result.per_lift) == 4

    def test_random_knots_under_reduced_characters(self):
        rng = random.Random(20260823)
        for d in (4, 8, 16):
            structure = PStructure.canonical(TOWER2, d)
            for _ in range(3):
                knot = random_knot(rng, max_cable=3)
                strand = rng.randint(0, 1)
                link = InfectedStringLink(2, ((strand, 1),), knot)
                result = lambda_T(structure, link)
                assert result.witt.is_trivial()
                assert not result.witt.partial


class TestSignIdentity:
    def test_trefoil_at_fourth_roots(self):
        structure = PStructure.canonical(TOWER, 4)
        result = lambda_T(structure, tower_infection(2, 1, twist_knot(1)))
        assert result.constant_c == 4
        values = Counter(row.theta_value for row in result.per_lift)
        assert values == {0: 12, 1: 2, 3: 2}
        assert result.witt.sign == -8
        assert result.witt.sign == 4 * sigma(twist_knot(1), 4, 1)

    def test_total_is_sum_of_rows(self):
        structure = PStructure.canonical(TOWER, 4)
        result = lambda_T(structure, tower_infection(2, 1, twist_knot(2)))
        total = witt_zero(4)
        for row in result.per_lift:
            if row.present:
                total = witt_add(total, row.witt)
        assert total.signatures == result.witt.signatures
        assert total.disc == result.witt.disc

    def test_unknot_trivial(self):
        structure = PStructure.canonical(TOWER, 4)
        result = lambda_T(structure, tower_infection(2, 1, FormalKnot()))
        assert result.witt.is_trivial()
        assert result.constant_c == 4

    def test_conjugate_values_pair_off(self):
        structure = PStructure.canonical(TOWER, 8)
        result = lambda_T(structure, tower_infection(2, 1, twist_knot(3)))
        by_value = {}
        for row in result.per_lift:
            if row.present:
                by_value.setdefault(row.theta_value, []).append(row.witt.signatures)
        assert set(by_value) == {1, 7}
        assert by_value[1] == by_value[7]

    def test_height_two_tower(self):
        structure = PStructure.canonical(TOWER2, 4)
        result = lambda_T(structure, tower_infection(2, 2, twist_knot(1)))
        assert result.constant_c == 4
        assert result.witt.sign == 4 * sigma(twist_knot(1), 4, 1)


def _prediction_at(structure, link, s):
    """signature_prediction at the embedding zeta_d -> e^(2 pi i s/d): over
    the lifts with a nonzero value t, the knot signatures at the r-th roots
    of zeta_d^(t s), less those at the r-th roots of unity."""
    d, knot = structure.d, link.knot
    _, _, degrees, values = structure.lifts(link.program)
    return sum(sigma(knot, r * d, (t * s + k * d) % (r * d)) - sigma(knot, r, k)
               for r, t in zip(degrees.tolist(), values.tolist()) if t
               for k in range(r))


class TestOracleAgreement:
    def test_prediction_matches_full_path(self):
        # The hermitian route (block forms, certified pivot signs) and the
        # signature route (jump data of the knot) are independent codepaths.
        rng = random.Random(7)
        for _ in range(10):
            knot = random_knot(rng)
            for d in (4, 8):
                structure = PStructure.canonical(TOWER, d)
                link = tower_infection(2, 1, knot)
                result = lambda_T(structure, link)
                assert not result.witt.partial
                assert result.witt.sign == signature_prediction(structure, link)

    def test_partial_matches_full_signatures(self):
        rng = random.Random(8)
        for _ in range(5):
            knot = random_knot(rng)
            structure = PStructure.canonical(TOWER, 8)
            link = tower_infection(2, 1, knot)
            full = lambda_T(structure, link, disc=True)
            part = lambda_T(structure, link, disc=False)
            assert part.witt.partial
            assert part.witt.signatures == full.witt.signatures

    def test_cabled_knots_fall_back_to_signatures(self):
        structure = PStructure.canonical(TOWER, 4)
        knot = twist_knot(1, cable=2)
        link = tower_infection(2, 1, knot)
        result = lambda_T(structure, link)
        assert result.witt.partial
        assert result.witt.sign == signature_prediction(structure, link)
        assert result.witt.sign == 4 * sigma(knot, 4, 1)

    def test_signatures_only_above_the_degree_cap(self):
        # Q(zeta_4096) has degree 2048, over the cap for exact arithmetic,
        # which a signatures-only sum never needs
        structure = PStructure.canonical(TOWER, 4096)
        link = tower_infection(2, 1, twist_knot(1))
        result = lambda_T(structure, link, disc=False)
        assert result.witt.partial and result.constant_c == 4
        assert result.witt.signature_at(1) == signature_prediction(structure, link)
        for s in (1, 683, 1365, 2047):
            assert result.witt.signature_at(s) == _prediction_at(structure, link, s)

    def test_empty_sum_under_each_disc_setting(self):
        # no lift of x0 carries a nonzero character on this tower
        structure = PStructure.canonical(TOWER, 8)
        for knot in (twist_knot(1), twist_knot(1, cable=2)):
            link = InfectedStringLink(2, ((0, 1),), knot)
            part = lambda_T(structure, link, disc=False)
            assert part.constant_c == 0
            assert part.witt.partial and part.witt.disc is None
            assert part.witt.signatures == witt_zero(8).signatures
        # the cabled fallback keeps the exact zero, which it prints today
        cabled = lambda_T(structure, InfectedStringLink(
            2, ((0, 1),), twist_knot(1, cable=2)))
        assert cabled.witt == witt_zero(8)

    def test_disc_refused_for_cabled_atoms(self):
        structure = PStructure.canonical(TOWER, 4)
        link = tower_infection(2, 1, twist_knot(1, cable=2))
        with pytest.raises(ValueError):
            lambda_T(structure, link, disc=True)


class TestIndependenceMatrix:
    def test_family_evaluation_is_triangular(self):
        family = build_family(2, 3, 4)
        signs = []
        predictions = []
        for entry in family.entries:
            structure = PStructure.canonical(TOWER, entry.d)
            row, prow = [], []
            for other in family.entries:
                link = tower_infection(2, 1, other.knot)
                row.append(lambda_T(structure, link).witt.sign)
                prow.append(signature_prediction(structure, link))
            signs.append(row)
            predictions.append(prow)
        assert signs == predictions
        assert signs == [[8, 0, 0], [-8, 16, 0], [0, 0, 16]]
        for i, entry in enumerate(family.entries):
            assert signs[i][i] == 4 * sigma(entry.knot, entry.d, 1)

    def test_strand_mismatch_rejected(self):
        structure = PStructure.canonical(TOWER, 4)
        with pytest.raises(ValueError):
            lambda_T(structure, tower_infection(3, 1, twist_knot(1)))
        with pytest.raises(ValueError):
            signature_prediction(structure, tower_infection(3, 1, twist_knot(1)))


class TestResultJson:
    def test_shape(self):
        structure = PStructure.canonical(TOWER, 4)
        data = lambda_T(structure, tower_infection(2, 1, twist_knot(1))).to_json()
        assert set(data) == {"witt", "per_lift", "constant_c"}
        assert data["constant_c"] == 4
        table = data["per_lift"]
        rows = [table.distinct[i] for i in table.index.tolist()]
        present = [row for row in rows if row["present"]]
        assert len(present) == 4
        assert all(row["witt"]["order"] == 4 for row in present)
        absent = [row for row in rows if not row["present"]]
        assert all(row["witt"] is None for row in absent)
