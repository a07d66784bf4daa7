"""Tests for reproduction certificates."""
import json

import pytest

from lambdatower import __version__
from lambdatower import certify, covers, infection, knotforge, seifert
from lambdatower.certify import (
    Certificate,
    family_certificate,
    independence_certificate,
    tower_certificate,
    z2_certificate,
)
from lambdatower.knotforge import BumpSearchError, FamilyEntry, KnotFamily
from lambdatower.seifert import FormalKnot, SignatureProfile


@pytest.fixture(scope="module")
def family_cert():
    return family_certificate(2, 3, 4)


@pytest.fixture(scope="module")
def independence_cert():
    return independence_certificate(2, 1, 4)


class TestCertificate:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Certificate("mystery", {}, (), ())

    def test_verdict_is_derived_from_the_checks(self):
        ok, bad = {"property": "a", "ok": True}, {"property": "b", "ok": False}
        assert Certificate("family", {}, (), ()).verdict == "PASS"
        assert Certificate("family", {}, (), (ok, ok)).verdict == "PASS"
        assert Certificate("family", {}, (), (ok, bad)).verdict == "FAIL"
        with pytest.raises(TypeError):
            Certificate("family", {}, (), (), verdict="PASS")
        with pytest.raises(TypeError):
            Certificate("family", {}, (), (), "PASS")

    def test_hash_ignores_timestamp(self):
        a = Certificate("family", {"p": 2}, (), (), timestamp="t1")
        b = Certificate("family", {"p": 2}, (), (), timestamp="t2")
        assert a.content_hash() == b.content_hash()
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_hash_covers_content(self):
        a = Certificate("family", {"p": 2}, (), ())
        b = Certificate("family", {"p": 3}, (), ())
        assert a.content_hash() != b.content_hash()

    def test_json_shape(self):
        checks = ({"property": "a", "ok": False},)
        cert = Certificate("family", {"p": 2}, ({"s": 0},), checks)
        data = cert.to_json()
        assert data["kind"] == "family"
        assert data["verdict"] == "FAIL"
        assert data["checks"] == list(checks)
        assert data["data"] == {}
        # every driver is deterministic: no seed to echo
        assert data["seed"] is None
        assert data["version"] == __version__
        assert data["content_hash"] == cert.content_hash()
        assert "timestamp" in data
        json.dumps(data)


class TestFamilyCertificate:
    def test_verdict_and_size(self, family_cert):
        assert family_cert.verdict == "PASS"
        # one row per knot and root of unity across all three orders
        assert len(family_cert.table) == 3 * (4 + 16 + 64)

    def test_rows_agree(self, family_cert):
        assert all(row["agree"] for row in family_cert.table)
        assert all(row["sigma"] == row["profile"] for row in family_cert.table)

    def test_orders_echoed(self, family_cert):
        orders = [e["d"] for e in family_cert.data["family"]["entries"]]
        assert orders == [4, 16, 64]
        assert family_cert.inputs == {"p": 2, "count": 3, "d_seed": 4}

    def test_diagonal_values_match_seed_roots(self, family_cert):
        # [DERIVED] frozen from the signature oracles: each knot is visible
        # at the primitive root of its own order
        by_key = {(r["knot"], r["d"], r["s"]): r["sigma"]
                  for r in family_cert.table}
        assert by_key[(1, 4, 1)] == 2
        assert by_key[(2, 16, 1)] == 4
        assert by_key[(3, 64, 1)] == 4
        assert by_key[(2, 4, 1)] == 0
        assert by_key[(3, 16, 1)] == 0

    def test_empty_family_vacuous_pass(self):
        cert = family_certificate(2, 0, 4)
        assert cert.verdict == "PASS"
        assert cert.table == ()

    def test_seed_order_validation(self):
        with pytest.raises(ValueError):
            family_certificate(2, 3, 2)

    def test_search_failure_yields_fail_certificate(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise BumpSearchError("window too narrow")
        monkeypatch.setattr("lambdatower.certify.build_family", exhausted)
        cert = family_certificate(2, 3, 4)
        assert cert.verdict == "FAIL"
        assert cert.checks[0]["property"] == "family_search"

    def test_deterministic(self, family_cert):
        again = family_certificate(2, 3, 4)
        assert again.canonical_bytes() == family_cert.canonical_bytes()
        assert again.content_hash() == family_cert.content_hash()


def _bumped(values, d, bump):
    """values with bump applied to the one at s = 1 when the order is 16."""
    values = list(values)
    if d == 16:
        values[1] = bump(values[1])
    return values


class TestDualOracleMutation:
    """One wrong value in either whole-order sweep must fail the family:
    the matrix and profile sweeps check each other, not themselves."""

    @staticmethod
    def assert_caught(cert):
        dual = {(c["i"], c["j"]): c["ok"] for c in cert.checks
                if c["property"] == "dual_oracle_agreement"}
        # order 16 is the second of (4, 16, 64): knots 2 and 3 are swept there
        assert dual == {key: key[0] != 2 for key in dual}
        table = [c for c in cert.checks if c["property"] == "table_dual_oracle"]
        assert table == [{"property": "table_dual_oracle", "ok": False}]
        assert cert.verdict == "FAIL"

    def test_profile_sweep_mutant(self, monkeypatch):
        real = SignatureProfile.evaluate_all
        monkeypatch.setattr(SignatureProfile, "evaluate_all",
                            lambda self, d: _bumped(real(self, d), d,
                                                    lambda v: (v[0] + 2, v[1])))
        self.assert_caught(family_certificate(2, 3, 4))

    def test_matrix_sweep_mutant(self, monkeypatch):
        def mutant(knot, d, exponents):
            return _bumped(seifert.sigma_many(knot, d, exponents), d,
                           lambda v: v + 2)
        monkeypatch.setattr(knotforge, "sigma_many", mutant)
        monkeypatch.setattr(certify, "sigma_many", mutant)
        self.assert_caught(family_certificate(2, 3, 4))

    @staticmethod
    def flip_last_minor(monkeypatch):
        """The float pass inside the matrix sweep, mutated: the last leading
        minor with its sign flipped at every root it decides."""
        real = seifert._minor_signs

        def mutant(*args):
            signs = real(*args).copy()
            signs[-1] = -signs[-1]
            return signs

        monkeypatch.setattr(seifert, "_minor_signs", mutant)

    def test_minor_sign_mutant(self, monkeypatch):
        # The family search reads the same pass, so the family is built by
        # the real one; the rows it cached are dropped, and the mutant then
        # meets the dual oracle.
        family = knotforge.build_family(2, 3, 4)
        seifert._float_pass.cache_clear()
        monkeypatch.setattr(certify, "build_family", lambda *args: family)
        self.flip_last_minor(monkeypatch)
        cert = family_certificate(2, 3, 4)
        dual = [c["ok"] for c in cert.checks
                if c["property"] == "dual_oracle_agreement"]
        assert False in dual
        assert cert.verdict == "FAIL"

    def test_minor_sign_mutant_fails_the_search(self, monkeypatch):
        # the same mutant from the start: the windows the search reads are
        # wrong, and no family is found
        self.flip_last_minor(monkeypatch)
        cert = family_certificate(2, 3, 4)
        assert [c["property"] for c in cert.checks] == ["family_search"]
        assert cert.verdict == "FAIL"


class TestIndependenceCertificate:
    def test_matrix(self, independence_cert):
        # [DERIVED] frozen from the invariant pipeline and confirmed by the
        # signature-sum oracle
        assert independence_cert.verdict == "PASS"
        assert independence_cert.data["matrix"] == [[8, 0, 0],
                                                    [-8, 16, 0],
                                                    [0, 0, 16]]
        assert independence_cert.data["c"] == [4, 4, 4]

    def test_all_checks_present(self, independence_cert):
        names = [c["property"] for c in independence_cert.checks]
        assert names == ["family_verified", "strictly_triangular",
                         "diagonal_nonzero", "diagonal_factorization",
                         "c_independent_of_order", "c_matches_lift_count",
                         "sigma_sum_rederivation", "sign_coherence"]
        assert all(c["ok"] for c in independence_cert.checks)

    def test_every_walk_takes_the_program(self, monkeypatch):
        # alpha(2) is 13 compositions as a program and 16 letters as a word:
        # under a work cap between the two on 256 vertices, every walk, the
        # lift recount included, still runs and the certificate is unchanged
        plain = independence_certificate(2, 2, 4)
        monkeypatch.setattr(covers, "LIFT_WORK_CAP", 13 * 256)
        capped = independence_certificate(2, 2, 4)
        assert capped.verdict == "PASS"
        assert capped.canonical_bytes() == plain.canonical_bytes()
        tower = covers.build_tower(2, 2, 4)
        with pytest.raises(covers.ResourceCapExceeded, match="work cap"):
            covers.lift_profile(tower.top, covers.alpha_word(2))

    def test_one_lift_walk_per_structure_and_recount(self, monkeypatch,
                                                     independence_cert):
        # lambda_T and signature_prediction share each structure's walk;
        # the lift recount walks on its own: 3 + 3 walks, not 21, all of
        # them through PStructure.lifts
        calls = []
        walk = covers.lift_profile
        monkeypatch.setattr(infection, "lift_profile", lambda *a, **k: (
            calls.append(a[2].modulus), walk(*a, **k))[1])
        again = independence_certificate(2, 1, 4)
        assert again.canonical_bytes() == independence_cert.canonical_bytes()
        assert len(calls) == 6

    def test_rows_rederived(self, independence_cert):
        assert len(independence_cert.table) == 9
        for row in independence_cert.table:
            assert row["sign"] == row["prediction"]
            assert row["agree"]

    def test_unknot_family_fails_on_diagonal(self):
        family = KnotFamily(2, (FamilyEntry(FormalKnot(), 4),))
        cert = independence_certificate(2, 1, 4, family=family)
        assert cert.verdict == "FAIL"
        assert cert.data["matrix"] == [[0]]
        failed = {c["property"] for c in cert.checks if not c["ok"]}
        assert "diagonal_nonzero" in failed

    def test_prime_mismatch_rejected(self):
        family = KnotFamily(3, ())
        with pytest.raises(ValueError):
            independence_certificate(2, 1, 4, family=family)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            independence_certificate(2, 1, 6)

    def test_deterministic(self, independence_cert):
        again = independence_certificate(2, 1, 4)
        assert again.canonical_bytes() == independence_cert.canonical_bytes()


class TestZ2Certificate:
    def test_default_pattern(self):
        cert = z2_certificate()
        assert cert.verdict == "PASS"
        assert cert.data["matrix"] == [[-1, 1, 1, 1], [1, -1, 1, 1],
                                       [1, 1, -1, 1], [1, 1, 1, -1]]

    def test_two_prime_example(self):
        # [DERIVED] (3,-1)_3 = -1 and (7,-1)_3 = +1 by the closed forms
        cert = z2_certificate(primes=(3, 7))
        assert cert.verdict == "PASS"
        assert cert.data["matrix"] == [[-1, 1], [1, -1]]

    def test_norm_form_fails_as_diagonal_candidate(self):
        # 5 = 1 mod 4 is a norm from Q(i), so (5, -1)_5 = +1
        cert = z2_certificate(primes=(5,))
        assert cert.verdict == "FAIL"
        assert cert.data["matrix"] == [[1]]

    def test_empty_vacuous_pass(self):
        cert = z2_certificate(primes=())
        assert cert.verdict == "PASS"
        assert cert.table == ()

    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError):
            z2_certificate(primes=(3, 9))

    def test_duplicate_primes_rejected(self):
        with pytest.raises(ValueError):
            z2_certificate(primes=(3, 3))


class TestTowerCertificate:
    def test_two_strand_tower(self):
        cert = tower_certificate(2, 2, 4)
        assert cert.verdict == "PASS"
        assert [row["size"] for row in cert.table] == [1, 16, 256]
        behaviour = [c for c in cert.checks if c.get("check") == "lift_behaviour"]
        assert [c["level"] for c in behaviour] == [0, 1]
        assert all(c["mismatches"] == 0 for c in behaviour)

    def test_three_strand_tower(self):
        cert = tower_certificate(3, 1, 4)
        assert cert.verdict == "PASS"
        assert cert.table[-1]["betti1"] == 33
        behaviour = [c for c in cert.checks if c.get("check") == "lift_behaviour"]
        assert [c["level"] for c in behaviour] == [0]
        assert behaviour[0]["mismatches"] == 0

