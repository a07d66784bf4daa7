"""Tests for Seifert matrices, signature functions, profiles, Arf invariants."""
import json
import math
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from lambdatower import cyclo, seifert
from lambdatower.cli import main
from lambdatower.cyclo import (
    PrecisionExhausted,
    compare_cos_turns,
    cot_table,
    is_prime_power,
    precision_cap,
)
from lambdatower.seifert import (
    Atom,
    FormalKnot,
    SeifertMatrix,
    SignatureProfile,
    arf,
    omega_signature,
    sigma,
    sigma_details,
    sigma_many,
    signature_profile,
    twist_knot,
    twist_matrix,
    twist_cmp,
    twist_parameter,
    signature_sweep,
    _encloses,
    _float_pass,
    _interval_signature,
    _leading_minors,
    _minor_signs,
    _twist_enclosure,
)
from lambdatower.witt import lambda_block, witt_invariants

from mutation import assert_killed

TREFOIL = twist_knot(1)


def exact_signature(rows, d, s):
    """Signature of M(zeta_d^s) by exact diagonalization over Q(zeta_d): the
    reference that every interval stage is checked against."""
    return witt_invariants(lambda_block(rows, 1, d, s)).signature_at(1)


def random_seifert(rng: random.Random, g: int) -> SeifertMatrix:
    """Random valid Seifert matrix: free upper part over a symplectic A - A^T."""
    n = 2 * g
    skew = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        skew[i][i + 1] = 1
        skew[i + 1][i] = -1
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-3, 3)
            a[j][i] = a[i][j] - skew[i][j]
    return SeifertMatrix.from_rows(a)


def random_twist_knot(rng: random.Random, atoms: int, n_max: int = 8,
                      r_max: int = 4) -> FormalKnot:
    return FormalKnot(tuple(
        Atom(twist_matrix(rng.randint(1, n_max)), rng.randint(1, r_max),
             rng.choice([1, -1]))
        for _ in range(atoms)))


def numeric_sigma(matrix: SeifertMatrix, turns: float) -> int:
    """Floating-point signature of M(omega), for cross-checks off jump points."""
    a = np.array(matrix.rows, dtype=complex)
    w = np.exp(2j * np.pi * turns)
    m = (1 - w) * a + (1 - w.conjugate()) * a.conj().T
    vals = np.linalg.eigvalsh(m)
    assert min(abs(vals)) > 1e-8, "oracle sampled too close to a jump"
    return int(sum(1 for v in vals if v > 0) - sum(1 for v in vals if v < 0))


class TestSeifertMatrix:
    def test_trefoil_accepted(self):
        m = twist_matrix(1)
        assert m.rows == ((-1, 1), (0, -1))
        assert twist_parameter(m) == 1

    def test_rejects_non_unit_pairing(self):
        with pytest.raises(ValueError, match="not a unit"):
            SeifertMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match="not a unit"):
            SeifertMatrix.from_rows([[0, 2], [0, 0]])
        with pytest.raises(ValueError, match="square"):
            SeifertMatrix.from_rows([[0, 1]])

    def test_empty_matrix_valid(self):
        assert SeifertMatrix.from_rows([]).rows == ()

    def test_twist_matrix_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            twist_matrix(0)
        assert twist_parameter(twist_matrix(5)) == 5
        assert twist_parameter(SeifertMatrix.from_rows([[0, 1], [0, 0]])) is None

    def test_random_generator_produces_valid_matrices(self):
        rng = random.Random(3)
        for _ in range(20):
            random_seifert(rng, rng.randint(1, 3))

    def test_json_round_trip(self):
        m = random_seifert(random.Random(4), 2)
        assert SeifertMatrix.from_json(m.to_json()) == m


class TestOmegaSignature:
    def test_trefoil_at_minus_one(self):
        # M(-1) = 2A + 2A^T = [[-4,2],[2,-4]], eigenvalues -2 and -6
        assert omega_signature(twist_matrix(1), 2, 1) == -2
        vals = np.linalg.eigvalsh(np.array([[-4, 2], [2, -4]]))
        assert all(v < 0 for v in vals)

    def test_trefoil_at_i(self):
        # M(i) = [[-2, 1-i],[1+i, -2]]: det = 4 - 2 = 2 > 0, trace < 0
        assert omega_signature(twist_matrix(1), 4, 1) == -2

    def test_any_matrix_at_one_is_zero(self):
        rng = random.Random(9)
        for _ in range(5):
            m = random_seifert(rng, 2)
            assert omega_signature(m, 8, 0) == 0
            assert omega_signature(m, 8, 8) == 0

    def test_symmetry_under_conjugation(self):
        rng = random.Random(10)
        for _ in range(5):
            m = random_seifert(rng, 2)
            for d in (4, 8, 9):
                for s in range(1, d):
                    assert omega_signature(m, d, s) == omega_signature(m, d, d - s)

    def test_matches_numeric_oracle(self):
        rng = random.Random(12)
        for _ in range(6):
            m = random_seifert(rng, rng.randint(1, 2))
            for d, s in ((4, 1), (8, 3), (16, 5), (9, 2)):
                assert omega_signature(m, d, s) == numeric_sigma(m, s / d)

    def test_rejects_non_prime_power_order(self):
        with pytest.raises(ValueError, match="prime power"):
            omega_signature(twist_matrix(1), 6, 1)

    def test_even_values_only(self):
        # at prime-power roots the form is nonsingular of even size
        rng = random.Random(14)
        for _ in range(5):
            m = random_seifert(rng, 2)
            assert omega_signature(m, 16, 3) % 2 == 0


def spread_units(d: int, count: int) -> list:
    """`count` exponents coprime to d, spread over [1, d/2]; the signature at
    d - s equals that at s."""
    units = [s for s in range(1, d // 2 + 1) if math.gcd(s, d) == 1]
    return units[::max(1, len(units) // count)][:count]


INERTIA_ORDERS = (3, 4, 5, 8, 9, 16, 25, 27, 32, 49)


class TestIntervalInertia:
    """The interval LDL^H stage of omega_signature against the exact
    diagonalization over Q(zeta_d), which stays the reference."""

    @staticmethod
    def agrees(matrix, d, s):
        exact = exact_signature(matrix.rows, d, s)
        assert _interval_signature(matrix.rows, d, s, 64) == exact, (matrix, d, s)
        assert omega_signature(matrix, d, s) == exact

    @pytest.mark.parametrize("d", INERTIA_ORDERS)
    def test_genus_one(self, d):
        rng = random.Random(d)
        for n in (1, 2, 7):
            for s in spread_units(d, 3):
                self.agrees(twist_matrix(n), d, s)
        for _ in range(2):
            m = random_seifert(rng, 1)
            for s in spread_units(d, 3):
                self.agrees(m, d, s)

    @pytest.mark.parametrize("d", INERTIA_ORDERS)
    def test_genus_two(self, d):
        rng = random.Random(100 + d)
        for _ in range(1 if d == 49 else 2):
            m = random_seifert(rng, 2)
            for s in spread_units(d, 2):
                self.agrees(m, d, s)

    @pytest.mark.parametrize(
        "d, s", [(243, 1), (243, 40), (243, 121), (729, 2), (729, 5)])
    def test_high_orders(self, d, s):
        self.agrees(twist_matrix(3), d, s)

    def test_zero_diagonal_takes_block_pivot(self):
        # the unknot matrix gives M(w) a zero diagonal, which no diagonal
        # pivot can use; the 2 x 2 block pivot decides it at 64 bits
        unknot = SeifertMatrix.from_rows([[0, 1], [0, 0]])
        for d in (2, 3, 4, 8, 9, 27):
            for s in range(1, d):
                assert _interval_signature(unknot.rows, d, s, 64) == 0
                assert omega_signature(unknot, d, s) == 0


def _refuse(*args):
    raise AssertionError("a later stage was reached")


def _reference(matrix, d, s):
    """Exact signature for small forms; the 128-bit interval stage or the
    eigenvalue oracle above that, where exact arithmetic is slow."""
    if d <= (49 if len(matrix.rows) <= 4 else 9):
        return exact_signature(matrix.rows, d, s)
    sig = _interval_signature(matrix.rows, d, s, 128)
    return sig if sig is not None else numeric_sigma(matrix, s / d)


def _with_zero_diagonal(rng, g):
    rows = [list(r) for r in random_seifert(rng, g).rows]
    for i in range(2 * g):
        rows[i][i] = 0
    return SeifertMatrix.from_rows(rows)


def _pass(rows, d, s):
    """The float pass at one root: its signature, or None when it leaves the
    root undecided or the order has no pass."""
    row = _float_pass(rows, d)
    return None if row is None else row[s]


def _horner(poly, y):
    value = Fraction(0)
    for q in reversed(poly):
        value = value * y + q
    return value


class TestFloatStage:
    """The float pass of signature_sweep, over the leading principal minors
    of a unimodular congruent of A, against the mpmath stage and the exact
    diagonalization."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_stages_agree_on_random_matrices(self, g):
        rng = random.Random(700 + g)
        for d in (3, 4, 8, 9, 25, 27, 49, 81, 243, 729):
            for _ in range(3 if d <= 49 and g < 3 else 1):
                m = random_seifert(rng, g)
                for s in spread_units(d, 2):
                    ref = _reference(m, d, s)
                    assert _pass(m.rows, d, s) == ref, (m, d, s)
                    assert _interval_signature(m.rows, d, s, 64) == ref
                    assert omega_signature(m, d, s) == ref

    @pytest.mark.parametrize("d", [9, 16, 25, 27])
    def test_zero_diagonals_take_block_pivots(self, d):
        # every diagonal entry of S is zero: the pass reads the minors of a
        # sheared basis, and the mpmath stage starts on 2 x 2 blocks
        rng = random.Random(40 + d)
        for g in (1, 2, 3):
            m = _with_zero_diagonal(rng, g)
            assert all(any(poly) for poly in _leading_minors(m.rows))
            for s in spread_units(d, 2):
                exact = exact_signature(m.rows, d, s)
                assert _pass(m.rows, d, s) == exact, (m, d, s)
                assert _interval_signature(m.rows, d, s, 64) == exact

    @pytest.mark.parametrize("n", [2, 3, 7, 12345, 10 ** 6, 2 ** 40])
    def test_near_cancelling_pivots(self, n):
        # At w = e^(2 pi i s/d) with s/d next to the jump t_n of twist(n),
        # M(w) is nearly singular, so the last minor nearly vanishes; the
        # float pass must decide it or defer, never err.  The jump profile
        # gives the exact reference.
        matrix, profile = twist_matrix(n), signature_profile(twist_knot(n))
        t = _t_n(n)
        decided = []
        for k in (10, 20, 30, 40, 50, 60):
            d = 2 ** k
            s = int(mpmath.nint(t * d)) | 1
            ref = profile.evaluate(Fraction(s, d))[0]
            sig = _pass(matrix.rows, d, s)
            assert sig in (None, ref), (n, d, s)
            decided.append(sig is not None)
            for prec in (64, 128):
                staged = _interval_signature(matrix.rows, d, s, prec)
                # the mpmath stage decides wherever the float pass does
                assert staged in ((None, ref) if sig is None else (ref,))
        assert decided[0]
        if n < 100:  # within 2^-60 of t_n the minor cancels below float resolution
            assert not decided[-1]

    def test_out_of_float_range_defers(self):
        # Entries of 2^60 give minor coefficients beyond exact floats; the
        # pass encloses them and decides, as the 128-bit mpmath stage does.
        big = twist_matrix(2 ** 60)
        assert max(abs(q) for poly in _leading_minors(big.rows)
                   for q in poly) > 2 ** 53
        for d in (9, 27, 2 ** 14):
            for s in spread_units(d, 3):
                ref = _interval_signature(big.rows, d, s, 128)
                assert _pass(big.rows, d, s) == ref == -2, (d, s)
        # cot(pi/2^1000) has no table, and entries of 2^4000 give minors
        # beyond float range: both go to the mpmath stage, which decides them
        cases = ((twist_matrix(1), 2 ** 1000, 1, 0),
                 (twist_matrix(2 ** 4000), 9, 2, -2))
        for matrix, d, s, sig in cases:
            assert _float_pass(matrix.rows, d) is None
            assert omega_signature(matrix, d, s) == sig

    def test_zero_diagonal_out_of_float_range(self, capsys, monkeypatch):
        # entries of 2^60 and a zero diagonal: the pass shears the basis and
        # decides the root, the mpmath stage is never reached, and
        # Q(zeta_4099), over the degree cap, is never built.  The mpmath
        # stage alone decides it too, by a block pivot.
        rows = ((0, 2 ** 60), (2 ** 60 - 1, 0))
        assert _interval_signature(rows, 4099, 5, 64) == 0
        monkeypatch.setattr(seifert, "_interval_signature", _refuse)
        argv = ["sig", "--matrix", f"[[0,{2 ** 60}],[{2 ** 60 - 1},0]]",
                "--d", "4099", "--s", "5"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["sigma"] == 0

    def test_unknot_needs_no_exact_path(self, monkeypatch):
        # det N_1 = 0 for the unknot's own basis; a shear makes it 2
        unknot = SeifertMatrix.from_rows([[0, 1], [0, 0]])
        assert _leading_minors(unknot.rows)[0] == (2,)
        monkeypatch.setattr(seifert, "_interval_signature", _refuse)
        for d in (27, 243, 729):
            assert {omega_signature(unknot, d, s) for s in range(1, d)} == {0}

    @pytest.mark.parametrize("argv, digest", [
        (["reproduce", "independence", "--m", "2", "--n", "1", "--q", "4"],
         "dde35964a945f1d466728366510065bce90ade84c349f1019919e6690818ca80"),
        (["reproduce", "family", "--p", "2", "--count", "2", "--d-seed", "8"],
         "5ea9a9271b2d3be0c57053867a8e8311c113fe7c23327d58301052fc11306030"),
    ], ids=["independence", "family"])
    def test_drivers_need_only_the_float_stage(self, argv, digest,
                                               monkeypatch, capsys):
        # the digests are the goldens the benchmark records for these argvs
        monkeypatch.setattr(seifert, "_interval_signature", _refuse)
        assert main(argv) == 0
        cert = json.loads(capsys.readouterr().out)
        assert (cert["verdict"], cert["content_hash"]) == ("PASS", digest)

    def test_minor_signs_enclose_exact_values(self):
        """Every sign _minor_signs decides holds, by exact evaluation, at
        both ends of the interval of cot and at 0 when the interval holds
        it.  Coefficients reach 2^80, beyond exact floats, and each
        polynomial is built to nearly vanish at one end, so that evaluation
        rounded to nearest, without the outward steps, gives wrong signs."""
        rng = random.Random(9)
        minors, ends = [], []
        for _ in range(400):
            lo = rng.uniform(-8, 8) * 10 ** rng.randint(-2, 2)
            hi = lo + rng.choice((0.0, abs(lo) * 2.0 ** -rng.randint(20, 52)))
            y = Fraction(rng.choice((lo, hi))) ** 2
            top = [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 80))
                   for _ in range(rng.randint(0, 3))]
            near = -round(_horner([0] + top, y))
            minors.append((near + rng.randint(-2, 2) * rng.getrandbits(
                rng.randint(0, 40)), *top))
            ends.append((lo, hi))
        lo, hi = (np.array(x) for x in zip(*ends))
        # row k of _minor_signs is minor k at every interval: read minor k
        # at its own interval k
        signs = np.diagonal(_minor_signs(tuple(minors), lo, hi))
        decided = 0
        for sign, poly, (a, b) in zip(signs, minors, ends):
            if not sign:
                continue
            decided += 1
            for c in [a, b] + ([0.0] if a <= 0 <= b else []):
                value = _horner(poly, Fraction(c) ** 2)
                assert sign * value > 0, (poly, a, b, c)
        assert decided > 200

    def test_cot_enclosures_contain_cot(self):
        """The cached float enclosures contain cot(pi s/d); rounding the
        integer quotients to nearest without the outward ulp would miss it."""
        with mpmath.workdps(50):
            for d in (3, 4, 5, 8, 9, 16, 25, 27, 81, 243, 729, 2187):
                lo, hi = cot_table(d)
                units = [s for s in range(1, d) if math.gcd(s, d) == 1]
                for s in units[::max(1, len(units) // 40)]:
                    cot = mpmath.cot(mpmath.pi * s / d)
                    assert lo[s] <= cot <= hi[s] and lo[s] < hi[s], (d, s)


_CORPUS_ORDERS = tuple(d for d in range(2, (1 << 14) + 1) if is_prime_power(d))


@st.composite
def _corpus_matrices(draw):
    """Seifert matrices of genus g <= 4, entries up to 50 in size, over the
    standard symplectic A - A^T, so det(A - A^T) = 1; about a third have
    every diagonal entry zero."""
    n = 2 * draw(st.sampled_from((1, 2, 3, 4)))
    zero = draw(st.sampled_from((True, False, False)))
    entry = st.integers(-50, 50)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 0 if zero else draw(entry)
        for j in range(i + 1, n):
            a[i][j] = draw(entry)
            a[j][i] = a[i][j] - (j == i + 1 and i % 2 == 0)
    return SeifertMatrix.from_rows(a)


@seed(2007)
@settings(max_examples=60)
@given(_corpus_matrices(), st.sampled_from(_CORPUS_ORDERS), st.data())
def test_float_pass_decides_the_corpus(matrix, d, data):
    """The float pass decides every root of the order, and signature_sweep
    answers with the cascade refused, equal to the exact or the 128-bit
    reference at the sampled roots."""
    row = _float_pass(matrix.rows, d)
    assert row is not None and None not in row
    us = data.draw(st.lists(st.integers(1, d - 1), min_size=1, max_size=3))
    with mock.patch.object(seifert, "_cascade_signature", _refuse):
        sigs = signature_sweep(matrix.rows, d, us)
    roots = [Fraction(u, d) for u in us]
    assert sigs == [_reference(matrix, u.denominator, u.numerator)
                    for u in roots]


def _t_n(n, dps=60):
    with mpmath.workdps(dps):
        return mpmath.acos(mpmath.mpf(2 * n - 1) / (2 * n)) / (2 * mpmath.pi)


TWIST_NS = (2, 3, 4, 7, 10, 99, 1000, 4097, 65535, 65537, 123457, 10 ** 6)
# targets of test_tiny_target_stays_exact: n near 10^59 and 10^799
TINY_NS = (10 ** 59 // 16 + 1, 3 * 10 ** 798 + 7)


class TestTwistEnclosure:
    @pytest.mark.parametrize("n", TWIST_NS + TINY_NS)
    def test_enclosure_brackets_t_n(self, n):
        lo, hi = _twist_enclosure(n, precision_cap())
        c = Fraction(2 * n - 1, 2 * n)
        assert compare_cos_turns(c, lo) < 0 < compare_cos_turns(c, hi)
        if n <= 10 ** 6:
            with mpmath.workdps(60):
                assert (mpmath.mpf(lo.numerator) / lo.denominator < _t_n(n)
                        < mpmath.mpf(hi.numerator) / hi.denominator)
            assert (hi - lo) / lo < Fraction(1, 10 ** 11)

    @pytest.mark.parametrize("n", TWIST_NS + TINY_NS)
    def test_twist_cmp_matches_cosine_comparison(self, n, monkeypatch):
        lo, hi = _twist_enclosure(n, precision_cap())
        rng = random.Random(n % 1000)
        xs = [lo, hi, (lo + hi) / 2, lo * (1 - Fraction(1, 10 ** 6)),
              Fraction(1, 7), Fraction(1, 2) - Fraction(1, 10 ** 9)]
        xs += [Fraction(rng.randint(1, 999), 2000) for _ in range(5)]
        c = Fraction(2 * n - 1, 2 * n)
        want = [-compare_cos_turns(c, x) for x in xs]
        calls = []
        monkeypatch.setattr(seifert, "compare_cos_turns",
                            lambda c, u: calls.append(u) or compare_cos_turns(c, u))
        assert [twist_cmp(n, x) for x in xs] == want
        assert calls == [(lo + hi) / 2]  # only x inside the box is compared

    def test_twist_cmp_under_a_low_cap(self):
        # at 64 bits the box of t_n for n = 2^40 cannot be certified; it is
        # skipped, far turns are still decided by one cosine comparison,
        # and a turn within 2^-60 of t_n exhausts the cap
        n = 2 ** 40
        with mpmath.workdps(60):
            near = Fraction(int(_t_n(n) * 2 ** 80), 2 ** 80)
        old = cyclo.set_precision_cap(64)
        try:
            with pytest.raises(PrecisionExhausted):
                _twist_enclosure(n, 64)
            assert twist_cmp(n, Fraction(1, 10)) == -1
            assert twist_cmp(n, Fraction(1, 10 ** 9)) == 1
            with pytest.raises(PrecisionExhausted):
                twist_cmp(n, near)
        finally:
            cyclo.set_precision_cap(old)

    @pytest.mark.parametrize("n", (2, 3, 1000, 123457))
    def test_certificate_rejects_a_box_one_ulp_too_narrow(self, n):
        t = _t_n(n)
        a = float(t)
        a = a if a < t else math.nextafter(a, 0.0)
        b = math.nextafter(a, 1.0)  # the adjacent doubles a < t_n < b
        assert a < t < b
        assert _encloses(n, Fraction(a), Fraction(b))
        assert not _encloses(n, Fraction(b), Fraction(b) + Fraction(b) / 2 ** 52)
        assert not _encloses(n, Fraction(a) - Fraction(a) / 2 ** 52, Fraction(a))


class TestSignatureProfile:
    def test_trefoil_profile(self):
        prof = signature_profile(TREFOIL)
        assert len(prof.jumps) == 2
        first, second = prof.jumps
        assert first.rational_position() == Fraction(1, 6)
        assert first.height == -2
        assert second.rational_position() == Fraction(5, 6)
        assert second.height == 2

    def test_trefoil_values(self):
        prof = signature_profile(TREFOIL)
        assert prof.evaluate(Fraction(0)) == (0, False)
        assert prof.evaluate(Fraction(1, 12)) == (0, False)
        assert prof.evaluate(Fraction(1, 4)) == (-2, False)
        assert prof.evaluate(Fraction(1, 2)) == (-2, False)
        assert prof.evaluate(Fraction(11, 12)) == (0, False)
        assert prof.evaluate(Fraction(1, 6)) == (-1, True)

    def test_at_jump_average_against_one_sided_matrix_oracle(self):
        # dyadic angles 5/32 < 1/6 < 11/64 bracket the jump and have
        # prime-power denominators, so the matrix path evaluates there exactly
        left = omega_signature(twist_matrix(1), 32, 5)
        right = omega_signature(twist_matrix(1), 64, 11)
        assert (left, right) == (0, -2)
        ev = sigma_details(TREFOIL, 6, 1)
        assert ev.value == (left + right) // 2 == -1
        assert ev.at_jump
        assert ev.path == "profile"

    def test_twist_two_jump_position(self):
        prof = signature_profile(twist_knot(2))
        jump = prof.jumps[0]
        assert jump.rational_position() is None
        # arccos(3/4)/(2 pi) lies strictly between 1/10 and 1/8
        assert jump.compare_to_turn(Fraction(1, 10)) > 0
        assert jump.compare_to_turn(Fraction(1, 8)) < 0
        # numeric spot check of the encoded position
        assert abs(jump.position_approx() - math.acos(0.75) / (2 * math.pi)) < 1e-12

    def test_mirror_negates_heights(self):
        prof = signature_profile(-twist_knot(3))
        assert sorted(j.height for j in prof.jumps) == [-2, 2]
        plus = signature_profile(twist_knot(3))
        assert [(j.n, j.cable, j.k, j.branch) for j in plus.jumps] == \
            [(j.n, j.cable, j.k, j.branch) for j in prof.jumps]
        assert [j.height for j in plus.jumps] == [-j.height for j in prof.jumps]

    def test_connected_sum_with_mirror_cancels(self):
        rng = random.Random(15)
        for _ in range(5):
            k = random_twist_knot(rng, 3)
            assert signature_profile(k - k).jumps == ()

    def test_cable_jump_fan(self):
        prof = signature_profile(twist_knot(1, cable=3))
        assert len(prof.jumps) == 6
        positions = sorted(j.rational_position() for j in prof.jumps)
        assert positions == [Fraction(1, 18), Fraction(5, 18), Fraction(7, 18),
                             Fraction(11, 18), Fraction(13, 18), Fraction(17, 18)]

    def test_coincident_rational_jumps_merge(self):
        # the 5-cable's branch at (0 + 5/6)/5 = 1/6 lands exactly on the
        # trefoil's own jump with opposite height, so the merged profile has
        # no jump there at all and sigma is continuous across 1/6
        k = twist_knot(1) + twist_knot(1, cable=5)
        prof = signature_profile(k)
        positions = [j.rational_position() for j in prof.jumps]
        assert Fraction(1, 6) not in positions
        assert Fraction(5, 6) not in positions
        assert len(prof.jumps) == 8  # 2 + 10 jumps with two cancelling pairs
        assert prof.evaluate(Fraction(1, 6)) == (-2, False)
        # dual oracle across the former jump: matrix path at dyadic angles
        assert sigma(k, 32, 5) == -2 and sigma(k, 64, 11) == -2

    def test_coincident_jumps_with_equal_signs_stack(self):
        k = twist_knot(1) + twist_knot(1, cable=5, sign=-1)
        prof = signature_profile(k)
        at_sixth = [j for j in prof.jumps
                    if j.rational_position() == Fraction(1, 6)]
        assert len(at_sixth) == 1
        assert at_sixth[0].height == -4
        # one-sided limits +2 (past the cable jump at 1/30) and -2 average to 0
        assert prof.evaluate(Fraction(1, 6)) == (0, True)

    def test_symmetry_sigma_of_conjugate(self):
        rng = random.Random(16)
        for _ in range(5):
            k = random_twist_knot(rng, 2)
            prof = signature_profile(k)
            for _ in range(6):
                u = Fraction(rng.randint(0, 63), 64)
                assert prof.evaluate(u) == prof.evaluate(1 - u)

    def test_rejects_unsupported_matrix(self):
        k = FormalKnot.of(Atom(SeifertMatrix.from_rows([[0, 1], [0, 0]])))
        with pytest.raises(ValueError, match="matrix path"):
            signature_profile(k)


class TestDualOracle:
    def test_matrix_and_profile_agree_on_prime_power_roots(self):
        rng = random.Random(17)
        for _ in range(12):
            k = random_twist_knot(rng, rng.randint(1, 3))
            prof = signature_profile(k)
            for d in (4, 8, 16, 27):
                for s in range(d):
                    ev = sigma_details(k, d, s)
                    assert ev.path in ("matrix", "trivial")
                    value, at_jump = prof.evaluate(Fraction(s, d))
                    assert not at_jump  # no jumps at prime-power roots
                    assert ev.value == value

    def test_profile_against_numeric_oracle_at_non_prime_power(self):
        rng = random.Random(18)
        for _ in range(6):
            k = random_twist_knot(rng, 2, n_max=4, r_max=3)
            for d, s in ((6, 1), (12, 5), (15, 2), (21, 4)):
                ev = sigma_details(k, d, s)
                assert ev.path in ("profile", "trivial")
                if ev.at_jump:
                    continue
                total = sum(a.sign * numeric_sigma(a.matrix, (s * a.cable % d) / d)
                            for a in k.atoms)
                assert ev.value == total

    def test_reparametrization(self):
        rng = random.Random(19)
        for _ in range(8):
            k = random_twist_knot(rng, 2, r_max=2)
            r = rng.randint(1, 8)
            d = rng.choice([8, 16, 32])
            s = rng.randrange(d)
            assert sigma(k.cable(r), d, s) == sigma(k, d, r * s)

    def test_additivity_and_mirror(self):
        rng = random.Random(20)
        k1 = random_twist_knot(rng, 2)
        k2 = random_twist_knot(rng, 2)
        for d in (4, 8):
            for s in range(d):
                assert sigma(k1 + k2, d, s) == sigma(k1, d, s) + sigma(k2, d, s)
                assert sigma(-k1, d, s) == -sigma(k1, d, s)

    def test_sigma_at_one_is_zero(self):
        rng = random.Random(21)
        for _ in range(5):
            k = random_twist_knot(rng, 3)
            assert sigma(k, 1, 0) == 0
            assert sigma(k, 7, 0) == 0


_TWIST_ATOMS = st.builds(Atom, st.integers(1, 6).map(twist_matrix),
                         st.integers(1, 4), st.sampled_from((1, -1)))


@st.composite
def _twist_knots(draw):
    """Sums of twist atoms; some add the mirror of a sample of their own
    atoms, in a shuffled order, so that part or all of the profile cancels."""
    atoms = draw(st.lists(_TWIST_ATOMS, max_size=4))
    if draw(st.booleans()):
        mirrored = draw(st.lists(st.sampled_from(atoms), unique=True)) \
            if atoms else []
        atoms += [Atom(a.matrix, a.cable, -a.sign) for a in mirrored]
        atoms = draw(st.permutations(atoms))
    return FormalKnot(tuple(atoms))


SWEEP_ORDERS = (1, 2, 4, 8, 9, 27, 60, 81, 360, 729)

# One cabled mirror atom: every sign and every cable multiple counts.
CABLED_MIRROR = FormalKnot.of(Atom(twist_matrix(1), 3, -1))


def atom_sum(knot, d, s):
    """sigma(knot) at zeta_d^s as the sum over atoms of omega_signature at
    each atom's reduced root: the one-root assembly that sigma_many's sweep
    replaces, kept as its reference."""
    total = 0
    for atom in knot.atoms:
        u = Fraction(s * atom.cable % d, d)
        if u:
            total += atom.sign * omega_signature(atom.matrix, u.denominator,
                                                 u.numerator)
    return total


def assert_matches_atom_sum(knot, d, exponents):
    exponents = list(exponents)
    assert sigma_many(knot, d, exponents) == \
        [atom_sum(knot, d, s) for s in exponents]


class TestWholeOrderSweeps:
    """The whole-order sweeps against the one-root evaluators they replace
    on the driver paths."""

    @given(_twist_knots())
    @settings(max_examples=60)
    def test_evaluate_all_matches_evaluate(self, knot):
        prof = signature_profile(knot)
        for d in SWEEP_ORDERS:
            assert prof.evaluate_all(d) == \
                [prof.evaluate(Fraction(s, d)) for s in range(d)], d

    def test_evaluate_all_at_jumps_and_cancellations(self):
        # at 60 and 360 the trefoil's jumps 1/6 and 5/6 are turns
        for d in (60, 360):
            values = signature_profile(TREFOIL).evaluate_all(d)
            assert [s for s, (_, at) in enumerate(values) if at] == \
                [d // 6, 5 * d // 6]
            assert values[d // 6] == (-1, True)
        k = twist_knot(2, cable=3) + twist_knot(1)
        empty = signature_profile(k - k)
        assert empty.jumps == ()
        assert empty.evaluate_all(729) == [(0, False)] * 729

    @given(_twist_knots(), st.sampled_from((8, 9, 27, 81, 243)))
    @example(CABLED_MIRROR, 8)
    @settings(max_examples=40)
    def test_sigma_many_matches_atom_sum_on_twist_knots(self, knot, d):
        exponents = list(range(-d, 2 * d, 3)) + list(range(d))
        assert_matches_atom_sum(knot, d, exponents)

    @pytest.mark.parametrize("d", [4, 9, 25, 27, 49])
    def test_sigma_many_matches_atom_sum_on_genus_two(self, d):
        # 4 x 4 matrices take the scalar cascade
        rng = random.Random(900 + d)
        atoms = [Atom(twist_matrix(rng.randint(1, 6)), rng.randint(1, 3),
                      rng.choice((1, -1))) for _ in range(2)]
        atoms += [Atom(random_seifert(rng, 2), rng.randint(1, 3),
                       rng.choice((1, -1))) for _ in range(2)]
        assert_matches_atom_sum(FormalKnot(tuple(atoms)), d, range(d))

    @pytest.mark.parametrize("d", [0, 1, 6, 12, 60])
    def test_sigma_many_rejects_orders_not_prime_powers(self, d):
        # sigma_details alone takes such roots, to the profile path
        with pytest.raises(ValueError, match="not a prime power"):
            sigma_many(TREFOIL, d, [1])

    def test_sigma_many_defers_entries_beyond_floats(self, monkeypatch):
        # entries of 2^60 give minor coefficients beyond exact floats: the
        # float pass encloses them and decides every root, as the 128-bit
        # mpmath stage does
        big = [SeifertMatrix.from_rows(rows) for rows in (
            [[-1, 1], [0, -2 ** 60]], [[0, 2 ** 60], [2 ** 60 - 1, 0]])]
        knot = FormalKnot(tuple(Atom(m, c, 1) for m in big for c in (1, 2)))

        def at_128_bits(rows, d, s):
            u = Fraction(s % d, d)
            return _interval_signature(rows, u.denominator, u.numerator,
                                       128) if u else 0

        want = {d: [sum(at_128_bits(a.matrix.rows, d, s * a.cable)
                        for a in knot.atoms) for s in range(d)]
                for d in (8, 27)}
        monkeypatch.setattr(seifert, "_interval_signature", _refuse)
        for d in (8, 27):
            assert sigma_many(knot, d, range(d)) == want[d]
        # entries of 2^4000 give minors beyond float range: no float pass,
        # the cascade decides each root
        monkeypatch.undo()
        huge = FormalKnot.of(Atom(twist_matrix(2 ** 4000)),
                             Atom(twist_matrix(2 ** 4000), 2, -1))
        calls = []
        monkeypatch.setattr(seifert, "_minor_signs",
                            lambda *a: calls.append(a))
        for d in (8, 27):
            assert_matches_atom_sum(huge, d, range(d))
        assert calls == []

    def test_sigma_many_near_jump_and_precision_cap(self):
        # the root of test_near_jump_signature_over_the_precision_cap: the
        # order has no cot table, so no float pass decides it; 256 bits do
        knot, d = twist_knot(2), 2 ** 150
        s = 164171632253562604701756578771745058906724657
        assert cot_table(d) is None
        assert sigma_many(knot, d, [s, 1]) == [-2, 0] == \
            [sigma_details(knot, d, e).value for e in (s, 1)]
        before = cyclo.set_precision_cap(128)
        try:
            with pytest.raises(PrecisionExhausted) as many:
                sigma_many(knot, d, [s])
            with pytest.raises(PrecisionExhausted) as one:
                sigma_details(knot, d, s)
        finally:
            cyclo.set_precision_cap(before)
        assert str(many.value) == str(one.value)


class TestIntegral:
    def test_trefoil_integral_exact(self):
        total = signature_profile(TREFOIL).integral()
        assert total.pi_coeff == Fraction(-8, 3)
        assert total.arccos_terms == ()

    def test_trefoil_integral_quadrature_oracle(self):
        samples = 10 ** 4
        acc = 0.0
        a = np.array(twist_matrix(1).rows, dtype=complex)
        for i in range(samples):
            w = np.exp(2j * np.pi * (i + 0.5) / samples)
            m = (1 - w) * a + (1 - w.conjugate()) * a.conj().T
            vals = np.linalg.eigvalsh(m)
            acc += sum(np.sign(v) for v in vals if abs(v) > 1e-9)
        numeric = acc / samples * 2 * math.pi
        integral = signature_profile(TREFOIL).integral()
        assert abs(numeric - float(integral.value())) < 1e-2

    def test_empty_knot_integral_zero(self):
        assert signature_profile(FormalKnot()).integral().is_zero()

    def test_cable_invariance(self):
        # the integral is unchanged by cabling, so J # -cable(J) integrates to 0
        rng = random.Random(22)
        for _ in range(5):
            j = random_twist_knot(rng, 2)
            r = rng.randint(2, 4)
            assert signature_profile(j).integral() == \
                signature_profile(j.cable(r)).integral()
            assert signature_profile(j - j.cable(r)).integral().is_zero()

    def test_twist_two_integral_value(self):
        # 2 * (2 arccos(3/4) - 2 pi): jump height -2 on the arc of length
        # 2 pi - 2 arccos(3/4) on each side combined
        total = signature_profile(twist_knot(2)).integral()
        assert total.pi_coeff == Fraction(-4)
        assert total.arccos_terms == ((Fraction(3, 4), Fraction(4)),)
        expected = 4 * math.acos(3 / 4) - 4 * math.pi
        assert abs(float(total.value()) - expected) < 1e-12


def brute_force_arf(matrix: SeifertMatrix) -> int:
    """Majority count of the Z_2 quadratic form q(x) = x A x^T mod 2."""
    n = len(matrix.rows)
    zeros = 0
    for bits in product((0, 1), repeat=n):
        q = 0
        for i in range(n):
            for j in range(n):
                q += bits[i] * matrix.rows[i][j] * bits[j]
        zeros += (q % 2) == 0
    return 0 if zeros > 2 ** (n - 1) else 1


class TestArf:
    def test_trefoil(self):
        assert arf(TREFOIL) == 1
        assert brute_force_arf(twist_matrix(1)) == 1

    def test_twist_family_parity(self):
        for n in range(1, 9):
            assert arf(twist_knot(n)) == n % 2
            assert brute_force_arf(twist_matrix(n)) == n % 2

    def test_against_brute_force_on_random_matrices(self):
        rng = random.Random(25)
        for _ in range(15):
            m = random_seifert(rng, rng.randint(1, 2))
            k = FormalKnot.of(Atom(m))
            assert arf(k) == brute_force_arf(m)

    def test_doubling_kills_arf(self):
        rng = random.Random(26)
        for _ in range(5):
            k = random_twist_knot(rng, 2)
            assert arf(k + k) == 0

    def test_additive_mod_two(self):
        rng = random.Random(27)
        for _ in range(8):
            k1 = random_twist_knot(rng, 2)
            k2 = random_twist_knot(rng, 2)
            assert arf(k1 + k2) == (arf(k1) + arf(k2)) % 2

    def test_even_cables_drop_out(self):
        assert arf(twist_knot(1, cable=2)) == 0
        assert arf(twist_knot(1, cable=3)) == 1
        assert arf(twist_knot(1, cable=4)) == 0

    def test_mirror_preserves_arf(self):
        for n in (1, 2, 3):
            assert arf(-twist_knot(n)) == arf(twist_knot(n))

    def test_empty(self):
        assert arf(FormalKnot()) == 0


class TestFormalKnotApi:
    def test_json_round_trip(self):
        rng = random.Random(28)
        k = random_twist_knot(rng, 3)
        k = k + FormalKnot.of(Atom(random_seifert(rng, 1), 2, -1))
        assert FormalKnot.from_json(k.to_json()) == k

    def test_atom_validation(self):
        with pytest.raises(ValueError, match="cable"):
            Atom(twist_matrix(1), 0, 1)
        with pytest.raises(ValueError, match="sign"):
            Atom(twist_matrix(1), 1, 2)

    def test_cable_composition(self):
        k = twist_knot(2, cable=3)
        assert k.cable(2).atoms[0].cable == 6
        with pytest.raises(ValueError, match=">= 1"):
            k.cable(0)


# Roots next to the jump t_n of twist(n), as offsets from the odd exponent
# nearest t_n d, that the cascade decides at 128 bits only because the sign
# of the realification's last pivot follows from the others: at 128 bits
# the last pivot's interval holds 0.
PARITY_ROOTS = ((3, 130, 2), (7, 130, 0), (10 ** 6, 140, 2))


@pytest.mark.parametrize("n, k, offset", PARITY_ROOTS)
def test_last_pivot_follows_from_the_others(n, k, offset):
    d = 2 ** k
    with mpmath.workdps(60):
        s = (int(mpmath.nint(_t_n(n) * d)) | 1) + offset
    ref = signature_profile(twist_knot(n)).evaluate(Fraction(s, d))[0]
    rows = twist_matrix(n).rows
    assert _interval_signature(rows, d, s, 64) is None
    assert _interval_signature(rows, d, s, 128) == ref == -2


@pytest.mark.parametrize("knot, d", [
    (twist_knot(1), 6), (twist_knot(1), 12), (twist_knot(1, 2), 12),
    (twist_knot(1), 18), (twist_knot(1, 2), 24),
    (twist_knot(10 ** 30, 2), 4), (twist_knot(10 ** 30, 2), 8)],
    ids=["trefoil-6", "trefoil-12", "cable-12", "trefoil-18", "cable-24",
         "huge-4", "huge-8"])
def test_evaluate_all_with_jumps_on_turns(knot, d):
    # the trefoil's jumps lie on turns s/d, and at d = 18 the float estimate
    # of 1/6 is the turn above it; for n = 10^30 the float estimate of t_n
    # is 0, so the jump (1 + t_n)/2 is estimated at the turn 1/2 below it
    profile = signature_profile(knot)
    assert profile.evaluate_all(d) == [profile.evaluate(Fraction(s, d))
                                       for s in range(d)]


def test_conjugate_roots_fold_before_the_cascade():
    # at d = 2^150 the float pass leaves both roots open.  Unfolded, s = d - 1
    # encloses phi = pi s/d with an infinite cot below 256 bits; folded, it
    # is the root s = 1, decided at 64 bits like s = 1 itself
    d = 2 ** 150
    seen = []

    def counted(rows, d, s, prec):
        seen.append(prec)
        return _interval_signature(rows, d, s, prec)

    with mock.patch.object(seifert, "_interval_signature", counted):
        assert signature_sweep(((-1, 1), (0, -1)), d, [1, d - 1]) == [0, 0]
    assert seen == [64, 64]


@pytest.mark.parametrize("function, old, new, test", [
    # the realification's lower-left block not negated
    (_interval_signature, "[-x for x in tK[i]] + S[i]", "tK[i] + S[i]",
     lambda: TestIntervalInertia().test_genus_one(8)),
    # the signature of the realification taken for that of N
    (_interval_signature, "sig // 2", "sig",
     lambda: TestIntervalInertia().test_genus_one(8)),
    # the Schur complement update dropped
    (seifert._ldl_signature, "N[i][j] = N[j][i] = N[i][j] - sum(",
     "N[i][j] = N[j][i] = N[i][j] + 0 * sum(",
     lambda: TestIntervalInertia().test_genus_two(9)),
    # the 2 x 2 determinant with the off-diagonal square added
    (seifert._ldl_signature, "- N[i][j] ** 2", "+ N[i][j] ** 2",
     TestIntervalInertia().test_zero_diagonal_takes_block_pivot),
    # a block pivot whose determinant is not certified negative: next to a
    # jump the last two pivots of the realification hold 0 at 64 bits
    (seifert._ldl_signature, "pair[0].b < 0", "pair[0].a < 0",
     lambda: test_last_pivot_follows_from_the_others(7, 130, 0)),
    # the last pivot's sign flipped, or left undecided
    (seifert._ldl_signature, "(1 if (len(N) - 1 + sig) // 2 % 2 else -1)",
     "(-1 if (len(N) - 1 + sig) // 2 % 2 else 1)",
     lambda: test_last_pivot_follows_from_the_others(7, 130, 0)),
    (seifert._ldl_signature, "elif len(live) == 1:", "elif False:",
     lambda: test_last_pivot_follows_from_the_others(7, 130, 0)),
    # the corrections of evaluate_all: an estimate above a jump on a turn
    # not moved down onto it, an estimate below a jump not moved up, or a
    # jump on a turn not counted as at the jump
    (SignatureProfile.evaluate_all,
     "j.compare_to_turn(Fraction(s - 1, d)) <= 0",
     "j.compare_to_turn(Fraction(s - 1, d)) < 0",
     lambda: test_evaluate_all_with_jumps_on_turns(twist_knot(1), 18)),
    (SignatureProfile.evaluate_all,
     "(c := j.compare_to_turn(Fraction(s, d))) > 0",
     "(c := j.compare_to_turn(Fraction(s, d))) > 1",
     lambda: test_evaluate_all_with_jumps_on_turns(twist_knot(10 ** 30, 2), 4)),
    (SignatureProfile.evaluate_all, "if s < d and c == 0:", "if False:",
     lambda: test_evaluate_all_with_jumps_on_turns(twist_knot(1), 6)),
    # a root past d/2 sent to the cascade unfolded
    (signature_sweep, "u = min(u, d - u)", "u = u",
     test_conjugate_roots_fold_before_the_cascade),
    # an atom's sign dropped, or its cable left out of the root it is read at
    (sigma_many, "atom.sign * table[u]", "table[u]",
     lambda: assert_matches_atom_sum(CABLED_MIRROR, 8, range(8))),
    (sigma_many, "s * atom.cable % d", "s % d",
     lambda: assert_matches_atom_sum(CABLED_MIRROR, 8, range(8))),
    # the basis change never made: a zero diagonal leaves a zero minor
    (_leading_minors, "b = _basis_change(a, k, *move)", "b = a",
     lambda: TestFloatStage().test_zero_diagonals_take_block_pivots(9)),
], ids=["lower-left", "half", "schur", "block-det", "uncertified-block",
        "parity-sign", "parity-dropped", "evaluate-all-down",
        "evaluate-all-up", "evaluate-all-at", "conjugate-fold",
        "sweep-sign", "sweep-cable", "minors-unsheared"])
def test_mutants_fail_their_test(monkeypatch, function, old, new, test):
    assert_killed(monkeypatch, function, old, new, test)
