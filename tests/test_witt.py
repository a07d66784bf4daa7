"""Tests for hermitian diagonalization, Witt invariants, Hilbert symbols, lambda blocks."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from mutation import assert_killed

import witt_oracle
from lambdatower import cyclo, seifert, witt
from lambdatower.cyclo import CyclotomicNumber, ResourceCapExceeded, zeta
from lambdatower.witt import (
    MAX_BLOCK_WORK,
    DiscClass,
    HermitianForm,
    block_invariants,
    diagonalize,
    embeddings,
    hilbert_symbol,
    lambda_block,
    witt_add,
    witt_invariants,
    witt_neg,
    witt_zero,
)

TREFOIL = ((-1, 1), (0, -1))


def to_complex(x: CyclotomicNumber, s: int = 1) -> complex:
    return sum(complex(c) * np.exp(2j * np.pi * k * s / x.order)
               for k, c in enumerate(x.coeffs))


def form_matrix(form: HermitianForm, s: int = 1) -> np.ndarray:
    n = form.size
    return np.array([[to_complex(form.entries[i][j], s) for j in range(n)]
                     for i in range(n)])


def eig_signature(form: HermitianForm, s: int = 1) -> int:
    """Independent oracle: signature from numerical eigenvalues."""
    vals = np.linalg.eigvalsh(form_matrix(form, s))
    assert all(abs(v) > 1e-9 or abs(v) < 1e-12 for v in vals), vals
    return int(sum(1 for v in vals if v > 1e-9) - sum(1 for v in vals if v < -1e-9))


def leibniz_det(rows):
    """Exact determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term = rows[i][perm[i]] * term
        total = term + total
    return total


def exact_rank(rows):
    """Exact rank as the largest size of a nonzero minor."""
    n = len(rows)
    for k in range(n, 0, -1):
        for r in itertools.combinations(range(n), k):
            for c in itertools.combinations(range(n), k):
                if leibniz_det([[rows[i][j] for j in c] for i in r]) != 0:
                    return k
    return 0


def random_form(rng: random.Random, d: int, n: int) -> HermitianForm:
    def elem():
        from lambdatower.cyclo import degree_of
        return CyclotomicNumber.from_terms(
            d, enumerate([rng.randint(-3, 3) for _ in range(degree_of(d))]))
    b = [[elem() for _ in range(n)] for _ in range(n)]
    rows = [[b[i][j] + b[j][i].conj() for j in range(n)] for i in range(n)]
    return HermitianForm.from_rows(d, rows)


class TestDiagonalize:
    def test_zero_form_is_all_radical(self):
        form = HermitianForm.from_rows(4, [[0, 0], [0, 0]])
        diag = diagonalize(form)
        assert diag.pivots == ()
        assert diag.radical == 2

    def test_trefoil_at_zeta4_pivots(self):
        z = zeta(4)
        form = HermitianForm.from_rows(4, [[2, z * -1 + 1], [1 + z, 2]])
        diag = diagonalize(form)
        assert diag.radical == 0
        assert diag.pivots == (CyclotomicNumber.of(4, 2), CyclotomicNumber.of(4, 1))
        # determinant of the diagonal equals det of the form: 4 - (1-z)(1+z) = 2
        assert diag.pivots[0] * diag.pivots[1] == 2

    def test_hyperbolic_plane_signature_zero_everywhere(self):
        for d in (2, 4, 8, 16):
            form = HermitianForm.from_rows(d, [[0, 1], [1, 0]])
            assert diagonalize(form).radical == 0
            w = witt_invariants(form)
            for s in embeddings(d):
                assert w.signature_at(s) == 0

    def test_imaginary_offdiagonal_needs_zeta_fix(self):
        # the only nonzero entry pair is purely imaginary, so the coef=1
        # symmetrization vanishes and the zeta branch must fire
        z = zeta(4)
        form = HermitianForm.from_rows(4, [[0, z], [z * -1, 0]])
        diag = diagonalize(form)
        assert diag.radical == 0
        assert len(diag.pivots) == 2
        assert witt_invariants(form).sign == 0

    def test_pivots_give_determinant_and_rank(self):
        # Every step of diagonalize is a swap or a column operation of
        # determinant 1, applied to both slots, so the pivots multiply to
        # det F (0 with a radical) and count the rank of F.  The rank-one
        # forms u u* carry a radical for n > 1.
        rng = random.Random(11)
        for d in (2, 3, 4, 8, 9):
            for n in (1, 2, 3, 4):
                form = random_form(rng, d, n)
                u = random_form(rng, d, n).entries[0]
                outer = HermitianForm.from_rows(
                    d, [[a * b.conj() for b in u] for a in u])
                for form in (form, outer):
                    diag = diagonalize(form)
                    product = CyclotomicNumber.of(d, 1)
                    for p in diag.pivots:
                        product = product * p
                    det = leibniz_det(form.entries)
                    assert (product if not diag.radical else 0) == det
                    assert len(diag.pivots) == exact_rank(form.entries)
                    assert diag.radical == n - len(diag.pivots)

    def test_signature_matches_eigenvalue_oracle(self):
        rng = random.Random(23)
        for d in (2, 4, 8):
            for _ in range(8):
                form = random_form(rng, d, 3)
                w = witt_invariants(form)
                for s in embeddings(d):
                    vals = np.linalg.eigvalsh(form_matrix(form, s))
                    if min(abs(vals)) < 1e-7:
                        continue  # oracle cannot certify; exact path needs no skip
                    assert w.signature_at(s) == eig_signature(form, s)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            HermitianForm.from_rows(4, [[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="square"):
            HermitianForm.from_rows(4, [[0, 1]])


_ORACLE_ORDERS = (2, 3, 4, 5, 8, 9, 16, 25, 27)
_SINGULAR_ORDERS = (4, 8, 9, 16, 25, 27)


@st.composite
def _elements(draw, d):
    """An element of Q(zeta_d) with coefficients in [-3, 3] over a small
    denominator, zero about a third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return CyclotomicNumber.of(d, 0)
    phi = cyclo.degree_of(d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    den = draw(st.sampled_from((1, 1, 2, 3)))
    return CyclotomicNumber.from_terms(
        d, enumerate([Fraction(c, den) for c in coeffs]))


@st.composite
def _oracle_forms(draw):
    """Hermitian forms of five kinds: random entries, zero diagonals, purely
    imaginary off-diagonals (which the zeta rescue needs), rank-one forms
    u u*, and lambda_block forms with det A = 0."""
    kind = draw(st.sampled_from(("random", "zero-diagonal", "imaginary",
                                 "rank-one", "singular-block")))
    if kind == "singular-block":
        g = draw(st.integers(1, 3))
        row = st.lists(st.integers(-3, 3), min_size=g, max_size=g)
        rows = draw(st.lists(row, min_size=g - 1, max_size=g - 1))
        # the last row a multiple of the first (or zero) makes det A = 0
        k = draw(st.integers(-2, 2))
        rows.append([k * v for v in rows[0]] if rows else [0])
        d = draw(st.sampled_from(_SINGULAR_ORDERS))
        r = draw(st.integers(1, 3))
        return lambda_block(rows, r, d, draw(st.integers(0, d - 1)))
    d = draw(st.sampled_from(_ORACLE_ORDERS))
    n = draw(st.integers(1, 4))
    if kind == "rank-one":
        u = [draw(_elements(d)) for _ in range(n)]
        return HermitianForm.from_rows(d, [[a * b.conj() for b in u]
                                           for a in u])
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        x = draw(_elements(d))
        rows[i][i] = (CyclotomicNumber.of(d, 0) if kind != "random"
                      else x + x.conj())
        for j in range(i + 1, n):
            x = draw(_elements(d))
            rows[i][j] = x - x.conj() if kind == "imaginary" else x
            rows[j][i] = rows[i][j].conj()
    return HermitianForm.from_rows(d, rows)


@given(_oracle_forms())
@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
@seed(2027)
@example(HermitianForm.from_rows(4, [[0, zeta(4)], [zeta(4) * -1, 0]]))
@example(lambda_block(((0, 1), (0, 0)), 3, 27, 1))
def test_diagonalize_matches_the_column_operation_oracle(form):
    """The same pivots, element by element, and the same radical as the
    elimination by column operations on the whole form."""
    assert diagonalize(form) == witt_oracle.diagonalize(form)


def test_pivot_inverses_come_from_the_memo(monkeypatch):
    """A form diagonalized again inverts none of its pivots."""
    form = lambda_block(((-1, 1), (0, -1)), 2, 9, 1)
    real = CyclotomicNumber.inverse
    inverted = []
    monkeypatch.setattr(CyclotomicNumber, "inverse",
                        lambda x: inverted.append(x) or real(x))
    first = diagonalize(form)
    assert inverted
    count = len(inverted)
    assert diagonalize(form) == first
    assert len(inverted) == count


class TestWittInvariants:
    def test_hyperbolic_plane_is_trivial(self):
        w = witt_invariants(HermitianForm.from_rows(4, [[0, 1], [1, 0]]))
        assert all(v == 0 for _, v in w.signatures)
        assert w.rank_mod_2 == 0
        assert w.disc_class.is_trivial()
        assert w.is_trivial()

    def test_unit_form_over_zeta4(self):
        w = witt_invariants(HermitianForm.from_rows(4, [[1]]))
        assert w.signatures == ((1, 1),)
        assert w.rank_mod_2 == 1
        assert w.disc == 1
        assert not w.is_trivial()

    def test_three_form_disc_class(self):
        w = witt_invariants(HermitianForm.from_rows(4, [[3]]))
        assert w.disc_class == DiscClass(1, frozenset({3}))
        # its obstruction is visible at q = 3: -1 is a non-square mod 3
        assert hilbert_symbol(3, -1, 3) == -1
        assert not w.is_trivial()

    def test_norm_scaled_form_has_trivial_disc(self):
        # 5 = (2+i)(2-i) is a norm from Q(i); 2 = (1+i)(1-i) likewise
        for x in (5, 2, 10, Fraction(5, 2)):
            w = witt_invariants(HermitianForm.from_rows(4, [[x]]))
            assert w.disc_class == DiscClass(1, frozenset())

    def test_adding_hyperbolic_preserves_invariants(self):
        rng = random.Random(5)
        for _ in range(6):
            n = rng.randint(1, 3)
            form = random_form(rng, 4, n)
            padded_rows = [list(row) + [CyclotomicNumber.of(4, 0)] * 2
                           for row in form.entries]
            zero = CyclotomicNumber.of(4, 0)
            one = CyclotomicNumber.of(4, 1)
            padded_rows.append([zero] * n + [zero, one])
            padded_rows.append([zero] * n + [one, zero])
            padded = HermitianForm.from_rows(4, padded_rows)
            a, b = witt_invariants(form), witt_invariants(padded)
            assert a.signatures == b.signatures
            assert a.rank_mod_2 == b.rank_mod_2
            assert a.disc == b.disc
            assert a.disc_class == b.disc_class

    def test_embeddings_listing(self):
        assert embeddings(2) == (1,)
        assert embeddings(4) == (1,)
        assert embeddings(8) == (1, 3)
        assert embeddings(16) == (1, 3, 5, 7)
        assert embeddings(9) == (1, 2, 4)

    def test_radical_ignored_by_invariants(self):
        form = HermitianForm.from_rows(4, [[1, 0], [0, 0]])
        w = witt_invariants(form)
        assert w.radical == 1
        assert w.rank_mod_2 == 1
        assert w.signatures == ((1, 1),)


class TestWittArithmetic:
    def test_x_plus_minus_x_trivial(self):
        rng = random.Random(7)
        for d in (4, 8):
            for _ in range(5):
                form = random_form(rng, d, rng.randint(1, 3))
                w = witt_invariants(form)
                total = witt_add(w, witt_neg(w))
                assert all(v == 0 for _, v in total.signatures)
                assert total.rank_mod_2 == 0
                if d == 4:
                    assert total.disc_class.is_trivial()

    def test_signatures_add_componentwise(self):
        rng = random.Random(13)
        a = witt_invariants(random_form(rng, 8, 2))
        b = witt_invariants(random_form(rng, 8, 3))
        total = witt_add(a, b)
        for (s, v), (_, va), (_, vb) in zip(total.signatures, a.signatures, b.signatures):
            assert v == va + vb

    def test_disc_composition_matches_concatenated_diagonal(self):
        rng = random.Random(17)
        for _ in range(6):
            f1 = random_form(rng, 4, rng.randint(1, 3))
            f2 = random_form(rng, 4, rng.randint(1, 3))
            w1, w2 = witt_invariants(f1), witt_invariants(f2)
            n1, n2 = f1.size, f2.size
            zero = CyclotomicNumber.of(4, 0)
            rows = [list(row) + [zero] * n2 for row in f1.entries]
            rows += [[zero] * n1 + list(row) for row in f2.entries]
            direct = witt_invariants(HermitianForm.from_rows(4, rows))
            composed = witt_add(w1, w2)
            assert direct.disc == composed.disc
            assert direct.disc_class == composed.disc_class
            assert direct.signatures == composed.signatures
            assert direct.rank_mod_2 == composed.rank_mod_2

    def test_neg_disc_matches_negated_form(self):
        rng = random.Random(19)
        for _ in range(6):
            form = random_form(rng, 4, rng.randint(1, 3))
            negated = HermitianForm.from_rows(
                4, [[v * -1 for v in row] for row in form.entries])
            w = witt_neg(witt_invariants(form))
            direct = witt_invariants(negated)
            assert w.disc == direct.disc
            assert w.disc_class == direct.disc_class
            assert w.signatures == direct.signatures

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            witt_add(witt_zero(4), witt_zero(8))

    def test_zero_class_trivial(self):
        for d in (2, 4, 8, 16):
            assert witt_zero(d).is_trivial()


def primitive_sum_of_squares_solutions_mod16():
    """Exhaustive search: primitive solutions of x^2+y^2+z^2 = 0 mod 16.

    A nontrivial 2-adic zero of x^2+y^2+z^2 would scale to a primitive one,
    whose reduction has an odd coordinate and lifts back (the derivative 2x at
    an odd x has valuation 1, so vanishing mod 2^3 | 16 suffices to lift).
    """
    found = []
    for x in range(16):
        for y in range(16):
            for z in range(16):
                if (x * x + y * y + z * z) % 16 == 0 and (x | y | z) & 1:
                    found.append((x, y, z))
    return found


class TestHilbertSymbol:
    def test_minus_one_minus_one_at_two(self):
        assert primitive_sum_of_squares_solutions_mod16() == []
        assert hilbert_symbol(-1, -1, 2) == -1

    def test_two_minus_one_at_two(self):
        # witnessed by 1^2 + 1^2 = 2 * 1^2
        assert 1 * 1 + 1 * 1 == 2 * 1 * 1
        assert hilbert_symbol(2, -1, 2) == 1

    def test_three_minus_one_at_three(self):
        assert sorted({(x * x) % 3 for x in range(1, 3)}) == [1]  # -1 = 2 is not a square
        assert hilbert_symbol(3, -1, 3) == -1

    def test_odd_prime_legendre_oracle(self):
        # (q, -1)_q equals the Legendre symbol (-1 | q), while two units give 1
        for q in (3, 5, 7, 11, 13):
            squares = {(x * x) % q for x in range(1, q)}
            legendre_minus1 = 1 if (q - 1) % q in squares else -1
            assert hilbert_symbol(q, -1, q) == legendre_minus1
            assert hilbert_symbol(2, -1, q) == 1  # both units at odd q

    def test_norms_are_everywhere_positive(self):
        rng = random.Random(29)
        for _ in range(40):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            x = a * a + b * b
            if x == 0:
                continue
            places = {2, 3, 5, 7, "inf"}
            n = x
            q = 2
            while q * q <= n:
                while n % q == 0:
                    places.add(q)
                    n //= q
                q += 1
            if n > 1:
                places.add(n)
            for q in places:
                assert hilbert_symbol(x, -1, q) == 1

    def test_reciprocity_product_over_places(self):
        rng = random.Random(31)
        for _ in range(200):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            if a == 0:
                continue
            support = {2, "inf"}
            n = abs(a.numerator * a.denominator)
            q = 2
            while q * q <= n:
                while n % q == 0:
                    support.add(q)
                    n //= q
                q += 1
            if n > 1:
                support.add(n)
            prod = 1
            for q in support:
                prod *= hilbert_symbol(a, -1, q)
            assert prod == 1

    def test_bilinear_in_first_argument(self):
        rng = random.Random(37)
        for _ in range(100):
            a1 = rng.choice([x for x in range(-30, 31) if x])
            a2 = rng.choice([x for x in range(-30, 31) if x])
            q = rng.choice([2, 3, 5, 7, 11, "inf"])
            assert hilbert_symbol(a1 * a2, -1, q) == \
                hilbert_symbol(a1, -1, q) * hilbert_symbol(a2, -1, q)

    def test_symmetry_and_squares(self):
        rng = random.Random(41)
        for _ in range(50):
            a = rng.choice([x for x in range(-20, 21) if x])
            b = rng.choice([x for x in range(-20, 21) if x])
            q = rng.choice([2, 3, 5, 7, "inf"])
            assert hilbert_symbol(a, b, q) == hilbert_symbol(b, a, q)
            assert hilbert_symbol(a * a, b, q) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            hilbert_symbol(0, 1, 2)
        with pytest.raises(ValueError, match="place"):
            hilbert_symbol(1, 1, 4)
        with pytest.raises(ValueError, match="place"):
            hilbert_symbol(1, 1, "real")


class TestLambdaBlock:
    def test_r1_at_one_is_zero_matrix(self):
        form = lambda_block(TREFOIL, 1, 4, 0)
        assert all(v.is_zero() for row in form.entries for v in row)
        assert witt_invariants(form).rank_mod_2 == 0

    def test_r1_matches_hand_form(self):
        # (1-z)A + (1-z^-1)A^T for A = [[-1,1],[0,-1]]:
        # diagonal -(1-z)-(1-z^-1) = -2 + z + z^-1 = -2, top right 1-z
        z = zeta(4)
        form = lambda_block(TREFOIL, 1, 4, 1)
        expected = HermitianForm.from_rows(4, [[-2, z * -1 + 1], [1 + z, -2]])
        assert form.entries == expected.entries

    def test_trefoil_r1_zeta4_signature(self):
        form = lambda_block(TREFOIL, 1, 4, 1)
        assert witt_invariants(form).sign == -2
        assert eig_signature(form) == -2

    def test_r2_block_layout(self):
        z = zeta(8, 3)
        form = lambda_block(TREFOIL, 2, 8, 3)
        a = [[CyclotomicNumber.of(8, v) for v in row] for row in TREFOIL]
        at = [[a[j][i] for j in range(2)] for i in range(2)]
        for i in range(2):
            for j in range(2):
                assert form.entries[i][j] == a[i][j] + at[i][j]
                assert form.entries[2 + i][2 + j] == a[i][j] + at[i][j]
                assert form.entries[i][2 + j] == (a[i][j] + z.conj() * at[i][j]) * -1
                assert form.entries[2 + i][j] == (at[i][j] + z * a[i][j]) * -1

    def test_r3_at_one_not_zero_class(self):
        # the r-fold block form at the trivial character is the fiber-sum of
        # the r-th roots of 1; for the trefoil that is 0 + (-2) + (-2) = -4
        form = lambda_block(TREFOIL, 3, 4, 0)
        assert witt_invariants(form).sign == -4
        assert eig_signature(form) == -4
        assert not witt_invariants(form).is_trivial()

    def test_block_fiber_sum_identity(self):
        """sign of the r-block form at omega = sum of r=1 signatures over r-th roots."""
        rng = random.Random(43)
        for _ in range(10):
            n = 2 * rng.randint(1, 2)
            sym = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    sym[i][j] = sym[j][i] = rng.randint(-2, 2)
            for i in range(0, n, 2):
                sym[i][i + 1] += 1
            r = rng.choice([2, 3])
            d, t = 8, rng.randrange(8)
            big = form_matrix(lambda_block(sym, r, d, t))
            vals = np.linalg.eigvalsh(big)
            if min(abs(vals)) < 1e-7:
                continue
            total = 0
            omega_arg = 2 * np.pi * t / d
            for k in range(r):
                eta = np.exp(1j * (omega_arg + 2 * np.pi * k) / r)
                small = (1 - eta) * np.array(sym, dtype=complex) + \
                    (1 - eta.conjugate()) * np.array(sym, dtype=complex).T
                sv = np.linalg.eigvalsh(small)
                if min(abs(sv)) < 1e-7:
                    break
                total += int(sum(np.sign(sv)))
            else:
                assert int(sum(np.sign(vals))) == total

    def test_block_work_cap(self):
        # The trefoil's 31-block form at d = 64 has work 62^3 * 32^2, under
        # the cap; its 32-block form (2^28) and the 8-block form at d = 1024
        # (2^30) are refused before any entry is built.
        assert 62 ** 3 * 32 ** 2 <= MAX_BLOCK_WORK < 2 ** 28
        assert lambda_block(TREFOIL, 2, 64, 1).size == 4
        for r, d in ((32, 64), (8, 1024)):
            with pytest.raises(ResourceCapExceeded, match="over the cap"):
                lambda_block(TREFOIL, r, d, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="positive"):
            lambda_block(TREFOIL, 0, 4, 1)
        with pytest.raises(ValueError, match="square"):
            lambda_block(((1, 2, 3), (4, 5, 6)), 1, 4, 1)


class TestPivotSigns:
    """witt_invariants takes its pivot signs from one float product per form;
    certified_sign, the reference, decides only what the float bound leaves
    open."""

    @pytest.mark.parametrize("A, r, d, t", [
        (TREFOIL, 1, 27, 1), (TREFOIL, 3, 16, 5), (TREFOIL, 2, 81, 2),
        (((-1, 1, 0, 0), (0, -1, 0, 0), (0, 0, -1, 1), (0, 0, 0, -2)), 2, 25, 1),
        (((0, 1), (0, 0)), 2, 32, 3), (((-1, 1), (0, -3)), 4, 9, 1),
    ])
    def test_lambda_block_pivots(self, A, r, d, t, monkeypatch):
        diag = diagonalize(lambda_block(A, r, d, t))
        ss = embeddings(d)
        want = tuple(sum(cyclo.certified_sign(p, s) for p in diag.pivots)
                     for s in ss)
        calls = []
        original = cyclo.certified_sign
        monkeypatch.setattr(cyclo, "certified_sign",
                            lambda x, s=1: calls.append(s) or original(x, s))
        w = witt_invariants(lambda_block(A, r, d, t))
        assert tuple(v for _, v in w.signatures) == want
        assert calls == []


_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81,
                 121, 125, 128, 243)
# Largest (r g)^3 phi(d)^2 of a drawn block form, so that the exact
# reference diagonalizes each in a fraction of a second.
_REFERENCE_WORK = 4_000_000


@st.composite
def _block_cases(draw):
    """(A, r, d, t): g <= 3, entries in [-3, 3], r <= 8, prime-power
    d <= 243 and every t < d."""
    g = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=g, max_size=g)
    rows = draw(st.lists(row, min_size=g, max_size=g))
    d = draw(st.sampled_from(_PRIME_POWERS))
    r_max = round((_REFERENCE_WORK / cyclo.degree_of(d) ** 2) ** (1 / 3)) // g
    r = draw(st.integers(1, max(1, min(8, r_max))))
    return rows, r, d, draw(st.integers(0, d - 1))


# Forms the closed form decides: det A != 0 and disc != 0.
_NONSINGULAR = [(TREFOIL, 2, 9, 1), (((-1, 1), (0, -3)), 4, 9, 1),
                (((1, 2, 0), (0, -1, 1), (3, 0, 2)), 3, 27, 2),
                (((2,),), 3, 4, 1), (((-1, 1), (0, -3)), 2, 4, 1)]


@given(_block_cases())
@settings(max_examples=120, deadline=None)
@example((((0, 1), (0, 0)), 2, 32, 3))  # det A = 0, no radical
@example((TREFOIL, 2, 3, 1))  # Delta vanishes at a 6th root: radical 1
@example((((1, 1), (0, 1)), 1, 8, 0))  # t = 0: radical 2
@example((((0,),), 1, 4, 1))
@example((TREFOIL, 2, 2, 1))
@example(_NONSINGULAR[0])
@example(_NONSINGULAR[2])
@example(_NONSINGULAR[3])  # k = 3: the sign (-1)^(k(k-1)/2) is -1
def test_block_invariants_match_the_exact_form(case):
    A, r, d, t = case
    assert block_invariants(A, r, d, t) == \
        witt_invariants(lambda_block(A, r, d, t))


@pytest.mark.parametrize("function, old, new, test", [
    # left, the entry below the pivot, read from the upper triangle
    # without conj
    (diagonalize, "left, out = work[i][j].conj(), work[j]",
     "left, out = work[i][j], work[j]",
     test_diagonalize_matches_the_column_operation_oracle),
    # the diagonal (k = j) of the Schur complement left as it was
    (diagonalize, "out[j] = out[j] - left * ell[j]", "out[j] = out[j]",
     test_diagonalize_matches_the_column_operation_oracle),
    # ell read from the previous pivot's row
    (diagonalize, "ell = {k: work[i][k] * p_inv",
     "ell = {k: work[i - 1][k] * p_inv",
     test_diagonalize_matches_the_column_operation_oracle),
    # the closed-form discriminant without its sign (-1)^(k(k-1)/2)
    (block_invariants, "scale = (-1) ** (k * (k - 1) // 2) * c ** r",
     "scale = c ** r", test_block_invariants_match_the_exact_form),
], ids=["left-conj", "diagonal-update", "pivot-row", "disc-sign"])
def test_mutants_fail_their_test(monkeypatch, function, old, new, test):
    assert_killed(monkeypatch, function, old, new, test)


class TestBlockInvariants:
    """block_invariants against the exact diagonalization it replaces."""

    def test_a_flipped_minor_fails_the_property(self, monkeypatch):
        real = seifert._minor_signs

        def mutant(minors, lo, hi):
            signs = real(minors, lo, hi).copy()
            # the last minor at the first column, u = 1 (and so d - 1) of
            # every order, which the example (TREFOIL, 2, 2, 1) reads
            signs[-1, 0] = -signs[-1, 0]
            return signs

        monkeypatch.setattr(seifert, "_minor_signs", mutant)
        seifert._float_pass.cache_clear()  # a cached row would hide it
        with pytest.raises(AssertionError):
            test_block_invariants_match_the_exact_form()

    @pytest.mark.parametrize("A", [((0, 2), (1, 1)), ((0, 1), (0, 0))])
    def test_zero_leading_minors_need_no_cascade(self, A, monkeypatch):
        # S_00 = 2 A_00 = 0: the float pass reads a congruent basis.  The
        # second matrix has det A = 0 and is built and diagonalized.
        want = {(r, d): witt_invariants(lambda_block(A, r, d, 1))
                for r in range(1, 5) for d in (128, 243, 256)}

        def refuse(*args):
            raise AssertionError("the cascade ran")

        monkeypatch.setattr(seifert, "_cascade_signature", refuse)
        assert {key: block_invariants(A, *key, 1) for key in want} == want

    @pytest.mark.parametrize("case", _NONSINGULAR)
    def test_nonsingular_forms_are_never_built(self, case, monkeypatch):
        want = witt_invariants(lambda_block(*case))

        def refuse(*args):
            raise AssertionError("the exact path ran")

        monkeypatch.setattr(witt, "diagonalize", refuse)
        monkeypatch.setattr(witt, "lambda_block", refuse)
        assert block_invariants(*case) == want

    @pytest.mark.parametrize("case", [(((0, 1), (0, 0)), 2, 32, 3),
                                      (TREFOIL, 2, 3, 1), (TREFOIL, 3, 4, 0)])
    def test_radicals_and_singular_a_fall_back(self, case, monkeypatch):
        calls = []
        original = witt.diagonalize
        monkeypatch.setattr(witt, "diagonalize",
                            lambda form: calls.append(form) or original(form))
        assert block_invariants(*case) == witt_invariants(lambda_block(*case))
        assert len(calls) == 2  # the fallback, then the reference

    def test_checks_come_first(self):
        with pytest.raises(ValueError, match="positive"):
            block_invariants(TREFOIL, 0, 4, 1)
        with pytest.raises(ValueError, match="square"):
            block_invariants(((1, 2, 3), (4, 5, 6)), 1, 4, 1)
        with pytest.raises(ValueError, match="integer"):
            block_invariants(((1.5,),), 1, 4, 1)
        with pytest.raises(ResourceCapExceeded, match="on block forms"):
            block_invariants(TREFOIL, 32, 64, 1)
        with pytest.raises(ResourceCapExceeded, match="degree"):
            block_invariants(TREFOIL, 1, 4096, 1)

    def test_thirty_one_blocks_cost_what_one_does(self):
        # the rational part depends on (A, r) only and the sweep is one
        # numpy pass, so r = 31 at d = 64 needs no 62 x 62 form
        w = block_invariants(TREFOIL, 31, 64, 1)
        assert (w.radical, w.rank_mod_2) == (0, 0)
        assert w.disc.coeffs[:3] == (-4, 3, -1)
