"""Reference hermitian diagonalization by column operations.

`diagonalize` is the elimination that `witt.diagonalize` replaced: every
step is a swap or a basis change v_dst += coef * v_src applied to both slots
of the whole form, so a pivot row is cleared with one column operation per
target and every entry of the target's row and column is recomputed.  Its
pivot rule is the one `witt.diagonalize` keeps (the first nonzero diagonal,
else the coef-1 or zeta rescue, then the swap), so the two must agree on
every pivot and on the radical.
"""
from lambdatower.cyclo import CyclotomicNumber, zeta
from lambdatower.witt import Diagonalization, HermitianForm


def diagonalize(form: HermitianForm) -> Diagonalization:
    """Exact hermitian diagonalization with the radical split off.

    Each step is a swap or a basis change v_dst += coef * v_src, applied to
    both slots of the form, so the product of the pivots is det F when there
    is no radical, and their number is the rank of F.
    """
    d = form.order
    n = form.size
    work = [list(row) for row in form.entries]

    def col_swap(a, b):
        for row in work:
            row[a], row[b] = row[b], row[a]
        work[a], work[b] = work[b], work[a]

    def col_add(dst, src, coef):
        # basis change v_dst += coef * v_src, applied to both slots of the form
        cc = coef.conj()
        for row in work:
            row[dst] = row[dst] + row[src] * coef
        work[dst] = [work[dst][j] + cc * work[src][j] for j in range(n)]

    pivots = []
    i = 0
    while i < n:
        pivot_at = next((j for j in range(i, n) if not work[j][j].is_zero()), None)
        if pivot_at is None:
            off = next(((j, k) for j in range(i, n) for k in range(j + 1, n)
                        if not work[j][k].is_zero()), None)
            if off is None:
                break  # remaining block is the radical
            j, k = off
            a = work[j][k]
            if not (a + a.conj()).is_zero():
                coef = CyclotomicNumber.of(d, 1)
            else:
                # a is purely imaginary; zeta - zeta^-1 is nonzero for d > 2
                coef = zeta(d)
            col_add(j, k, coef)
            pivot_at = j
        if pivot_at != i:
            col_swap(i, pivot_at)
        p = work[i][i]
        # col_add(j, i, .) changes row and column j only, so row i keeps its
        # other entries and the pivot is inverted once
        targets = [j for j in range(i + 1, n) if not work[i][j].is_zero()]
        if targets:
            p_inv = p.inverse()
            for j in targets:
                col_add(j, i, work[i][j] * p_inv * -1)
        pivots.append(p)
        i += 1
    return Diagonalization(d, tuple(pivots), n - len(pivots))
