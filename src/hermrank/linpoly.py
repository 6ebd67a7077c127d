"""Linearized polynomials over K = F_{q^(2n)} with respect to x -> x^(q^2).

A polynomial is the coefficient vector (g_0, ..., g_{n-1}) of the map
x -> sum_i g_i * x^(q^(2i)), which is F_{q^2}-linear on K.  The module
provides evaluation, interpolation through a given inverse of the
transposed Moore matrix M[r][j] = points[r]^(q^(2j)) (the code supplies it
in closed form for its orthonormal basis, see code._assemble), the
associated Dickson matrix, and rank computations for both the induced
linear map and explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .field import Felt, FieldContext, _f2_rank, _fq_rank


@dataclass(frozen=True)
class LinearizedPoly:
    """Coefficient vector of x -> sum_i coeffs[i] * x^(q^(2i))."""

    coeffs: tuple


def lp_zero(ctx: FieldContext, n: int) -> LinearizedPoly:
    return LinearizedPoly((ctx.zero,) * n)


def lp_eval(ctx: FieldContext, poly: LinearizedPoly, x: Felt) -> Felt:
    live = [i for i, c in enumerate(poly.coeffs) if c != ctx.zero]
    return ctx.dot([poly.coeffs[i] for i in live], [ctx.frobenius(x, 2 * i) for i in live])


def lp_interpolate(ctx: FieldContext, tinv: Sequence[Sequence[Felt]], values: Sequence[Felt]) -> LinearizedPoly:
    """The unique polynomial taking values[r] at the points whose transposed
    Moore matrix has inverse tinv: coefficient j is sum_r values[r] * tinv[r][j]."""
    return LinearizedPoly(tuple(ctx.dot(values, col) for col in zip(*tinv)))


@dataclass(frozen=True)
class DicksonMatrix:
    rows: tuple


def dickson(ctx: FieldContext, poly: LinearizedPoly) -> DicksonMatrix:
    """Matrix with entry (i, j) = coeffs[(i-j) mod n]^(q^(2j)).

    Column 0 is the coefficient vector itself; column j is column 0 shifted
    cyclically by j with the j-th power of the automorphism applied.
    """
    n = len(poly.coeffs)
    rows = tuple(
        tuple(ctx.frobenius(poly.coeffs[(i - j) % n], 2 * j) for j in range(n)) for i in range(n)
    )
    return DicksonMatrix(rows=rows)


def map_rank(ctx: FieldContext, poly: LinearizedPoly) -> int:
    """Rank over F_{q^2} of the linear map x -> poly(x) on K.

    The map is F_q-linear on K viewed as a 2n-dimensional F_q-space, and its
    F_q-rank is twice its F_{q^2}-rank because the kernel is an
    F_{q^2}-subspace.  The monomial images needed for the 2n columns come
    straight from the cached Frobenius tables, so no basis of K over F_{q^2}
    is involved; this keeps the computation independent of any code-level
    basis choice.
    """
    live = [i for i, c in enumerate(poly.coeffs) if c != ctx.zero]
    if not live:
        return 0
    cols = ctx.linear_images([poly.coeffs[i] for i in live], [2 * i for i in live])
    if ctx.q == 2:
        full = _f2_rank(cols)
    else:
        full = _fq_rank([list(v) for v in cols], ctx.q)
    assert full % 2 == 0  # F_{q^2}-linearity forces an even F_q-rank
    return full // 2


def matrix_rank(ctx: FieldContext, rows: Sequence[Sequence[Felt]]) -> int:
    """Rank by elimination over K; valid for entries in any subfield too,
    since rank does not change under field extension."""
    work = [list(r) for r in rows]
    if not work or not work[0]:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != ctx.zero), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f != ctx.zero:
                # cross-multiplied update avoids inversions: p*row - f*pivot_row
                work[r] = [
                    ctx.sub(ctx.mul(p, x), ctx.mul(f, y)) for x, y in zip(work[r], work[rank])
                ]
        rank += 1
        if rank == len(work):
            break
    return rank


def fq2_matrix_rank(ctx: FieldContext, rows: Sequence[Sequence[Felt]]) -> int:
    """Rank over F_{q^2} of a matrix whose entries lie in F_{q^2}.

    Each entry a = s + t*w becomes the 2x2 matrix of multiplication by a on
    F_{q^2} over the basis {1, w}; the blown-up 2r x 2c matrix over F_q has
    twice the rank of the original.  For q = 2 the blown-up rows pack into
    ints and eliminate by XOR, which is what makes the heavy rank loops
    (distance scans, channel rank checks) cheap.
    """
    nrows = len(rows)
    if nrows == 0 or len(rows[0]) == 0:
        return 0
    q = ctx.q
    ncols = len(rows[0])
    w = ctx.fq2_w()
    s0, s1 = ctx.fq2_coords(ctx.mul(w, w))
    big = []
    for i in range(nrows):
        top = [0] * (2 * ncols)
        bot = [0] * (2 * ncols)
        for j in range(ncols):
            s, t = ctx.fq2_coords(rows[i][j])
            top[2 * j] = s
            top[2 * j + 1] = (t * s0) % q
            bot[2 * j] = t
            bot[2 * j + 1] = (s + t * s1) % q
        big.append(top)
        big.append(bot)
    if q == 2:
        packed = [sum(bit << k for k, bit in enumerate(row)) for row in big]
        full = _f2_rank(packed)
    else:
        full = _fq_rank(big, q)
    assert full % 2 == 0
    return full // 2
