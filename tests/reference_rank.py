"""Ranks the package no longer computes, and the matrix-path Hermitian draw,
kept as oracles.

The package computes every word rank as the F_q-dimension of a span of
field elements (FieldContext.fq_rank), never builds a matrix on its hot
paths, and certifies a decode by register closure instead of a map rank.
These helpers keep what that replaced: the rank of a linearized map,
generic elimination over K, the Dickson matrix of a linearized polynomial,
and the Hermitian channel draw that forms B*D*B^* entry by entry before
converting it to vector form.
"""

from dataclasses import dataclass

from hermrank.code import matrix_to_vector
from reference_moore import lp_eval


def map_rank(ctx, poly):
    """Rank over F_{q^2} of the linear map x -> poly(x) on K.

    The map is F_q-linear on K, a 2n-dimensional F_q-space, so its F_q-rank
    is the span rank of the images of the monomial basis X^k; that is twice
    the F_{q^2}-rank because the image is an F_{q^2}-subspace.
    """
    monomials = [ctx.from_coeffs([int(i == k) for i in range(ctx.deg)]) for k in range(ctx.deg)]
    full = ctx.fq_rank([lp_eval(ctx, poly, x) for x in monomials])
    assert full % 2 == 0  # F_{q^2}-linearity forces an even F_q-rank
    return full // 2


def matrix_rank(ctx, rows):
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


@dataclass(frozen=True)
class DicksonMatrix:
    rows: tuple


def dickson(ctx, poly):
    """Matrix with entry (i, j) = coeffs[(i-j) mod n]^(q^(2j)).

    Column 0 is the coefficient vector itself; column j is column 0 shifted
    cyclically by j with the j-th power of the automorphism applied.
    """
    n = len(poly)
    rows = tuple(
        tuple(ctx.frobenius(poly[(i - j) % n], 2 * j) for j in range(n)) for i in range(n)
    )
    return DicksonMatrix(rows=rows)


def draw_hermitian_via_matrix(params, n, t, rng, sub2):
    """The Hermitian channel draw through the full matrix: the same RNG
    draws as channel._draw_hermitian, then all n^2 entries of B*D*B^*,
    then matrix_to_vector."""
    ctx = params.ctx
    q = ctx.q
    b = [[sub2[rng.below(len(sub2))] for _ in range(t)] for _ in range(n)]
    diag = [ctx.from_base(1 + rng.below(q - 1)) if q > 2 else ctx.one for _ in range(t)]
    # entry (i, j) = sum_l b[i][l] * diag[l] * b[j][l]^q
    bd = [[ctx.mul(x, dl) for x, dl in zip(row, diag)] for row in b]
    bq = [[ctx.frobenius(x, 1) for x in row] for row in b]
    rows = tuple(tuple(ctx.dot(left, right) for right in bq) for left in bd)
    return matrix_to_vector(params, rows)
