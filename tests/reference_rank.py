"""Ranks the package no longer computes, and the channel and message draws
it replaced, kept as oracles.

The package computes every word rank as the F_q-dimension of a span of
field elements (FieldContext.fq_rank), never builds a matrix on its hot
paths, and certifies a decode by register closure instead of a map rank.
These helpers keep what that replaced: the rank of a linearized map,
generic elimination over K, the Dickson matrix of a linearized polynomial,
and the Hermitian channel draw that forms B*D*B^* entry by entry before
converting it to vector form.

The channel draws each F_{q^2} entry as two F_q digits and combines them
with FieldContext._combine, fq_combine without the digit check.  The draws it replaced index the list of all
q^2 elements, sub2 = subfield_elements(2), and multiply elements with dot;
random_message_dots is the message draw that embedded its digits and
dotted them with the basis.  They make the same RNG calls in the same
order, so they must give the same errors and messages.
"""

from dataclasses import dataclass

from hermrank.channel import MODE_ARBITRARY
from hermrank.code import matrix_to_vector, rank_distance
from hermrank.codec import Message
from hermrank.rng import SplitMix64
from reference_field import from_base
from reference_moore import lp_eval


def map_rank(ctx, poly):
    """Rank over F_{q^2} of the linear map x -> poly(x) on K.

    The map is F_q-linear on K, a 2n-dimensional F_q-space, so its F_q-rank
    is the span rank of the images of the monomial basis X^k; that is twice
    the F_{q^2}-rank because the image is an F_{q^2}-subspace.
    """
    monomials = [ctx.from_coeffs([int(i == k) for i in range(ctx.deg)]) for k in range(ctx.deg)]
    full = ctx.fq_rank([lp_eval(ctx, poly, x) for x in monomials])
    if full % 2:
        # F_{q^2}-linearity forces an even F_q-rank; a raise, unlike an
        # assert outside a test module, also runs under python -O
        raise RuntimeError("map has odd F_q-rank")
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
    diag = [from_base(ctx, 1 + rng.below(q - 1)) if q > 2 else ctx.one for _ in range(t)]
    # entry (i, j) = sum_l b[i][l] * diag[l] * b[j][l]^q
    bd = [[ctx.mul(x, dl) for x, dl in zip(row, diag)] for row in b]
    bq = [[ctx.frobenius(x, 1) for x in row] for row in b]
    rows = tuple(tuple(ctx.dot(left, right) for right in bq) for left in bd)
    return matrix_to_vector(params, rows)


def draw_arbitrary_listed(ctx, n, t, rng, sub2):
    q = ctx.q
    gammas = [ctx.from_coeffs([rng.below(q) for _ in range(ctx.deg)]) for _ in range(t)]
    coeffs = [[sub2[rng.below(len(sub2))] for _ in range(n)] for _ in range(t)]
    return tuple(ctx.dot(col, gammas) for col in zip(*coeffs))


def draw_hermitian_listed(params, n, t, rng, sub2):
    ctx = params.ctx
    q = ctx.q
    b = [[sub2[rng.below(len(sub2))] for _ in range(t)] for _ in range(n)]
    diag = [from_base(ctx, 1 + rng.below(q - 1)) if q > 2 else ctx.one for _ in range(t)]
    dbeta = [ctx.mul(dl, ctx.frobenius(ctx.dot(col, params.alpha), n + 1)) for dl, col in zip(diag, zip(*b))]
    return tuple(ctx.dot(dbeta, [ctx.frobenius(x, 1) for x in row]) for row in b)


def random_rank_error_listed(params, spec):
    """channel.random_rank_error through the list-indexed draws, for a
    valid spec.t >= 1."""
    ctx, n = params.ctx, params.n
    rng = SplitMix64(spec.seed)
    sub2 = ctx.subfield_elements(2)
    zero = (ctx.zero,) * n
    while True:
        if spec.mode == MODE_ARBITRARY:
            e = draw_arbitrary_listed(ctx, n, spec.t, rng, sub2)
        else:
            e = draw_hermitian_listed(params, n, spec.t, rng, sub2)
        if rank_distance(params, e, zero) == spec.t:
            return e


def random_message_dots(params, rng):
    ctx = params.ctx
    basis = ctx.subfield_basis(ctx.n)
    digits = [[rng.below(ctx.q) for _ in basis] for _ in range(params.k)]
    return Message(tuple(ctx.dot([from_base(ctx, c) for c in row], basis) for row in digits))
