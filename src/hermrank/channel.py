"""Seeded generation of rank-t error vectors and codeword corruption.

Two error shapes are supported.  Arbitrary mode draws t field elements
independent over F_{q^2} and a t x n coefficient matrix over F_{q^2}, so the
error spans a t-dimensional column space; Hermitian mode builds B*D*B^* from
a random n x t matrix B over F_{q^2} and a nonzero F_q diagonal D, which is
structurally Hermitian, and converts the matrix to vector form.  Either way
the achieved rank is recomputed from the matrix coordinates and the draw is
repeated until it is exactly t, so the advertised rank is a guarantee rather
than an expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .code import CodeParams, HermitianMatrix, codeword_to_matrix, matrix_to_vector
from .exceptions import BadParamsError, BadRankError
from .field import Felt, FieldContext
from .linpoly import fq2_matrix_rank
from .rng import SplitMix64

MODE_ARBITRARY = "arbitrary"
MODE_HERMITIAN = "hermitian"


@dataclass(frozen=True)
class ChannelSpec:
    t: int
    mode: str = MODE_ARBITRARY
    seed: int = 0


def random_rank_error(params: CodeParams, spec: ChannelSpec) -> tuple:
    """Error vector of rank exactly spec.t, deterministic in spec.seed."""
    ctx = params.ctx
    n = params.n
    if not 0 <= spec.t <= n:
        raise BadRankError(f"error rank {spec.t} outside 0..{n}")
    if spec.mode not in (MODE_ARBITRARY, MODE_HERMITIAN):
        raise BadParamsError(f"unknown error mode {spec.mode!r}")
    if spec.t == 0:
        return (ctx.zero,) * n
    rng = SplitMix64(spec.seed)
    sub2 = ctx.subfield_elements(2)
    for _ in range(10000):
        if spec.mode == MODE_ARBITRARY:
            e = _draw_arbitrary(ctx, n, spec.t, rng, sub2)
        else:
            e = _draw_hermitian(params, n, spec.t, rng, sub2)
        if fq2_matrix_rank(ctx, codeword_to_matrix(params, e).rows) == spec.t:
            return e
    raise RuntimeError("rank-t sampling failed to converge")  # pragma: no cover


def _draw_arbitrary(ctx: FieldContext, n: int, t: int, rng: SplitMix64, sub2) -> tuple:
    q = ctx.q
    gammas = [ctx.from_coeffs([rng.below(q) for _ in range(ctx.deg)]) for _ in range(t)]
    coeffs = [[sub2[rng.below(len(sub2))] for _ in range(n)] for _ in range(t)]
    out = []
    for i in range(n):
        acc = ctx.zero
        for l in range(t):
            c = coeffs[l][i]
            if c != ctx.zero:
                acc = ctx.add(acc, ctx.mul(gammas[l], c))
        out.append(acc)
    return tuple(out)


def _draw_hermitian(params: CodeParams, n: int, t: int, rng: SplitMix64, sub2) -> tuple:
    ctx = params.ctx
    q = ctx.q
    b = [[sub2[rng.below(len(sub2))] for _ in range(t)] for _ in range(n)]
    diag = [ctx.from_base(1 + rng.below(q - 1)) if q > 2 else ctx.one for _ in range(t)]
    # entry (i, j) = sum_l b[i][l] * diag[l] * b[j][l]^q
    bd = [[ctx.mul(x, dl) for x, dl in zip(row, diag)] for row in b]
    bq = [[ctx.frobenius(x, 1) for x in row] for row in b]
    rows = tuple(tuple(ctx.dot(left, right) for right in bq) for left in bd)
    return matrix_to_vector(params, HermitianMatrix(rows=rows))


def corrupt(ctx: FieldContext, word: Sequence[Felt], error: Sequence[Felt]) -> tuple:
    if len(word) != len(error):
        raise ValueError("word and error lengths differ")
    return tuple(ctx.add(c, e) for c, e in zip(word, error))
