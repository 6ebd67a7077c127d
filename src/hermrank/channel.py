"""Seeded generation of rank-t error vectors and codeword corruption.

Two error shapes are supported.  Arbitrary mode draws t field elements
independent over F_{q^2} and a t x n coefficient matrix over F_{q^2}, so the
error spans a t-dimensional column space; Hermitian mode draws a random
n x t matrix B over F_{q^2} and a nonzero F_q diagonal D and returns the
vector form of the Hermitian matrix B*D*B^*, computed without forming the
matrix.  Either way the achieved rank is recomputed by rank_distance from
the zero word, i.e. as the F_{q^2}-dimension of the span of the error's
entries, and the draw is repeated until it is exactly t, so the advertised
rank is a guarantee rather than an expectation.

An F_{q^2} entry s + u*w (w = fq2_w(), so {1, w} is the reduced basis) is
drawn as its two digits, one draw below q^2 split as divmod(draw, q), and
is never formed as an element: each error entry is an F_q-combination of
the digits (FieldContext.fq_combine), and the conjugate of s + u*w is
s + u*w^q.  A draw costs no memory in q, so the channel, and with it the
CLI's corrupt and simulate, runs at every q the element budget admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .code import CodeParams, rank_distance
from .exceptions import BadParamsError, BadRankError, BadShapeError
from .field import Felt, FieldContext
from .rng import SplitMix64

MODE_ARBITRARY = "arbitrary"
MODE_HERMITIAN = "hermitian"


@dataclass(frozen=True)
class ChannelSpec:
    t: int
    mode: str = MODE_ARBITRARY
    seed: int = 0


def random_rank_error(params: CodeParams, spec: ChannelSpec) -> tuple:
    """Error vector of rank exactly spec.t, deterministic in spec.seed.

    spec.t must be an int in 0..n, else BadRankError, and spec.seed an int,
    else BadParamsError; a bool is neither, as for n and d."""
    ctx = params.ctx
    n = params.n
    if type(spec.t) is not int or not 0 <= spec.t <= n:
        raise BadRankError(f"error rank {spec.t!r} outside 0..{n}")
    if spec.mode not in (MODE_ARBITRARY, MODE_HERMITIAN):
        raise BadParamsError(f"unknown error mode {spec.mode!r}")
    if type(spec.seed) is not int:
        raise BadParamsError(f"channel seed must be an integer, got {spec.seed!r}")
    if spec.t == 0:
        return (ctx.zero,) * n
    rng = SplitMix64(spec.seed)
    zero = (ctx.zero,) * n
    for _ in range(10000):
        if spec.mode == MODE_ARBITRARY:
            e = _draw_arbitrary(ctx, n, spec.t, rng)
        else:
            e = _draw_hermitian(params, n, spec.t, rng)
        if rank_distance(params, e, zero) == spec.t:
            return e
    raise RuntimeError("rank-t sampling failed to converge")  # pragma: no cover


def _fq2_combine(ctx: FieldContext, elems: Sequence[Felt], w: Felt, rows) -> tuple:
    """sum_l (s_l + u_l*w) * elems[l] for each row of F_{q^2} digit pairs
    (s_l, u_l): one F_q-combination of the s digits, then the u digits,
    against elems and w * elems."""
    scaled = [ctx.mul(w, x) for x in elems]
    return ctx.fq_combine([*elems, *scaled], ([s for s, _ in row] + [u for _, u in row] for row in rows))


def _draw_arbitrary(ctx: FieldContext, n: int, t: int, rng: SplitMix64) -> tuple:
    q = ctx.q
    gammas = [ctx.from_coeffs([rng.below(q) for _ in range(ctx.deg)]) for _ in range(t)]
    coeffs = [[divmod(rng.below(q * q), q) for _ in range(n)] for _ in range(t)]
    return _fq2_combine(ctx, gammas, ctx.fq2_w(), zip(*coeffs))


def _draw_hermitian(params: CodeParams, n: int, t: int, rng: SplitMix64) -> tuple:
    ctx = params.ctx
    q = ctx.q
    b = [[divmod(rng.below(q * q), q) for _ in range(t)] for _ in range(n)]
    diag = [1 + rng.below(q - 1) if q > 2 else 1 for _ in range(t)]
    # B*D*B^* has entry (i, r) = sum_l b[i][l] * diag[l] * b[r][l]^q, and
    # matrix_to_vector maps column r to (column r dotted with alpha)^(q^(n+1)),
    # so entry r of the vector is sum_l b[r][l]^q * dbeta[l] with
    # dbeta[l] = (diag[l] * column l of B dotted with alpha)^(q^(n+1)); the
    # F_q scalar diag[l] scales the digits of column l
    w = ctx.fq2_w()
    cols = ([(s * dl % q, u * dl % q) for s, u in col] for dl, col in zip(diag, zip(*b)))
    dbeta = [ctx.frobenius(x, n + 1) for x in _fq2_combine(ctx, params.alpha, w, cols)]
    # (s + u*w)^q = s + u*w^q
    return _fq2_combine(ctx, dbeta, ctx.frobenius(w, 1), b)


def corrupt(ctx: FieldContext, word: Sequence[Felt], error: Sequence[Felt]) -> tuple:
    if len(word) != len(error):
        raise BadShapeError("word and error lengths differ")
    return tuple(ctx.add(c, e) for c, e in zip(word, error))
