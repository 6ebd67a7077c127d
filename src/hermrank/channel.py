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

F_{q^2} entries come from subfield_elements(2), a list of all q^2 elements,
so a nonzero error needs memory in proportion to q^2.  Above q^2 = 2^20
(the oracle's DEFAULT_ENUM_LIMIT; the largest such prime is q = 1021) the
channel, and with it the CLI's corrupt and simulate, raises TooLargeError
before building that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .code import CodeParams, rank_distance
from .exceptions import BadParamsError, BadRankError, BadShapeError, TooLargeError
from .field import Felt, FieldContext
from .oracle import DEFAULT_ENUM_LIMIT
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
    if ctx.q * ctx.q > DEFAULT_ENUM_LIMIT:
        raise TooLargeError(f"q^2 = {ctx.q * ctx.q} exceeds the channel's bound of {DEFAULT_ENUM_LIMIT}")
    rng = SplitMix64(spec.seed)
    sub2 = ctx.subfield_elements(2)
    zero = (ctx.zero,) * n
    for _ in range(10000):
        if spec.mode == MODE_ARBITRARY:
            e = _draw_arbitrary(ctx, n, spec.t, rng, sub2)
        else:
            e = _draw_hermitian(params, n, spec.t, rng, sub2)
        if rank_distance(params, e, zero) == spec.t:
            return e
    raise RuntimeError("rank-t sampling failed to converge")  # pragma: no cover


def _draw_arbitrary(ctx: FieldContext, n: int, t: int, rng: SplitMix64, sub2) -> tuple:
    q = ctx.q
    gammas = [ctx.from_coeffs([rng.below(q) for _ in range(ctx.deg)]) for _ in range(t)]
    coeffs = [[sub2[rng.below(len(sub2))] for _ in range(n)] for _ in range(t)]
    return tuple(ctx.dot(col, gammas) for col in zip(*coeffs))


def _draw_hermitian(params: CodeParams, n: int, t: int, rng: SplitMix64, sub2) -> tuple:
    ctx = params.ctx
    q = ctx.q
    b = [[sub2[rng.below(len(sub2))] for _ in range(t)] for _ in range(n)]
    diag = [ctx.from_base(1 + rng.below(q - 1)) if q > 2 else ctx.one for _ in range(t)]
    # B*D*B^* has entry (i, r) = sum_l b[i][l] * diag[l] * b[r][l]^q, and
    # matrix_to_vector maps column r to (column r dotted with alpha)^(q^(n+1)),
    # so entry r of the vector is sum_l diag[l] * beta[l] * b[r][l]^q with
    # beta[l] = (column l of B dotted with alpha)^(q^(n+1))
    dbeta = [ctx.mul(dl, ctx.frobenius(ctx.dot(col, params.alpha), n + 1)) for dl, col in zip(diag, zip(*b))]
    return tuple(ctx.dot(dbeta, [ctx.frobenius(x, 1) for x in row]) for row in b)


def corrupt(ctx: FieldContext, word: Sequence[Felt], error: Sequence[Felt]) -> tuple:
    if len(word) != len(error):
        raise BadShapeError("word and error lengths differ")
    return tuple(ctx.add(c, e) for c, e in zip(word, error))
