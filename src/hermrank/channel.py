"""Seeded generation of rank-t error vectors and codeword corruption.

Two error shapes are supported.  Arbitrary mode draws t field elements
independent over F_{q^2} and a t x n coefficient matrix over F_{q^2}, so the
error spans a t-dimensional column space; Hermitian mode draws a random
n x t matrix B over F_{q^2} and a nonzero F_q diagonal D and returns the
vector form of the Hermitian matrix B*D*B^*, computed without forming the
matrix.  Either way the draw is repeated until its rank is exactly t, so
the advertised rank is a guarantee rather than an expectation.

Each draw returns its error with an F_q-spanning list it has already
formed, and the draw is kept when the list's F_q-rank is 2t: one
elimination per draw, on a list the draw needed anyway.  The list is
FieldContext.fq2_span(elems, v) for some v in F_{q^2} outside F_q, whose
F_q-span is the F_{q^2}-span of elems, of F_q-dimension twice its
F_{q^2}-dimension.

* Arbitrary mode: elems is the error itself, so the check is the one
  rank_distance makes from the zero word, less the n subtractions of zero.
* Hermitian mode: elems is dbeta, the t elements the draw combines with
  the conjugated rows of B (in _draw_hermitian), and v = w^q.  dbeta has
  the F_{q^2}-rank of B: the map x -> sum_r x_r alpha_r is an
  F_{q^2}-isomorphism F_{q^2}^n -> K, scaling column l by d_l in F_q*
  keeps the rank, and so does raising to q^(n+1), an automorphism of K
  that fixes F_{q^2} since n + 1 is even.  The error's rank, the
  F_{q^2}-dimension of the span of its entries (rank_distance), is
  rank(B*D*B^*), and that is t exactly when rank(B) = t: then B*D has
  trivial kernel, so the rank is rank(B^*) = t, and otherwise it is at
  most rank(B) < t.  So the check keeps exactly the draws rank_distance
  would, and every seeded error is the same; only on a rejected draw may
  the two ranks differ.

Every digit comes from blocks of SplitMix64.draws, in the order per-call
draws would take.  Arbitrary mode draws t * 2n digits below q for the t
gammas, then t * n draws below q^2 for the t x n coefficient matrix, row by
row; Hermitian mode draws n * t below q^2 for B, row by row, then, for
q > 2 only, t below q - 1 for the diagonal of D.  An F_{q^2} entry s + u*w
(w = fq2_w(), so {1, w} is the reduced basis) is one draw below q^2 split
as divmod(draw, q) into its two digits, and is never formed as an element:
each error entry is an F_q-combination of the digits
(FieldContext.fq_combine), and the conjugate of s + u*w is s + u*w^q.  A
draw costs no memory in q, so the channel, and with it the CLI's corrupt
and simulate, runs at every q the element budget admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .code import CodeParams
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
    if spec.t == 0:  # the arbitrary draw would have no digit rows and return ()
        return (ctx.zero,) * n
    rng = SplitMix64(spec.seed)
    draw = _draw_arbitrary if spec.mode == MODE_ARBITRARY else _draw_hermitian
    for _ in range(10000):
        e, span = draw(params, n, spec.t, rng)
        if ctx.fq_rank(span) == 2 * spec.t:
            return e
    raise RuntimeError("rank-t sampling failed to converge")  # pragma: no cover


def _fq2_combine(ctx: FieldContext, span: Sequence[Felt], rows) -> tuple:
    """sum_l (s_l + u_l*w) * elems[l] for each row of F_{q^2} digit pairs
    (s_l, u_l), with span = fq2_span(elems, w): one F_q-combination of the
    s digits, then the u digits, against elems and w * elems."""
    return ctx.fq_combine(span, ([s for s, _ in row] + [u for _, u in row] for row in rows))


def _draw_arbitrary(params: CodeParams, n: int, t: int, rng: SplitMix64) -> tuple:
    """(e, fq2_span(e, w)) for e = the t x n matrix of F_{q^2} digits
    applied to t random gammas."""
    ctx = params.ctx
    q, w, deg = ctx.q, ctx.fq2_w(), ctx.deg
    digits = rng.draws(q, t * deg)
    gammas = [ctx.from_coeffs(digits[i : i + deg]) for i in range(0, t * deg, deg)]
    coeffs = [divmod(x, q) for x in rng.draws(q * q, t * n)]
    # coeffs holds t rows of n; column r is coeffs[r], coeffs[r + n], ...
    e = _fq2_combine(ctx, ctx.fq2_span(gammas, w), (coeffs[r::n] for r in range(n)))
    return e, ctx.fq2_span(e, w)


def _draw_hermitian(params: CodeParams, n: int, t: int, rng: SplitMix64) -> tuple:
    """(e, fq2_span(dbeta, w^q)) for e the vector form of B*D*B^*."""
    ctx = params.ctx
    q = ctx.q
    pairs = [divmod(x, q) for x in rng.draws(q * q, n * t)]
    b = [pairs[i : i + t] for i in range(0, n * t, t)]
    diag = [1 + x for x in rng.draws(q - 1, t)] if q > 2 else [1] * t
    # B*D*B^* has entry (i, r) = sum_l b[i][l] * diag[l] * b[r][l]^q, and
    # matrix_to_vector maps column r to (column r dotted with alpha)^(q^(n+1)),
    # so entry r of the vector is sum_l b[r][l]^q * dbeta[l] with
    # dbeta[l] = (diag[l] * column l of B dotted with alpha)^(q^(n+1)); the
    # F_q scalar diag[l] scales the digits of column l
    w = ctx.fq2_w()
    cols = ([(s * dl % q, u * dl % q) for s, u in col] for dl, col in zip(diag, zip(*b)))
    dbeta = [ctx.frobenius(x, n + 1) for x in _fq2_combine(ctx, ctx.fq2_span(params.alpha, w), cols)]
    # (s + u*w)^q = s + u*w^q
    span = ctx.fq2_span(dbeta, ctx.frobenius(w, 1))
    return _fq2_combine(ctx, span, b), span


def corrupt(ctx: FieldContext, word: Sequence[Felt], error: Sequence[Felt]) -> tuple:
    if len(word) != len(error):
        raise BadShapeError("word and error lengths differ")
    return tuple(ctx.add(c, e) for c, e in zip(word, error))
