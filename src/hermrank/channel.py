"""Seeded generation of rank-t error vectors and codeword corruption.

Two error shapes are supported.  Arbitrary mode draws t field elements
independent over F_{q^2} and a t x n coefficient matrix over F_{q^2}, so the
error spans a t-dimensional column space; Hermitian mode draws a random
n x t matrix B over F_{q^2} and a nonzero F_q diagonal D and returns the
vector form of the Hermitian matrix B*D*B^*, computed without forming the
matrix.  Either way the draw is repeated until its rank is exactly t, so
the advertised rank is a guarantee rather than an expectation.

A draw is kept when its error's F_{q^2}-rank, the rank rank_distance
takes from the zero word, is t, and each mode decides that from t-element
lists it forms anyway or from the drawn digits, never from the n entries
of the error.  The F_{q^2}-rank of t elements is half the fq_rank of their
fq2_span(elems, v) for a v in F_{q^2} outside F_q, whose F_q-span is their
F_{q^2}-span.

* Arbitrary mode: e = C^T gamma, entry r the sum over l of C[l][r] *
  gamma_l.  With phi(x) = sum_l x_l gamma_l, an F_{q^2}-linear map
  F_{q^2}^t -> K, the span of the entries of e is phi(colspace C).  If
  the gammas are F_{q^2}-independent, phi is injective and rank(e) =
  rank C; if they are not, rank(e) <= dim phi(F_{q^2}^t) < t; and rank(e)
  <= rank C always.  So rank(e) = t exactly when the gammas are
  independent and rank C = t.  The first is fq_rank(fq2_span(gammas, w))
  = 2t, on the span the combination builds anyway.  For the second, row
  l of C, entries s_r + u_r*w, maps to rho_l = sum_r (s_r + u_r*w) *
  alpha_r, one F_q-combination of the alpha-span fq2_span(alpha, w) with
  the digits (s_1 .. s_n, u_1 .. u_n).  The map x -> sum_r x_r alpha_r
  is an F_{q^2}-isomorphism F_{q^2}^n -> K, so the rho have the
  F_{q^2}-rank of C's rows, and rank C = t exactly when
  fq_rank(fq2_span(rho, w)) = 2t, with no coordinates of w^2.  So both
  checks are eliminations on 2t elements, and the error is formed only
  when both pass.
* Hermitian mode: the list is fq2_span(dbeta, w^q), where dbeta holds the
  t elements the draw combines with the conjugated rows of B (in
  _draw_hermitian).  dbeta has the F_{q^2}-rank of B: the same
  isomorphism x -> sum_r x_r alpha_r maps B's columns into K, scaling
  column l by d_l in F_q* keeps the rank, and so does raising to q^(n+1), an
  automorphism of K that fixes F_{q^2} since n + 1 is even.  The error's
  rank is rank(B*D*B^*), and that is t exactly when rank(B) = t: then B*D
  has trivial kernel, so the rank is rank(B^*) = t, and otherwise it is
  at most rank(B) < t.

So each check keeps exactly the draws rank_distance would, and every
seeded error is the same as when the draw checked the rank of e itself.
What a draw uses that depends only on the code, the packed alpha-span
and w^q, is prepared once per code, in the one memo
CodeParams._draw_forms.

Every digit comes from blocks of SplitMix64.draws, in the order per-call
draws would take, and a draw takes all its blocks before any check, so a
rejected draw leaves the stream where a kept one would.  Arbitrary mode
draws t * 2n digits below q for the t gammas, then t * n draws below q^2
for the t x n coefficient matrix, row by row; Hermitian mode draws n * t
below q^2 for B, row by row, then, for q > 2 only, t below q - 1 for the
diagonal of D.  An F_{q^2} entry s + u*w (w = fq2_w(), so {1, w} is the
reduced basis) is one draw below q^2 split as divmod(draw, q) into its two
digits, and is never formed as an element: each error entry is an
F_q-combination of the digits (FieldContext._combine, fq_combine without
the check on its digits, which are in range by construction), and the
conjugate of s + u*w is s + u*w^q.  A draw costs no memory in q, so the
channel, and with it the CLI's corrupt and simulate, runs at every q the
element budget admits.
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
    if spec.t == 0:  # the zero word; the draws take t >= 1 digit blocks
        return (ctx.zero,) * n
    rng = SplitMix64(spec.seed)
    draw = _draw_arbitrary if spec.mode == MODE_ARBITRARY else _draw_hermitian
    for _ in range(10000):
        e = draw(params, n, spec.t, rng)
        if e is not None:
            return e
    raise RuntimeError("rank-t sampling failed to converge")  # pragma: no cover


def _draw_arbitrary(params: CodeParams, n: int, t: int, rng: SplitMix64) -> tuple | None:
    """e = C^T gamma for t random gammas and a random t x n matrix C of
    F_{q^2} digits, or None when rank(e) < t: when the gammas are
    F_{q^2}-dependent or rank C < t (module docstring).  Both digit
    blocks are drawn first, and C's rows are mapped only for independent
    gammas."""
    ctx = params.ctx
    q = ctx.q
    w = ctx.fq2_w()
    gammas = ctx._from_digits(rng.draws(q, t * ctx.deg))
    xs = rng.draws(q * q, t * n)
    span = ctx.fq2_span(gammas, w)
    if ctx.fq_rank(span) < 2 * t:
        return None
    # C holds t rows of n entries s + u*w, row by row; column r is
    # s[r::n], u[r::n]
    s, u = [x // q for x in xs], [x % q for x in xs]
    rho = ctx._combine(params._draw_forms[2], (s[i : i + n] + u[i : i + n] for i in range(0, t * n, n)))
    if ctx.fq_rank(ctx.fq2_span(rho, w)) < 2 * t:
        return None
    # sum_l (s_l + u_l*w) * gamma_l is one F_q-combination of span
    return ctx._combine(ctx._packed(span), (s[r::n] + u[r::n] for r in range(n)))


def _draw_hermitian(params: CodeParams, n: int, t: int, rng: SplitMix64) -> tuple | None:
    """The vector form of B*D*B^*, or None when rank(B) < t (module
    docstring)."""
    ctx = params.ctx
    q = ctx.q
    # B holds n rows of t entries s + u*w; column l is s[l::t], u[l::t]
    xs = rng.draws(q * q, n * t)
    s, u = [x // q for x in xs], [x % q for x in xs]
    diag = [1 + x for x in rng.draws(q - 1, t)] if q > 2 else [1] * t
    # B*D*B^* has entry (i, r) = sum_l b[i][l] * diag[l] * b[r][l]^q, and
    # matrix_to_vector maps column r to (column r dotted with alpha)^(q^(n+1)),
    # so entry r of the vector is sum_l b[r][l]^q * dbeta[l] with
    # dbeta[l] = (diag[l] * column l of B dotted with alpha)^(q^(n+1)); the
    # F_q scalar diag[l] scales the digits of column l
    cols = ([x * dl % q for x in s[l::t] + u[l::t]] for l, dl in enumerate(diag))
    _, wq, alpha_span = params._draw_forms
    dbeta = [ctx.frobenius(x, n + 1) for x in ctx._combine(alpha_span, cols)]
    # (s + u*w)^q = s + u*w^q
    span = ctx.fq2_span(dbeta, wq)
    if ctx.fq_rank(span) < 2 * t:
        return None
    return ctx._combine(ctx._packed(span), (s[i : i + t] + u[i : i + t] for i in range(0, n * t, t)))


def corrupt(ctx: FieldContext, word: Sequence[Felt], error: Sequence[Felt]) -> tuple:
    if len(word) != len(error):
        raise BadShapeError("word and error lengths differ")
    return tuple(ctx.add(c, e) for c, e in zip(word, error))
