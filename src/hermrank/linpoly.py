"""Linearized polynomials over K = F_{q^(2n)} with respect to x -> x^(q^2).

A polynomial is the coefficient vector (g_0, ..., g_{n-1}) of the map
x -> sum_i g_i * x^(q^(2i)), which is F_{q^2}-linear on K.  The module
provides evaluation, interpolation through a given inverse of the
transposed Moore matrix M[r][j] = points[r]^(q^(2j)) (the code supplies it
in closed form for its orthonormal basis, see code._assemble), and the
rank of the induced linear map, read off the span of its monomial images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .field import Felt, FieldContext


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
    full = ctx.fq_rank(ctx.linear_images([poly.coeffs[i] for i in live], [2 * i for i in live]))
    assert full % 2 == 0  # F_{q^2}-linearity forces an even F_q-rank
    return full // 2
