"""Linearized polynomials over K = F_{q^(2n)} with respect to x -> x^(q^2).

A polynomial is the coefficient tuple (g_0, ..., g_{n-1}) of the map
x -> sum_i g_i * x^(q^(2i)), which is F_{q^2}-linear on K.  The module
provides interpolation through a given inverse of the transposed Moore
matrix M[r][j] = points[r]^(q^(2j)) (the code supplies it in closed form
for its orthonormal basis, see code._moore_inv), held as the packed rows of
FieldContext.pack_rows: interpolation is one packed combination of those
rows (FieldContext.combine_rows), and the code's rows are the ones its
certificate interpolated through.  Evaluation on the code's basis is the
same packed combination, on the window rows of the transposed Moore matrix
(CodeParams.encoder_rows, codec.encode); evaluation at arbitrary points is
a test oracle.
"""

from __future__ import annotations

from typing import Sequence

from .field import Felt, FieldContext


def lp_interpolate(ctx: FieldContext, rows: Sequence[int | tuple[int, ...]], values: Sequence[Felt]) -> tuple:
    """The coefficient tuple of the unique polynomial taking values[r] at the
    points whose transposed Moore matrix has inverse tinv, given as the
    engine's packed rows ctx.pack_rows(tinv), one int a row at odd q and
    one shift table a row at q = 2: coefficient j is sum_r values[r] *
    tinv[r][j], all n of them from one packed combination."""
    return ctx.combine_rows(values, rows)
