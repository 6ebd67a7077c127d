"""Moore-matrix evaluation and interpolation by generic means, kept as oracles.

The package interpolates through the closed-form inverse moore_inv[r][j] =
alpha_r^(q^(n+2j)), which is only valid on an orthonormal basis, held only
as packed rows (CodeParams.moore_packed, one FieldContext.combine_rows per
interpolation).  It encodes by evaluation, one combine_rows of the window
coefficients with the packed window rows (alpha_r^(q^(2i)))_r of the
transposed Moore matrix (CodeParams.encoder_rows).  lp_interpolate_dots is
the interpolation it replaced, one dot per coefficient over the tuple
table, and encode_via_moore_dots the encoder it replaced, n dots against
the tuple table between conjugations; both are kept as oracles for the
packed rows, on the tuple table that moore_inv_table builds in closed
form.  These helpers build the Moore matrix on arbitrary points and invert
its transpose by Gauss-Jordan elimination, so tests can check the closed
form bit for bit and exercise interpolation on point sets that are not
orthonormal.  lp_eval evaluates a linearized polynomial at any point with
one Frobenius power per live coefficient, the way the encoder used to; the
encoder is cross-checked against it and against the dense product with
the Moore rows.  check_gram tests orthonormality by the n^2 unitary
pairings, the oracle for the package's Moore-table certificate
(code._moore_inv).  selfdual_basis_one_at_a_time is the Gram-Schmidt the
package's basis search replaced, one projection at a time with a fresh
conjugate in every pairing, on the same draws.
"""

from typing import Sequence

from hermrank.code import unitary_pairing
from hermrank.codec import expand_message
from hermrank.exceptions import BasisSearchFailedError
from hermrank.field import Felt, FieldContext
from hermrank.rng import GOLDEN, SplitMix64


def lp_eval(ctx, poly, x):
    live = [i for i, c in enumerate(poly) if c != ctx.zero]
    return ctx.dot([poly[i] for i in live], [ctx.frobenius(x, 2 * i) for i in live])


def lp_interpolate_dots(ctx: FieldContext, tinv: Sequence[Sequence[Felt]], values: Sequence[Felt]) -> tuple:
    """The coefficient tuple of the unique polynomial taking values[r] at the
    points whose transposed Moore matrix has inverse tinv: coefficient j is
    sum_r values[r] * tinv[r][j]."""
    return tuple(ctx.dot(values, col) for col in zip(*tinv))


def moore_rows(ctx, points):
    """rows[r][j] = points[r]^(q^(2j))."""
    n = len(points)
    return tuple(tuple(ctx.frobenius(p, 2 * j) for j in range(n)) for p in points)


def invert_matrix(ctx, rows):
    """Inverse by Gauss-Jordan elimination, or None when singular."""
    n = len(rows)
    aug = [list(rows[i]) + [ctx.one if j == i else ctx.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != ctx.zero), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        ipiv = ctx.inv(aug[col][col])
        aug[col] = [ctx.mul(ipiv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != ctx.zero:
                f = aug[r][col]
                aug[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def transpose(rows):
    return tuple(zip(*rows))


def moore_tinv(ctx, points):
    """Inverse of the transposed Moore matrix on points, the table whose
    packed rows lp_interpolate reads; None when the points are dependent
    over F_{q^2}."""
    return invert_matrix(ctx, transpose(moore_rows(ctx, points)))


def mat_mul(ctx, a, b):
    return tuple(tuple(_dot(ctx, row, col) for col in zip(*b)) for row in a)


def _dot(ctx, xs, ys):
    acc = ctx.zero
    for x, y in zip(xs, ys):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def moore_inv_table(ctx, alpha):
    """The closed-form tuple table moore_inv[r][j] = alpha_r^(q^(n+2j)),
    the inverse of the transposed Moore matrix when alpha is orthonormal."""
    n = len(alpha)
    return tuple(tuple(ctx.frobenius(a, n + 2 * j) for j in range(n)) for a in alpha)


def encode_via_moore_dots(params, msg, table):
    """The codeword the way the package encoded before packed evaluation,
    on the tuple table moore_inv_table(params.ctx, params.alpha).

    With conj(x) = x^(q^n), moore_inv[r][i] = alpha_r^(q^(n+2i)) and q^(2n)
    fixing K give c_r = conj(sum_i conj(g_i) * moore_inv[r][i]): the adjoint
    of interpolation on the tuple table.  g is zero off the window, so only
    its k indices are conjugated and dotted with the matching row entries.
    """
    ctx, n = params.ctx, params.n
    g = expand_message(params, msg)
    window = [i % n for i in range(params.m - params.kappa, params.m + params.kappa + 1)]
    gw = [ctx.frobenius(g[i], n) for i in window]
    return tuple(ctx.frobenius(ctx.dot(gw, [row[i] for i in window]), n) for row in table)


def encode_via_matrix(params, msg):
    """The codeword as the dense product of the coefficient vector with the
    Moore rows on alpha, independent of lp_eval."""
    ctx = params.ctx
    coeffs = expand_message(params, msg)
    return tuple(_dot(ctx, coeffs, row) for row in moore_rows(ctx, params.alpha))


def check_gram(ctx: FieldContext, basis: Sequence[Felt]) -> None:
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = ctx.one if i == j else ctx.zero
            if unitary_pairing(ctx, a, b) != want:
                raise BasisSearchFailedError("basis failed its Gram identity recheck")


def selfdual_basis_one_at_a_time(ctx: FieldContext) -> tuple:
    """Orthonormal basis by Gram-Schmidt from the same seeded draws as
    code.find_selfdual_basis: v_j = v_(j-1) - <a_j, v_(j-1)> a_j over the
    prefix, each pairing from scratch, then the norm-equation scaling."""
    q, deg = ctx.q, ctx.deg
    rng = SplitMix64(q * GOLDEN + ctx.n)
    basis: list = []
    while len(basis) < ctx.n:
        for _ in range(64 * q):
            v = ctx.from_coeffs(rng.draws(q, deg))
            for a in basis:
                v = ctx.sub(v, ctx.mul(unitary_pairing(ctx, a, v), a))
            sp = unitary_pairing(ctx, v, v)
            if sp != ctx.zero:
                basis.append(ctx.mul(ctx.solve_hermitian_norm(ctx.inv(sp)), v))
                break
        else:
            raise BasisSearchFailedError("no anisotropic extension found")
    return tuple(basis)
