"""Code-level structure: parameters, orthonormal basis, matrix conversions.

The codes live on K = F_{q^(2n)} carrying the Hermitian form

    <x, y> = rel_trace(x^(q^n) * y)

with values in F_{q^2}.  The conjugation of this unitary geometry is
x -> x^(q^n): for odd n it is the unique involutory automorphism of K whose
restriction to F_{q^2} is the usual y -> y^q, and with it the form above is
conjugate-symmetric with self-pairings in F_q.  (Using the exponent q
instead of q^n does not give a conjugate-symmetric form once n > 1, so no
basis can be orthonormal for it; the q^n form is the one that admits the
orthonormal bases constructed here.)

A codeword vector c = (c_0, ..., c_{n-1}) converts to an n x n matrix over
F_{q^2} whose column r holds the coordinates of c_r over the orthonormal
basis; for codewords this matrix is Hermitian (A equals its conjugate
transpose), and rank distance between vectors is the F_{q^2}-rank of the
difference matrix.  That conversion is an F_{q^2}-isomorphism, so the rank
is computed as the F_{q^2}-dimension of the span of the difference's
entries, with no matrix built.

The basis's derived tables are kept only as the field engine's packed
rows (FieldContext.pack_rows: one int a row at odd q, one shift table a
row at q = 2), built once per code.  The inverse Moore matrix
moore_inv[r][j] = alpha_r^(q^(n+2j)) gives moore_packed: interpolating
alpha through those rows is the basis's only certificate (_moore_inv),
and decoding interpolates through the same rows, so the tables decode
reads are the very objects the certificate checked.
The k window rows (alpha_r^(q^(2i)))_r of the transposed Moore matrix give
encoder_rows, through which encoding is one packed evaluation.  The matrix
conversions read alpha itself.  Extraction splits each mirrored pair over
{1, eta} with two F_q-linear maps, tables like the Frobenius powers' kept
in a per-code memo (CodeParams._eta_split) built when extraction first
splits a pair, never by a load.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .exceptions import BadParamsError, BadShapeError, BasisSearchFailedError, NotInSubfieldError
from .field import Felt, FieldContext, context_from_json_obj, json_field, make_context
from .linpoly import lp_interpolate
from .rng import GOLDEN, SplitMix64


def unitary_pairing(ctx: FieldContext, x: Felt, y: Felt) -> Felt:
    """<x, y> = rel_trace(x^(q^n) * y); conjugate-linear in x, linear in y."""
    return ctx.rel_trace(ctx.mul(ctx.frobenius(x, ctx.n), y))


def find_selfdual_basis(ctx: FieldContext) -> tuple:
    """Orthonormal basis of K for the unitary pairing, by Gram-Schmidt.

    Random candidate vectors come from a SplitMix64 stream seeded from
    (q, n) only, so the result is deterministic; a candidate's 2n digits
    are one block of draws.  Each step projects the candidate v against the
    prefix a_0 .. a_(i-1), rejects it while its self-pairing is zero (the
    isotropic cone misses most vectors), and scales by a solution of the
    norm equation so the self-pairing becomes exactly 1.  The result is
    certified once, by build_params (see _moore_inv).

    The conjugate a_j^(q^n) of each accepted a_j is kept, so the pairings
    <a_j, v> = rel_trace(a_j^(q^n) * v) are one product and one trace each,
    and the projection is one dot of at most n - 1 terms:
    v - sum_j <a_j, v> a_j.  That is the vector one-at-a-time Gram-Schmidt
    reaches, which pairs a_j with v_(j-1) = v - sum_(l<j) <a_l, v> a_l
    instead of v: the pairing is linear in its second argument and
    <a_j, a_l> = 0 for l != j, so <a_j, v_(j-1)> = <a_j, v>.
    """
    q, deg, n = ctx.q, ctx.deg, ctx.n
    rng = SplitMix64(q * GOLDEN + n)
    basis: list[Felt] = []
    conjugates: list[Felt] = []
    budget = 64 * q
    while len(basis) < n:
        for _ in range(budget):
            (v,) = ctx._from_digits(rng.draws(q, deg))
            v = ctx.sub(v, ctx.dot([ctx.rel_trace(ctx.mul(c, v)) for c in conjugates], basis))
            sp = unitary_pairing(ctx, v, v)
            if sp != ctx.zero:
                scale = ctx.solve_hermitian_norm(ctx.inv(sp))
                basis.append(ctx.mul(scale, v))
                conjugates.append(ctx.frobenius(basis[-1], n))
                break
        else:
            raise BasisSearchFailedError(
                f"no anisotropic extension found in {budget} draws at step {len(basis)}"
            )
    return tuple(basis)


def _cyclic_order(n: int, d: int) -> list:
    """The n coefficient indices in decoding order, from the first exposed
    index m+kappa+1 = n+1-radius, that is 1-radius (mod n): the d-1
    exposed indices, then the window m-kappa .. m+kappa.  The code's one
    index decision: the decoder reads beta in this order, and the encoder
    rows follow its window."""
    return [(p + 1 - (d - 1) // 2) % n for p in range(n)]


def _moore_inv(ctx: FieldContext, alpha: tuple, d: int) -> CodeParams:
    """The CodeParams of the basis alpha: the packed rows (ctx.pack_rows)
    of the table moore_inv[r][j] = alpha_r^(q^(n+2j)), certified, and the
    encoder rows.  It makes no inversion; extraction's split over {1, eta}
    is built on first use (CodeParams._eta_split).

    Unless the packed rows interpolate the identity map's values alpha
    back to the polynomial x, one packed combination,
    BasisSearchFailedError.  Decoding interpolates through the same rows,
    the same objects (at q = 2 the same shift tables, built here once),
    so the table it reads is the one certified.  The check accepts exactly
    the orthonormal bases, and on them the table is the inverse of the
    transposed Moore matrix M[r][j] = alpha_r^(q^(2j)):

    Coefficient k of the interpolation is c_k = sum_r alpha_r *
    alpha_r^(q^(n+2k)), and sum_k c_k x^(q^(2k)) = sum_r <alpha_r, x> alpha_r
    with <x, y> = rel_trace(x^(q^n) y).  A q^2-linearized polynomial of
    q^2-degree < n that vanishes on all of K is zero, its degree being below
    |K|, so c = (1, 0, ..., 0) exactly when x = sum_r <alpha_r, x> alpha_r
    for every x in K.  That identity makes alpha span K over F_{q^2}, so
    its n elements are a basis, and at x = alpha_s it reads <alpha_r,
    alpha_s> = [r = s], the Gram identity; the converse is immediate.
    Raising c_k = [k = 0] to q^(2a) gives (M^T moore_inv)[a][b] =
    c_{b-a}^(q^(2a)) = [a = b] (b - a taken mod n), so the same check
    certifies the inverse.

    Encoder row i, for i over the window in the cyclic order, packs the
    column (M[r][i])_r = (alpha_r^(q^(2i)))_r, the conjugates
    moore_inv[r][i]^(q^n) of the certified entries, since q^(2n) fixes K.
    So a codeword, the evaluation sum_i g_i * M[r][i] of a polynomial g
    supported on the window, is one packed combination of the k rows
    (codec.encode).  Row r of the table is alpha_r^(q^n), then T_2
    applied again and again, n^2 applications in all on T_n and T_2 alone,
    and the conjugation reads T_n again; so it builds those two tables and
    the ones their compositions need, and no other.  Both callers
    (build_params, params_from_json_obj) end in it.
    """
    n, apply, t2 = ctx.n, ctx._apply_linear, ctx._frob_rows(2)
    table = []
    for a in alpha:
        row = [ctx.frobenius(a, n)]
        for _ in range(n - 1):
            row.append(apply(t2, row[-1]))
        table.append(row)
    rows = ctx.pack_rows(table)
    if lp_interpolate(ctx, rows, alpha) != (ctx.one,) + (ctx.zero,) * (n - 1):
        raise BasisSearchFailedError("basis failed its Gram identity recheck")
    window = _cyclic_order(n, d)[d - 1 :]
    encoder_rows = ctx.pack_rows([[ctx.frobenius(row[i], n) for row in table] for i in window])
    return CodeParams(ctx, d, alpha, rows, encoder_rows)


@dataclass(frozen=True)
class CodeParams:
    """Everything fixed once (q, n, d) is chosen.

    m = (n+1)/2 and kappa = (n-d)/2 locate the width-k window of nonzero
    polynomial coefficients; k = n-d+1 is the message length over F_{q^n}.
    These, n and the radius are fixed by n and d, so they are derived, not
    stored.  So is eta = X (ctx.gen), the second basis vector of K over
    F_{q^n}: X generates K over F_q with degree 2n, so it cannot lie in
    the index-2 subfield F_{q^n}, and {1, X} is an F_{q^n}-basis of K.
    alpha is the orthonormal basis, moore_packed the packed rows of the
    inverse of the transposed Moore matrix on alpha, through which
    interpolation is one packed combination and which certified alpha, and
    encoder_rows the packed k window rows of the transposed Moore matrix,
    through which encoding is one packed combination (all three from
    _moore_inv).  Two per-code memos sit beside the fields: _draw_forms,
    which the draws combine with, and _eta_split, the maps extraction
    splits each mirrored pair with over {1, eta}.
    """

    ctx: FieldContext
    d: int
    alpha: tuple
    # ctx.pack_rows of moore_inv[r][j] = alpha_r^(q^(n+2j)): the rows (at
    # q = 2 the shift tables) the certificate interpolated through, and the
    # ones decode reads
    moore_packed: tuple
    # ctx.pack_rows of (alpha_r^(q^(2i)))_r, i over the window in cyclic order
    encoder_rows: tuple

    @property
    def eta(self) -> Felt:
        return self.ctx.gen

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def m(self) -> int:
        return (self.n + 1) // 2

    @property
    def kappa(self) -> int:
        return (self.n - self.d) // 2

    @property
    def k(self) -> int:
        return self.n - self.d + 1

    @property
    def radius(self) -> int:
        return (self.d - 1) // 2

    # what the draws use that depends only on the code, prepared on first
    # use, once per code; a cached_property, not a field, so ==, repr and
    # the params JSON do not see it

    @functools.cached_property
    def _draw_forms(self) -> tuple:
        """The F_{q^n} basis packed by ctx._packed, which random_message
        combines with by ctx._combine; w^q, which the Hermitian draw
        uses; and fq2_span(alpha, w) packed, which both channel draws
        combine rows of F_{q^2} digits with."""
        ctx = self.ctx
        w = ctx.fq2_w()
        return ctx._packed(ctx.subfield_basis(ctx.n)), ctx.frobenius(w, 1), ctx._packed(ctx.fq2_span(self.alpha, w))

    @functools.cached_property
    def _eta_split(self) -> tuple:
        """The tables (ctx._to_rows) U and V of the F_q-linear maps lo -> u
        and lo -> v with lo^(q^(2n-1)) = u + eta*v over F_{q^n}, which
        extraction applies to each mirrored pair (codec.extract_message).

        With s = 1/(eta - eta^(q^n)) and b_i = (X^i)^(q^(2n-1)): applying
        x -> x^(q^n) fixes u and v and sends eta to eta^(q^n), so v = s*(b -
        b^(q^n)), and b^(q^n) = lo^(q^(3n-1)) = lo^(q^(n-1)) as q^(2n) fixes
        K; so v_i = s*(b_i - (X^i)^(q^(n-1))) and u_i = b_i - eta*v_i.  One
        inversion and 4n products on the monomials' images under T_(2n-1)
        and T_(n-1); built when extraction first splits a pair, so never
        for a code with kappa = 0.
        """
        ctx, n, eta = self.ctx, self.n, self.eta
        s = ctx.inv(ctx.sub(eta, ctx.frobenius(eta, n)))
        bs = ctx.frob_images(2 * n - 1)
        vs = [ctx.mul(s, ctx.sub(b, c)) for b, c in zip(bs, ctx.frob_images(n - 1))]
        return ctx._to_rows([ctx.sub(b, ctx.mul(eta, v)) for b, v in zip(bs, vs)]), ctx._to_rows(vs)


def build_params(q: int, n: int, d: int) -> CodeParams:
    """Validate (q, n, d) and assemble deterministic code parameters."""
    ctx = make_context(q, n)
    _check_d(ctx, d)
    return _moore_inv(ctx, find_selfdual_basis(ctx), d)


def _check_d(ctx: FieldContext, d) -> None:
    """BadParamsError unless d is an odd integer (not a bool, as in
    json_field) with 1 <= d <= n."""
    if type(d) is not int or d % 2 == 0 or not 1 <= d <= ctx.n:
        raise BadParamsError(f"d must be odd with 1 <= d <= n = {ctx.n}, got {d}")


def _check_square(rows: Sequence[Sequence[Felt]], n: int) -> None:
    """BadShapeError unless rows is an n x n matrix."""
    if len(rows) != n or any(len(row) != n for row in rows):
        raise BadShapeError(f"matrix must be {n} x {n}")


def is_hermitian(ctx: FieldContext, rows: Sequence[Sequence[Felt]]) -> bool:
    """True when the square matrix rows over F_{q^2} equals its conjugate
    transpose: rows[i][j] == rows[j][i]^q for all i, j.  A matrix that is
    not square raises BadShapeError."""
    n = len(rows)
    _check_square(rows, n)
    return all(rows[i][j] == ctx.frobenius(rows[j][i], 1) for i in range(n) for j in range(n))


def codeword_to_matrix(params: CodeParams, c: Sequence[Felt]) -> tuple:
    """The n x n matrix over F_{q^2}, as a tuple of row tuples, whose column
    r holds the coordinates of c_r over the orthonormal basis.

    Entry (i, r) is rel_trace(alpha_i^q * c_r), with one Frobenius power
    per basis element.  The map is total: any length-n vector converts,
    and only genuine codewords are guaranteed a Hermitian result (see
    is_hermitian).  A vector of any other length raises BadShapeError.
    """
    if len(c) != params.n:
        raise BadShapeError(f"words need exactly {params.n} components")
    ctx = params.ctx
    alpha_q = [ctx.frobenius(a, 1) for a in params.alpha]
    return tuple(tuple(ctx.rel_trace(ctx.mul(aq, cr)) for cr in c) for aq in alpha_q)


def matrix_to_vector(params: CodeParams, rows: Sequence[Sequence[Felt]]) -> tuple:
    """Inverse of codeword_to_matrix.

    The coordinate functionals z -> rel_trace(alpha_i^q * z) are expanded
    against the basis alpha_i^(q^(n+1)): the pairing of functional i with
    expansion vector j is rel_trace((alpha_i^(q^n) * alpha_j)^(q^(n+1))),
    and the trace is invariant under q^2-powers, so orthonormality makes it
    delta_ij exactly.  Entry r is the column r of the matrix dotted with
    that basis.  The column's entries lie in F_{q^2}, which x -> x^(q^(n+1))
    fixes (n + 1 is even), so that dot is (column r dotted with
    alpha)^(q^(n+1)): one Frobenius per column and no stored table.  A
    matrix that is not n x n raises BadShapeError, and one with an entry
    outside F_{q^2}, for which that identity fails, NotInSubfieldError.
    """
    _check_square(rows, params.n)
    ctx = params.ctx
    if not all(ctx.in_subfield(x, 2) for row in rows for x in row):
        raise NotInSubfieldError("matrix entries must lie in F_{q^2}")
    return tuple(ctx.frobenius(ctx.dot(col, params.alpha), params.n + 1) for col in zip(*rows))


def rank_distance(params: CodeParams, a: Sequence[Felt], b: Sequence[Felt]) -> int:
    """F_{q^2}-rank of the difference matrix of two vectors, with no matrix.

    The coordinate map z -> (rel_trace(alpha_i^q * z))_i is an
    F_{q^2}-isomorphism K -> F_{q^2}^n, so the rank of the difference
    matrix, whose columns are the coordinates of the entries diff_r, is
    dim over F_{q^2} of span{diff_r}.  With F_{q^2} = F_q + F_q * w, that
    span is the F_q-span of diff and w * diff (FieldContext.fq2_span),
    whose F_q-dimension is twice the rank.  Both vectors must have n
    entries.  The channel checks its draws on the same kind of span, and
    this stays the reference its tests compare with.
    """
    if len(a) != params.n or len(b) != params.n:
        raise BadShapeError(f"words need exactly {params.n} components")
    ctx = params.ctx
    diff = [ctx.sub(x, y) for x, y in zip(a, b)]
    full = ctx.fq_rank(ctx.fq2_span(diff, ctx.fq2_w()))
    if full % 2:
        raise RuntimeError("an F_{q^2}-span has odd F_q-dimension")
    return full // 2


# -- serialization ----------------------------------------------------------


def params_to_json_obj(params: CodeParams) -> dict:
    ctx = params.ctx
    return {
        "q": ctx.q,
        "n": ctx.n,
        "d": params.d,
        "modulus": list(ctx.modulus),
        "alpha": [ctx.to_coeffs(a) for a in params.alpha],
        "eta": ctx.to_coeffs(params.eta),
    }


def params_from_json_obj(obj: dict) -> CodeParams:
    """Rebuild params from JSON, recomputing and cross-checking everything
    derivable, in this order: canonical modulus, d, alpha's shape and
    length, orthonormality (the Moore-table certificate of _moore_inv,
    whose packed rows the params keep with the encoder rows), eta = X.
    Only an object with integers q, n, d and lists modulus, alpha, eta is
    read; any other shape raises BadParamsError naming the field."""
    ctx = context_from_json_obj(obj)
    d = json_field(obj, "d", int, "params", BadParamsError)
    _check_d(ctx, d)
    alpha = tuple(ctx.felt_from_json(a) for a in json_field(obj, "alpha", list, "params", BadParamsError))
    if len(alpha) != ctx.n:
        raise BadParamsError(f"expected {ctx.n} basis elements, got {len(alpha)}")
    try:
        params = _moore_inv(ctx, alpha, d)
    except BasisSearchFailedError as exc:
        raise BadParamsError("stored basis is not orthonormal") from exc
    if ctx.felt_from_json(json_field(obj, "eta", list, "params", BadParamsError)) != ctx.gen:
        raise BadParamsError("stored eta is not X")
    return params
