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
rows.  The inverse Moore matrix moore_inv[r][j] = alpha_r^(q^(n+2j)) gives
moore_packed: interpolating alpha through those rows is the basis's only
certificate (_moore_inv), and decoding interpolates through the same rows.
The k window rows (alpha_r^(q^(2i)))_r of the transposed Moore matrix give
encoder_rows, through which encoding is one packed evaluation.  The matrix
conversions read alpha itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exceptions import BadParamsError, BadShapeError, BasisSearchFailedError
from .field import Felt, FieldContext, context_from_json_obj, json_field, make_context
from .linpoly import lp_interpolate
from .rng import GOLDEN, SplitMix64


def unitary_pairing(ctx: FieldContext, x: Felt, y: Felt) -> Felt:
    """<x, y> = rel_trace(x^(q^n) * y); conjugate-linear in x, linear in y."""
    return ctx.rel_trace(ctx.mul(ctx.frobenius(x, ctx.n), y))


def find_selfdual_basis(ctx: FieldContext) -> tuple:
    """Orthonormal basis of K for the unitary pairing, by Gram-Schmidt.

    Random candidate vectors come from a SplitMix64 stream seeded from
    (q, n) only, so the result is deterministic.  Each step projects the
    candidate against the prefix, rejects it while its self-pairing is zero
    (the isotropic cone misses most vectors), and scales by a solution of
    the norm equation so the self-pairing becomes exactly 1.  The result is
    certified once, by build_params (see _moore_inv).
    """
    q, deg = ctx.q, ctx.deg
    rng = SplitMix64(q * GOLDEN + ctx.n)
    basis: list[Felt] = []
    budget = 64 * q
    while len(basis) < ctx.n:
        for _ in range(budget):
            v = ctx.from_coeffs([rng.below(q) for _ in range(deg)])
            for a in basis:
                v = ctx.sub(v, ctx.mul(unitary_pairing(ctx, a, v), a))
            sp = unitary_pairing(ctx, v, v)
            if sp != ctx.zero:
                scale = ctx.solve_hermitian_norm(ctx.inv(sp))
                basis.append(ctx.mul(scale, v))
                break
        else:
            raise BasisSearchFailedError(
                f"no anisotropic extension found in {budget} draws at step {len(basis)}"
            )
    return tuple(basis)


def _center(n: int) -> int:
    """m, the index the message window is centred on (CodeParams.m)."""
    return (n + 1) // 2


def _half_width(n: int, d: int) -> int:
    """kappa, the window's half-width (CodeParams.kappa)."""
    return (n - d) // 2


def _cyclic_order(n: int, d: int) -> list:
    """The n coefficient indices in decoding order, from the first exposed
    index m+kappa+1 (mod n): the d-1 exposed indices, then the window
    m-kappa .. m+kappa.  The code's one index decision: the decoder reads
    beta in this order, and the encoder rows follow its window."""
    start = _center(n) + _half_width(n, d) + 1
    return [(start + p) % n for p in range(n)]


def _moore_inv(ctx: FieldContext, alpha: tuple, d: int) -> CodeParams:
    """The CodeParams of the basis alpha: the packed rows (ctx.pack_rows)
    of the table moore_inv[r][j] = alpha_r^(q^(n+2j)), certified, the
    encoder rows and the constant 1 / (eta - eta^(q^n)) for eta = X.

    Unless the packed rows interpolate the identity map's values alpha
    back to the polynomial x, one packed combination,
    BasisSearchFailedError.  Decoding interpolates through the same rows,
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
    (codec.encode).  The conjugation reads the one Frobenius table the
    certificate built, so a load builds no other.  Both callers
    (build_params, params_from_json_obj) end in it.
    """
    n = ctx.n
    table = tuple(tuple(ctx.frobenius(a, n + 2 * j) for j in range(n)) for a in alpha)
    rows = ctx.pack_rows(table)
    if lp_interpolate(ctx, rows, alpha) != (ctx.one,) + (ctx.zero,) * (n - 1):
        raise BasisSearchFailedError("basis failed its Gram identity recheck")
    window = _cyclic_order(n, d)[d - 1 :]
    encoder_rows = ctx.pack_rows([[ctx.frobenius(row[i], n) for row in table] for i in window])
    split_inv = ctx.inv(ctx.sub(ctx.gen, ctx.frobenius(ctx.gen, n)))
    return CodeParams(ctx, d, alpha, rows, encoder_rows, split_inv)


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
    interpolation is one packed combination and which certified alpha,
    encoder_rows the packed k window rows of the transposed Moore matrix,
    through which encoding is one packed combination, eta_split_inv the
    constant decompose_eta divides by (all three from _moore_inv).
    """

    ctx: FieldContext
    d: int
    alpha: tuple
    moore_packed: tuple  # ctx.pack_rows of moore_inv[r][j] = alpha_r^(q^(n+2j))
    encoder_rows: tuple  # ctx.pack_rows of (alpha_r^(q^(2i)))_r, i over the window in cyclic order
    eta_split_inv: Felt  # 1 / (eta - eta^(q^n))

    @property
    def eta(self) -> Felt:
        return self.ctx.gen

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def m(self) -> int:
        return _center(self.n)

    @property
    def kappa(self) -> int:
        return _half_width(self.n, self.d)

    @property
    def k(self) -> int:
        return self.n - self.d + 1

    @property
    def radius(self) -> int:
        return (self.d - 1) // 2


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


def decompose_eta(params: CodeParams, b: Felt) -> tuple:
    """Split b = u + eta*v into its F_{q^n} coordinates (u, v).

    Applying x -> x^(q^n) fixes u and v and swaps nothing else, so v falls
    out of the difference b - b^(q^n); both outputs land in F_{q^n} for
    every b because {1, eta} is a basis of K over F_{q^n}.
    """
    ctx = params.ctx
    v = ctx.mul(ctx.sub(b, ctx.frobenius(b, ctx.n)), params.eta_split_inv)
    u = ctx.sub(b, ctx.mul(params.eta, v))
    return u, v


def is_hermitian(ctx: FieldContext, rows: Sequence[Sequence[Felt]]) -> bool:
    """True when the square matrix rows over F_{q^2} equals its conjugate
    transpose: rows[i][j] == rows[j][i]^q for all i, j."""
    n = len(rows)
    return all(rows[i][j] == ctx.frobenius(rows[j][i], 1) for i in range(n) for j in range(n))


def codeword_to_matrix(params: CodeParams, c: Sequence[Felt]) -> tuple:
    """The n x n matrix over F_{q^2}, as a tuple of row tuples, whose column
    r holds the coordinates of c_r over the orthonormal basis.

    Entry (i, r) is rel_trace(alpha_i^q * c_r), with one Frobenius power
    per basis element.  The map is total: any length-n vector converts,
    and only genuine codewords are guaranteed a Hermitian result (see
    is_hermitian).
    """
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
    alpha)^(q^(n+1)): one Frobenius per column and no stored table.
    """
    ctx = params.ctx
    return tuple(ctx.frobenius(ctx.dot(col, params.alpha), params.n + 1) for col in zip(*rows))


def rank_distance(params: CodeParams, a: Sequence[Felt], b: Sequence[Felt]) -> int:
    """F_{q^2}-rank of the difference matrix of two vectors, with no matrix.

    The coordinate map z -> (rel_trace(alpha_i^q * z))_i is an
    F_{q^2}-isomorphism K -> F_{q^2}^n, so the rank of the difference
    matrix, whose columns are the coordinates of the entries diff_r, is
    dim over F_{q^2} of span{diff_r}.  With F_{q^2} = F_q + F_q * w, that
    span is the F_q-span of diff and w * diff, whose F_q-dimension is twice
    the rank.  Both vectors must have n entries.
    """
    if len(a) != params.n or len(b) != params.n:
        raise BadShapeError(f"words need exactly {params.n} components")
    ctx = params.ctx
    diff = [ctx.sub(x, y) for x, y in zip(a, b)]
    w = ctx.fq2_w()
    full = ctx.fq_rank(diff + [ctx.mul(w, x) for x in diff])
    assert full % 2 == 0  # an F_{q^2}-span has even F_q-dimension
    return full // 2


# -- serialization ----------------------------------------------------------


def params_to_json_obj(params: CodeParams) -> dict:
    ctx = params.ctx
    return {
        "q": ctx.q,
        "n": ctx.n,
        "d": params.d,
        "modulus": list(ctx.modulus),
        "alpha": [ctx.felt_to_json(a) for a in params.alpha],
        "eta": ctx.felt_to_json(params.eta),
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
