"""The decoder as it was before certification moved onto the error polynomial.

Every candidate is generated up front, with a Gaussian key-equation solve
at every rank up to the radius, and each extracted message is certified by
re-encoding it, taking the rank distance of the codeword matrices and
interpolating the residual a second time.  It is kept only as an oracle:
hermrank.codec.decode must return an identical DecodeResult, diagnostics and
their key order included.  solve_key_equation, which decode no longer runs,
lives here as the oracle for Berlekamp-Massey's register, and skew_bm is the
synthesis as it was before it stored the inverse of delta_prev: it inverts
delta_prev^(q^(2s)) at every nonzero discrepancy.

The exposed coefficients are kept as they were before decoding read beta
in one cyclic order: a dict keyed by cyclic index, filled and completed
with modular index arithmetic (known_indices, beta_split, complete_g), and
closure checked at the wrap indices m+kappa+1+j (register_closes).  They,
and cyclic_order built from the same formulas, are the oracle for the
cyclic order the package reads beta in.

Extraction is kept as it was before each mirrored pair was split by two
per-code linear maps: extract_message raises lo to q^(2n-1) and splits the
result with decompose_eta, two products and two subtractions, the oracle
for the maps CodeParams._eta_split holds.
"""

from typing import Optional, Sequence

from hermrank.code import CodeParams, rank_distance
from hermrank.codec import (
    REASON_INCONSISTENT,
    REASON_RADIUS,
    REASON_SUBFIELD,
    REASON_SYMMETRY,
    DecodeResult,
    Message,
    encode,
)
from hermrank.exceptions import BadRankError, BadShapeError, SubfieldCheckError, SymmetryCheckError
from hermrank.field import Felt
from hermrank.linpoly import lp_interpolate


def decompose_eta(params: CodeParams, b: Felt) -> tuple:
    """Split b = u + eta*v into its F_{q^n} coordinates (u, v).

    Applying x -> x^(q^n) fixes u and v and swaps nothing else, so v falls
    out of the difference b - b^(q^n); both outputs land in F_{q^n} for
    every b because {1, eta} is a basis of K over F_{q^n}.
    """
    ctx = params.ctx
    split_inv = ctx.inv(ctx.sub(params.eta, ctx.frobenius(params.eta, ctx.n)))
    v = ctx.mul(ctx.sub(b, ctx.frobenius(b, ctx.n)), split_inv)
    u = ctx.sub(b, ctx.mul(params.eta, v))
    return u, v


def extract_message(params: CodeParams, window: Sequence[Felt]) -> Message:
    """Invert the window construction; window[j] holds coeff[m-kappa+j].
    The center must lie in F_{q^n} (SubfieldCheckError) and each mirrored
    pair satisfy the conjugate symmetry (SymmetryCheckError), checked in
    that order; each pair is split by decompose_eta of lo^(q^(2n-1))."""
    ctx = params.ctx
    kappa = params.kappa
    if len(window) != params.k:
        raise SymmetryCheckError(f"window needs exactly {params.k} coefficients")
    center = window[kappa]
    if not ctx.in_subfield(center, ctx.n):
        raise SubfieldCheckError("window center does not lie in F_{q^n}")
    parts = [ctx.frobenius(center, ctx.n - 1)] + [ctx.zero] * (params.k - 1)
    for j in range(1, kappa + 1):
        lo, hi = window[kappa - j], window[kappa + j]
        if hi != ctx.frobenius(lo, ctx.n + 2 * j):
            raise SymmetryCheckError(f"window pair at offset {j} breaks conjugate symmetry")
        parts[j], parts[kappa + j] = decompose_eta(params, ctx.frobenius(lo, 2 * ctx.n - 1))
    return Message(tuple(parts))


def known_indices(params: CodeParams) -> tuple:
    """The d-1 cyclic coefficient indices outside the message window, in the
    order they follow the window: m+kappa+1, ..., m+kappa+d-1 (mod n)."""
    n = params.n
    start = params.m + params.kappa + 1
    return tuple((start + j) % n for j in range(params.d - 1))


def cyclic_order(params: CodeParams) -> list:
    """The n indices in the order hermrank.codec reads beta: known_indices,
    then the window m-kappa .. m+kappa (mod n), as decode iterated it."""
    n, m, kappa = params.n, params.m, params.kappa
    return list(known_indices(params)) + [i % n for i in range(m - kappa, m + kappa + 1)]


def beta_split(params: CodeParams, received: Sequence[Felt]) -> tuple:
    """(beta, known): beta in index order, and its d-1 exposed coefficients
    keyed by cyclic index."""
    if len(received) != params.n:
        raise BadShapeError(f"word needs exactly {params.n} components")
    beta = lp_interpolate(params.ctx, params.moore_packed, received)
    known = {idx: beta[idx] for idx in known_indices(params)}
    return beta, known


def complete_g(params: CodeParams, known_g: dict, lam: Sequence[Felt]) -> tuple:
    """Run the register forward to fill the windowed error coefficients.

    Indices m-kappa .. m+kappa are produced in increasing order; index i
    consumes i-1 .. i-t, which are known or already produced because the
    register length never exceeds d-1.  Returns g in index order.
    """
    ctx = params.ctx
    n, m, kappa = params.n, params.m, params.kappa
    t = len(lam)
    if not 1 <= t <= params.d - 1:
        raise BadRankError(f"register length {t} outside 1..{params.d - 1}")
    coeffs = dict(known_g)
    for i in range(m - kappa, m + kappa + 1):
        coeffs[i % n] = register_output(ctx, coeffs, lam, i, n)
    return tuple(coeffs[i] for i in range(n))


def register_output(ctx, coeffs, lam: Sequence[Felt], i: int, n: int) -> Felt:
    """The register's output at cyclic index i: sum_l lam[l-1] * coeffs[i-l]^(q^(2l)),
    coeffs read at indices mod n: a dict by cyclic index, or a sequence of n
    terms.  The register sum of every test."""
    live = [l for l in range(1, len(lam) + 1) if coeffs[(i - l) % n] != ctx.zero]
    images = [ctx.frobenius(coeffs[(i - l) % n], 2 * l) for l in live]
    return ctx.dot([lam[l - 1] for l in live], images)


def register_closes(params: CodeParams, g: Sequence[Felt], lam: Sequence[Felt]) -> bool:
    """True when the register lam generates g's coefficients (index order)
    at the len(lam) wrap indices m+kappa+1+j, j < len(lam), the only ones
    that can fail for g completed from lam."""
    n = params.n
    start = params.m + params.kappa + 1
    return all(g[(start + j) % n] == register_output(params.ctx, g, lam, start + j, n) for j in range(len(lam)))


def skew_bm(params: CodeParams, seq: Sequence[Felt]) -> tuple:
    """Shortest skew feedback register generating seq; returns (t, lambda).

    This is Berlekamp-Massey synthesis in the twisted polynomial ring where
    Z*c = c^(q^2)*Z.  The connection polynomial C acts on the sequence by
    C[u]_j = sum_l C_l * u_{j-l}^(q^(2l)); multiplying C by Z^s twists its
    coefficients by the s-th automorphism power while shifting, so the
    classic update C - (delta/delta_prev^(q^(2s))) * Z^s * B cancels the
    current discrepancy exactly as in the commutative case, and the length
    bookkeeping is unchanged.
    """
    ctx = params.ctx
    conn = [ctx.one]
    prev = [ctx.one]
    length = 0
    gap = 1
    prev_delta = ctx.one
    for j, _ in enumerate(seq):
        live = [l for l, cl in enumerate(conn[: j + 1]) if cl != ctx.zero]
        delta = ctx.dot([conn[l] for l in live], [ctx.frobenius(seq[j - l], 2 * l) for l in live])
        if delta == ctx.zero:
            gap += 1
            continue
        coef = ctx.mul(delta, ctx.inv(ctx.frobenius(prev_delta, 2 * gap)))
        updated = conn + [ctx.zero] * max(0, len(prev) + gap - len(conn))
        for l, bl in enumerate(prev):
            if bl != ctx.zero:
                updated[l + gap] = ctx.sub(updated[l + gap], ctx.mul(coef, ctx.frobenius(bl, 2 * gap)))
        if 2 * length <= j:
            prev, prev_delta, length = conn, delta, j + 1 - length
            gap = 1
        else:
            gap += 1
        conn = updated
    lam = [ctx.neg(c) for c in conn[1:]]
    lam += [ctx.zero] * (length - len(lam))
    return length, tuple(lam[:length])


def solve_key_equation(params: CodeParams, known_g: dict, t: int) -> Optional[tuple]:
    """Solve the d-1-t register equations for lambda by Gaussian elimination.

    Equations are g_i = sum_{l=1}^{t} lambda_l * g_{i-l}^(q^(2l)) for the
    cyclic indices i = m+kappa+t+1, ..., m+kappa+d-1; every coefficient they
    touch is in known_g.  Returns the solution only when it exists and is
    unique (system rank exactly t); returns None otherwise, which callers
    read as "t is not the rank of the error".
    """
    ctx = params.ctx
    n = params.n
    if not 1 <= t <= params.radius:
        raise BadRankError(f"t = {t} outside 1..{params.radius}")
    start = params.m + params.kappa + 1
    aug = []
    for off in range(t, params.d - 1):
        i = (start + off) % n
        row = [ctx.frobenius(known_g[(i - l) % n], 2 * l) for l in range(1, t + 1)]
        row.append(known_g[i])
        aug.append(row)
    rank = 0
    for col in range(t):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col] != ctx.zero), None)
        if piv is None:
            return None  # underdetermined: solution not unique
        aug[rank], aug[piv] = aug[piv], aug[rank]
        ipiv = ctx.inv(aug[rank][col])
        aug[rank] = [ctx.mul(ipiv, v) for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != ctx.zero:
                f = aug[r][col]
                aug[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][t] != ctx.zero:
            return None  # inconsistent
    return tuple(aug[r][t] for r in range(t))


def reference_decode(params, received):
    ctx = params.ctx
    radius = params.radius
    beta, known = beta_split(params, received)
    seq = [known[idx] for idx in known_indices(params)]
    diags = {}

    candidates = []
    if all(v == ctx.zero for v in seq):
        candidates.append((0, (), "zero-window"))
    else:
        bm_t, bm_lam = skew_bm(params, seq)
        diags["bm_t"] = bm_t
        if 1 <= bm_t <= radius:
            gauss = solve_key_equation(params, known, bm_t)
            diags["bm_gaussian_agree"] = gauss == bm_lam
            candidates.append((bm_t, bm_lam, "bm"))
            if gauss is not None and gauss != bm_lam:
                candidates.append((bm_t, gauss, "gaussian"))
        for t in range(1, radius + 1):
            lam = solve_key_equation(params, known, t)
            if lam is not None and not any(ct == t and cl == lam for ct, cl, _ in candidates):
                candidates.append((t, lam, "gaussian"))

    failure_stages = set()
    for t, lam, src in candidates:
        if t == 0:
            g = (ctx.zero,) * params.n
        else:
            g = complete_g(params, known, lam)
        window = [
            ctx.sub(beta[i % params.n], g[i % params.n])
            for i in range(params.m - params.kappa, params.m + params.kappa + 1)
        ]
        try:
            msg = extract_message(params, window)
        except SubfieldCheckError:
            failure_stages.add(REASON_SUBFIELD)
            continue
        except SymmetryCheckError:
            failure_stages.add(REASON_SYMMETRY)
            continue
        word = encode(params, msg)
        dist = rank_distance(params, received, word)
        if dist <= radius:
            resid = lp_interpolate(ctx, params.moore_packed, [ctx.sub(r, c) for r, c in zip(received, word)])
            diags["solver"] = src
            diags["equations_used"] = params.d - 1 - t
            return DecodeResult(
                ok=True,
                message=msg,
                error_poly=resid,
                error_rank=dist,
                diagnostics=diags,
            )
        failure_stages.add(REASON_RADIUS)

    for reason in (REASON_RADIUS, REASON_SYMMETRY, REASON_SUBFIELD):
        if reason in failure_stages:
            break
    else:
        reason = REASON_INCONSISTENT
    diags["candidates_tried"] = len(candidates)
    return DecodeResult(ok=False, reason=reason, diagnostics=diags)
