"""Encoder and certified bounded-distance decoder.

Encoding sends a message f = (f_0, ..., f_{k-1}) over F_{q^n} to the
coefficient vector of a linearized polynomial whose support is the cyclic
window of width k = n-d+1 centered at m = (n+1)/2, with the window built so
that evaluation on the orthonormal basis yields a Hermitian matrix:

    coeff[m]   = f_0^(q^(n+1))
    coeff[m-j] = (f_j + eta*f_{kappa+j})^q          for j = 1..kappa
    coeff[m+j] = coeff[m-j]^(q^(n+2j))              (conjugate symmetry)

and zero elsewhere.  The codeword is the evaluation of that polynomial on
the basis points.  Any nonzero polynomial supported on a width-k cyclic
window has at most 2*kappa = n-d independent kernel directions, so nonzero
codewords have rank at least d; that is the whole distance argument.

Decoding interpolates the received word to beta = coeff + error_coeffs,
reads the d-1 error coefficients outside the window directly from beta,
synthesizes the shortest skew feedback register generating them (the
recurrence g_i = sum_l lambda_l * g_{i-l}^(q^(2l)) holds cyclically for a
rank-t error), completes the windowed coefficients by running the register
forward, subtracts, and extracts the message.  Every candidate is certified
by the rank of its completed error polynomial g: once extraction succeeds,
g is exactly the interpolation polynomial of received - encode(message)
(see decode), so a result is only accepted when the residual rank is within
the unique-decoding radius, and a wrong message can never be returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .code import CodeParams, decompose_eta
from .exceptions import (
    BadRankError,
    BadShapeError,
    NotInSubfieldError,
    SubfieldCheckError,
    SymmetryCheckError,
)
from .field import Felt, json_field
from .linpoly import LinearizedPoly, lp_eval, lp_interpolate, lp_zero, map_rank
from .rng import SplitMix64

REASON_RADIUS = "RadiusExceeded"
REASON_INCONSISTENT = "InconsistentKeyEquation"
REASON_SYMMETRY = "SymmetryCheckFailed"
REASON_SUBFIELD = "SubfieldCheckFailed"


@dataclass(frozen=True)
class Message:
    """k field elements, each constrained to F_{q^n}."""

    parts: tuple


def random_message(params: CodeParams, rng: SplitMix64) -> Message:
    ctx = params.ctx
    basis = ctx.subfield_basis(ctx.n)
    # each part is an F_q-combination of the basis, one digit drawn per
    # basis element in order
    scalars = [ctx.from_base(c) for c in range(ctx.q)]
    return Message(
        tuple(ctx.dot([scalars[rng.below(ctx.q)] for _ in basis], basis) for _ in range(params.k))
    )


def expand_message(params: CodeParams, msg: Message) -> LinearizedPoly:
    """Full coefficient vector of the window construction above."""
    ctx = params.ctx
    n, m, kappa = params.n, params.m, params.kappa
    parts = msg.parts
    if len(parts) != params.k:
        raise NotInSubfieldError(f"message needs exactly {params.k} components")
    for p in parts:
        if not ctx.in_subfield(p, n):
            raise NotInSubfieldError("message components must lie in F_{q^n}")
    coeffs = [ctx.zero] * n
    coeffs[m % n] = ctx.frobenius(parts[0], n + 1)
    for j in range(1, kappa + 1):
        b = ctx.add(parts[j], ctx.mul(params.eta, parts[kappa + j]))
        lo = ctx.frobenius(b, 1)
        coeffs[(m - j) % n] = lo
        coeffs[(m + j) % n] = ctx.frobenius(lo, n + 2 * j)
    return LinearizedPoly(tuple(coeffs))


def encode(params: CodeParams, msg: Message) -> tuple:
    poly = expand_message(params, msg)
    return tuple(lp_eval(params.ctx, poly, a) for a in params.alpha)


def known_indices(params: CodeParams) -> tuple:
    """The d-1 cyclic coefficient indices outside the message window, in the
    order they follow the window: m+kappa+1, ..., m+kappa+d-1 (mod n)."""
    n = params.n
    start = params.m + params.kappa + 1
    return tuple((start + j) % n for j in range(params.d - 1))


def beta_split(params: CodeParams, received: Sequence[Felt]) -> tuple:
    """Interpolate the received word and read off the exposed error coeffs.

    beta is the coefficient vector of the unique polynomial agreeing with
    the received word on the basis points; it is the sum of the sent
    window coefficients and the error polynomial's coefficients.  Outside
    the window the sent part is zero, so those d-1 error coefficients are
    visible directly.
    """
    beta = lp_interpolate(params.ctx, params.moore_inv, received).coeffs
    known = {idx: beta[idx] for idx in known_indices(params)}
    return beta, known


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


def complete_g(params: CodeParams, known_g: dict, lam: Sequence[Felt]) -> LinearizedPoly:
    """Run the register forward to fill the windowed error coefficients.

    Indices m-kappa .. m+kappa are produced in increasing order; index i
    consumes i-1 .. i-t, which are known or already produced because the
    register length never exceeds d-1.
    """
    ctx = params.ctx
    n, m, kappa = params.n, params.m, params.kappa
    t = len(lam)
    if not 1 <= t <= params.d - 1:
        raise BadRankError(f"register length {t} outside 1..{params.d - 1}")
    coeffs = dict(known_g)
    for i in range(m - kappa, m + kappa + 1):
        live = [l for l in range(1, t + 1) if coeffs[(i - l) % n] != ctx.zero]
        images = [ctx.frobenius(coeffs[(i - l) % n], 2 * l) for l in live]
        coeffs[i % n] = ctx.dot([lam[l - 1] for l in live], images)
    return LinearizedPoly(tuple(coeffs[i] for i in range(n)))


def extract_message(params: CodeParams, window: Sequence[Felt]) -> Message:
    """Invert the window construction; window[j] holds coeff[m-kappa+j].

    Checks before trusting anything: the center must lie in F_{q^n} and the
    mirrored pairs must satisfy the conjugate symmetry, since a decoding
    candidate that fails either cannot come from a valid message.
    """
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
        b = ctx.frobenius(lo, 2 * ctx.n - 1)
        parts[j], parts[kappa + j] = decompose_eta(params, b)
    return Message(tuple(parts))


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode attempt.

    On success the message encodes to a codeword within the radius of the
    received word (that is what certification means), error_poly is the
    interpolation polynomial of the residual received - encode(message),
    which decode obtains as the completed register output, and error_rank
    is its rank.  On failure, reason is one of the REASON_* strings and
    diagnostics records what the solvers saw.
    """

    ok: bool
    message: Optional[Message] = None
    error_poly: Optional[LinearizedPoly] = None
    error_rank: Optional[int] = None
    reason: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)


def _gaussian_candidates(params: CodeParams, known: dict, skip_t: int) -> Iterator[tuple]:
    """Key-equation candidates at every rank 1..radius except skip_t, solved
    one at a time as the caller asks for them."""
    for t in range(1, params.radius + 1):
        if t != skip_t:
            lam = solve_key_equation(params, known, t)
            if lam is not None:
                yield t, lam, "gaussian"


def decode(params: CodeParams, received: Sequence[Felt]) -> DecodeResult:
    """Certified bounded-distance decoding.

    Candidate registers come from Berlekamp-Massey first and then from the
    Gaussian key-equation solver at every rank up to the radius; each
    candidate is completed, extracted and certified, and the first certified
    message wins.  Candidates are built on demand, so the Gaussian solves
    beyond the one at the BM length only run when nothing has certified
    yet.  Distinct codewords are at least d apart, so at most one candidate
    can ever certify; failure reports the most advanced stage any candidate
    reached (certification, then symmetry, then subfield, then
    inconsistency).

    Certification is rank(g) <= radius for the completed register output g,
    and that is exactly the re-encoding test rank(received - encode(msg)) <=
    radius:

    - Once extraction's subfield and symmetry checks pass, expanding the
      extracted message gives back the window it came from: the center c
      satisfies c^(q^(2n)) = c, each pair's b = u + eta*v holds exactly, and
      the mirror check forces the upper half.
    - Outside the window the expansion is zero and g carries beta there
      unchanged, so beta - expand(msg) = g coefficient by coefficient.
    - Interpolation is linear and encode evaluates expand(msg) on alpha, so
      received - encode(msg) is g evaluated on alpha.  Its F_{q^2}-rank is
      the rank of the map g because alpha spans K over F_{q^2}.

    So the accepted results, error_poly and error_rank are those of the
    re-encoding test, and a wrong message can never be returned.
    """
    ctx = params.ctx
    radius = params.radius
    beta, known = beta_split(params, received)
    seq = [known[idx] for idx in known_indices(params)]
    diags: dict = {}

    if all(v == ctx.zero for v in seq):
        # a zero exposed window within the radius forces a zero error: any
        # nonzero polynomial confined to the message window has rank >= d
        candidates = [(0, (), "zero-window")]
    else:
        bm_t, bm_lam = skew_bm(params, seq)
        diags["bm_t"] = bm_t
        first = []
        if 1 <= bm_t <= radius:
            gauss = solve_key_equation(params, known, bm_t)
            diags["bm_gaussian_agree"] = gauss == bm_lam
            first.append((bm_t, bm_lam, "bm"))
            if gauss is not None and gauss != bm_lam:
                first.append((bm_t, gauss, "gaussian"))
        # the solve at bm_t above already covers that rank
        candidates = itertools.chain(first, _gaussian_candidates(params, known, bm_t))

    failure_stages = set()
    tried = 0
    for t, lam, src in candidates:
        tried += 1
        if t == 0:
            g = lp_zero(ctx, params.n)
        else:
            g = complete_g(params, known, lam)
        window = [
            ctx.sub(beta[i % params.n], g.coeffs[i % params.n])
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
        rank = map_rank(ctx, g)
        if rank <= radius:
            diags["solver"] = src
            diags["equations_used"] = params.d - 1 - t
            return DecodeResult(
                ok=True,
                message=msg,
                error_poly=g,
                error_rank=rank,
                diagnostics=diags,
            )
        failure_stages.add(REASON_RADIUS)

    for reason in (REASON_RADIUS, REASON_SYMMETRY, REASON_SUBFIELD):
        if reason in failure_stages:
            break
    else:
        reason = REASON_INCONSISTENT
    diags["candidates_tried"] = tried
    return DecodeResult(ok=False, reason=reason, diagnostics=diags)


# -- serialization ----------------------------------------------------------


def message_to_json_obj(params: CodeParams, msg: Message) -> dict:
    return {"f": [params.ctx.felt_to_json(p) for p in msg.parts]}


def message_from_json_obj(params: CodeParams, obj: dict) -> Message:
    """Message from {"f": [element, ...]}; any other shape raises BadShapeError."""
    parts = [params.ctx.felt_from_json(p) for p in json_field(obj, "f", list, "message", BadShapeError)]
    if len(parts) != params.k:
        raise NotInSubfieldError(f"message needs exactly {params.k} components")
    return Message(tuple(parts))


def word_to_json_obj(params: CodeParams, vec: Sequence[Felt]) -> dict:
    return {"v": [params.ctx.felt_to_json(v) for v in vec]}


def word_from_json_obj(params: CodeParams, obj: dict) -> tuple:
    """Word from {"v": [element, ...]} with exactly n elements; any other
    shape or length raises BadShapeError."""
    vec = tuple(params.ctx.felt_from_json(v) for v in json_field(obj, "v", list, "word", BadShapeError))
    if len(vec) != params.n:
        raise BadShapeError(f"word needs exactly {params.n} components")
    return vec


def decode_result_to_json_obj(params: CodeParams, res: DecodeResult) -> dict:
    out: dict = {"status": "Success" if res.ok else "Failure", "diagnostics": res.diagnostics}
    if res.ok:
        out["message"] = message_to_json_obj(params, res.message)
        out["t"] = res.error_rank
    else:
        out["reason"] = res.reason
    return out
