"""The decoder as it was before certification moved onto the error polynomial.

Every candidate is generated up front, and each extracted message is
certified by re-encoding it, taking the rank distance of the codeword
matrices and interpolating the residual a second time.  It is kept only as
an oracle: hermrank.codec.decode must return an identical DecodeResult,
diagnostics and their key order included.
"""

from hermrank.code import rank_distance
from hermrank.codec import (
    REASON_INCONSISTENT,
    REASON_RADIUS,
    REASON_SUBFIELD,
    REASON_SYMMETRY,
    DecodeResult,
    beta_split,
    complete_g,
    encode,
    extract_message,
    known_indices,
    skew_bm,
    solve_key_equation,
)
from hermrank.exceptions import SubfieldCheckError, SymmetryCheckError
from hermrank.linpoly import lp_interpolate, lp_zero


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
        word = encode(params, msg)
        dist = rank_distance(params, received, word)
        if dist <= radius:
            resid = lp_interpolate(ctx, params.moore_inv, [ctx.sub(r, c) for r, c in zip(received, word)])
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
