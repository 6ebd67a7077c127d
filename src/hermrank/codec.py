"""Encoder and certified bounded-distance decoder.

Encoding sends a message f = (f_0, ..., f_{k-1}) over F_{q^n} to the
coefficient vector of a linearized polynomial whose support is the cyclic
window of width k = n-d+1 centered at m = (n+1)/2, with the window built so
that evaluation on the orthonormal basis yields a Hermitian matrix:

    coeff[m]   = f_0^(q^(n+1))
    coeff[m-j] = (f_j + eta*f_{kappa+j})^q          for j = 1..kappa
    coeff[m+j] = coeff[m-j]^(q^(n+2j))              (conjugate symmetry)

and zero elsewhere.  The codeword is the evaluation of that polynomial on
the basis points, c_r = sum_{i in window} coeff[i] * alpha_r^(q^(2i)): one
packed combination of the k window coefficients with the k encoder rows
(alpha_r^(q^(2i)))_r that the params keep (CodeParams.encoder_rows), cut
into its n outputs.  Any nonzero polynomial supported on a width-k cyclic
window has at most 2*kappa = n-d independent kernel directions, so nonzero
codewords have rank at least d; that is the whole distance argument.

Decoding interpolates the received word to beta = coeff + error_coeffs,
one packed combination of the certified Moore rows (CodeParams.moore_packed),
and reads it once, in the cyclic order from the first exposed index
m+kappa+1, which is 1-radius (mod n): positions 0 .. d-2 lie outside the
window, so they hold error coefficients directly, and positions d-1 .. n-1
are the window m-kappa .. m+kappa.  It synthesizes the shortest skew
feedback register generating the exposed positions (the recurrence g_p =
sum_l lambda_l * g_{p-l}^(q^(2l)) holds all the way round the cycle for a
rank-t error), runs it forward over the window to complete the error
coefficients, subtracts, and extracts the message.  The register is
unique (Massey's theorem), so it is the one candidate, and it is certified
by register closure: run on over positions n .. n+t-1, where the cycle
comes back to its start, it must give back the first t positions.
Completion makes it generate every other position, so only those t are
checked.  Once extraction succeeds, g is exactly the interpolation
polynomial of received - encode(message), and closure holds exactly when
its rank is within the unique-decoding radius (see decode), so a wrong
message can never be returned.

The register sum head + sum_l c_l * x_{p-l}^(q^(2l)) is formed in one
place, _feedback, from the lifted images of the x_{p-l}: a
Berlekamp-Massey discrepancy is that sum with the sequence's own term as
head, each image one map and one lift, and window completion and closure
are one _run of the register, one _feedback per position.  A run reads
each element under T_2, .., T_2t, once each at the t positions after it,
so _run forms an element's images once, when it is appended, by one call
of the field's _frob_lifts (at q = 2 one pass of a stacked table, at odd
q one map and one lift per image), and _feedback reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem
from typing import Iterable, Optional, Sequence

from .code import CodeParams, _cyclic_order, decompose_eta
from .exceptions import (
    BadOperandError,
    BadRankError,
    BadShapeError,
    NotInSubfieldError,
    SubfieldCheckError,
    SymmetryCheckError,
)
from .field import Felt, json_field
from .linpoly import lp_interpolate
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
    # basis element in order, all k * n digits in one block
    n = len(basis)
    digits = rng.draws(ctx.q, params.k * n)
    return Message(ctx.fq_combine(basis, (digits[i : i + n] for i in range(0, len(digits), n))))


def expand_message(params: CodeParams, msg: Message) -> tuple:
    """The tuple of n coefficients of the window construction above."""
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
    return tuple(coeffs)


def encode(params: CodeParams, msg: Message) -> tuple:
    """c_r = sum_{i in window} g_i * alpha_r^(q^(2i)) for the expanded
    polynomial g, which is zero off the window.

    The k window coefficients, the last k of the cyclic order, are combined
    with the k encoder rows (alpha_r^(q^(2i)))_r in that order, one packed
    combination cut into n outputs: no conjugation, no per-point dot.
    """
    g = expand_message(params, msg)
    window = _cyclic_order(params.n, params.d)[params.d - 1 :]
    return params.ctx.combine_rows([g[i] for i in window], params.encoder_rows)


def beta_split(params: CodeParams, received: Sequence[Felt]) -> tuple:
    """Interpolate the received word to beta, listed in the cyclic order.

    beta is the coefficient vector of the unique polynomial agreeing with
    the received word on the basis points, formed by one packed combination
    of the Moore rows that certified the basis (params.moore_packed); it is
    the sum of the sent window coefficients and the error polynomial's
    coefficients.  Its n coefficients are returned from index m+kappa+1
    (mod n) on: positions 0 .. d-2 are outside the window, where the sent
    part is zero, so those d-1 error coefficients are visible directly, and
    positions d-1 .. n-1 are the window m-kappa .. m+kappa.  A word that is
    not n long raises BadShapeError.
    """
    if len(received) != params.n:
        raise BadShapeError(f"word needs exactly {params.n} components")
    beta = lp_interpolate(params.ctx, params.moore_packed, received)
    return tuple(beta[i] for i in _cyclic_order(params.n, params.d))


def skew_bm(params: CodeParams, seq: Sequence[Felt]) -> tuple:
    """Shortest skew feedback register generating seq; returns (t, lambda).

    This is Berlekamp-Massey synthesis in the twisted polynomial ring where
    Z*c = c^(q^2)*Z.  The connection polynomial C acts on the sequence by
    C[u]_j = sum_l C_l * u_{j-l}^(q^(2l)); multiplying C by Z^s twists its
    coefficients by the s-th automorphism power while shifting, so the
    classic update C - (delta/delta_prev^(q^(2s))) * Z^s * B cancels the
    current discrepancy exactly as in the commutative case, and the length
    bookkeeping is unchanged.  The divisor's inverse is inv(delta_prev)
    twisted by q^(2s), as Frobenius is a field automorphism, so delta_prev
    is inverted once, when it is set: one inversion per length change.

    It runs on the field's kernel (hermrank.field).  C and B are monic, so
    a discrepancy is the register sum with head seq[j], the l = 0 term,
    one _feedback on C[1:], which is lifted once per connection
    polynomial, each image one map and one lift; the tables T_2l are
    fetched once.  An update's gap term is
    coef itself, a plain sub, and each other update is one fused reduction
    of lift(a) + lift(-coef) * lift(b^(q^(2s))), at most (q-1) + 2n *
    (q-1)^2 in an odd-q slot.  seq holds at most 2n terms, else
    BadOperandError, as past _feedback's slot bound; decode's d-1 < n do.
    """
    ctx = params.ctx
    if len(seq) > ctx.deg:
        raise BadOperandError(f"need at most 2n terms, got {len(seq)}")
    lift, apply, reduce, zero = ctx._lift, ctx._apply_linear, ctx._reduce, ctx.zero
    tables = [ctx._frob_rows(2 * l) for l in range(1, len(seq) + 1)]
    conn, lifted = [ctx.one], []  # lifted is conn[1:] lifted
    prev = [ctx.one]
    length = 0
    gap = 1
    prev_inv = ctx.one  # inv(delta_prev)
    for j, s in enumerate(seq):
        back = reversed(seq[j - len(lifted) : j])
        delta = _feedback(ctx, lifted, [lift(apply(tab, x)) if x != zero else 0 for tab, x in zip(tables, back)], s)
        if delta == zero:
            gap += 1
            continue
        tab = tables[gap - 1]
        coef = delta if prev_inv == ctx.one else reduce(lift(delta) * lift(apply(tab, prev_inv)))
        minus = lift(ctx.neg(coef))
        updated = conn + [zero] * max(0, len(prev) + gap - len(conn))
        updated[gap] = ctx.sub(updated[gap], coef)
        for l, b in enumerate(prev[1:], gap + 1):
            if b != zero:
                updated[l] = reduce(lift(updated[l]) + minus * lift(apply(tab, b)))
        if 2 * length <= j:
            prev, prev_inv, length = conn, ctx.inv(delta), j + 1 - length
            gap = 1
        else:
            gap += 1
        conn = updated
        lifted = [lift(c) for c in conn[1:]]
    lam = [ctx.neg(c) for c in conn[1:]]
    lam += [ctx.zero] * (length - len(lam))
    return length, tuple(lam[:length])


def complete_g(params: CodeParams, exposed: Sequence[Felt], lam: Sequence[Felt]) -> tuple:
    """Run the register forward from the d-1 exposed coefficients over the
    window, positions d-1 .. n-1 of the cyclic order; returns all n.

    Position p consumes p-1 .. p-t, which are exposed or already produced
    because the register length t never exceeds d-1.  exposed must hold
    exactly d-1 coefficients (BadShapeError).  This is _run to n: one
    _feedback per position.
    """
    if len(exposed) != params.d - 1:
        raise BadShapeError(f"exposed needs exactly {params.d - 1} coefficients, got {len(exposed)}")
    t = len(lam)
    if not 1 <= t <= params.d - 1:
        raise BadRankError(f"register length {t} outside 1..{params.d - 1}")
    return _run(params.ctx, exposed, lam, params.n)


def _run(ctx, start: Sequence[Felt], lam: Sequence[Felt], stop: int) -> tuple:
    """start extended by the register lam to length stop: each position p
    >= len(start) is the _feedback of the t positions before it.  lam is
    lifted once, and the field's stacked table of T_2 .. T_2t fetched once.

    Position i + l reads element i under T_2l, once for each l = 1 .. t,
    so each nonzero element's lifted images are formed once, by one
    _frob_lifts call: those under T_2l for the l with len(start) <= i + l
    < stop, before the run for the last t elements of start, and as it is
    appended for each produced element.  _feedback reads them.
    """
    t, first, zero, images_of = len(lam), len(start), ctx.zero, ctx._frob_lifts
    lifted = [ctx._lift(c) for c in lam]
    stack = ctx._frob_stack(t)
    run = list(start)
    # images[i][l - 1] is lift(run[i]^(q^(2l))), 0 where it is never read
    blank, index = [0] * t, range(t)
    images = [blank] * (first - t)
    for i in range(first - t, first):
        x = run[i]
        powers = range(first - i, min(t, stop - 1 - i) + 1)
        images.append([0] * (first - i - 1) + images_of(stack, x, powers) if x != zero else blank)
    full = range(1, t + 1)
    for i in range(first, stop):
        x = _feedback(ctx, lifted, map(getitem, reversed(images[i - t : i]), index))
        run.append(x)
        powers = full if i + t < stop else range(1, stop - i)
        images.append(images_of(stack, x, powers) if powers and x != zero else blank)
    return tuple(run)


def _feedback(ctx, lifted: list, images: Iterable[int], head: Optional[Felt] = None) -> Felt:
    """The register sum head + sum_{l=1..t} c_l * x_{p-l}^(q^(2l)) for the
    lifted c_l and images[l - 1] = lift(x_{p-l}^(q^(2l))), 0 for a zero
    x: one unreduced product of lifted c_l with each nonzero image, head
    lifted when given, and one _reduce.  It is the one place the sum is
    formed: BM's discrepancy (head seq[j], c = C[1:], each image one map
    and one lift) and each position of _run (no head, c = lam, the images
    _run took from _frob_lifts).

    Exactness of the stacked images: at q = 2 _frob_lifts reads all of an
    element's images from one pass of one table per 4 input bits, the
    matrix [T_2 ... T_2t] in the same group form with each image lifted.
    lift is F_2-linear (bit i to byte i), so the XOR over the input's
    groups is the stacked lifted image, and a lifted image is below
    2^(16n), so no field of 16n bits overlaps the next.  Each field is
    then exactly lift(apply(T_2l, x)), each product c_l * image is the
    one formed with a map per image, and the XOR and the _reduce are
    unchanged.  At odd q _frob_lifts is one map and one lift per image.

    Slot bound: a product of two lifted canonical elements puts at most 2n
    * (q-1)^2 in an odd-q slot, and BM's t <= j < 2n (run's t <= d-1 < n)
    products and a head at most q-1, so the sum holds at most (q-1) +
    (2n-1) * 2n * (q-1)^2 <= B = 4n^2 (q-1)^2, the input bound of
    _reduce.  At q = 2 a product's slot holds at most 2n, the XOR keeps
    each slot below 64 < 256, and _reduce takes its parity.
    """
    terms = [c * x for c, x in zip(lifted, images) if x]
    if head is not None:
        terms.append(ctx._lift(head))
    return ctx._reduce(ctx._sum(terms))


def _register_closes(params: CodeParams, g: tuple, lam: Sequence[Felt]) -> bool:
    """True when the register lam generates g, in the cyclic order and
    completed from lam, all the way round: _run on over positions n ..
    n+t-1, where the cycle comes back to its start, gives back g[:t].
    Every other position holds by construction (see decode).

    decode calls it only after extraction succeeds.  Beyond the radius,
    BM's candidate nearly always fails extraction (at (2,31,15) with
    rank-8 errors every decode does), so closing first would add t sums to
    each of those decodes.
    """
    t = len(lam)
    return _run(params.ctx, g, lam, params.n + t)[params.n :] == g[:t]


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
    received word (register closure certifies this, see decode),
    error_poly is the n-coefficient tuple of the interpolation polynomial of
    the residual received - encode(message), which decode obtains as the
    completed register output put back in index order, and error_rank is
    its rank, the register's length.  On failure, reason is one of the
    REASON_* strings and diagnostics records what the solvers saw.
    """

    ok: bool
    message: Optional[Message] = None
    error_poly: Optional[tuple] = None
    error_rank: Optional[int] = None
    reason: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)


def decode(params: CodeParams, received: Sequence[Felt]) -> DecodeResult:
    """Certified bounded-distance decoding with a single candidate.

    The candidate is the zero error when the d-1 exposed coefficients are
    all zero, and otherwise Berlekamp-Massey's register (lambda, L = bm_t)
    when L <= radius; with L > radius there is none.  The candidate is
    completed to g, extracted, and accepted when its register closes
    cyclically on g; error_rank is then its length.  The failure reason is
    the stage the candidate reached: RadiusExceeded when it extracts but
    does not close, SymmetryCheckFailed or SubfieldCheckFailed when
    extraction fails, and InconsistentKeyEquation when there is no
    candidate.

    No other candidate can exist, and diagnostics["bm_gaussian_agree"] is
    True by theorem, without a second solve.  The exposed sequence has
    N = d-1 >= 2*radius >= 2L terms, and by Massey's uniqueness theorem
    (IEEE Trans. IT 1969), whose skew form is in Sidorenko, Richter and
    Bossert (below), the shortest register generating a sequence is unique
    when 2L <= N.  So the Gaussian key-equation solve at rank L, which asks
    for the unique register of length L generating the exposed sequence,
    returns bm_lam.  A solve at t < L has no solution, since BM's register
    is shortest.  One at L < t <= radius is solved by every nu*Lambda_L
    with nu_0 = 1 and q^2-degree <= t-L, since its rows read only
    Lambda_L's outputs at positions >= L, which are zero; these are
    distinct because the skew ring has no zero divisors, so the solution
    is not unique.

    Closure certifies exactly the re-encoding test rank(received -
    encode(msg)) <= radius:

    - Once extraction's subfield and symmetry checks pass, expanding the
      extracted message gives back the window it came from: the center c
      satisfies c^(q^(2n)) = c, each pair's b = u + eta*v holds exactly, and
      the mirror check forces the upper half.  Outside the window the
      expansion is zero and g carries beta there unchanged, so beta -
      expand(msg) = g, and received - encode(msg) is g evaluated on alpha.
      Its F_{q^2}-rank is the rank of the map g because alpha spans K over
      F_{q^2}.
    - Upper bound: closure means Lambda o g = 0 modulo x^(q^(2n)) - x, with
      Lambda = x - sum_l lambda_l x^(q^(2l)), so im g lies in ker Lambda and
      rank(g) <= t.  This holds even when lambda_t = 0.
    - Exactness: a rank-r map's coefficients are generated cyclically by
      the subspace polynomial of its image, normalised to constant term 1,
      a register of length r.  So L <= r, and with closure r = t = L.
    - Only positions n .. n+t-1 of g run on by the register, where the
      first t positions come round again, are checked.  complete_g
      produced every window position d-1 .. n-1 with this same feedback
      sum, and BM's register generates every exposed position t .. d-2, so
      the register generates g at every other position by construction.
    - Converse: complete_g makes the register generate g from position t
      through n-1, so if rank(g) = r <= radius and closure failed first at
      position n+j (j < t), the skew Massey lemma would give r >= n+j+1-t
      >= n+1-radius > radius, since n >= d > 2*radius; a contradiction.
      So closure holds whenever rank(g) <= radius.

    Every accepted result, error_poly and error_rank is therefore that of
    the re-encoding test, and a wrong message can never be returned.  See
    Gabidulin, Probl. Inf. Transm. 1985, and Sidorenko, Richter and
    Bossert, IEEE Trans. IT 2011, for the register facts.
    """
    ctx, d = params.ctx, params.d
    seq = beta_split(params, received)
    exposed = seq[: d - 1]
    diags: dict = {}

    if all(v == ctx.zero for v in exposed):
        # a zero exposed window within the radius forces a zero error: any
        # nonzero polynomial confined to the message window has rank >= d
        t, lam, src = 0, (), "zero-window"
        g = (ctx.zero,) * params.n
    else:
        t, lam = skew_bm(params, exposed)
        src = "bm"
        diags["bm_t"] = t
        if t > params.radius:
            diags["candidates_tried"] = 0
            return DecodeResult(ok=False, reason=REASON_INCONSISTENT, diagnostics=diags)
        diags["bm_gaussian_agree"] = True  # the shortest register is unique, see above
        g = complete_g(params, exposed, lam)

    try:
        msg = extract_message(params, [ctx.sub(b, e) for b, e in zip(seq[d - 1 :], g[d - 1 :])])
    except SubfieldCheckError:
        reason = REASON_SUBFIELD
    except SymmetryCheckError:
        reason = REASON_SYMMETRY
    else:
        if _register_closes(params, g, lam):
            diags["solver"] = src
            diags["equations_used"] = d - 1 - t
            error_poly = tuple(v for _, v in sorted(zip(_cyclic_order(params.n, d), g)))
            return DecodeResult(ok=True, message=msg, error_poly=error_poly, error_rank=t, diagnostics=diags)
        reason = REASON_RADIUS
    diags["candidates_tried"] = 1
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
