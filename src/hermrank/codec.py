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
rank-t error), and reads the register's run as it is made: one lazy run
per candidate, which makes a position only when it is read.  Extraction
reads the window, each beta coefficient at d-1 .. n-1 minus the run's
position there, and makes each check as soon as the coefficients it
checks are read: the center after kappa+1, each mirrored pair after its
upper coefficient.  Each pair is split over {1, eta} by two per-code
F_q-linear maps (CodeParams._eta_split), so a decode makes no call to mul.
A candidate that fails a check stops there; beyond the radius that is
nearly always the center, kappa+1 positions into the window.  The register
is unique (Massey's theorem), so it is the one candidate, and it is
certified by register closure: the same run continued over positions n ..
n+t-1, where the cycle comes back to its start, must give back the first t
positions.  The run makes the register generate every other position, so
only those t are checked.  Once extraction succeeds, g is exactly the
interpolation polynomial of received - encode(message), and closure holds
exactly when its rank is within the unique-decoding radius (see decode),
so a wrong message can never be returned.

The register sum head + sum_l c_l * x_{p-l}^(q^(2l)) is formed in one
place, _feedback, unreduced, from the lifted images of the x_{p-l}: a
Berlekamp-Massey discrepancy is that sum with the sequence's own term as
head, and window completion and closure read one _run of the register,
one _feedback per position made.  Every image the register reads comes
from the field's stacked table of T_2, T_4, ..: each element gets one
_frob_pass, when it enters the sequence, the run or BM's previous
register, and _frob_read takes each image from that pass (at q = 2 a
shift and a mask, at odd q one packed sum finished in lifted form).  BM
keeps its connection polynomial lifted and reduces each discrepancy and
each update straight to the lifted canonical form, _reduce_lifted; its
entries are taken back to elements only when it becomes the previous
register and for the returned lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .code import CodeParams, _cyclic_order
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
    ctx, n = params.ctx, params.n
    # each part is an F_q-combination of the F_{q^n} basis, packed once per
    # code, one digit drawn per basis element in order, all k * n digits in
    # one block
    digits = rng.draws(ctx.q, params.k * n)
    return Message(ctx._combine(params._draw_forms[0], (digits[i : i + n] for i in range(0, len(digits), n))))


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

    It runs on the field's kernel (hermrank.field), and does each piece of
    work once.  C and B are monic.  C[1:] is kept only lifted, in canonical
    form: each discrepancy is one _feedback on it with head seq[j], the
    l = 0 term, and each update one fused reduction, both by
    _reduce_lifted.  Every image under T_2s comes from the field's stack of
    T_2 .. T_2w, w = len(seq), as the gap s can reach len(seq): each
    sequence term, each entry of B[1:] when it becomes B, and
    -inv(delta_prev) get one _frob_pass, and each image is one _frob_read
    of it.  Folding the sign into the inverse makes the update's scale
    coef = -delta/delta_prev^(q^(2s)) lifted, so the gap term is
    C[s] + coef and every other update C[s+l] + coef * B[l]^(q^(2s)).

    Slot bound: an update adds one product of two lifted canonical
    elements, at most 2n * (q-1)^2 in an odd-q slot, to a lifted canonical
    entry, at most q-1, well within the input bound B of _reduce_lifted; a
    discrepancy is within it by _feedback's bound.  A read is exact, as a field of a
    stacked pass is the lifted image itself (hermrank.field).  seq holds at
    most 2n terms, else BadOperandError, as past _feedback's slot bound;
    decode's d-1 < n do.
    """
    ctx = params.ctx
    if len(seq) > ctx.deg:
        raise BadOperandError(f"need at most 2n terms, got {len(seq)}")
    fpass, read, reduce, unlift = ctx._frob_pass, ctx._frob_read, ctx._reduce_lifted, ctx._unlift
    stack = ctx._frob_stack(len(seq))
    seen = [fpass(stack, x) for x in seq[:-1]]  # the last term is never read
    conn, prev = [], []  # C[1:] lifted, and the passes of B[1:]
    length, gap = 0, 1
    scale = fpass(stack, ctx.neg(ctx.one))  # the pass of -inv(delta_prev)
    for j, s in enumerate(seq):
        delta = reduce(_feedback(ctx, conn, stack, reversed(seen[j - len(conn) : j]), s))
        if not delta:
            gap += 1
            continue
        coef = reduce(delta * read(stack, scale, gap))
        updated = conn + [0] * max(0, len(prev) + gap - len(conn))
        updated[gap - 1] = reduce(updated[gap - 1] + coef)
        for l, b in enumerate(prev, gap):
            if b:
                updated[l] = reduce(updated[l] + coef * read(stack, b, gap))
        if 2 * length <= j:
            prev = [fpass(stack, unlift(c)) for c in conn]
            scale, length, gap = fpass(stack, ctx.neg(ctx.inv(unlift(delta)))), j + 1 - length, 1
        else:
            gap += 1
        conn = updated
    lam = [ctx.neg(unlift(c)) for c in conn]
    lam += [ctx.zero] * (length - len(lam))
    return length, tuple(lam[:length])


def complete_g(params: CodeParams, g: list, lam: Sequence[Felt]) -> Iterator[Felt]:
    """The register's run over the window and on: an iterator over
    positions d-1, d, .. of the cyclic order, with no end, each appended to
    the list g of the d-1 exposed coefficients as it is read.

    Position p consumes p-1 .. p-t, which are exposed or already produced
    because the register length t never exceeds d-1.  g must hold exactly
    d-1 coefficients (BadShapeError) and lam 1 .. d-1 (BadRankError); both
    are checked when complete_g is called, not when the run is first read.
    This is _run: one _feedback per position read.
    """
    if len(g) != params.d - 1:
        raise BadShapeError(f"exposed needs exactly {params.d - 1} coefficients, got {len(g)}")
    t = len(lam)
    if not 1 <= t <= params.d - 1:
        raise BadRankError(f"register length {t} outside 1..{params.d - 1}")
    return _run(params.ctx, g, lam)


def _run(ctx, g: list, lam: Sequence[Felt]) -> Iterator[Felt]:
    """Extend g by the register lam, one position per read, and yield each:
    position p >= len(g) is the reduced _feedback of the t positions before
    it.  lam is lifted once, and the field's stacked table fetched once, at
    the first read; the widest stack the context holds serves, of which the
    run reads the first t fields.

    Position p reads element p - l under T_2l, for l = 1 .. t, so each
    element gets one _frob_pass before the first position that reads it:
    the last t elements of g before the first position, and each produced
    element when the next position is read, so the last position read is
    never passed.  At odd q, where a read is one packed sum, no image is
    formed that the run does not use.
    """
    t, fpass = len(lam), ctx._frob_pass
    lifted = [ctx._lift(c) for c in lam]
    stack = ctx._frob_stack(t)
    passes = [fpass(stack, x) for x in g[-t:]]
    while True:
        g.append(ctx._reduce(_feedback(ctx, lifted, stack, reversed(passes[-t:]))))
        yield g[-1]
        passes.append(fpass(stack, g[-1]))


def _feedback(ctx, lifted: list, stack: tuple, back: Iterable, head: Optional[Felt] = None) -> int:
    """The unreduced register sum head + sum_{l=1..t} c_l * x_{p-l}^(q^(2l))
    for the lifted c_l and back[l - 1], the _frob_pass of x_{p-l} on the
    field's stack: one unreduced product of lifted c_l with the image
    lift(x_{p-l}^(q^(2l))) read from each pass of a nonzero x, and head
    lifted when given.  It is the one place the sum is formed: BM's
    discrepancy (head seq[j], c = C[1:]) and each position of _run (no
    head, c = lam).  The caller reduces it, _run by _reduce to the element
    and BM by _reduce_lifted to its lifted canonical form.

    Exactness of the reads: at q = 2 a pass is one lookup per 4 input bits
    in the stacked table, the matrix [T_2 ... T_2w] in the same group form
    with each image lifted.  lift is F_2-linear (bit i to byte i), so the
    XOR over the input's groups is the stacked lifted image, and a lifted
    image is below 2^(16n), so no field of 16n bits overlaps the next.
    Each field read is then exactly lift(apply(T_2l, x)), so each product
    c_l * image is the one formed with a map and a lift per image, and the
    sum is unchanged.  At odd q a read is that map's packed sum of digits
    times lifted rows, taken by _canon_lifted to lift(canon(sum)), the
    same lifted image.

    Slot bound: each operand is a lifted canonical element, whether lifted
    from an element or kept lifted by _reduce_lifted, so a product puts at
    most 2n * (q-1)^2 in an odd-q slot, and BM's t <= j < 2n (run's t <=
    d-1 < n) products and a head at most q-1, so the sum holds at most
    (q-1) + (2n-1) * 2n * (q-1)^2 <= B = 4n^2 (q-1)^2, the input bound of
    _reduce and _reduce_lifted.  At q = 2 a product's slot holds at most
    2n, the XOR keeps each slot below 64 < 256, and the reduction takes
    its parity.
    """
    read = ctx._frob_read
    terms = [c * read(stack, v, l) for l, (c, v) in enumerate(zip(lifted, back), 1) if v]
    if head is not None:
        terms.append(ctx._lift(head))
    return ctx._sum(terms)


def extract_message(params: CodeParams, window: Iterable[Felt]) -> Message:
    """Invert the window construction; the j-th coefficient of window holds
    coeff[m-kappa+j].

    Checks before trusting anything: the center must lie in F_{q^n} and the
    mirrored pairs must satisfy the conjugate symmetry, since a decoding
    candidate that fails either cannot come from a valid message.  window
    may be any iterable, and is read in order and only as far as the checks
    pass: the center is checked once kappa+1 coefficients are read, and
    pair j right after coefficient kappa+1+j.  A check never reads past the
    position it checks, so the first failure does not depend on how far
    window is read.  A window that is not k long raises SymmetryCheckError
    when it is read through, unless a check fails first.  The center gives
    f_0 = center^(q^(n-1)), and each pair's lower coefficient lo gives
    (f_j, f_{kappa+j}) = (u, v) with lo^(q^(2n-1)) = u + eta*v, one
    application each of the per-code tables U and V
    (CodeParams._eta_split), after the pair's symmetry check.

    Exactness of the split: Frobenius powers are additive and fix F_q, and
    multiplying by the constants 1/(eta - eta^(q^n)) and eta is F_q-linear,
    so lo -> u and lo -> v are F_q-linear maps of K, fixed by their values
    on X^0 .. X^(2n-1).  _apply_linear on the _to_rows of those values
    computes exactly those maps, on the kernel every Frobenius table runs
    on.  Both land in F_{q^n} for every lo, as {1, eta} is a basis of K
    over F_{q^n}.  Each pair's check runs before its maps, so the failure
    raised, and which one first, is decided by the checks alone.
    """
    ctx, n, kappa = params.ctx, params.ctx.n, params.kappa
    window = iter(window)
    read = list(islice(window, kappa + 1))  # the lower half, center last
    parts = [ctx.zero] * params.k
    if len(read) == kappa + 1:
        if not ctx.in_subfield(read[kappa], n):
            raise SubfieldCheckError("window center does not lie in F_{q^n}")
        parts[0] = ctx.frobenius(read[kappa], n - 1)
        for j, hi in enumerate(islice(window, kappa), 1):
            lo = read[kappa - j]
            if hi != ctx.frobenius(lo, n + 2 * j):
                raise SymmetryCheckError(f"window pair at offset {j} breaks conjugate symmetry")
            parts[j], parts[kappa + j] = (ctx._apply_linear(rows, lo) for rows in params._eta_split)
            read.append(hi)
    if len(read) != params.k or list(islice(window, 1)):
        raise SymmetryCheckError(f"window needs exactly {params.k} coefficients")
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
    - Only positions n .. n+t-1 of g, where the first t positions come
      round again, are checked.  They are the one run of the register
      continued: it made every window position d-1 .. n-1 with this same
      feedback sum, and BM's register generates every exposed position
      t .. d-2, so the register generates g at every other position by
      construction.
    - Converse: the run makes the register generate g from position t
      through n-1, so if rank(g) = r <= radius and closure failed first at
      position n+j (j < t), the skew Massey lemma would give r >= n+j+1-t
      >= n+1-radius > radius, since n >= d > 2*radius; a contradiction.
      So closure holds whenever rank(g) <= radius.

    Every accepted result, error_poly and error_rank is therefore that of
    the re-encoding test, and a wrong message can never be returned.  See
    Gabidulin, Probl. Inf. Transm. 1985, and Sidorenko, Richter and
    Bossert, IEEE Trans. IT 2011, for the register facts.

    The run is lazy, and each stage reads it in order: extraction the k
    window positions, as far as its checks pass, and closure the next t.
    This decides exactly what running the whole window first and closing
    by a second run from g would decide:

    - The run makes the same positions in the same order, each by the same
      _feedback and _reduce on the same passes; only how many positions
      are made, and how many passes, changes.
    - Extraction makes the same checks in the same order, and none reads a
      window position past the one it checks: the center reads position
      kappa, pair j positions kappa-j and kappa+j.  So the first check that
      fails, and the reason, are those of the whole window; a candidate
      that fails the center stops after kappa+1 positions.
    - A candidate that passes every check has read all k positions, and
      map stops at the end of the window without drawing from the run, so
      closure reads exactly positions n .. n+t-1 from the same register
      state.  bm_t, bm_gaussian_agree, candidates_tried, solver and
      equations_used do not depend on how far the run went.
    """
    ctx, d = params.ctx, params.d
    seq = beta_split(params, received)
    exposed = seq[: d - 1]
    diags: dict = {}

    if all(v == ctx.zero for v in exposed):
        # a zero exposed window within the radius forces a zero error: any
        # nonzero polynomial confined to the message window has rank >= d
        t, src = 0, "zero-window"
        g, run = [ctx.zero] * params.n, repeat(ctx.zero)
    else:
        t, lam = skew_bm(params, exposed)
        src = "bm"
        diags["bm_t"] = t
        if t > params.radius:
            diags["candidates_tried"] = 0
            return DecodeResult(ok=False, reason=REASON_INCONSISTENT, diagnostics=diags)
        diags["bm_gaussian_agree"] = True  # the shortest register is unique, see above
        g = list(exposed)
        run = complete_g(params, g, lam)

    try:
        msg = extract_message(params, map(ctx.sub, seq[d - 1 :], run))
    except SubfieldCheckError:
        reason = REASON_SUBFIELD
    except SymmetryCheckError:
        reason = REASON_SYMMETRY
    else:
        if list(islice(run, t)) == g[:t]:
            diags["solver"] = src
            diags["equations_used"] = d - 1 - t
            error_poly = tuple(v for _, v in sorted(zip(_cyclic_order(params.n, d), g[: params.n])))
            return DecodeResult(ok=True, message=msg, error_poly=error_poly, error_rank=t, diagnostics=diags)
        reason = REASON_RADIUS
    diags["candidates_tried"] = 1
    return DecodeResult(ok=False, reason=reason, diagnostics=diags)


# -- serialization ----------------------------------------------------------


def message_to_json_obj(params: CodeParams, msg: Message) -> dict:
    return {"f": [params.ctx.to_coeffs(p) for p in msg.parts]}


def message_from_json_obj(params: CodeParams, obj: dict) -> Message:
    """Message from {"f": [element, ...]}; any other shape raises BadShapeError."""
    parts = [params.ctx.felt_from_json(p) for p in json_field(obj, "f", list, "message", BadShapeError)]
    if len(parts) != params.k:
        raise NotInSubfieldError(f"message needs exactly {params.k} components")
    return Message(tuple(parts))


def word_to_json_obj(params: CodeParams, vec: Sequence[Felt]) -> dict:
    return {"v": [params.ctx.to_coeffs(v) for v in vec]}


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
