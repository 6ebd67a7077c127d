"""decode against the re-encoding decoder it replaced (tests/reference_decode.py).

Certifying a candidate by the rank of its completed error polynomial must
give exactly the result of re-encoding the message and taking the rank
distance: same verdict, message, error polynomial, rank, failure reason,
and the same diagnostics in the same key order.
"""

from itertools import islice

import pytest

from hermrank import (
    MODE_ARBITRARY,
    MODE_HERMITIAN,
    SplitMix64,
    corrupt,
    decode,
    encode,
    enumerate_code,
    nearest_codeword,
    random_message,
)
from hermrank import codec
from hermrank.codec import (
    REASON_INCONSISTENT,
    REASON_RADIUS,
    REASON_SUBFIELD,
    REASON_SYMMETRY,
    beta_split,
    complete_g,
    skew_bm,
)
from hermrank.exceptions import BadRankError

from helpers import noisy
import reference_decode as ref
from reference_decode import cyclic_order, known_indices, reference_decode, register_output
from reference_moore import lp_eval
from reference_rank import map_rank

POINTS = [(2, 5, 3), (2, 7, 5), (2, 7, 7), (3, 3, 3), (3, 5, 3), (3, 7, 5), (5, 3, 3)]


def _same(p, rec):
    new, old = decode(p, rec), reference_decode(p, rec)
    assert new == old
    assert list(new.diagnostics.items()) == list(old.diagnostics.items())
    return new


def _cycle_error(p, rng, rand_felt, L):
    # a random register of length L with a random start, run forward from
    # the first exposed index around the whole cycle: (lambda, error
    # polynomial in index order)
    ctx, n = p.ctx, p.n
    lam = [rand_felt(ctx, rng) for _ in range(L)]
    run = [rand_felt(ctx, rng) for _ in range(L)]
    run[0] = ctx.one
    for j in range(L, n):
        run.append(register_output(ctx, run, lam, j, len(run)))
    coeffs = [ctx.zero] * n
    for i, c in zip(cyclic_order(p), run):
        coeffs[i] = c
    return tuple(lam), tuple(coeffs)


@pytest.mark.parametrize("q,n,d", POINTS)
@pytest.mark.parametrize("mode", [MODE_ARBITRARY, MODE_HERMITIAN])
def test_seeded_words_match_reference(params_for, q, n, d, mode):
    p = params_for(q, n, d)
    for t in range(0, min(p.radius + 1, p.n) + 1):
        for seed in range(6):
            msg, _, rec = noisy(p, 1_000 * t + seed, t, mode)
            res = _same(p, rec)
            if t <= p.radius:
                assert res.ok and res.message == msg and res.error_rank == t


@pytest.mark.parametrize("q,n,d", POINTS)
def test_uniform_words_match_reference(params_for, rand_word, q, n, d):
    p = params_for(q, n, d)
    rng = SplitMix64(7_000 + q * 100 + n)
    for _ in range(40):
        _same(p, rand_word(p, rng))


def test_every_outcome_is_compared(params_for, rand_word):
    # rank-1 errors decode; full-rank single-coefficient error polynomials
    # and uniform words reach every failure reason, so each branch of the
    # two decoders is compared at least once
    p = params_for(2, 5, 3)
    ctx = p.ctx
    word = encode(p, random_message(p, SplitMix64(5)))
    rng = SplitMix64(11)
    seen = {"ok" if res.ok else res.reason
            for res in (_same(p, noisy(p, 50 + s, 1, MODE_ARBITRARY)[2]) for s in range(4))}
    for i in range(p.n):
        for _ in range(6):
            coeffs = [ctx.zero] * p.n
            coeffs[i] = ctx.from_coeffs([rng.below(2) for _ in range(ctx.deg)])
            err = tuple(lp_eval(ctx, tuple(coeffs), a) for a in p.alpha)
            res = _same(p, corrupt(ctx, word, err))
            seen.add("ok" if res.ok else res.reason)
    for _ in range(60):
        res = _same(p, rand_word(p, rng))
        seen.add("ok" if res.ok else res.reason)
    assert seen == {"ok", REASON_RADIUS, REASON_SYMMETRY, REASON_SUBFIELD, REASON_INCONSISTENT}


def test_odd_q_verdicts_match_exhaustive_scan(params_for, rand_word):
    # (3,3,3) has 27 codewords: every verdict is checked against a full scan
    p = params_for(3, 3, 3)
    table = enumerate_code(p)
    rng = SplitMix64(13)
    words = [noisy(p, 3_000 + 10 * t + s, t, mode)[2]
             for t in range(p.n + 1) for s in range(4) for mode in (MODE_ARBITRARY, MODE_HERMITIAN)]
    words += [rand_word(p, rng) for _ in range(24)]
    for rec in words:
        res = _same(p, rec)
        near = nearest_codeword(p, table, rec)
        if near.distance <= p.radius:
            assert res.ok and res.message == near.message and res.error_rank == near.distance
        else:
            assert not res.ok


def test_decode_certifies_without_reencoding(params_for, monkeypatch, spy):
    # one interpolation (the received word), no encode, and one feedback sum
    # per BM discrepancy and per position the register's run makes: (d-1) +
    # k + t when the candidate reaches closure, (d-1) + kappa + 1 when
    # extraction fails at the window centre, d-1 when BM's register is
    # longer than the radius
    p = params_for(2, 7, 5)
    ctx = p.ctx
    msg, _, rec = noisy(p, 17, p.radius, MODE_ARBITRARY)
    interpolations, feedbacks = spy(codec, "lp_interpolate", "_feedback").values()

    def calls():
        return {"interpolate": len(interpolations), "feedback": len(feedbacks)}

    def forbidden(*args):
        raise AssertionError("decode re-encoded a candidate")

    monkeypatch.setattr(codec, "encode", forbidden)
    res = decode(p, rec)
    assert res.ok and res.message == msg and res.diagnostics["solver"] == "bm"
    assert calls() == {"interpolate": 1, "feedback": p.d - 1 + p.k + p.radius}

    # one beyond the radius: BM's register fails extraction's centre check,
    # and the run stops there
    del interpolations[:], feedbacks[:]
    res = decode(p, noisy(p, 17, p.radius + 1, MODE_ARBITRARY)[2])
    assert res.reason == REASON_SUBFIELD and res.diagnostics["bm_t"] <= p.radius
    assert calls() == {"interpolate": 1, "feedback": p.d - 1 + p.kappa + 1}

    # exposed coefficients 1, 0, 0, 1 need a register of length 3
    del interpolations[:], feedbacks[:]
    coeffs = [ctx.zero] * p.n
    first, *_, last = known_indices(p)
    coeffs[first] = coeffs[last] = ctx.one
    err = tuple(lp_eval(ctx, tuple(coeffs), a) for a in p.alpha)
    res = decode(p, corrupt(ctx, encode(p, msg), err))
    assert res.reason == REASON_INCONSISTENT and res.diagnostics["bm_t"] == 3 > p.radius
    assert calls() == {"interpolate": 1, "feedback": p.d - 1}


@pytest.mark.parametrize("q,n,d", [(3, 19, 9), (5, 13, 7)])
def test_hermitian_errors_beyond_radius_match_reference(params_for, spy, q, n, d):
    # Hermitian-mode errors past the radius: the register's run stops at the
    # first extraction check that fails, kappa + 1 positions into the window
    # for the centre, and the result, diagnostics included, is the
    # reference decoder's, which completes the whole window first
    p = params_for(q, n, d)
    feedbacks = spy(codec, "_feedback")["_feedback"]
    reasons = set()
    for t in (p.radius + 1, p.radius + 2):
        for seed in range(8):
            feedbacks.clear()
            res = _same(p, noisy(p, 11_000 + 100 * t + seed, t, MODE_HERMITIAN)[2])
            assert not res.ok
            reasons.add(res.reason)
            if res.reason == REASON_SUBFIELD:
                assert len(feedbacks) == d - 1 + p.kappa + 1
    assert REASON_SUBFIELD in reasons


@pytest.mark.parametrize(
    "q,n,d,count", [(2, 7, 7, 100), (2, 9, 7, 100), (3, 7, 5, 100), (5, 5, 5, 100), (2, 31, 15, 16)]
)
def test_register_run_around_the_cycle(params_for, rand_felt, q, n, d, count):
    # The error polynomial is a random register of length L <= radius run
    # forward from the first exposed index around the whole cycle.  BM finds
    # the register and completion rebuilds the window exactly, so extraction
    # returns the sent message; closure can fail only where the run wraps
    # back onto its first L coefficients, and then the error's rank must
    # exceed the radius.
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(9_000 + 100 * q + n)
    rejected = 0
    for _ in range(count):
        msg = random_message(p, rng)
        _, e = _cycle_error(p, rng, rand_felt, 1 + rng.below(p.radius))
        res = _same(p, corrupt(ctx, encode(p, msg), tuple(lp_eval(ctx, e, a) for a in p.alpha)))
        if res.ok:
            assert res.message == msg and res.error_poly == e
        else:
            assert res.reason == REASON_RADIUS and map_rank(ctx, e) > p.radius
            rejected += 1
    assert rejected >= count * 3 // 4


@pytest.mark.parametrize(
    "q,n,d,count",
    [(2, 31, 15, 8), (3, 9, 5, 30), (3, 19, 9, 8), (5, 13, 7, 12), (2, 7, 5, 40), (2, 7, 7, 40), (3, 1, 1, 0)],
)
def test_cyclic_order_matches_dict_indexing(params_for, rand_felt, q, n, d, count):
    # beta read once in the cyclic order against the dict keyed by cyclic
    # index that it replaced: the same exposed sequence, the same completion
    # and closure verdict for the drawn register of every length up to d-1
    # and for BM's, and the same decode result, error_poly included, on
    # channel errors and on register runs around the cycle.  Completion and
    # closure are one run: g[n:n+t] must give back g[:t]
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(9_500 + 100 * q + n)
    words = [(None, noisy(p, 9_600 + 10 * t + s, t, MODE_ARBITRARY)[2])
             for t in range(min(p.radius + 1, n) + 1) for s in range(2)]
    for _ in range(count):
        lam, e = _cycle_error(p, rng, rand_felt, 1 + rng.below(d - 1))
        err = tuple(lp_eval(ctx, e, a) for a in p.alpha)
        words.append((lam, corrupt(ctx, encode(p, random_message(p, rng)), err)))
    verdicts = set()
    for lam, rec in words:
        seq = beta_split(p, rec)
        beta, known = ref.beta_split(p, rec)
        assert seq == tuple(beta[i] for i in cyclic_order(p))
        assert seq[: d - 1] == tuple(known[i] for i in known_indices(p))
        res = _same(p, rec)
        bm_t, bm_lam = skew_bm(p, seq[: d - 1])
        for reg in filter(None, (lam, bm_lam)):
            g, g_ref = list(seq[: d - 1]), ref.complete_g(p, known, reg)
            t = len(reg)
            assert list(islice(complete_g(p, g, reg), n - d + 1 + t)) == g[d - 1 :]
            assert tuple(g[:n]) == tuple(g_ref[i] for i in cyclic_order(p))
            closes = g[n : n + t] == g[:t]
            assert closes == ref.register_closes(p, g_ref, reg)
            verdicts.add(closes)
            if reg is bm_lam and res.ok:
                assert res.error_poly == g_ref and res.error_rank == bm_t
    if d > 1:
        assert verdicts == {True, False}
    else:
        with pytest.raises(BadRankError):
            complete_g(p, [], (ctx.one,))
        with pytest.raises(BadRankError):
            ref.complete_g(p, {}, (ctx.one,))
