"""Seeded error sampling and corruption."""

import copy
import json

import pytest

from hermrank import (
    MODE_ARBITRARY,
    MODE_HERMITIAN,
    ChannelSpec,
    SplitMix64,
    build_params,
    codeword_to_matrix,
    corrupt,
    is_hermitian,
    params_to_json_obj,
    random_rank_error,
    rank_distance,
)
from hermrank import cli
from hermrank.channel import _draw_arbitrary, _draw_hermitian
from hermrank.codec import word_from_json_obj, word_to_json_obj
from hermrank.exceptions import BadParamsError, BadRankError, HermrankError
from hermrank.field import FieldContext
from hermrank.linpoly import lp_interpolate
from reference_rank import (
    draw_arbitrary_listed,
    draw_hermitian_listed,
    draw_hermitian_via_matrix,
    map_rank,
    matrix_rank,
    random_rank_error_listed,
)


def test_rank_zero_error_is_zero(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    e = random_rank_error(p, ChannelSpec(t=0, seed=123))
    assert e == (ctx.zero,) * p.n


def test_error_sampling_is_deterministic(params_for):
    p = params_for(2, 7, 5)
    for mode in (MODE_ARBITRARY, MODE_HERMITIAN):
        a = random_rank_error(p, ChannelSpec(t=2, mode=mode, seed=999))
        b = random_rank_error(p, ChannelSpec(t=2, mode=mode, seed=999))
        assert a == b
        c = random_rank_error(p, ChannelSpec(t=2, mode=mode, seed=1000))
        assert c != a


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 7, 5), (3, 5, 3)])
@pytest.mark.parametrize("mode", [MODE_ARBITRARY, MODE_HERMITIAN])
def test_error_rank_is_exact(params_for, q, n, d, mode):
    p = params_for(q, n, d)
    ctx = p.ctx
    zero = (ctx.zero,) * n
    for t in range(1, 4):
        for seed in range(5):
            e = random_rank_error(p, ChannelSpec(t=t, mode=mode, seed=40 * t + seed))
            assert rank_distance(p, e, zero) == t
            assert map_rank(ctx, lp_interpolate(ctx, p.moore_packed, e)) == t


def test_full_rank_error(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    zero = (ctx.zero,) * p.n
    for mode in (MODE_ARBITRARY, MODE_HERMITIAN):
        e = random_rank_error(p, ChannelSpec(t=p.n, mode=mode, seed=7))
        assert rank_distance(p, e, zero) == p.n


def test_error_sampling_guards(params_for):
    p = params_for(2, 5, 3)
    with pytest.raises(BadRankError):
        random_rank_error(p, ChannelSpec(t=-1, seed=1))
    with pytest.raises(BadRankError):
        random_rank_error(p, ChannelSpec(t=p.n + 1, seed=1))
    with pytest.raises(BadParamsError):
        random_rank_error(p, ChannelSpec(t=1, mode="burst", seed=1))


def test_non_integer_rank_and_seed_rejected(params_for):
    # t=True once drew a rank-1 error, and t=1.0 or seed=1.5 ended in a
    # bare TypeError; a bool is not an integer here, as for n and d
    p = params_for(3, 5, 3)
    for mode in (MODE_ARBITRARY, MODE_HERMITIAN):
        for t in (True, False, 1.0, 0.0, "1", None):
            with pytest.raises(BadRankError):
                random_rank_error(p, ChannelSpec(t=t, mode=mode, seed=1))
        for seed in (1.5, 1.0, True, "1", None):
            for t in (0, 1):
                with pytest.raises(BadParamsError):
                    random_rank_error(p, ChannelSpec(t=t, mode=mode, seed=seed))
        assert rank_distance(p, random_rank_error(p, ChannelSpec(t=1, mode=mode, seed=1)), (p.ctx.zero,) * p.n) == 1


def test_hermitian_mode_matrices_are_hermitian(params_for):
    p = params_for(3, 5, 3)
    ctx = p.ctx
    for t in (1, 2, 3):
        for seed in range(5):
            e = random_rank_error(p, ChannelSpec(t=t, mode=MODE_HERMITIAN, seed=90 * t + seed))
            assert is_hermitian(ctx, codeword_to_matrix(p, e))


@pytest.mark.parametrize("q,n,d", [(2, 7, 5), (3, 5, 3), (5, 5, 3)])
def test_hermitian_draw_matches_matrix_path(params_for, q, n, d):
    # a kept vector-form draw is the vector of B*D*B^* exactly, a draw is
    # kept exactly when that vector has rank t, and either way the draw
    # leaves the RNG where the matrix path leaves it
    p = params_for(q, n, d)
    sub2 = p.ctx.subfield_elements(2)
    zero = (p.ctx.zero,) * n
    for t in range(1, n + 1):
        for seed in range(4):
            fast, slow = SplitMix64(50 * t + seed), SplitMix64(50 * t + seed)
            e = _draw_hermitian(p, n, t, fast)
            full = draw_hermitian_via_matrix(p, n, t, slow, sub2)
            assert e == (full if rank_distance(p, full, zero) == t else None)
            assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("q,n,d", [(2, 3, 3), (3, 3, 3), (2, 5, 3), (5, 3, 3), (3, 5, 3)])
def test_span_check_agrees_with_rank_distance(params_for, q, n, d):
    # draw by draw, in both modes and at every t, a draw keeps exactly the
    # listed draw's error when rank_distance from the zero word gives it
    # rank t, rejects it otherwise, and leaves the RNG where the listed draw
    # leaves it, kept or not.  Small q makes rejections common; in
    # arbitrary mode both causes occur: F_{q^2}-dependent gammas, and a
    # coefficient matrix C of rank below t
    p = params_for(q, n, d)
    ctx = p.ctx
    sub2 = ctx.subfield_elements(2)
    zero = (ctx.zero,) * n
    listed = {
        _draw_arbitrary: lambda rng, t: draw_arbitrary_listed(ctx, n, t, rng, sub2),
        _draw_hermitian: lambda rng, t: draw_hermitian_listed(p, n, t, rng, sub2),
    }
    for draw, listed_draw in listed.items():
        fast, slow = SplitMix64(1000 * q + n), SplitMix64(1000 * q + n)
        rejected = dependent = deficient = 0
        for t in range(1, n + 1):
            for _ in range(40):
                probe = copy.copy(fast)
                e = draw(p, n, t, fast)
                full = listed_draw(slow, t)
                kept = rank_distance(p, full, zero) == t
                assert e == (full if kept else None)
                assert fast.next_u64() == slow.next_u64()
                rejected += not kept
                if draw is _draw_arbitrary:
                    # the draw's own digits, read again: t gammas, then C
                    gammas = [ctx.from_coeffs(probe.draws(q, ctx.deg)) for _ in range(t)]
                    c = [[sub2[x] for x in probe.draws(q * q, n)] for _ in range(t)]
                    independent = rank_distance(p, tuple(gammas) + zero[t:], zero) == t
                    full_rank = matrix_rank(ctx, c) == t
                    assert kept == (independent and full_rank)
                    dependent += not independent
                    deficient += not full_rank
        assert rejected > 0
        assert draw is _draw_hermitian or (dependent > 0 and deficient > 0)


def test_arbitrary_mode_is_genuinely_wider(params_for):
    # arbitrary mode must be able to produce non-Hermitian errors; scan a
    # fixed seed range so the test stays deterministic
    p = params_for(2, 5, 3)
    ctx = p.ctx
    non_hermitian = 0
    for seed in range(50):
        e = random_rank_error(p, ChannelSpec(t=2, mode=MODE_ARBITRARY, seed=seed))
        if not is_hermitian(ctx, codeword_to_matrix(p, e)):
            non_hermitian += 1
    assert non_hermitian > 0


def test_corrupt_basics(params_for, rand_felt):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    rng = SplitMix64(11)
    word = tuple(rand_felt(ctx, rng) for _ in range(p.n))
    zero = (ctx.zero,) * p.n
    assert corrupt(ctx, word, zero) == word
    e = tuple(rand_felt(ctx, rng) for _ in range(p.n))
    noisy = corrupt(ctx, word, e)
    # characteristic 2: adding the error twice cancels it
    assert corrupt(ctx, noisy, e) == word
    with pytest.raises(ValueError):
        corrupt(ctx, word, e[:-1])
    with pytest.raises(HermrankError):
        corrupt(ctx, word + word[:1], e)


def test_corrupt_subtracts_in_odd_characteristic(params_for, rand_felt):
    p = params_for(3, 3, 3)
    ctx = p.ctx
    rng = SplitMix64(13)
    word = tuple(rand_felt(ctx, rng) for _ in range(p.n))
    e = tuple(rand_felt(ctx, rng) for _ in range(p.n))
    noisy = corrupt(ctx, word, e)
    neg_e = tuple(ctx.neg(x) for x in e)
    assert corrupt(ctx, noisy, neg_e) == word


@pytest.mark.parametrize(
    "q,n,d",
    [(2, 31, 15), (3, 19, 9), (5, 13, 7), (2, 7, 5), (3, 5, 3), (7, 3, 3), (2, 1, 1), (3, 1, 1)],
)
@pytest.mark.parametrize("mode", [MODE_ARBITRARY, MODE_HERMITIAN])
def test_channel_matches_listed_draws(params_for, q, n, d, mode):
    # drawing two digits per F_{q^2} entry and combining them gives exactly
    # the errors of indexing the list of all q^2 elements, with the same
    # RNG calls, at the benchmark's points and the small ones
    p = params_for(q, n, d)
    for t in sorted({1, p.radius, p.radius + 1} & set(range(1, n + 1))):
        for seed in range(3):
            spec = ChannelSpec(t=t, mode=mode, seed=1000 * t + seed)
            assert random_rank_error(p, spec) == random_rank_error_listed(p, spec)


@pytest.mark.parametrize("q", [65521, 4294967291])
def test_channel_draws_digits_at_large_q(monkeypatch, tmp_path, capsys, q):
    # a draw never lists F_{q^2} (about 500 GiB at q = 65521), so the
    # channel and the CLI's corrupt run at every q the element budget admits
    def guarded(self, e):
        pytest.fail(f"asked for all {self.q}^{e} elements of F_(q^{e})")

    monkeypatch.setattr(FieldContext, "subfield_elements", guarded)
    p = build_params(q, 1, 1)
    zero = (p.ctx.zero,) * p.n
    for mode in (MODE_ARBITRARY, MODE_HERMITIAN):
        e = random_rank_error(p, ChannelSpec(t=1, mode=mode, seed=1))
        assert rank_distance(p, e, zero) == 1
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params_to_json_obj(p)))
    word_path = tmp_path / "word.json"
    word_path.write_text(json.dumps(word_to_json_obj(p, zero)))
    argv = ["corrupt", "--params", str(params_path), "--in", str(word_path), "--rank", "1", "--seed", "1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert rank_distance(p, word_from_json_obj(p, json.loads(captured.out)), zero) == 1
