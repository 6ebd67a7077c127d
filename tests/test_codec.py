"""Encoder, key-equation solvers, register synthesis, certified decoding."""

import tracemalloc
from array import array
from itertools import islice

import pytest

from hermrank import (
    MODE_ARBITRARY,
    MODE_HERMITIAN,
    ChannelSpec,
    Message,
    SplitMix64,
    build_params,
    corrupt,
    decode,
    encode,
    enumerate_code,
    make_context,
    nearest_codeword,
    params_from_json_obj,
    params_to_json_obj,
    random_message,
    random_rank_error,
    rank_distance,
)
from hermrank import codec, field
from hermrank.codec import (
    REASON_INCONSISTENT,
    REASON_RADIUS,
    REASON_SUBFIELD,
    REASON_SYMMETRY,
    beta_split,
    complete_g,
    decode_result_to_json_obj,
    expand_message,
    extract_message,
    message_from_json_obj,
    message_to_json_obj,
    skew_bm,
    word_from_json_obj,
    word_to_json_obj,
)
from hermrank.linpoly import lp_interpolate
from hermrank.exceptions import (
    BadOperandError,
    BadRankError,
    BadShapeError,
    NotInSubfieldError,
    SubfieldCheckError,
    SymmetryCheckError,
)
from reference_decode import beta_split as reference_beta_split
from reference_decode import cyclic_order, known_indices, solve_key_equation
from reference_decode import skew_bm as reference_skew_bm
from reference_field import from_base
from reference_moore import encode_via_matrix, encode_via_moore_dots, lp_eval, moore_inv_table
from reference_rank import map_rank, random_message_dots


def _word_from_poly(params, poly):
    return tuple(lp_eval(params.ctx, poly, a) for a in params.alpha)


def _noisy(params, msg_seed, t, mode=MODE_ARBITRARY):
    rng = SplitMix64(msg_seed)
    msg = random_message(params, rng)
    err = random_rank_error(params, ChannelSpec(t=t, mode=mode, seed=rng.next_u64()))
    return msg, err, corrupt(params.ctx, encode(params, msg), err)


# -- message expansion ------------------------------------------------------


def test_random_message_peak_memory_at_large_q(params_for):
    # one digit is drawn per basis element and combined with it, so the
    # draw stays small where a table of all q scalars would hold a million
    # elements
    p = params_for(1000003, 1, 1)
    ctx = p.ctx
    tracemalloc.start()
    try:
        msg = random_message(p, SplitMix64(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert msg.parts == (from_base(ctx, SplitMix64(1).below(ctx.q)),)
    assert peak < 2**20, peak


@pytest.mark.parametrize(
    "q,n,d",
    [(2, 31, 15), (3, 19, 9), (5, 13, 7), (2, 7, 5), (3, 5, 3), (7, 3, 3), (2, 1, 1), (1000003, 1, 1)],
)
def test_random_message_matches_dot_oracle(params_for, q, n, d):
    p = params_for(q, n, d)
    for seed in range(20):
        assert random_message(p, SplitMix64(seed)) == random_message_dots(p, SplitMix64(seed))


def test_expand_zero_message(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    poly = expand_message(p, Message((ctx.zero,) * p.k))
    assert poly == (ctx.zero,) * p.n


def test_expand_single_coefficient_window(params_for):
    # kappa = 0 leaves just the center, twisted by one odd Frobenius power
    p = params_for(2, 3, 3)
    ctx = p.ctx
    f0 = ctx.subfield_elements(3)[5]
    poly = expand_message(p, Message((f0,)))
    assert poly[p.m] == ctx.frobenius(f0, p.n + 1)
    for i in range(p.n):
        if i != p.m:
            assert poly[i] == ctx.zero


def test_expand_window_structure(params_for):
    p = params_for(2, 7, 5)
    ctx = p.ctx
    rng = SplitMix64(41)
    msg = random_message(p, rng)
    poly = expand_message(p, msg)
    m, kappa = p.m, p.kappa
    assert poly[m] == ctx.frobenius(msg.parts[0], p.n + 1)
    b = ctx.add(msg.parts[1], ctx.mul(p.eta, msg.parts[2]))
    assert poly[m - 1] == ctx.frobenius(b, 1)
    assert poly[m + 1] == ctx.frobenius(poly[m - 1], p.n + 2)
    for i in range(p.n):
        if not (m - kappa <= i <= m + kappa):
            assert poly[i] == ctx.zero


def test_expand_window_symmetry_everywhere(params_for):
    for q, n, d in [(2, 5, 3), (2, 9, 5), (3, 5, 3)]:
        p = params_for(q, n, d)
        ctx = p.ctx
        rng = SplitMix64(43)
        for _ in range(10):
            poly = expand_message(p, random_message(p, rng))
            for j in range(1, p.kappa + 1):
                lo = poly[(p.m - j) % n]
                hi = poly[(p.m + j) % n]
                assert hi == ctx.frobenius(lo, n + 2 * j)


def test_expand_rejects_bad_messages(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    with pytest.raises(NotInSubfieldError, match="components"):
        expand_message(p, Message((ctx.zero,) * (p.k + 1)))
    with pytest.raises(NotInSubfieldError):
        expand_message(p, Message((p.eta, ctx.zero, ctx.zero)))


# -- encoding ---------------------------------------------------------------


def test_encode_zero_and_additivity(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    zero_word = encode(p, Message((ctx.zero,) * p.k))
    assert all(v == ctx.zero for v in zero_word)
    rng = SplitMix64(47)
    for _ in range(10):
        m1, m2 = random_message(p, rng), random_message(p, rng)
        m3 = Message(tuple(ctx.add(a, b) for a, b in zip(m1.parts, m2.parts)))
        w1, w2, w3 = encode(p, m1), encode(p, m2), encode(p, m3)
        assert tuple(ctx.add(a, b) for a, b in zip(w1, w2)) == w3


# every (q, n, d) the suite builds a code at, including the edge shapes
# d = 1 (k = n, the window is every index), d = n (k = 1, a one-index
# window) and n = 1
ENCODE_POINTS = [
    (2, 1, 1), (2, 3, 3), (2, 5, 1), (2, 5, 3), (2, 5, 5), (2, 7, 1), (2, 7, 3), (2, 7, 5), (2, 7, 7),
    (2, 9, 5), (2, 9, 7), (2, 9, 9), (2, 31, 15),
    (3, 1, 1), (3, 3, 1), (3, 3, 3), (3, 5, 1), (3, 5, 3), (3, 7, 5), (3, 7, 7), (3, 9, 5), (3, 19, 9),
    (5, 1, 1), (5, 3, 3), (5, 5, 3), (5, 5, 5), (5, 7, 5), (5, 13, 7), (7, 3, 3), (7, 5, 3),
    (65521, 1, 1), (1000003, 1, 1), (4294967291, 1, 1),
]


@pytest.mark.parametrize("q,n,d", ENCODE_POINTS)
def test_encode_agrees_with_matrix_path(params_for, q, n, d):
    # the packed evaluation against the dense product with the Moore rows,
    # against lp_eval at each basis point, and against the encoder it
    # replaced: n dots with the tuple Moore table between conjugations
    p = params_for(q, n, d)
    table = moore_inv_table(p.ctx, p.alpha)
    zero = Message((p.ctx.zero,) * p.k)
    assert encode(p, zero) == encode_via_moore_dots(p, zero, table) == (p.ctx.zero,) * n
    rng = SplitMix64(53)
    for _ in range(15):
        msg = random_message(p, rng)
        word = encode(p, msg)
        assert word == encode_via_matrix(p, msg)
        assert word == _word_from_poly(p, expand_message(p, msg))
        assert word == encode_via_moore_dots(p, msg, table)


@pytest.mark.parametrize("q,n,d", [(3, 19, 9), (251, 3, 3)])
def test_odd_q_elements_are_tuples_of_ints(params_for, q, n, d):
    # the odd-q element contract, on both ways to the canonical tuple (byte
    # folds below q = 128, the per-coefficient mod above): a tuple of plain
    # ints, never bytes, an array or an int subclass, from every operation
    # that builds one
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(q + n)
    msg = random_message(p, rng)
    a, b = msg.parts[0], ctx.from_coeffs([rng.below(q) for _ in range(ctx.deg)])
    word = encode(p, msg)
    err = random_rank_error(p, ChannelSpec(t=p.radius, mode=MODE_HERMITIAN, seed=5))
    res = decode(p, corrupt(ctx, word, err))
    assert res.ok and res.message == msg
    elems = [ctx.mul(a, b), ctx.add(a, b), ctx.sub(a, b), ctx.neg(b), ctx.frobenius(b, 1), ctx.inv(b)]
    elems += ctx.fq_combine([a, b], [(1, q - 1)]) + ctx.combine_rows([a, b], ctx.pack_rows([[b] * n, [a] * n]))
    elems += msg.parts + word + err + res.message.parts + res.error_poly
    for e in elems:
        assert type(e) is tuple and len(e) == ctx.deg and all(type(c) is int for c in e), e


def test_minimal_code_pairwise_distance(params_for):
    # the whole (2,3,3) code: 8 words, any two at rank distance >= 3
    p = params_for(2, 3, 3)
    words = [encode(p, Message((f0,))) for f0 in p.ctx.subfield_elements(3)]
    assert len(set(words)) == 8
    for i in range(8):
        for j in range(i + 1, 8):
            assert rank_distance(p, words[i], words[j]) >= 3


# -- exposed coefficient window ---------------------------------------------


def test_known_indices_frozen(params_for):
    # the cyclic order's first d-1 entries are the exposed indices, the
    # same as the dict-based decoder's known_indices
    for (n, d), want in [((3, 3), (0, 1)), ((5, 3), (0, 1)), ((7, 5), (6, 0, 1, 2)),
                         ((7, 7), (5, 6, 0, 1, 2, 3)), ((5, 1), ())]:
        p = params_for(2, n, d)
        assert tuple(codec._cyclic_order(n, d)[: d - 1]) == known_indices(p) == want
        assert codec._cyclic_order(n, d) == cyclic_order(p)


def test_cyclic_order_closed_form():
    # the order is the d-1 indices from m+kappa+1 on, then the window
    # m-kappa .. m+kappa, and it starts at 1 - radius (mod n)
    for n in range(1, 64, 2):
        for d in range(1, n + 1, 2):
            m, kappa = (n + 1) // 2, (n - d) // 2
            start = m + kappa + 1
            built = [(start + j) % n for j in range(d - 1)] + [i % n for i in range(m - kappa, m + kappa + 1)]
            order = codec._cyclic_order(n, d)
            assert order == built, (n, d)
            assert order[0] == (1 - (d - 1) // 2) % n, (n, d)


def test_beta_split_on_clean_codeword(params_for):
    p = params_for(2, 7, 5)
    ctx = p.ctx
    rng = SplitMix64(59)
    msg = random_message(p, rng)
    seq = beta_split(p, encode(p, msg))
    assert seq == tuple(expand_message(p, msg)[i] for i in cyclic_order(p))
    assert all(v == ctx.zero for v in seq[: p.d - 1])


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 7, 5), (3, 5, 3)])
def test_beta_is_sum_of_window_and_error_coeffs(params_for, q, n, d, rand_felt):
    # interpolation is linear, so beta = sent coefficients + error coefficients
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(61)
    for _ in range(35):
        msg = random_message(p, rng)
        evec = tuple(rand_felt(ctx, rng) for _ in range(p.n))
        seq = beta_split(p, corrupt(ctx, encode(p, msg), evec))
        sent = expand_message(p, msg)
        g = lp_interpolate(ctx, p.moore_packed, evec)
        assert seq == tuple(ctx.add(sent[i], g[i]) for i in cyclic_order(p))
        assert seq[: d - 1] == tuple(g[i] for i in known_indices(p))  # sent part vanishes there


# -- key equation -----------------------------------------------------------


@pytest.mark.parametrize("q,n,d", [(2, 7, 5), (3, 5, 3), (2, 9, 5)])
def test_solve_key_equation_recovers_register(params_for, q, n, d):
    p = params_for(q, n, d)
    ctx = p.ctx
    for t in range(1, p.radius + 1):
        for seed in range(8):
            _, err, rec = _noisy(p, 100 * t + seed, t)
            _, known = reference_beta_split(p, rec)
            lam = solve_key_equation(p, known, t)
            assert lam is not None and len(lam) == t
            start = p.m + p.kappa + 1
            for off in range(t, p.d - 1):
                i = (start + off) % n
                acc = ctx.zero
                for l in range(1, t + 1):
                    acc = ctx.add(acc, ctx.mul(lam[l - 1], ctx.frobenius(known[(i - l) % n], 2 * l)))
                assert acc == known[i]


def test_solve_key_equation_guards(params_for):
    p = params_for(2, 7, 5)
    _, _, rec = _noisy(p, 3, 1)
    _, known = reference_beta_split(p, rec)
    with pytest.raises(BadRankError):
        solve_key_equation(p, known, 0)
    with pytest.raises(BadRankError):
        solve_key_equation(p, known, p.radius + 1)


def test_solve_key_equation_zero_sequence_is_underdetermined(params_for):
    p = params_for(2, 5, 3)
    rng = SplitMix64(67)
    _, known = reference_beta_split(p, encode(p, random_message(p, rng)))
    assert solve_key_equation(p, known, 1) is None


def test_solve_key_equation_overestimated_rank(params_for):
    # asking for a longer register than the error needs must not fabricate a
    # unique answer: either the system is flagged non-unique or the returned
    # register still satisfies every equation
    p = params_for(2, 7, 7)
    ctx = p.ctx
    for seed in range(6):
        _, _, rec = _noisy(p, 500 + seed, 1)
        _, known = reference_beta_split(p, rec)
        lam = solve_key_equation(p, known, 2)
        if lam is None:
            continue
        start = p.m + p.kappa + 1
        for off in range(2, p.d - 1):
            i = (start + off) % p.n
            acc = ctx.zero
            for l in (1, 2):
                acc = ctx.add(acc, ctx.mul(lam[l - 1], ctx.frobenius(known[(i - l) % p.n], 2 * l)))
            assert acc == known[i]


# -- register synthesis -----------------------------------------------------


def test_skew_bm_zero_sequence(params_for):
    p = params_for(2, 5, 3)
    assert skew_bm(p, [p.ctx.zero] * 4) == (0, ())


def test_skew_bm_takes_at_most_2n_terms(params_for, rand_felt):
    # the register runs on unreduced sums whose odd-q slot bound holds for
    # at most 2n terms: 2n random terms give the reference's register, and
    # one more is refused
    p = params_for(3, 3, 3)
    ctx = p.ctx
    rng = SplitMix64(2027)
    for _ in range(20):
        seq = [rand_felt(ctx, rng) for _ in range(ctx.deg)]
        assert skew_bm(p, seq) == reference_skew_bm(p, seq)
    with pytest.raises(BadOperandError):
        skew_bm(p, seq + [ctx.one])


@pytest.mark.parametrize("t", [1, 2])
def test_skew_bm_matches_gaussian_solver(params_for, t, rand_felt):
    # Massey's uniqueness theorem: with 2L <= d-1 the shortest register is
    # unique, so the Gaussian solve at BM's length L returns BM's register
    p = params_for(2, 7, 5)
    for seed in range(10):
        _, _, rec = _noisy(p, 700 * t + seed, t)
        seq = beta_split(p, rec)[: p.d - 1]
        bm_t, bm_lam = skew_bm(p, seq)
        assert bm_t == t
        assert solve_key_equation(p, dict(zip(known_indices(p), seq)), t) == bm_lam

    # sequences from random registers of every length L <= radius, a
    # quarter of them with lambda_L = 0, at each point of both parities
    for q, n, d in [(2, 7, 5), (2, 9, 7), (3, 7, 5), (3, 7, 7), (5, 5, 5)]:
        p = params_for(q, n, d)
        ctx = p.ctx
        rng = SplitMix64(7_100 * t + 10 * q + n)
        for trial in range(24):
            L = 1 + rng.below(p.radius)
            lam = [rand_felt(ctx, rng) for _ in range(L)]
            if trial % 4 == 0:
                lam[-1] = ctx.zero
            seq = [rand_felt(ctx, rng) for _ in range(L)]
            seq[0] = ctx.one  # never the zero sequence
            for j in range(L, p.d - 1):
                seq.append(ctx.dot(lam, [ctx.frobenius(seq[j - l], 2 * l) for l in range(1, L + 1)]))
            bm_t, bm_lam = skew_bm(p, seq)
            assert 1 <= bm_t <= L
            known = dict(zip(known_indices(p), seq))
            assert solve_key_equation(p, known, bm_t) == bm_lam


def test_skew_bm_output_generates_its_input(params_for, rand_felt):
    # defining property of synthesis: the returned register reproduces the
    # sequence from position t onward under the twisted recurrence
    p = params_for(2, 7, 7)
    ctx = p.ctx
    rng = SplitMix64(71)
    for _ in range(60):
        seq = [rand_felt(ctx, rng) for _ in range(6)]
        t, lam = skew_bm(p, seq)
        assert 0 <= t <= len(seq)
        assert len(lam) == t
        for j in range(t, len(seq)):
            acc = ctx.zero
            for l in range(1, t + 1):
                acc = ctx.add(acc, ctx.mul(lam[l - 1], ctx.frobenius(seq[j - l], 2 * l)))
            assert acc == seq[j]


def test_skew_bm_is_minimal_on_short_registers(params_for, rand_felt):
    # feed a sequence generated by a known length-1 register; synthesis must
    # not return anything longer
    p = params_for(2, 7, 7)
    ctx = p.ctx
    rng = SplitMix64(73)
    for _ in range(20):
        lam = rand_felt(ctx, rng)
        s = rand_felt(ctx, rng)
        if s == ctx.zero or lam == ctx.zero:
            continue
        seq = [s]
        for _ in range(5):
            seq.append(ctx.mul(lam, ctx.frobenius(seq[-1], 2)))
        t, got = skew_bm(p, seq)
        assert t == 1 and got == (lam,)


# the benchmark's points, each with its channel mode
BENCH_POINTS = [(2, 31, 15, MODE_ARBITRARY), (3, 9, 5, MODE_HERMITIAN), (3, 19, 9, MODE_HERMITIAN),
                (5, 13, 7, MODE_HERMITIAN)]


def _exposed(p, rec):
    return beta_split(p, rec)[: p.d - 1]


@pytest.mark.parametrize("q,n,d,mode", BENCH_POINTS)
def test_skew_bm_matches_reference(params_for, rand_felt, q, n, d, mode):
    # storing inv(delta_prev) changes no register: the same (t, lambda) as
    # the synthesis that inverts at every nonzero discrepancy, within the
    # radius, beyond it, and on sequences of random elements
    p = params_for(q, n, d)
    ctx = p.ctx
    seqs = [_exposed(p, _noisy(p, 1300 * t + seed, t, mode)[2])
            for t in (1, p.radius, p.radius + 1, p.radius + 2) for seed in range(3)]
    rng = SplitMix64(1301 + q + n)
    seqs += [[rand_felt(ctx, rng) for _ in range(d - 1)] for _ in range(3)]
    for seq in seqs:
        assert skew_bm(p, seq) == reference_skew_bm(p, seq)


# (q, n, d, length): d - 1 terms, what decode passes, at four points, and
# full 2n-term sequences, the most skew_bm takes, at three small ones
BM_EDGE_POINTS = [(2, 7, 5, 4), (2, 31, 15, 14), (3, 19, 9, 8), (5, 13, 7, 6), (2, 3, 3, 6), (2, 5, 3, 10), (3, 3, 3, 6)]


@pytest.mark.parametrize("q,n,d,size", BM_EDGE_POINTS)
def test_skew_bm_edges_match_reference(params_for, rand_felt, q, n, d, size):
    # the gap of BM's updates reaches the length of the sequence, the
    # widest field of the stack it asks for: k leading zero terms for every
    # k < size put the first update's gap at k + 1 (a read of -1, which
    # every power fixes).  A random head of every length followed by the
    # terms its shortest register predicts (zero discrepancies) and one
    # random last term puts the last update's gap at up to size - 1, read
    # from a nontrivial -inv(delta_prev) and B.  A zero term right after
    # each length change makes the next update read a fresh B at a gap
    # above 1
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(1700 + 10 * q + n)

    def nonzero():
        while (x := rand_felt(ctx, rng)) == ctx.zero:
            pass
        return x

    def predicted(seq):
        length, lam = reference_skew_bm(p, seq)
        return ctx.dot(lam, [ctx.frobenius(seq[-l], 2 * l) for l in range(1, length + 1)])

    seqs = [[ctx.zero] * k + [nonzero()] + [rand_felt(ctx, rng) for _ in range(size - k - 1)] for k in range(size)]
    for head in range(1, size):
        seq = [nonzero()] + [rand_felt(ctx, rng) for _ in range(head - 1)]
        while len(seq) < size - 1:
            seq.append(predicted(seq))
        seqs.append(seq + [nonzero()])
    for _ in range(3):
        seq = [rand_felt(ctx, rng) for _ in range(size)]
        for j in range(size - 1):
            if reference_skew_bm(p, seq[: j + 1])[0] != reference_skew_bm(p, seq[:j])[0]:
                seq[j + 1] = ctx.zero
        seqs.append(seq)
    for seq in seqs:
        assert skew_bm(p, seq) == reference_skew_bm(p, seq), seq


@pytest.mark.parametrize("q,n,d,mode", BENCH_POINTS)
def test_decode_inverts_once_per_length_change(params_for, monkeypatch, q, n, d, mode):
    # machine-independent guard: a decode makes at most one inversion per
    # change of the register length, read off the length profile of the
    # exposed sequence (the shortest register of each prefix), not one per
    # nonzero discrepancy.  The {1, eta} split's one inversion is per code,
    # made by the first extraction, so it is made before counting
    p = params_for(q, n, d)
    p._eta_split
    cls = type(p.ctx)
    count = [0]

    def counting(self, a, _orig=cls.inv):
        count[0] += 1
        return _orig(self, a)

    for t in (1, p.radius, p.radius + 1):
        for seed in range(2):
            msg, _, rec = _noisy(p, 1400 * t + seed, t, mode)
            seq = _exposed(p, rec)
            profile = [reference_skew_bm(p, seq[:j])[0] for j in range(len(seq) + 1)]
            changes = sum(a != b for a, b in zip(profile, profile[1:]))
            count[0] = 0
            with monkeypatch.context() as m:
                m.setattr(cls, "inv", counting)
                res = decode(p, rec)
            assert count[0] <= changes
            if t <= p.radius:
                assert res.ok and res.message == msg


# -- window completion ------------------------------------------------------


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 7, 5), (3, 5, 3)])
def test_complete_g_reconstructs_error_polynomial(params_for, q, n, d):
    p = params_for(q, n, d)
    ctx = p.ctx
    for t in range(1, p.radius + 1):
        for seed in range(10):
            _, err, rec = _noisy(p, 900 * t + seed, t)
            exposed = beta_split(p, rec)[: d - 1]
            bm_t, lam = skew_bm(p, exposed)
            assert bm_t == t
            e = lp_interpolate(ctx, p.moore_packed, err)
            # the run yields positions d-1 .. and appends each to g
            g = list(exposed)
            window = list(islice(complete_g(p, g, lam), p.k))
            assert window == g[d - 1 :] and tuple(g) == tuple(e[i] for i in cyclic_order(p))
            assert map_rank(ctx, e) == t


def test_complete_g_guards(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    _, _, rec = _noisy(p, 5, 1)
    exposed = list(beta_split(p, rec)[: p.d - 1])
    # both guards raise when complete_g is called, before the run is read
    with pytest.raises(BadRankError):
        complete_g(p, exposed, ())
    with pytest.raises(BadRankError):
        complete_g(p, exposed, (ctx.one,) * p.d)
    # g must start as exactly the d - 1 exposed coefficients: the whole
    # cyclic beta sequence would run on past n, and too few would index out
    # of range
    p = params_for(2, 7, 5)
    _, _, rec = _noisy(p, 5, 1)
    seq = list(beta_split(p, rec))
    with pytest.raises(BadShapeError):
        complete_g(p, seq, (p.ctx.one,))
    with pytest.raises(BadShapeError):
        complete_g(p, seq[:2], (p.ctx.one,) * 3)


# -- message extraction -----------------------------------------------------


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 9, 5), (3, 5, 3), (2, 3, 3)])
def test_extract_inverts_expand(params_for, q, n, d):
    p = params_for(q, n, d)
    rng = SplitMix64(79)
    for _ in range(15):
        msg = random_message(p, rng)
        coeffs = expand_message(p, msg)
        window = [coeffs[(p.m - p.kappa + j) % n] for j in range(p.k)]
        assert extract_message(p, window) == msg


def test_extract_zero_window(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    assert extract_message(p, [ctx.zero] * p.k) == Message((ctx.zero,) * p.k)


def test_extract_rejects_center_outside_subfield(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    msg = random_message(p, SplitMix64(83))
    coeffs = expand_message(p, msg)
    window = [coeffs[p.m - 1], ctx.add(coeffs[p.m], p.eta), coeffs[p.m + 1]]
    with pytest.raises(SubfieldCheckError):
        extract_message(p, window)


def test_extract_rejects_broken_symmetry(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    msg = random_message(p, SplitMix64(89))
    coeffs = expand_message(p, msg)
    window = [coeffs[p.m - 1], coeffs[p.m], ctx.add(coeffs[p.m + 1], ctx.one)]
    with pytest.raises(SymmetryCheckError):
        extract_message(p, window)


def test_extract_rejects_wrong_length(params_for):
    p = params_for(2, 5, 3)
    with pytest.raises(SymmetryCheckError):
        extract_message(p, [p.ctx.zero] * (p.k + 1))


def _counted(items, drawn):
    # items, counting in drawn[0] each one drawn
    for x in items:
        drawn[0] += 1
        yield x


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 9, 5), (3, 5, 3)])
def test_extract_reads_only_as_far_as_its_checks_pass(params_for, q, n, d):
    # extraction checks the centre once kappa + 1 coefficients are drawn
    # and pair j right after coefficient kappa + 1 + j, so a failing window
    # is drawn only up to the check that fails it; a window that is not k
    # long is found out when it is read through
    p = params_for(q, n, d)
    ctx, k, kappa = p.ctx, p.k, p.kappa
    msg = random_message(p, SplitMix64(97 + n))
    coeffs = expand_message(p, msg)
    window = [coeffs[(p.m - kappa + j) % n] for j in range(k)]
    cases = [(window, k, None)]
    bad_center = list(window)
    bad_center[kappa] = ctx.add(window[kappa], p.eta)
    cases.append((bad_center, kappa + 1, SubfieldCheckError))
    for j in range(1, kappa + 1):
        bad_pair = list(window)
        bad_pair[kappa + j] = ctx.add(window[kappa + j], ctx.one)
        cases.append((bad_pair, kappa + 1 + j, SymmetryCheckError))
    cases += [(window[:length], length, SymmetryCheckError) for length in range(k)]
    cases.append((window + [window[0]], k + 1, SymmetryCheckError))
    for items, draws, error in cases:
        drawn = [0]
        if error is None:
            assert extract_message(p, _counted(items, drawn)) == msg
        else:
            with pytest.raises(error):
                extract_message(p, _counted(items, drawn))
        assert drawn[0] == draws


# -- decoding ---------------------------------------------------------------


def test_decode_clean_word(params_for):
    p = params_for(2, 7, 5)
    msg = random_message(p, SplitMix64(97))
    res = decode(p, encode(p, msg))
    assert res.ok and res.message == msg
    assert res.error_rank == 0
    assert res.error_poly == (p.ctx.zero,) * p.n
    assert res.diagnostics["solver"] == "zero-window"


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 7, 5), (3, 3, 3), (3, 5, 3)])
@pytest.mark.parametrize("mode", [MODE_ARBITRARY, MODE_HERMITIAN])
def test_decode_roundtrip_within_radius(params_for, q, n, d, mode):
    p = params_for(q, n, d)
    ctx = p.ctx
    for t in range(0, p.radius + 1):
        for seed in range(8):
            msg, err, rec = _noisy(p, 10_000 * t + seed, t, mode)
            res = decode(p, rec)
            assert res.ok, (q, n, d, mode, t, seed, res.reason)
            assert res.message == msg
            assert res.error_rank == t
            assert res.error_poly == lp_interpolate(ctx, p.moore_packed, err)


def test_decode_certification_never_lies(params_for):
    # whatever happens, an ok result re-encodes to within the radius
    p = params_for(2, 5, 3)
    ctx = p.ctx
    rng = SplitMix64(101)
    for _ in range(40):
        rec = tuple(
            ctx.from_coeffs([rng.below(2) for _ in range(ctx.deg)]) for _ in range(p.n)
        )
        res = decode(p, rec)
        if res.ok:
            again = encode(p, res.message)
            assert rank_distance(p, rec, again) <= p.radius
            assert rank_distance(p, rec, again) == res.error_rank


def test_decode_beyond_radius_matches_exhaustive_search(params_for):
    # (2,3,3): cheap to compare against a full scan of the 8 codewords
    p = params_for(2, 3, 3)
    ctx = p.ctx
    table = enumerate_code(p)
    for seed in range(30):
        _, _, rec = _noisy(p, 2_000 + seed, 2)
        res = decode(p, rec)
        near = nearest_codeword(p, table, rec)
        if near.distance <= p.radius:
            assert res.ok and res.error_rank == near.distance
            assert encode(p, res.message) == near.word
        else:
            assert not res.ok


def test_decode_failure_reason_inconsistent(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    poly = (ctx.zero, ctx.one, ctx.zero, ctx.zero, ctx.zero)
    res = decode(p, _word_from_poly(p, poly))
    assert not res.ok and res.reason == REASON_INCONSISTENT
    assert res.diagnostics["candidates_tried"] == 0


def test_decode_failure_reason_symmetry(params_for):
    # error confined to one side of the window: exposed part is zero, the
    # zero-error candidate fails the mirror check, nothing else exists
    p = params_for(2, 5, 3)
    ctx = p.ctx
    poly = (ctx.zero, ctx.zero, ctx.one, ctx.zero, ctx.zero)
    res = decode(p, _word_from_poly(p, poly))
    assert not res.ok and res.reason == REASON_SYMMETRY


def test_decode_failure_reason_subfield(params_for):
    p = params_for(2, 3, 3)
    ctx = p.ctx
    poly = (ctx.zero, ctx.zero, p.eta)
    res = decode(p, _word_from_poly(p, poly))
    assert not res.ok and res.reason == REASON_SUBFIELD


def test_decode_failure_reason_radius(params_for):
    # a full-rank error built by running a length-1 register forward from
    # two chosen exposed values: the register candidate completes and
    # extracts cleanly, but certification sees rank 5 and rejects
    p = params_for(2, 5, 3)
    ctx = p.ctx
    g0 = ctx.from_coeffs([0, 1, 1, 0, 1, 0, 1, 0, 1, 1])
    g1 = ctx.from_coeffs([0, 1, 0, 1, 1, 1, 1, 1, 0, 0])
    lam = ctx.mul(g1, ctx.inv(ctx.frobenius(g0, 2)))
    g = {0: g0, 1: g1}
    for i in range(2, 5):
        g[i] = ctx.mul(lam, ctx.frobenius(g[i - 1], 2))
    poly = tuple(g[i] for i in range(5))
    assert map_rank(ctx, poly) == 5
    msg = random_message(p, SplitMix64(7))
    rec = corrupt(ctx, encode(p, msg), _word_from_poly(p, poly))
    res = decode(p, rec)
    assert not res.ok and res.reason == REASON_RADIUS


def test_decode_diagnostics_shape(params_for):
    p = params_for(2, 7, 5)
    msg, _, rec = _noisy(p, 11, 2)
    res = decode(p, rec)
    assert res.ok and res.message == msg
    assert res.diagnostics["bm_t"] == 2
    assert res.diagnostics["bm_gaussian_agree"] is True
    assert res.diagnostics["solver"] == "bm"
    assert res.diagnostics["equations_used"] == p.d - 1 - 2


def test_decode_rejects_wrong_length_words(params_for):
    # interpolation would silently drop extra entries and treat a short
    # word as its prefix, so the length is checked first
    p = params_for(2, 7, 5)
    zero = p.ctx.zero
    word = encode(p, random_message(p, SplitMix64(101)))
    for bad in ((), word[:-1], word + (zero, zero)):
        with pytest.raises(BadShapeError):
            decode(p, bad)
        with pytest.raises(BadShapeError):
            beta_split(p, bad)


def test_decode_degenerate_distance_one(params_for):
    # d = 1 means radius 0: clean words decode, any corruption fails
    p = params_for(2, 5, 1)
    msg = random_message(p, SplitMix64(103))
    word = encode(p, msg)
    res = decode(p, word)
    assert res.ok and res.message == msg and res.error_rank == 0
    _, err, rec = _noisy(p, 107, 1)
    assert not decode(p, rec).ok


# -- serialization ----------------------------------------------------------


def test_message_and_word_json_roundtrip(params_for):
    p = params_for(2, 5, 3)
    rng = SplitMix64(109)
    msg = random_message(p, rng)
    assert message_from_json_obj(p, message_to_json_obj(p, msg)) == msg
    word = encode(p, msg)
    assert word_from_json_obj(p, word_to_json_obj(p, word)) == word
    with pytest.raises(NotInSubfieldError):
        message_from_json_obj(p, {"f": []})
    with pytest.raises(ValueError):
        word_from_json_obj(p, {"v": [p.ctx.to_coeffs(p.ctx.zero)]})


def test_decode_result_json_shapes(params_for):
    p = params_for(2, 5, 3)
    msg, _, rec = _noisy(p, 113, 1)
    ok_obj = decode_result_to_json_obj(p, decode(p, rec))
    assert ok_obj["status"] == "Success"
    assert ok_obj["t"] == 1
    assert message_from_json_obj(p, ok_obj["message"]) == msg
    ctx = p.ctx
    bad = decode(p, _word_from_poly(p, (ctx.zero, ctx.one) + (ctx.zero,) * 3))
    bad_obj = decode_result_to_json_obj(p, bad)
    assert bad_obj["status"] == "Failure"
    assert bad_obj["reason"] == REASON_INCONSISTENT
    assert "message" not in bad_obj


def test_random_message_is_deterministic_and_valid(params_for):
    p = params_for(3, 5, 3)
    ctx = p.ctx
    m1 = random_message(p, SplitMix64(127))
    m2 = random_message(p, SplitMix64(127))
    assert m1 == m2
    assert len(m1.parts) == p.k
    for part in m1.parts:
        assert ctx.in_subfield(part, ctx.n)


# -- operation counts of the packed engines ---------------------------------


@pytest.mark.parametrize("q,n,d", [(3, 9, 5), (2, 7, 5)])
def test_packed_engine_op_counts(params_for, monkeypatch, q, n, d):
    # machine-independent guard, on each engine: interpolation is one packed
    # combination of the Moore rows, with no mul or dot, and a whole decode,
    # the register's run and its closure included, never calls mul
    p = params_for(q, n, d)
    ctx = p.ctx
    msg, _, received = _noisy(p, 43, 2, MODE_HERMITIAN)
    assert decode(p, received).message == msg  # every table decode reads is built
    cls = type(ctx)
    counts = {"mul": 0, "dot": 0, "combine_rows": 0}
    for name in counts:
        def counting(self, *args, _orig=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counting)
    seen = {"lp_interpolate": []}
    for name in seen:
        def spy(*args, _orig=getattr(codec, name), _name=name):
            before = dict(counts)
            out = _orig(*args)
            seen[_name].append({k: counts[k] - before[k] for k in counts})
            return out

        monkeypatch.setattr(codec, name, spy)
    res = decode(p, received)
    assert res.ok and res.message == msg and res.error_rank == 2  # closure ran
    assert seen["lp_interpolate"] == [{"mul": 0, "dot": 0, "combine_rows": 1}]
    assert counts["mul"] == 0

    counts["mul"] = 0
    for j in range(3 * ctx.deg):
        ctx.frobenius(received[0], j)
    assert counts["mul"] == 0
    # one table per Frobenius power, kept in packed form only: for q = 2,
    # ceil(2n/8) byte tables of 256 array('Q') entries; for odd q, 2n
    # packed ints
    assert set(ctx._frob) <= set(range(ctx.deg))
    for rows in ctx._frob.values():
        if q == 2:
            assert len(rows) == -(-ctx.deg // 8)
            assert all(type(r) is array and r.typecode == "Q" and len(r) == 256 for r in rows)
        else:
            assert len(rows) == ctx.deg and all(type(r) is int for r in rows)


# kernel primitives of one decode at the benchmark's first and third
# points, within the radius: (_lift, _reduce, _apply_linear, _frob_pass).
# Berlekamp-Massey and the register's run take every image from one
# stacked pass per element with no map and no lift of their own (at odd q
# a read is one packed sum and _canon_lifted, not counted), and BM
# reduces to lifted form (_reduce_lifted, not counted) with no re-lift of
# its connection polynomial.  One run serves the window and closure, so
# the candidate's lambda is lifted once (t lifts) and each element passed
# at most once.  Extraction lifts and reduces nothing: each mirrored pair
# is three maps, its symmetry check and the per-code U and V
# (CodeParams._eta_split), with no product
DECODE_PRIMITIVES = {(2, 31, 15, 7, MODE_ARBITRARY): (21, 24, 26, 72), (3, 19, 9, 4, MODE_HERMITIAN): (87, 66, 49, 36)}


@pytest.mark.parametrize("q,n,d,t,mode", sorted(DECODE_PRIMITIVES))
def test_decode_primitive_counts(params_for, monkeypatch, q, n, d, t, mode):
    # machine-independent guard of the register on lifted operands: each
    # register coefficient is lifted once per register, not once per
    # product or update, each element the register reads gets one stacked
    # pass, and q = 2 interpolation and encoding fold all n outputs at
    # once, with no _lift or _reduce.  Extraction splits each pair by two
    # maps, so a decode at the radius, and one beyond it, calls mul not once
    p = params_for(q, n, d)
    ctx = p.ctx
    msg, _, received = _noisy(p, 61, t, mode)
    assert decode(p, received).message == msg  # every table decode reads is built
    counts = dict.fromkeys(("_lift", "_reduce", "_apply_linear", "_frob_pass", "mul"), 0)
    for name in counts:
        def counting(*args, _orig=getattr(ctx, name), _name=name):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setitem(vars(ctx), name, counting)
    res = decode(p, received)
    assert res.ok and res.message == msg and res.error_rank == t
    *primitives, muls = counts.values()
    assert tuple(primitives) == DECODE_PRIMITIVES[q, n, d, t, mode] and muls == 0
    _, _, beyond = _noisy(p, 61, t + 1, mode)
    counts["mul"] = 0
    assert not decode(p, beyond).ok and counts["mul"] == 0
    if q == 2:
        counts.update(dict.fromkeys(counts, 0))
        encode(p, msg)
        assert (counts["_lift"], counts["_reduce"]) == (16, 8)


@pytest.mark.parametrize("q,n,d", ENCODE_POINTS + [(131, 3, 3)])
def test_frob_lifts_match_lifted_frobenius(q, n, d, rand_felt):
    # every image the register reads from a stacked pass (at q = 2 a shift
    # and a mask of one lookup pass, at odd q one packed sum finished by
    # _canon_lifted, at q = 131 on shift-and-mask slots) against
    # _lift(frobenius(x, 2l)) for every l up to the stack's width: d - 1,
    # the width decode asks for (l = 1 alone at d = 1), and at q = 2 also
    # 2n, the widest a direct skew_bm call asks for.  A pass is false
    # exactly for zero.  A fresh context, so the stack is built narrow
    # first and rebuilt wider.
    ctx = make_context(q, n)
    rng = SplitMix64(q + n + d)
    edges = [ctx.zero, ctx.one, ctx.from_coeffs([q - 1] * ctx.deg), ctx.from_coeffs([0] * (ctx.deg - 1) + [1])]
    xs = edges + [rand_felt(ctx, rng) for _ in range(4)]
    for width in [max(d - 1, 1)] + [ctx.deg] * (q == 2):
        stack = ctx._frob_stack(width)
        assert ctx._stack_top == width
        for x in xs:
            v = ctx._frob_pass(stack, x)
            assert bool(v) == (x != ctx.zero)
            if v:
                want = [ctx._lift(ctx.frobenius(x, 2 * l)) for l in range(1, width + 1)]
                assert [ctx._frob_read(stack, v, l) for l in range(1, width + 1)] == want, (x, width)


def test_gf2_row_tables_are_built_once_per_code(monkeypatch):
    # machine-independent guard: at q = 2 each packed row is its shift
    # table, built once per code by pack_rows.  build_params(2,31,15) builds
    # n + k = 48, the Moore rows whose interpolation certifies alpha and
    # then the encoder rows; an encode, and a decode at the radius and one
    # beyond it, build none; a reload from JSON builds the 48 again
    built = []

    def counting(row, _orig=field._shift_table):
        built.append(row)
        return _orig(row)

    monkeypatch.setattr(field, "_shift_table", counting)
    p = build_params(2, 31, 15)
    rows = p.moore_packed + p.encoder_rows
    assert len(built) == p.n + p.k == 48
    assert built == [t[1] for t in rows]
    built.clear()
    word = encode(p, random_message(p, SplitMix64(41)))
    for t in (p.radius, p.radius + 1):
        err = random_rank_error(p, ChannelSpec(t=t, mode=MODE_ARBITRARY, seed=t))
        assert decode(p, corrupt(p.ctx, word, err)).ok == (t <= p.radius)
    assert built == []
    again = params_from_json_obj(params_to_json_obj(p))
    assert len(built) == 48
    assert again.moore_packed + again.encoder_rows == rows


# exact products and Frobenius powers of one encode: all of them are
# expand_message's (kappa products by eta; k subfield checks, the center's
# twist and two per mirrored pair)
ENCODE_WORK = {(3, 9, 5): (2, 10), (2, 31, 15): (8, 34), (5, 13, 7): (3, 14)}


@pytest.mark.parametrize("q,n,d", sorted(ENCODE_WORK))
def test_encode_is_one_packed_combination(params_for, monkeypatch, q, n, d):
    # machine-independent guard: one encode is one combine_rows of the k
    # window coefficients with the params' k encoder rows, cut into n
    # outputs, with no dot, at most kappa products and at most 3k Frobenius
    # powers: no conjugation in or out, and no per-point work
    p = params_for(q, n, d)
    msg = random_message(p, SplitMix64(59))
    cls = type(p.ctx)
    counts = {"dot": 0, "mul": 0, "frobenius": 0, "combine_rows": 0}
    calls = []
    for name in counts:
        def counting(self, *args, _orig=getattr(cls, name), _name=name):
            counts[_name] += 1
            if _name == "combine_rows":
                calls.append(args)
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counting)
    word = encode(p, msg)
    assert len(word) == p.n
    assert counts["dot"] == 0 and counts["combine_rows"] == 1
    ((values, rows),) = calls
    assert rows is p.encoder_rows and len(rows) == len(values) == p.k
    assert counts["mul"] <= p.kappa and counts["frobenius"] <= 3 * p.k
    assert (counts["mul"], counts["frobenius"]) == ENCODE_WORK[q, n, d]
