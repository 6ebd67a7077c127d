"""Code parameters, the unitary pairing, basis search, matrix conversions."""

import dataclasses
import time

import pytest

from hermrank import (
    MODE_ARBITRARY,
    MODE_HERMITIAN,
    ChannelSpec,
    Message,
    SplitMix64,
    build_params,
    codeword_to_matrix,
    corrupt,
    decode,
    encode,
    is_hermitian,
    make_context,
    matrix_to_vector,
    params_from_json_obj,
    params_to_json_obj,
    random_message,
    random_rank_error,
    rank_distance,
)
from hermrank import code as code_mod
from hermrank.code import CodeParams, find_selfdual_basis, unitary_pairing
from hermrank.exceptions import (
    BadParamsError,
    BadShapeError,
    BasisSearchFailedError,
    EvenExtensionError,
    HermrankError,
    NotInSubfieldError,
    TooLargeError,
)
from hermrank.linpoly import lp_interpolate
from reference_decode import decompose_eta
from reference_field import from_base
from reference_moore import check_gram, mat_mul, moore_rows, moore_tinv, selfdual_basis_one_at_a_time, transpose
from reference_rank import map_rank, matrix_rank


# -- parameter assembly -----------------------------------------------------


@pytest.mark.parametrize(
    "q,n,d,m,kappa,k,radius",
    [
        (2, 3, 3, 2, 0, 1, 1),
        (2, 5, 3, 3, 1, 3, 1),
        (2, 7, 5, 4, 1, 3, 2),
        (2, 7, 7, 4, 0, 1, 3),
        (3, 3, 3, 2, 0, 1, 1),
        (2, 5, 1, 3, 2, 5, 0),
    ],
)
def test_build_params_layout(params_for, q, n, d, m, kappa, k, radius):
    p = params_for(q, n, d)
    assert (p.m, p.kappa, p.k, p.radius) == (m, kappa, k, radius)
    assert p.n == n and p.d == d
    assert len(p.alpha) == n


def test_build_params_rejects_bad_triples():
    with pytest.raises(BadParamsError, match="prime"):
        build_params(6, 3, 3)
    with pytest.raises(BadParamsError, match="odd"):
        build_params(2, 4, 3)
    with pytest.raises(BadParamsError, match="odd"):
        build_params(2, 5, 2)
    with pytest.raises(BadParamsError):
        build_params(2, 3, 5)  # d > n
    with pytest.raises(BadParamsError):
        build_params(2, 3, -1)
    with pytest.raises(TooLargeError):
        build_params(2, 33, 3)


def test_build_params_rejects_bool_n_and_d():
    # bool is an int subclass, but params_from_json_obj refuses "n": true and
    # "d": true, so params built from them could not be read back
    with pytest.raises(EvenExtensionError):
        build_params(2, True, 1)
    with pytest.raises(BadParamsError, match="odd") as exc:
        build_params(2, 3, True)
    assert type(exc.value) is BadParamsError
    with pytest.raises((EvenExtensionError, BadParamsError)):
        build_params(3, True, True)


@pytest.mark.parametrize("q,n", [(1000000000000000003, 1), (3, 10**7 + 1)])
def test_oversized_params_fail_at_once(q, n, params_for):
    # checked by plain comparisons before the prime test and before q^(2n)
    doc = dict(params_to_json_obj(params_for(3, 3, 3)), q=q, n=n, d=1)
    for call in (lambda: build_params(q, n, 1), lambda: params_from_json_obj(doc)):
        start = time.perf_counter()
        with pytest.raises(HermrankError):
            call()
        assert time.perf_counter() - start < 2.0


# -- unitary pairing --------------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5)])
def test_pairing_is_conjugate_symmetric_sesquilinear(q, n, rand_felt):
    ctx = make_context(q, n)
    rng = SplitMix64(11)
    for _ in range(25):
        x, y = rand_felt(ctx, rng), rand_felt(ctx, rng)
        p = unitary_pairing(ctx, x, y)
        assert ctx.in_subfield(p, 2)
        # swapping arguments conjugates the value
        assert unitary_pairing(ctx, y, x) == ctx.frobenius(p, 1)
        # self-pairings are fixed by conjugation, hence lie in F_q
        assert ctx.in_subfield(unitary_pairing(ctx, x, x), 1)
    for lam in ctx.subfield_elements(2):
        x, y = rand_felt(ctx, rng), rand_felt(ctx, rng)
        lx = unitary_pairing(ctx, ctx.mul(lam, x), y)
        assert lx == ctx.mul(ctx.frobenius(lam, 1), unitary_pairing(ctx, x, y))
        ly = unitary_pairing(ctx, x, ctx.mul(lam, y))
        assert ly == ctx.mul(lam, unitary_pairing(ctx, x, y))


def test_q_power_twist_is_not_conjugate_symmetric(rand_felt):
    # the same trace form built on x -> x^q instead of x -> x^(q^n) stops
    # being conjugate-symmetric as soon as n > 1, so it admits no orthonormal
    # basis; this pins down why the conjugation exponent must be q^n
    ctx = make_context(2, 3)
    rng = SplitMix64(13)

    def naive(x, y):
        return ctx.rel_trace(ctx.mul(ctx.frobenius(x, 1), y))

    violations = 0
    for _ in range(50):
        x, y = rand_felt(ctx, rng), rand_felt(ctx, rng)
        if naive(y, x) != ctx.frobenius(naive(x, y), 1):
            violations += 1
    assert violations > 0


# -- orthonormal basis ------------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5), (3, 5), (5, 1), (2, 7)])
def test_selfdual_basis_gram_identity(q, n):
    ctx = make_context(q, n)
    basis = find_selfdual_basis(ctx)
    assert len(basis) == n
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = ctx.one if i == j else ctx.zero
            assert unitary_pairing(ctx, a, b) == want


def test_selfdual_basis_is_deterministic():
    ctx = make_context(2, 5)
    assert find_selfdual_basis(ctx) == find_selfdual_basis(ctx)
    ctx2 = make_context(2, 5)
    assert find_selfdual_basis(ctx2) == find_selfdual_basis(ctx)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 3), (7, 11), (131, 3), (2, 31), (3, 19), (5, 13)])
def test_selfdual_basis_matches_one_at_a_time_gram_schmidt(q, n):
    # one dot against the cached conjugates reaches the vector that
    # projecting against each a_j in turn reaches, so the bases agree
    assert find_selfdual_basis(make_context(q, n)) == selfdual_basis_one_at_a_time(make_context(q, n))


#: Frobenius tables and linear maps of one build_params at the benchmark's
#: points: fewer than 2n tables, each one composition of two.
SETUP_WORK = {
    (2, 31, 15): ({1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 30, 31}, 3766),
    (3, 19, 9): ({1, 2, 3, 4, 8, 9, 16, 18, 19}, 1590),
    (5, 13, 7): ({1, 2, 3, 4, 5, 6, 8, 12, 13}, 872),
}


@pytest.mark.parametrize("q,n,d", sorted(SETUP_WORK))
def test_setup_work(spy, q, n, d):
    # machine-independent guard on set-up: tables only for the powers
    # applied (the trace's doubling, the Moore table from T_n and T_2,
    # the inversions' chains and what their compositions need) and the
    # _apply_linear calls of the whole build
    calls = spy(type(make_context(q, n)), "_apply_linear")["_apply_linear"]
    p = build_params(q, n, d)
    tables, applications = SETUP_WORK[q, n, d]
    assert set(p.ctx._frob) == tables and len(tables) < p.ctx.deg
    assert len(calls) == applications


def test_basis_expansion_identities_exhaustive():
    # for every z in K: z = sum_i <alpha_i, z> alpha_i^(q^(n+1)), and the
    # untwisted sum returns z^(q^(n-1)) rather than z itself
    ctx = make_context(2, 3)
    basis = find_selfdual_basis(ctx)
    dual = [ctx.frobenius(a, ctx.n + 1) for a in basis]
    aq = [ctx.frobenius(a, 1) for a in basis]
    for i in range(3):
        for j in range(3):
            want = ctx.one if i == j else ctx.zero
            assert ctx.rel_trace(ctx.mul(aq[i], dual[j])) == want
    for z in ctx.subfield_elements(ctx.deg):
        coords = [ctx.rel_trace(ctx.mul(a, z)) for a in aq]
        rebuilt = ctx.zero
        untwisted = ctx.zero
        for c, dv, bv in zip(coords, dual, basis):
            rebuilt = ctx.add(rebuilt, ctx.mul(c, dv))
            untwisted = ctx.add(untwisted, ctx.mul(c, bv))
        assert rebuilt == z
        assert untwisted == ctx.frobenius(z, ctx.n - 1)


# -- eta splitting ----------------------------------------------------------


def test_choose_eta_outside_middle_subfield():
    # eta = X is derived from the context, so no stored, loadable eta can differ
    names = [f.name for f in dataclasses.fields(CodeParams)]
    assert names == ["ctx", "d", "alpha", "moore_packed", "encoder_rows"]
    for q, n in [(2, 3), (3, 3), (2, 5)]:
        p = build_params(q, n, 1)
        assert p.eta == p.ctx.gen
        assert not p.ctx.in_subfield(p.eta, n)
        assert "eta=" not in repr(p)


def test_decompose_eta_roundtrip(params_for, rand_felt):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    rng = SplitMix64(17)
    for _ in range(40):
        b = rand_felt(ctx, rng)
        u, v = decompose_eta(p, b)
        assert ctx.in_subfield(u, ctx.n)
        assert ctx.in_subfield(v, ctx.n)
        assert ctx.add(u, ctx.mul(p.eta, v)) == b
    assert decompose_eta(p, ctx.zero) == (ctx.zero, ctx.zero)
    assert decompose_eta(p, p.eta) == (ctx.zero, ctx.one)
    inside = ctx.subfield_elements(ctx.n)[3]
    assert decompose_eta(p, inside) == (inside, ctx.zero)


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (2, 31, 15), (2, 31, 1), (3, 9, 5), (3, 19, 9), (5, 13, 7), (131, 3, 1)])
def test_eta_split_maps_match_oracle(params_for, rand_felt, q, n, d):
    # the maps U and V extraction applies to a pair's lo give decompose_eta
    # of b = lo^(q^(2n-1)): on every monomial, on the all-(q-1) element and
    # on seeded elements; at (2,31,1) kappa = 15, the most pairs, and at
    # (131,3,1) on shift-and-mask slots ((131,3,3) has no pair)
    p = params_for(q, n, d)
    ctx = p.ctx
    us, vs = p._eta_split
    rng = SplitMix64(q * 1000 + n)
    los = list(ctx._monomials()) + [ctx.from_coeffs([q - 1] * ctx.deg)] + [rand_felt(ctx, rng) for _ in range(20)]
    for lo in los:
        b = ctx.frobenius(lo, 2 * n - 1)
        u, v = ctx._apply_linear(us, lo), ctx._apply_linear(vs, lo)
        assert (u, v) == decompose_eta(p, b)
        assert ctx.in_subfield(u, n) and ctx.in_subfield(v, n)
        assert ctx.add(u, ctx.mul(p.eta, v)) == b


def _split_words(p, seed):
    """A message, and a word at the radius and one beyond it: the
    codeword plus a rank-radius and a rank-(radius+1) error."""
    rng = SplitMix64(seed)
    msg = random_message(p, rng)
    c = encode(p, msg)
    spec = [ChannelSpec(t=t, mode=MODE_ARBITRARY, seed=rng.next_u64()) for t in (p.radius, p.radius + 1)]
    return msg, c, [corrupt(p.ctx, c, random_rank_error(p, s)) for s in spec]


def test_eta_split_built_once_per_code():
    # a load, an encode and a corrupt build no memo; the first extraction
    # does, and every later decode, at the radius or beyond it, reads that
    # same object; a params_from_json_obj reload builds its own
    p = build_params(2, 7, 3)
    msg, _, (near, far) = _split_words(p, 3)
    assert "_eta_split" not in vars(p)
    res = decode(p, near)
    assert res.ok and res.message == msg
    memo = vars(p)["_eta_split"]
    assert not decode(p, far).ok
    assert decode(p, near).ok
    assert p._eta_split is memo
    again = params_from_json_obj(params_to_json_obj(p))
    assert "_eta_split" not in vars(again)
    assert decode(again, near).message == msg
    assert again._eta_split is not memo and again._eta_split == memo


@pytest.mark.parametrize("q,n,d", [(2, 5, 5), (131, 1, 1)])
def test_eta_split_never_built_without_a_pair(q, n, d):
    # kappa = 0: extraction reads only the center, so neither an encode nor
    # a decode that succeeds or fails builds the split
    p = build_params(q, n, d)
    assert p.kappa == 0
    msg, _, (near, far) = _split_words(p, 5)
    res = decode(p, near)
    assert res.ok and res.message == msg
    assert not decode(p, far).ok
    assert "_eta_split" not in vars(p)


def test_eta_split_unseen_by_eq_repr_and_json():
    # a cached_property, not a field: ==, repr and the params JSON of a
    # code with its memo built are those of one without
    p = build_params(3, 5, 3)
    fresh = dataclasses.replace(p)
    before = (repr(p), params_to_json_obj(p))
    p._eta_split
    assert "_eta_split" in vars(p) and "_eta_split" not in vars(fresh)
    assert p == fresh
    assert (repr(p), params_to_json_obj(p)) == before == (repr(fresh), params_to_json_obj(fresh))


# -- matrix conversions -----------------------------------------------------


def test_codeword_matrix_zero(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    mat = codeword_to_matrix(p, (ctx.zero,) * p.n)
    assert all(v == ctx.zero for row in mat for v in row)
    assert is_hermitian(ctx, mat)


@pytest.mark.parametrize(
    "q,n,d", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 5, 3), (2, 7, 5), (3, 3, 3), (3, 5, 3)]
)
def test_codewords_give_hermitian_matrices(params_for, q, n, d):
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(19)
    sub = ctx.subfield_elements(ctx.n) if n <= 5 else None
    basis = ctx.subfield_basis(ctx.n)
    for _ in range(30):
        if sub is not None:
            parts = tuple(sub[rng.below(len(sub))] for _ in range(p.k))
        else:
            parts = tuple(
                _combine(ctx, basis, [rng.below(q) for _ in basis]) for _ in range(p.k)
            )
        word = encode(p, Message(parts))
        mat = codeword_to_matrix(p, word)
        assert is_hermitian(ctx, mat)
        entries_ok = all(ctx.in_subfield(v, 2) for row in mat for v in row)
        assert entries_ok


def _combine(ctx, basis, digits):
    acc = ctx.zero
    for b, c in zip(basis, digits):
        acc = ctx.add(acc, ctx.mul(from_base(ctx, c), b))
    return acc


def test_random_vectors_are_usually_not_hermitian(params_for, rand_word):
    # non-vacuity: the Hermitian check must reject generic vectors
    p = params_for(2, 5, 3)
    rng = SplitMix64(23)
    rejected = 0
    for _ in range(20):
        word = rand_word(p, rng)
        if not is_hermitian(p.ctx, codeword_to_matrix(p, word)):
            rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("q,n,d", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 5, 3), (3, 3, 3), (2, 7, 5)])
def test_matrix_vector_roundtrip(params_for, rand_word, q, n, d):
    # conversion is a bijection on all of K^n, not only on codewords
    p = params_for(q, n, d)
    rng = SplitMix64(29)
    for _ in range(25):
        word = rand_word(p, rng)
        assert matrix_to_vector(p, codeword_to_matrix(p, word)) == word


def test_matrix_conversions_reject_wrong_shapes(params_for, rand_word):
    # matrix_to_vector once read 4 entries from a 5 x 4 matrix and 2 from a
    # ragged one, is_hermitian raised a bare IndexError on 5 x 4 and said
    # True on 5 x 6, and codeword_to_matrix made a 5 x 3 matrix of 3 entries
    p = params_for(3, 5, 3)
    ctx = p.ctx
    word = rand_word(p, SplitMix64(41))
    rows = codeword_to_matrix(p, word)
    narrow = tuple(row[:-1] for row in rows)
    wide = tuple(row + (ctx.zero,) for row in rows)
    ragged = rows[:2] + narrow[2:]
    for bad in (narrow, wide, ragged, rows[:-1], rows + rows[:1]):
        with pytest.raises(BadShapeError):
            matrix_to_vector(p, bad)
    for bad in (narrow, wide, ragged):
        with pytest.raises(BadShapeError):
            is_hermitian(ctx, bad)
    for bad in ((), word[:3], word + word[:1]):
        with pytest.raises(BadShapeError):
            codeword_to_matrix(p, bad)
    assert matrix_to_vector(p, rows) == word
    assert is_hermitian(ctx, ()) and is_hermitian(ctx, ((ctx.one,),))


def test_matrix_to_vector_rejects_entries_outside_fq2(params_for):
    # X lies outside F_{q^2}; matrix_to_vector once converted this matrix
    # to a word whose codeword_to_matrix was another matrix
    p = params_for(3, 5, 3)
    ctx = p.ctx
    rows = [[ctx.zero] * 5 for _ in range(5)]
    rows[0][0] = ctx.gen
    with pytest.raises(NotInSubfieldError):
        matrix_to_vector(p, rows)
    rows[0][0] = ctx.fq2_w()
    assert codeword_to_matrix(p, matrix_to_vector(p, rows)) == tuple(map(tuple, rows))


# -- rank distance ----------------------------------------------------------


def test_rank_distance_metric_basics(params_for, rand_word):
    p = params_for(2, 5, 3)
    ctx = p.ctx
    rng = SplitMix64(31)
    zero = (ctx.zero,) * p.n
    assert rank_distance(p, zero, zero) == 0
    for _ in range(15):
        a, b = rand_word(p, rng), rand_word(p, rng)
        assert rank_distance(p, a, a) == 0
        assert rank_distance(p, a, b) == rank_distance(p, b, a)
        assert 0 <= rank_distance(p, a, b) <= p.n


def test_rank_distance_rejects_wrong_lengths(params_for, rand_word):
    # pairing the entries would silently drop the longer word's extras
    p = params_for(2, 5, 3)
    zero = (p.ctx.zero,) * p.n
    word = rand_word(p, SplitMix64(37))
    for bad in ((), word[:-1], word + (p.ctx.one,)):
        for a, b in ((bad, zero), (zero, bad), (bad, bad)):
            with pytest.raises(BadShapeError):
                rank_distance(p, a, b)


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (3, 3, 3), (2, 7, 5), (2, 9, 5), (3, 5, 3), (5, 5, 3)])
def test_rank_distance_three_way_agreement(params_for, rand_word, q, n, d):
    # same number three ways: the span rank of the entries, generic
    # elimination of the matrix over K, and the rank of the interpolated
    # difference map; on uniform random words, differences of them, and
    # channel draws in both modes at t = 1, the radius, one past it and n
    p = params_for(q, n, d)
    ctx = p.ctx
    rng = SplitMix64(37)
    zero = (ctx.zero,) * p.n
    for _ in range(20):
        a = rand_word(p, rng)
        dist = rank_distance(p, a, zero)
        mat = codeword_to_matrix(p, a)
        assert matrix_rank(ctx, mat) == dist
        assert map_rank(ctx, lp_interpolate(ctx, p.moore_packed, a)) == dist
        b = rand_word(p, rng)
        diff = tuple(ctx.sub(x, y) for x, y in zip(a, b))
        assert rank_distance(p, a, b) == matrix_rank(ctx, codeword_to_matrix(p, diff))
    for mode in (MODE_ARBITRARY, MODE_HERMITIAN):
        for t in sorted({1, p.radius, p.radius + 1, n} & set(range(1, n + 1))):
            for seed in range(3):
                e = random_rank_error(p, ChannelSpec(t=t, mode=mode, seed=60 * t + seed))
                assert rank_distance(p, e, zero) == t
                assert matrix_rank(ctx, codeword_to_matrix(p, e)) == t


# -- serialization ----------------------------------------------------------


def test_params_json_roundtrip(params_for):
    p = params_for(2, 5, 3)
    obj = params_to_json_obj(p)
    assert sorted(obj) == ["alpha", "d", "eta", "modulus", "n", "q"]
    again = params_from_json_obj(obj)
    assert again.alpha == p.alpha
    assert again.eta == p.eta
    assert (again.d, again.m, again.kappa, again.k) == (p.d, p.m, p.kappa, p.k)
    assert again.moore_packed == p.moore_packed == p.ctx.pack_rows(moore_tinv(p.ctx, p.alpha))
    assert again.encoder_rows == p.encoder_rows


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("d", 3.9, "'d' must be an integer, got a number"),
        ("q", True, "'q' must be an integer, got a boolean"),
        ("n", "3", "'n' must be an integer, got a string"),
        ("alpha", None, "no 'alpha' field"),
        ("modulus", 5, "'modulus' must be a list, got an integer"),
        (None, [], "params must be a JSON object, got a list"),
    ],
)
def test_params_json_rejects_bad_shapes(params_for, key, value, named):
    obj = params_to_json_obj(params_for(3, 3, 3))
    if key is None:
        obj = value
    elif value is None:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(BadParamsError, match=named):
        params_from_json_obj(obj)


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (3, 5, 3)])
def test_params_json_refuses_eta_other_than_x(params_for, q, n, d):
    # X + 1 lies outside F_{q^n} as well, but with it the same message
    # would encode to another word; the code's eta is X alone
    p = params_for(q, n, d)
    ctx = p.ctx
    other = ctx.add(ctx.gen, ctx.one)
    assert not ctx.in_subfield(other, n)
    obj = params_to_json_obj(p)
    obj["eta"] = ctx.to_coeffs(other)
    with pytest.raises(BadParamsError, match="eta"):
        params_from_json_obj(obj)


def test_params_json_tamper_detection(params_for):
    p = params_for(2, 5, 3)
    ctx = p.ctx

    obj = params_to_json_obj(p)
    obj["alpha"][0] = ctx.to_coeffs(ctx.zero)
    with pytest.raises(BadParamsError, match="orthonormal"):
        params_from_json_obj(obj)

    obj = params_to_json_obj(p)
    obj["alpha"] = obj["alpha"][:-1]
    with pytest.raises(BadParamsError):
        params_from_json_obj(obj)

    obj = params_to_json_obj(p)
    obj["modulus"][0] ^= 1
    with pytest.raises(ValueError):
        params_from_json_obj(obj)

    obj = params_to_json_obj(p)
    obj["eta"] = ctx.to_coeffs(ctx.one)  # lies inside F_{q^n}
    with pytest.raises(BadParamsError, match="eta"):
        params_from_json_obj(obj)

    obj = params_to_json_obj(p)
    obj["d"] = 4
    with pytest.raises(BadParamsError):
        params_from_json_obj(obj)


# -- Moore inverse ----------------------------------------------------------


@pytest.mark.parametrize(
    "q,n,d", [(2, 3, 3), (2, 5, 3), (3, 3, 3), (3, 5, 3), (5, 3, 3), (7, 5, 3), (2, 31, 15)]
)
def test_moore_inv_closed_form_matches_elimination(params_for, q, n, d):
    p = params_for(q, n, d)
    ctx = p.ctx
    tinv = moore_tinv(ctx, p.alpha)
    assert p.moore_packed == ctx.pack_rows(tinv)
    ident = tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n))
    moore = moore_rows(ctx, p.alpha)
    assert mat_mul(ctx, transpose(moore), tinv) == ident
    # the encoder rows are the window columns of the Moore matrix itself
    window = [i % n for i in range(p.m - p.kappa, p.m + p.kappa + 1)]
    assert p.encoder_rows == ctx.pack_rows([[row[i] for row in moore] for i in window])


def test_params_load_makes_no_inversion(params_for, spy):
    # the Moore table is certified, not inverted (elimination took n
    # inversions), and the {1, eta} split's one inversion waits for the
    # first extraction (CodeParams._eta_split)
    p = params_for(3, 9, 5)
    want = p._eta_split
    obj = params_to_json_obj(p)
    calls = spy(type(p.ctx), "inv")["inv"]
    again = params_from_json_obj(obj)
    assert len(calls) == 0
    assert again._eta_split == want
    assert len(calls) == 1


# -- basis certificate ------------------------------------------------------


def _gram_ok(ctx, basis):
    try:
        check_gram(ctx, basis)
    except BasisSearchFailedError:
        return False
    return True


def _tampered_bases(ctx, alpha):
    """Variants of an orthonormal basis, some still orthonormal, some not."""
    n, q = ctx.n, ctx.q
    units = [u for u in ctx.subfield_elements(2) if u != ctx.zero]
    # u^(q-1) has norm u^(q^2-1) = 1, so scaling by it keeps alpha orthonormal
    u = next(u for u in units if u != ctx.frobenius(u, 1))
    unit = ctx.mul(ctx.frobenius(u, 1), ctx.inv(u))
    coeffs = ctx.to_coeffs(alpha[0])
    coeffs[0] = (coeffs[0] + 1) % q
    out = {
        "original": alpha,
        "reversed": alpha[::-1],
        "rotated": alpha[1:] + alpha[:1],
        "norm-1 scaled": (ctx.mul(unit, alpha[0]),) + alpha[1:],
        "changed coefficient": (ctx.from_coeffs(coeffs),) + alpha[1:],
        "zero element": alpha[:-1] + (ctx.zero,),
    }
    if n > 1:
        out["duplicated element"] = (alpha[0],) + alpha[:-1]
    bad = next((u for u in units if ctx.mul(ctx.frobenius(u, 1), u) != ctx.one), None)
    assert (bad is None) == (q == 2)  # every unit of F_4 has norm 1
    if bad is not None:
        out["scaled by norm != 1"] = alpha[:-1] + (ctx.mul(bad, alpha[-1]),)
    return out


@pytest.mark.parametrize("q,n,d", [(2, 1, 1), (3, 1, 1), (2, 5, 3), (3, 5, 3), (5, 3, 3), (2, 7, 5)])
def test_basis_certificate_matches_gram_oracle(params_for, q, n, d):
    # a stored basis loads exactly when its n^2 unitary pairings form the
    # identity, and the table it loads with is the inverse of the
    # transposed Moore matrix, computed by elimination
    p = params_for(q, n, d)
    ctx = p.ctx
    verdicts = {}
    for name, basis in _tampered_bases(ctx, p.alpha).items():
        obj = params_to_json_obj(p)
        obj["alpha"] = [ctx.to_coeffs(a) for a in basis]
        verdicts[name] = _gram_ok(ctx, basis)
        if verdicts[name]:
            again = params_from_json_obj(obj)
            assert again.alpha == basis
            assert again.moore_packed == ctx.pack_rows(moore_tinv(ctx, basis))
        else:
            with pytest.raises(BadParamsError, match="orthonormal"):
                params_from_json_obj(obj)
    for name in ("original", "reversed", "rotated", "norm-1 scaled"):
        assert verdicts[name], name
    for name in ("zero element", "duplicated element", "scaled by norm != 1"):
        assert not verdicts.get(name, False), name


def test_params_load_makes_no_pairing(params_for, spy):
    # the certificate is one interpolation through the Moore table the
    # params keep; the n^2 Gram pairings took n^2 relative traces
    p = params_for(3, 9, 5)
    obj = params_to_json_obj(p)
    traces = spy(type(p.ctx), "rel_trace")["rel_trace"]
    again = params_from_json_obj(obj)
    assert traces == []
    assert again.moore_packed == p.ctx.pack_rows(moore_tinv(p.ctx, p.alpha))
    check_gram(p.ctx, p.alpha)
    assert len(traces) == p.n ** 2


def test_rank_parity_check_raises(params_for, monkeypatch):
    # rank_distance's parity check and the map_rank oracle's raise, not
    # assert, so python -O keeps them; an odd F_q-rank is forced here
    p = params_for(3, 5, 3)
    word = encode(p, Message((p.ctx.one,) * p.k))
    zeros = (p.ctx.zero,) * p.n
    monkeypatch.setattr(p.ctx, "fq_rank", lambda elems: 3)
    with pytest.raises(RuntimeError, match="odd"):
        rank_distance(p, word, zeros)
    with pytest.raises(RuntimeError, match="odd"):
        map_rank(p.ctx, lp_interpolate(p.ctx, p.moore_packed, word))


def test_each_params_certified_once(spy):
    # build_params and a load each run the Moore-table certificate once,
    # and find_selfdual_basis does not recheck on its own
    calls = spy(code_mod, "lp_interpolate")["lp_interpolate"]
    p = build_params(3, 5, 3)
    assert [values for _, _, values in calls] == [p.alpha]
    params_from_json_obj(params_to_json_obj(p))
    assert [values for _, _, values in calls] == [p.alpha, p.alpha]
