"""Linearized polynomials: evaluation, interpolation, map rank (against the
matrix-form oracles in reference_rank)."""

import pytest

from hermrank import SplitMix64, make_context
from hermrank.linpoly import lp_interpolate
from reference_moore import lp_eval, lp_interpolate_dots, moore_rows, moore_tinv
from reference_rank import dickson, map_rank, matrix_rank


def _gen_points(ctx):
    # powers of the field generator; independent over F_{q^2} for every
    # parameter set used in this suite (moore_tinv would return None if not)
    return [ctx.pow_elem(ctx.gen, i) for i in range(ctx.n)]


def _rand_poly(ctx, rng):
    return tuple(ctx.from_coeffs([rng.below(ctx.q) for _ in range(ctx.deg)]) for _ in range(ctx.n))


# -- evaluation -------------------------------------------------------------


def test_lp_eval_zero_and_identity(rand_felt):
    ctx = make_context(2, 3)
    rng = SplitMix64(1)
    ident = (ctx.one, ctx.zero, ctx.zero)
    for _ in range(20):
        x = rand_felt(ctx, rng)
        assert lp_eval(ctx, (ctx.zero,) * 3, x) == ctx.zero
        assert lp_eval(ctx, ident, x) == x


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5)])
def test_lp_eval_matches_naive_powers(q, n, rand_felt):
    # oracle: raw power sums via pow_elem, no Frobenius tables
    ctx = make_context(q, n)
    rng = SplitMix64(2)
    for _ in range(20):
        poly = _rand_poly(ctx, rng)
        x = rand_felt(ctx, rng)
        acc = ctx.zero
        for i, c in enumerate(poly):
            acc = ctx.add(acc, ctx.mul(c, ctx.pow_elem(x, q ** (2 * i))))
        assert lp_eval(ctx, poly, x) == acc


def test_lp_eval_is_fq2_linear(rand_felt):
    ctx = make_context(3, 3)
    rng = SplitMix64(3)
    for lam in ctx.subfield_elements(2):
        poly = _rand_poly(ctx, rng)
        a, b = rand_felt(ctx, rng), rand_felt(ctx, rng)
        lhs = lp_eval(ctx, poly, ctx.add(ctx.mul(lam, a), b))
        rhs = ctx.add(ctx.mul(lam, lp_eval(ctx, poly, a)), lp_eval(ctx, poly, b))
        assert lhs == rhs


# -- Moore matrix and interpolation ----------------------------------------


def test_moore_rows_formula():
    ctx = make_context(2, 3)
    pts = _gen_points(ctx)
    rows = moore_rows(ctx, pts)
    for r in range(3):
        for j in range(3):
            assert rows[r][j] == ctx.pow_elem(pts[r], 4**j)


def test_moore_single_point():
    ctx = make_context(5, 1)
    assert moore_rows(ctx, [ctx.gen]) == ((ctx.gen,),)
    tinv = moore_tinv(ctx, [ctx.gen])
    assert ctx.mul(tinv[0][0], ctx.gen) == ctx.one


def test_moore_rejects_dependent_points():
    ctx = make_context(2, 3)
    assert moore_tinv(ctx, [ctx.one, ctx.gen, ctx.gen]) is None
    # second point a scalar multiple of the first over F_{q^2}
    lam = next(a for a in ctx.subfield_elements(2) if a not in (ctx.zero, ctx.one))
    assert moore_tinv(ctx, [ctx.one, lam, ctx.gen]) is None


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5)])
def test_interpolation_roundtrip(q, n):
    ctx = make_context(q, n)
    pts = _gen_points(ctx)
    packed = ctx.pack_rows(moore_tinv(ctx, pts))
    rng = SplitMix64(4)
    for _ in range(25):
        poly = _rand_poly(ctx, rng)
        values = [lp_eval(ctx, poly, p) for p in pts]
        assert lp_interpolate(ctx, packed, values) == poly


def test_interpolation_special_values():
    ctx = make_context(2, 3)
    pts = _gen_points(ctx)
    packed = ctx.pack_rows(moore_tinv(ctx, pts))
    assert lp_interpolate(ctx, packed, [ctx.zero] * 3) == (ctx.zero,) * 3
    # values equal to the points themselves come from the identity map
    ident = lp_interpolate(ctx, packed, pts)
    assert ident == (ctx.one, ctx.zero, ctx.zero)


# every (q, n) the suite or the benchmark builds a code at, with one d
# used there (the basis, and so the Moore table, depends on (q, n) alone);
# (2, 31) has the widest q = 2 stride, and q = 4294967291 the 9-byte slots
# that the odd-q engine cuts from the byte string one by one
PACKED_POINTS = [
    (2, 1, 1), (2, 3, 3), (2, 5, 3), (2, 7, 5), (2, 9, 5), (2, 31, 15),
    (3, 1, 1), (3, 3, 3), (3, 5, 3), (3, 7, 5), (3, 9, 5), (3, 19, 9),
    (5, 1, 1), (5, 3, 3), (5, 5, 3), (5, 7, 5), (5, 13, 7),
    (65521, 1, 1), (1000003, 1, 1), (4294967291, 1, 1),
]


@pytest.mark.parametrize("q,n,d", PACKED_POINTS)
def test_packed_interpolation_matches_dot_oracle(params_for, rand_felt, q, n, d):
    p = params_for(q, n, d)
    ctx = p.ctx
    if q == 4294967291:
        assert ctx._split == 8 * 9 * ctx.deg  # 9-byte slots
    tinv = moore_tinv(ctx, p.alpha)
    assert p.moore_packed == ctx.pack_rows(tinv)
    rng = SplitMix64(q + 7 * n)
    top = ctx.from_coeffs([q - 1] * ctx.deg)  # every coefficient q - 1
    vectors = [[rand_felt(ctx, rng) for _ in range(n)] for _ in range(6)]
    vectors += [[top] * n, [ctx.zero] * n, list(p.alpha)]
    for values in vectors:
        assert lp_interpolate(ctx, p.moore_packed, values) == lp_interpolate_dots(ctx, tinv, values)
    # all-(q-1) values against an all-(q-1) table fill every slot to the bound
    full = ((top,) * n,) * n
    assert lp_interpolate(ctx, ctx.pack_rows(full), [top] * n) == lp_interpolate_dots(ctx, full, [top] * n)


# -- Dickson matrix ---------------------------------------------------------


def test_dickson_formula():
    ctx = make_context(3, 3)
    rng = SplitMix64(5)
    poly = _rand_poly(ctx, rng)
    d = dickson(ctx, poly)
    n = 3
    for i in range(n):
        for j in range(n):
            assert d.rows[i][j] == ctx.frobenius(poly[(i - j) % n], 2 * j)
    # column 0 is the raw coefficient vector
    assert tuple(d.rows[i][0] for i in range(n)) == poly


# -- ranks ------------------------------------------------------------------


def test_map_rank_extremes():
    for q, n in [(2, 3), (3, 3), (2, 5)]:
        ctx = make_context(q, n)
        assert map_rank(ctx, (ctx.zero,) * n) == 0
        ident = (ctx.one,) + (ctx.zero,) * (n - 1)
        assert map_rank(ctx, ident) == n
        # all-ones coefficients give the trace map onto F_{q^2}: rank 1
        trace_poly = (ctx.one,) * n
        assert map_rank(ctx, trace_poly) == 1


def test_map_rank_against_kernel_count():
    # oracle: rank = n - dim(kernel), kernel counted by full enumeration
    ctx = make_context(2, 3)
    rng = SplitMix64(6)
    everything = ctx.subfield_elements(ctx.deg)
    for _ in range(40):
        poly = _rand_poly(ctx, rng)
        kernel = sum(lp_eval(ctx, poly, x) == ctx.zero for x in everything)
        dim = 0
        while 4**dim < kernel:
            dim += 1
        assert 4**dim == kernel  # kernel is an F_4-subspace
        assert map_rank(ctx, poly) == 3 - dim


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3)])
def test_map_rank_equals_dickson_rank(q, n):
    ctx = make_context(q, n)
    rng = SplitMix64(7)
    for _ in range(60):
        poly = _rand_poly(ctx, rng)
        assert map_rank(ctx, poly) == matrix_rank(ctx, dickson(ctx, poly).rows)


def test_matrix_rank_basics(rand_felt):
    ctx = make_context(2, 3)
    rng = SplitMix64(8)
    assert matrix_rank(ctx, []) == 0
    assert matrix_rank(ctx, [[ctx.zero] * 4 for _ in range(2)]) == 0
    ident = [[ctx.one if i == j else ctx.zero for j in range(4)] for i in range(4)]
    assert matrix_rank(ctx, ident) == 4
    # outer products have rank one
    for _ in range(10):
        u = [rand_felt(ctx, rng) for _ in range(3)]
        v = [rand_felt(ctx, rng) for _ in range(5)]
        if all(x == ctx.zero for x in u) or all(x == ctx.zero for x in v):
            continue
        outer = [[ctx.mul(a, b) for b in v] for a in u]
        assert matrix_rank(ctx, outer) == 1


# -- support width bounds the kernel ---------------------------------------


def test_narrow_support_forces_high_rank_exhaustive():
    # any map with a single nonzero coefficient is a bijection of K;
    # support inside a width-2 cyclic window leaves a kernel of dim <= 1
    ctx = make_context(2, 3)
    everything = ctx.subfield_elements(ctx.deg)
    nonzero = [a for a in everything if a != ctx.zero]
    singles = 0
    for pos in range(3):
        for c in nonzero:
            coeffs = [ctx.zero] * 3
            coeffs[pos] = c
            assert map_rank(ctx, tuple(coeffs)) == 3
            singles += 1
    assert singles == 189
    for pos in range(3):
        for a in everything:
            for b in everything:
                if a == ctx.zero and b == ctx.zero:
                    continue
                coeffs = [ctx.zero] * 3
                coeffs[pos] = a
                coeffs[(pos + 1) % 3] = b
                assert map_rank(ctx, tuple(coeffs)) >= 2
