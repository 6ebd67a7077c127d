"""Field tower arithmetic: moduli, Frobenius, trace, subfields, norms."""

import functools
import itertools
import operator
import os
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_field
from hermrank import MODE_ARBITRARY, ChannelSpec, SplitMix64, build_params, code, corrupt, decode, encode, field
from hermrank import make_context, random_message, random_rank_error
from hermrank.field import canonical_modulus
from hermrank.exceptions import (
    BadElementError,
    BadOperandError,
    BadParamsError,
    EvenExtensionError,
    HermrankError,
    NotADivisorError,
    NotInSubfieldError,
    NotPrimeError,
    TooLargeError,
    ZeroInputError,
)
from hermrank.field import _irreducible, _lead, context_from_json_obj
from helpers import ENCODE_POINTS, PACKED_POINTS
from reference_field import from_base
from reference_rank import matrix_rank


# -- canonical modulus ------------------------------------------------------

# values frozen from the first-irreducible scan; re-derived below
FROZEN_MODULI = {
    (2, 1): (1, 1, 1),
    (2, 3): (1, 1, 0, 0, 0, 0, 1),
    (2, 5): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 0, 1),
    (3, 3): (2, 1, 0, 0, 0, 0, 1),
}


def _is_irreducible_bruteforce(f, q):
    # trial division by every monic polynomial of degree 1 .. deg/2
    deg = len(f) - 1
    for ddeg in range(1, deg // 2 + 1):
        for idx in range(q**ddeg):
            cand = []
            v = idx
            for _ in range(ddeg):
                cand.append(v % q)
                v //= q
            cand.append(1)
            if not reference_field.pq_rem(f, cand, q):
                return False
    return True


@pytest.mark.parametrize("q,n", sorted(FROZEN_MODULI))
def test_canonical_modulus_frozen(q, n):
    assert canonical_modulus(q, n) == FROZEN_MODULI[(q, n)]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_canonical_modulus_is_first_irreducible(q, n):
    # independent re-derivation by brute-force trial division
    deg = 2 * n
    got = canonical_modulus(q, n)
    assert len(got) == deg + 1 and got[-1] == 1
    assert _is_irreducible_bruteforce(list(got), q)
    got_c = sum(c * q**i for i, c in enumerate(got[:deg]))
    for c in range(got_c):
        digits = []
        v = c
        for _ in range(deg):
            digits.append(v % q)
            v //= q
        assert not _is_irreducible_bruteforce(digits + [1], q)


@pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 6), (5, 4), (7, 2)])
def test_irreducible_matches_trial_division(q, max_deg):
    # every monic polynomial of each even degree, against trial division and
    # against Berlekamp's test; the reducible ones include powers such as
    # (x^2+x+1)^2 over F_2, which Ben-Or's test rejects at i = 2 with no
    # squarefree step, and which pass Berlekamp's rank step alone
    for deg in range(2, max_deg + 1, 2):
        for c in range(q**deg):
            coeffs = [c // q**i % q for i in range(deg)] + [1]
            expected = _is_irreducible_bruteforce(coeffs, q)
            assert _irreducible(q, coeffs) == expected, coeffs
            assert reference_field.berlekamp_irreducible(q, coeffs) == expected, coeffs


def _mobius(m):
    out, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return out


@pytest.mark.parametrize("q,max_deg", [(2, 10), (3, 6), (5, 4)])
def test_irreducible_count_matches_gauss(q, max_deg):
    # Gauss's count of the monic irreducibles of degree D over F_q,
    # (1/D) * sum over d | D of mu(d) * q^(D/d), read from no implementation
    for deg in range(2, max_deg + 1, 2):
        expected = sum(_mobius(d) * q ** (deg // d) for d in range(1, deg + 1) if deg % d == 0) // deg
        found = sum(_irreducible(q, [c // q**i % q for i in range(deg)] + [1]) for c in range(q**deg))
        assert found == expected, deg


@pytest.mark.parametrize("q,n", [(2, 7), (2, 15), (2, 31), (3, 9), (3, 19), (5, 13), (7, 5), (13, 3)])
def test_canonical_modulus_matches_schoolbook_scan(q, n):
    # the scan runs Ben-Or's test on the field engines; the oracle runs
    # Rabin's test on coefficient lists
    assert canonical_modulus(q, n) == reference_field.scan_modulus(q, n)


@pytest.mark.parametrize("q,n,engine,reached", [(5, 13, "_OddContext", 57), (2, 31, "_Gf2Context", 27)])
def test_scan_builds_engines_only_for_rootless_candidates(monkeypatch, q, n, engine, reached):
    # machine-independent guard on the scan's work: the root filter leaves
    # 57 of the 163 candidates at (5,13) and 27 of the 106 at (2,31) for an
    # engine, against one engine per candidate without it
    expected = canonical_modulus(q, n)
    built = []

    class Counting(getattr(field, engine)):
        def _setup_engine(self):
            built.append(self.modulus)
            super()._setup_engine()

    monkeypatch.setattr(field, engine, Counting)
    assert field._first_irreducible.__wrapped__(q, n) == expected
    assert len(built) == reached
    assert all(f[0] != 0 for f in built)


@pytest.mark.parametrize(
    "q,n,engine,muls,gcds", [(5, 13, "_OddContext", 504, 111), (2, 31, "_Gf2Context", 238, 211)]
)
def test_scan_work(spy, q, n, engine, muls, gcds):
    # machine-independent guard on Ben-Or's scan: pow_elem's products and
    # one gcd per step past the root filter, with no linear map and no table
    expected = canonical_modulus(q, n)
    calls = spy(getattr(field, engine), "mul", "_apply_linear", "_coprime_to_modulus")
    assert field._first_irreducible.__wrapped__(q, n) == expected
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"mul": muls, "_apply_linear": 0, "_coprime_to_modulus": gcds}


def test_frobenius_table_work(spy):
    # all 2n tables at (5,13): T_0 takes nothing, T_1 takes pow_elem's 3
    # products and 25 more, and each of the other 24 takes 26 applications
    # of one other table and no product
    ctx = make_context(5, 13)
    calls = spy(type(ctx), "mul", "_apply_linear")
    for j in range(ctx.deg):
        ctx._frob_rows(j)
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"mul": 28, "_apply_linear": 624}


@pytest.mark.parametrize("q,n", [(2, 31), (3, 19), (5, 13), (3, 9)])
def test_composed_tables_are_powers_of_frobenius_of_x(q, n):
    # T_j is composed as T_a o T_(j-a), a the largest power of two below
    # j; its rows must be the powers of X^(q^j), here formed by products
    # alone.  The last table is asked for first, so its composition builds
    # some of the others before them, out of order.
    ctx = make_context(q, n)
    ys = list(itertools.accumulate(itertools.repeat(q, ctx.deg - 1), ctx.pow_elem, initial=ctx.gen))
    for j in reversed(range(ctx.deg)):
        powers = itertools.accumulate(itertools.repeat(ys[j], ctx.deg - 1), ctx.mul, initial=ctx.one)
        assert ctx.frob_images(j) == tuple(powers), j


@pytest.mark.parametrize("q,n", [(5, 13), (2, 31)])
def test_pow_elem_squares_and_multiplies_once_per_bit(spy, q, n):
    # bit_length(e) - 1 squarings and popcount(e) - 1 products; the powers
    # X^k with 1 < k <= 2n differ from X, so a product never has equal
    # factors
    ctx = make_context(q, n)
    products = spy(field.FieldContext, "mul")["mul"]
    for e in (1, 2, 3, 5, 6, 2 * n - 1, 2 * n):
        products.clear()
        assert ctx.pow_elem(ctx.gen, e) == reference_field.pow_elem(ctx, ctx.gen, e), e
        factors = [a == b for a, b in products]
        assert factors.count(True) == e.bit_length() - 1, e
        assert factors.count(False) == bin(e).count("1") - 1, e
    products.clear()
    assert ctx.pow_elem(ctx.gen, 0) == ctx.one and not products
    with pytest.raises(BadOperandError):
        ctx.pow_elem(ctx.gen, -3)


def test_make_context_rejects_bad_parameters():
    with pytest.raises(NotPrimeError):
        make_context(4, 3)
    with pytest.raises(NotPrimeError):
        make_context(1, 3)
    with pytest.raises(EvenExtensionError):
        make_context(2, 2)
    with pytest.raises(EvenExtensionError):
        make_context(2, 0)
    # one validator: make_context's q and n errors are BadParamsErrors
    for q, n in [(4, 3), (3, 4)]:
        with pytest.raises(BadParamsError):
            make_context(q, n)
    with pytest.raises(TooLargeError):
        make_context(2, 33)  # 2^66 > 2^64
    with pytest.raises(TooLargeError):
        make_context(3, 21)
    make_context(2, 31)  # 2^62: largest binary context


@pytest.mark.parametrize("q", [0, -3, 9, 25, 4294967295])
def test_make_context_rejects_non_primes(q):
    # 4294967295 = 3 * 5 * 17 * 257 * 65537 is within the size bound
    with pytest.raises(NotPrimeError):
        make_context(q, 1)


def test_make_context_accepts_largest_32_bit_prime():
    assert make_context(4294967291, 1).q == 4294967291


@pytest.mark.parametrize("q,n", [(1000000000000000003, 1), (2**32 + 15, 1), (3, 10**7 + 1), (3, 10**8 + 1)])
def test_make_context_rejects_oversized_parameters_at_once(q, n):
    # trial division of q, or forming q^(2n), would run for minutes
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        make_context(q, n)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "q,n", [(4, 1), (1, 1), (0, 1), (3, 0), (3, True), (2, True), (4, 2), (2**40, 2), (3, 21), (3.0, 1), ([3], 1)]
)
def test_canonical_modulus_checks_q_and_n_as_make_context(q, n):
    # one check, in one order: the same error class as make_context, never
    # a bare ValueError, None or BadElementError; the cached n = 1 scans
    # must not answer for a bool n
    canonical_modulus(2, 1), canonical_modulus(3, 1)
    with pytest.raises(HermrankError) as want:
        make_context(q, n)
    with pytest.raises(HermrankError) as got:
        canonical_modulus(q, n)
    assert type(got.value) is type(want.value)


# -- ring axioms ------------------------------------------------------------


def _coeff_lists(q, deg):
    return st.lists(st.integers(min_value=0, max_value=q - 1), min_size=deg, max_size=deg)


@pytest.mark.parametrize("q", [2, 3])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_axioms(q, data):
    ctx = make_context(q, 3)
    x, y, z = (ctx.from_coeffs(data.draw(_coeff_lists(q, 6))) for _ in range(3))
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.sub(x, y) == ctx.add(x, ctx.neg(y))
    assert ctx.add(x, ctx.neg(x)) == ctx.zero
    if x != ctx.zero:
        assert ctx.mul(x, ctx.inv(x)) == ctx.one


#: Odd-q points for the packed kernel.  Below q = 128 the canonical tuple
#: comes from byte folds and one translate, on slots of 1 byte at (3,3)
#: and (5,1), 2 at (3,19), (5,13) and (7,5), and 3 at (31,5) and (127,3);
#: from q = 131 on it is the per-coefficient mod, up to the largest prime
#: below 2^32, whose slots are wider than 64 bits.
ODD_POINTS = [
    (3, 3), (5, 1), (3, 19), (5, 13), (7, 5), (31, 5), (127, 3),
    (131, 3), (251, 3), (65521, 1), (4294967291, 1),
]


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (2, 15), (2, 31)] + ODD_POINTS)
def test_mul_matches_schoolbook_reduction(q, n, rand_felt):
    # independent oracle: convolve coefficient lists, long-divide by the modulus
    ctx = make_context(q, n)
    rng = SplitMix64(17)
    for _ in range(100):
        a, b = rand_felt(ctx, rng), rand_felt(ctx, rng)
        prod = reference_field.pq_mulmod(ctx.to_coeffs(a), ctx.to_coeffs(b), ctx.modulus, q)
        assert ctx.from_coeffs(prod + [0] * (ctx.deg - len(prod))) == ctx.mul(a, b)


def _kernel_inputs(ctx, rng, rand_felt, count):
    """Every coefficient q-1 (the largest slot sums), then random elements."""
    return [ctx.from_coeffs([ctx.q - 1] * ctx.deg)] + [rand_felt(ctx, rng) for _ in range(count - 1)]


@pytest.mark.parametrize("q,n", ODD_POINTS)
def test_packed_kernel_matches_schoolbook(q, n, rand_felt):
    ctx = make_context(q, n)
    xs = _kernel_inputs(ctx, SplitMix64(q + n), rand_felt, 6)
    for a in xs:
        for b in xs:
            assert ctx.mul(a, b) == reference_field.mul(ctx, a, b)
        if a != ctx.zero:
            assert reference_field.mul(ctx, a, ctx.inv(a)) == ctx.one
        assert ctx.rel_trace(a) == reference_field.rel_trace(ctx, a)
    for j in sorted({1, 2, n, n + 1, 2 * n - 1}):
        assert ctx.frob_images(j) == reference_field.frob_images(ctx, j)
        for a in xs:
            assert ctx.frobenius(a, j) == reference_field.frobenius(ctx, a, j)
    for a in xs[:2]:
        assert all(type(c) is int for c in ctx.mul(a, a) + ctx.frobenius(a, 1))


@pytest.mark.parametrize("n", [1, 3, 5, 31])
def test_gf2_byte_tables_match_bit_walk(n, rand_felt):
    # the q = 2 linear-map kernel, one lookup per byte, against the bit
    # walk it replaced, for every Frobenius power, the trace and a random
    # map.  2n mod 8 is 2 at n = 1 and n = 5 and 6 at n = 3 and n = 31, so
    # the last byte table is mostly padding at the first two and partly at
    # the others, and n = 1 has a single table; the inputs reach every bit
    # of it.
    ctx = make_context(2, n)
    rng = SplitMix64(n)
    xs = [0, 1, (1 << ctx.deg) - 1, 1 << (ctx.deg - 1)] + [rand_felt(ctx, rng) for _ in range(6)]
    trace = [0] * ctx.deg
    for j, images in enumerate(reference_field.gf2_frob_images(ctx)):
        assert ctx.frob_images(j) == images, j
        if j % 2 == 0:
            trace = [t ^ x for t, x in zip(trace, images)]
        for a in xs:
            want = reference_field.gf2_apply_linear(images, a)
            assert ctx._apply_linear(ctx._frob_rows(j), a) == ctx.frobenius(a, j) == want, (j, a)
    images = [rand_felt(ctx, rng) for _ in range(ctx.deg)]
    for a in xs:
        assert ctx.rel_trace(a) == reference_field.gf2_apply_linear(trace, a), a
        assert ctx._apply_linear(ctx._to_rows(images), a) == reference_field.gf2_apply_linear(images, a), a


def _held_bytes(obj, seen: set) -> int:
    """Bytes of obj and of every tuple, list and item reachable from it,
    each object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list)):
        size += sum(_held_bytes(x, seen) for x in obj)
    return size


def test_gf2_frobenius_tables_stay_small():
    # bench/library.py keeps the params of three set-ups, so the tables a
    # (2,31,15) context holds count against the benchmark's 10% bound on
    # peak_rss_mb: its byte tables (ceil(2n/8) = 8 array('Q') tables of 256
    # entries, about 17 KB a power), the trace table and the register's
    # stacked nibble tables, after one decode at the radius and one beyond
    # it.  They measured 623,380 bytes (22 powers, 377,032 bytes; trace
    # 17,128; stack of d - 1 = 14 fields, 229,220; CPython 3.11), where a
    # stack of radius fields built from frob_images with BM mapping by
    # T_2 .. T_28 measured 650,740 (30 powers); the bound leaves about 15%
    # headroom.  Lists of Python ints for the map tables would be several
    # times that.  The stack is built by iterating T_2, so a decode builds
    # no T_2l beyond the powers set-up, encoding and extraction apply:
    # the pinned set has no T_10, T_12 or T_18 .. T_28.
    p = build_params(2, 31, 15)
    ctx = p.ctx
    for t, seed in ((p.radius, 1), (p.radius + 1, 2)):
        msg = random_message(p, SplitMix64(seed))
        err = random_rank_error(p, ChannelSpec(t=t, mode=MODE_ARBITRARY, seed=seed))
        assert decode(p, corrupt(ctx, encode(p, msg), err)).ok == (t <= p.radius)
    assert all(type(r) is array for rows in ctx._frob.values() for r in rows)
    assert ctx._stack_top == p.d - 1
    assert sorted(ctx._frob) == [1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 30, 31, 32, 33, 35, 37, 39, 41, 43, 45, 47, 61]
    seen = set()
    held = _held_bytes(tuple(ctx._frob.values()), seen) + _held_bytes((ctx._trace_tbl, ctx._stack), seen)
    assert held <= 720_000, held


@pytest.mark.parametrize("q,n", sorted({(q, n) for q, n, _ in ENCODE_POINTS}))
def test_reduce_lifted_and_unlift_match_the_kernel(q, n, rand_felt):
    # the skew register keeps its connection polynomial lifted: on both
    # engines _reduce_lifted(p) is _lift(_reduce(p)) for single products
    # and for 2n-term sums at the slot bound B (2n products of the
    # all-(q - 1) element put 2n * 2n * (q-1)^2 in the middle slot), and
    # _unlift inverts _lift on canonical lifted values
    ctx = make_context(q, n)
    lift = ctx._lift
    rng = SplitMix64(q + n)
    top = ctx.from_coeffs([q - 1] * ctx.deg)
    xs = [ctx.zero, ctx.one, top, ctx.from_coeffs([0] * (ctx.deg - 1) + [1])]
    xs += [rand_felt(ctx, rng) for _ in range(6)]
    bound = ctx._sum([lift(top) * lift(top)] * ctx.deg)
    sums = [bound] + [lift(x) * lift(y) for x in xs for y in xs]
    sums += [ctx._sum(lift(rand_felt(ctx, rng)) * lift(rand_felt(ctx, rng)) for _ in range(ctx.deg)) for _ in range(4)]
    for p in sums:
        assert ctx._reduce_lifted(p) == lift(ctx._reduce(p)), p
    for x in xs:
        assert ctx._unlift(lift(x)) == x


@pytest.mark.parametrize("q,n", [(2, 1), (2, 5), (2, 31)] + ODD_POINTS)
def test_lift_puts_coefficient_i_in_slot_i(q, n, rand_felt):
    # the product kernel works on coefficient i in slot i, 8w bits wide,
    # while elements stay compact: at q = 2 bit i spread to byte i (w = 1),
    # at odd q the byte codec's lift at widths 1, 2 and 3, and the shifted
    # sum of the wider slots from q = 131 on
    ctx = make_context(q, n)
    rng = SplitMix64(q + 3 * n)
    w = ctx._split // (8 * ctx.deg)
    edges = [ctx.zero, ctx.one, ctx.from_coeffs([q - 1] * ctx.deg), ctx.from_coeffs([0] * (ctx.deg - 1) + [1])]
    for a in edges + [rand_felt(ctx, rng) for _ in range(20)]:
        assert ctx._lift(a) == sum(c * 2 ** (8 * w * i) for i, c in enumerate(ctx.to_coeffs(a))), a


def _clmul(a: int, b: int) -> int:
    """The carry-less product of a and b, one shifted b per set bit of a."""
    return functools.reduce(operator.xor, (b << i for i in range(a.bit_length()) if a >> i & 1), 0)


def test_gf2_packed_rows_stay_compact(params_for):
    # machine-independent guard: bench/library.py keeps the params of three
    # set-ups, so the rows a (2,31,15) code holds count against the
    # benchmark's 10% bound on peak_rss_mb.  Each q = 2 row of the Moore and
    # encoder tables is its 16-entry shift table, built once per code:
    # entry 1 is the compact row, n fields of 4n bits (a row of spread
    # fields would be 8 times that), and entry w the carry-less product
    # w * row, so no entry is spread either.  The n + k = 48 tables
    # measured 391,484 bytes (CPython 3.11), where the compact rows alone
    # held 25,488; the bound leaves about 15% headroom.
    p = params_for(2, 31, 15)
    rows = p.moore_packed + p.encoder_rows
    assert len(rows) == p.n + p.k
    for t in rows:
        assert type(t) is tuple and len(t) == 16 and all(type(e) is int for e in t)
        assert 0 <= t[1] < 1 << p.n * 4 * p.n
        assert all(t[w] == _clmul(w, t[1]) for w in range(16))
    held = _held_bytes((p.moore_packed, p.encoder_rows), set())
    assert held <= 450_000, held


@pytest.mark.parametrize("n", [1, 5, 31])
def test_gf2_combine_rows_reads_every_table_entry(n, rand_felt):
    # q = 2 combine_rows reads entry w of a row's shift table for each hex
    # digit w of its value: over the 16 calls the digit at nibble k of row
    # r's value is (s + r + k) % 16, so every row meets every digit at
    # every nibble position (the top one holds only its 2n % 4 low bits
    # when 4 does not divide 2n), then all-ones values; on a square table
    # and an encoder-shaped one, k = (n + 1) // 2 < n rows from n = 3 on.
    # Each expected output is the XOR of the column's carry-less products,
    # reduced once by the schoolbook rows
    ctx = make_context(2, n)
    rng = SplitMix64(3 * n + 1)
    mask, nibbles = (1 << ctx.deg) - 1, -(-ctx.deg // 4)
    for height in sorted({n, (n + 1) // 2}):
        # a zero entry becomes 1: at n = 1 the seeded table is the single
        # element 0, whose shift table cannot show a misread entry
        table = [[rand_felt(ctx, rng) or ctx.one for _ in range(n)] for _ in range(height)]
        rows = ctx.pack_rows(table)
        cases = [[sum((s + r + k) % 16 << 4 * k for k in range(nibbles)) & mask for r in range(height)]
                 for s in range(16)]
        for values in cases + [[mask] * height]:
            sums = (functools.reduce(operator.xor, map(_clmul, values, col)) for col in zip(*table))
            expected = tuple(ctx.from_coeffs(reference_field.reduce(ctx, [v >> i & 1 for i in range(2 * ctx.deg - 1)]))
                             for v in sums)
            assert ctx.combine_rows(values, rows) == expected, (height, values)


@pytest.mark.parametrize("q,n", ODD_POINTS + [(2, 1), (2, 5), (2, 31)])
def test_dot_matches_schoolbook(q, n, rand_felt):
    # up to 2n terms share one reduction; more would overrun the odd-q slot
    # bound, and q = 2 keeps the same contract
    ctx = make_context(q, n)
    rng = SplitMix64(7 * q + n)
    for terms in (0, 1, n, 2 * n):
        top = [ctx.from_coeffs([q - 1] * ctx.deg)] * terms
        assert ctx.dot(top, top) == reference_field.dot(ctx, top, top)
        xs = [rand_felt(ctx, rng) for _ in range(terms)]
        ys = [rand_felt(ctx, rng) for _ in range(terms)]
        assert ctx.dot(xs, ys) == reference_field.dot(ctx, xs, ys)
    with pytest.raises(BadOperandError):
        ctx.dot([ctx.one] * (2 * n + 1), [ctx.one] * (2 * n + 1))
    with pytest.raises(BadOperandError):
        ctx.combine_rows([ctx.one] * (2 * n + 1), ctx.pack_rows([[ctx.one] * n] * (2 * n + 1)))
    with pytest.raises(BadOperandError):
        ctx.fq_combine([ctx.one] * (2 * n + 1), [[1] * (2 * n + 1)])


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3)])
def test_fq_combine_bounds_terms_at_every_q(q, n):
    # the q = 2 XOR once kept no bound, so fq_combine([X] * 7, [[1] * 7])
    # returned (X,) at (2,3) where (3,3) raised; the 2n check now runs
    # before any digit row, so both refuse with a row and with none
    ctx = make_context(q, n)
    for digit_rows in ([[1] * 7], []):
        with pytest.raises(BadOperandError):
            ctx.fq_combine([ctx.gen] * 7, digit_rows)
    assert ctx.fq_combine([ctx.gen] * 6, []) == ()


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3)])
def test_unmatched_terms_rejected(q, n):
    # a zip would drop the unmatched term: dot([X, 1], [X]) once read X^2,
    # and fq_combine([X, 1], [[1]]) and fq_combine([X], [[1, 1]]) both (X,)
    ctx = make_context(q, n)
    x = ctx.gen
    for xs, ys in [([x, ctx.one], [x]), ([x], [x, ctx.one]), ([], [x])]:
        with pytest.raises(BadOperandError):
            ctx.dot(xs, ys)
    rows = ctx.pack_rows([[ctx.one] * n, [x] * n])
    for values in ([x], [x, x, x], []):
        with pytest.raises(BadOperandError):
            ctx.combine_rows(values, rows)
    assert ctx.combine_rows([x, ctx.zero], rows) == (x,) * n
    assert ctx.dot([x, ctx.one], [x, ctx.zero]) == ctx.mul(x, x)
    for elems, digit_rows in [([x, ctx.one], [[1]]), ([x], [[1, 1]]), ([], [[1]]), ([x], [[1], []]),
                              ([x, ctx.one], [[1, 0], [1, 0, 0]])]:
        with pytest.raises(BadOperandError):
            ctx.fq_combine(elems, digit_rows)
    assert ctx.fq_combine([x, ctx.one], [[1, 0], [0, 1]]) == (x, ctx.one)
    assert ctx.fq_combine([], [[], []]) == (ctx.zero, ctx.zero)


@pytest.mark.parametrize(
    "q,n,d", [(2, 1, 1), (2, 5, 3), (2, 31, 15), (3, 1, 1), (3, 19, 9), (5, 13, 7), (131, 1, 1), (131, 3, 3)]
)
def test_unchecked_draw_paths_match_checked_ones(params_for, q, n, d):
    # the message and channel draws skip the digit checks, since
    # SplitMix64.draws residues lie in [0, q) by construction: on the same
    # digits, _from_digits is each block's element built independently
    # (the sum of its bits at q = 2, the tuple of its digits at odd q) and
    # what from_coeffs takes, _combine on _packed elements is fq_combine,
    # and the per-code forms the draws use are the packed F_{q^n} basis,
    # w^q and the packed alpha-span; on both engines, at odd q below 128
    # (byte slots) and at 131 (shift-and-mask slots), and at n = 1
    p = params_for(q, n, d)
    ctx = p.ctx
    deg = ctx.deg
    rng = SplitMix64(q + n)
    drawn = rng.draws(q, 3 * deg)
    for digits in (drawn, [0] * deg, [q - 1] * deg, [1] + [0] * (deg - 1), [0] * (deg - 1) + [1]):
        blocks = [digits[i : i + deg] for i in range(0, len(digits), deg)]
        want = [sum(c << i for i, c in enumerate(b)) if q == 2 else tuple(b) for b in blocks]
        assert ctx._from_digits(digits) == want == [ctx.from_coeffs(b) for b in blocks]
    w = ctx.fq2_w()
    basis, span = ctx.subfield_basis(n), ctx.fq2_span(p.alpha, w)
    packed_basis, wq, alpha_span = p._draw_forms
    assert packed_basis == ctx._packed(basis) and alpha_span == ctx._packed(span)
    assert wq == ctx.frobenius(w, 1)
    for elems in (basis, span, ctx._from_digits(drawn)[:deg]):
        m = len(elems)
        rows = [rng.draws(q, m) for _ in range(4)] + [[0] * m, [q - 1] * m]
        assert ctx._combine(ctx._packed(elems), rows) == ctx.fq_combine(elems, rows)
    digits = SplitMix64(5).draws(q, p.k * n)
    parts = ctx.fq_combine(basis, [digits[i : i + n] for i in range(0, p.k * n, n)])
    assert random_message(p, SplitMix64(5)).parts == parts


# the engine hooks FieldContext's docstring lists, each supplied once by
# every engine
ENGINE_HOOKS = (
    "_setup_engine", "zero", "one", "add", "sub", "inv", "to_coeffs", "_from_digits",
    "_lift", "_sum", "_reduce", "_reduce_lifted", "_unlift", "_stride", "pack_rows", "combine_rows",
    "_to_rows", "_apply_linear", "_packed", "_combine", "_stacked", "_frob_pass", "_frob_read",
    "frob_images", "_echelon", "_coprime_to_modulus",
)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (131, 1)])
def test_base_class_holds_no_engine_hook(q, n):
    # FieldContext holds only what both engines share: it defines none of
    # the hooks its docstring lists, and the engine of a context defines
    # every one, on its class or, for set-up constants, on the context.
    # Each engine has one element constructor, _from_digits, and the q = 2
    # stacked pass is the q = 2 linear map, one table walk
    base = vars(field.FieldContext)
    ctx = make_context(q, n)
    for name in ENGINE_HOOKS:
        assert f"``{name}" in field.FieldContext.__doc__, name
        assert name not in base, name
        assert name in vars(type(ctx)) or name in vars(ctx), name
    assert not any("_from_coeffs" in vars(c) for c in (field.FieldContext, field._Gf2Context, field._OddContext))
    gf2 = vars(field._Gf2Context)
    assert gf2["_frob_pass"] is gf2["_apply_linear"]


@pytest.mark.parametrize("q,n", [(3, 3), (127, 3), (131, 1)])
def test_retired_digit_paths_stay_gone(params_for, q, n):
    # odd-q add and sub keep no one-byte lanes codec of their own, at byte
    # slots (q < 128) and at shift-and-mask slots (q = 131); elements are
    # written to JSON by to_coeffs; and the draws keep one per-code memo
    ctx = make_context(q, n)
    for name in ("_lanes", "_lanes_canon", "_lanes_q"):
        assert not hasattr(ctx, name), name
    assert not hasattr(field.FieldContext, "felt_to_json")
    assert not hasattr(params_for(q, n, 1), "_alpha_span")


def test_retired_eta_split_stays_gone():
    # extraction splits each mirrored pair by the per-code maps of
    # CodeParams._eta_split; the routine that split it by two products and
    # the constant it scaled by are gone
    assert not hasattr(code, "decompose_eta")
    assert "eta_split_inv" not in code.CodeParams.__dataclass_fields__
    assert not hasattr(code.CodeParams, "eta_split_inv")


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3)])
def test_fq_combine_rejects_digits_outside_fq(q, n):
    # the q = 2 XOR once read any nonzero digit as 1, so fq_combine([X],
    # [[2]]) and [[-1]] gave (X,), and at q = 3 a digit -1 ended in a bare
    # OverflowError; a row is checked whole, so a bad digit anywhere fails
    ctx = make_context(q, n)
    x = ctx.gen
    for row in ([q], [-1], [0, q], [q - 1, -1], [10**6, 0]):
        with pytest.raises(BadOperandError):
            ctx.fq_combine([x] * len(row), [row])
        with pytest.raises(BadOperandError):
            ctx.fq_combine([x] * len(row), [[0] * len(row), row])
    assert ctx.fq_combine([x, ctx.one], [[q - 1, 0], [0, 0]]) == (ctx.neg(x), ctx.zero)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 5), (3, 3), (251, 3)])
def test_inverse_of_zero_rejected(q, n):
    # each engine has its own inv and its own zero check
    ctx = make_context(q, n)
    with pytest.raises(ZeroInputError):
        ctx.inv(ctx.zero)
    assert ctx.mul(ctx.inv(ctx.gen), ctx.gen) == ctx.one


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3)])
def test_non_integer_powers_and_degrees_rejected(q, n):
    # a float Frobenius power once recursed through _frob_rows without end,
    # and a float degree passed the divisor check into it
    ctx = make_context(q, n)
    x = ctx.gen
    for bad in (1.5, 0.5, 2.0, True, "1"):
        with pytest.raises(BadOperandError):
            ctx.frobenius(x, bad)
        with pytest.raises(BadOperandError):
            ctx.pow_elem(x, bad)
        with pytest.raises(NotADivisorError):
            ctx.in_subfield(x, bad)
        with pytest.raises(NotADivisorError):
            ctx.subfield_basis(bad)
    assert ctx.frobenius(x, ctx.deg + 1) == ctx.frobenius(x, -ctx.deg + 1) == ctx.pow_elem(x, q)
    assert ctx.in_subfield(ctx.one, 1) and len(ctx.subfield_basis(2)) == 2


def test_operand_guards_survive_optimize():
    # the slot bound and the exponent's sign are checked by raising, not
    # by assert, so python -O keeps them
    code = (
        "from hermrank import make_context\n"
        "from hermrank.exceptions import BadOperandError\n"
        "ctx = make_context(3, 19)\n"
        "many = [ctx.one] * (12 * ctx.deg)\n"
        "calls = [lambda: ctx.dot(many, many), lambda: ctx.pow_elem(ctx.gen, -1),\n"
        "         lambda: ctx.combine_rows(many, ctx.pack_rows([[ctx.one] * ctx.n] * len(many))),\n"
        "         lambda: ctx.fq_combine(many, [[1] * len(many)])]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except BadOperandError:\n"
        "        continue\n"
        "    raise SystemExit('no BadOperandError')\n"
    )
    src = str(Path(field.__file__).parents[1])
    run = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def _check_fold_at_bound(ctx):
    # every coefficient q - 1: mul, a 2n-term dot and a combination of 2n
    # rows against the schoolbook product, and every one of the 4n - 1
    # slots of a reduction's input at B = 2n * 2n * (q-1)^2, the most the
    # slot width is chosen for
    q, n, deg = ctx.q, ctx.n, ctx.deg
    top = ctx.from_coeffs([q - 1] * deg)
    full = reference_field.dot(ctx, [top] * deg, [top] * deg)
    assert ctx.mul(top, top) == reference_field.mul(ctx, top, top)
    assert ctx.dot([top] * deg, [top] * deg) == full
    assert ctx.combine_rows([top] * deg, ctx.pack_rows([[top] * n] * deg)) == (full,) * n
    bound = deg * deg * (q - 1) ** 2
    assert bound < 1 << ctx._bits
    worst = sum(bound << ctx._bits * k for k in range(2 * deg - 1))
    assert ctx._reduce(worst) == ctx.from_coeffs(reference_field.reduce(ctx, [bound] * (2 * deg - 1)))


#: Odd points of the fold oracle: every odd point of the packed-row tests,
#: three where 2^h mod q, the partial mod's multiplier, is above 1, the
#: 3-byte slots at each side of q = 128 and of (31,5), and the 4-byte slots
#: of (251,3).
FOLD_POINTS = sorted(
    {(q, n) for q, n, _ in PACKED_POINTS if q > 2} | {(7, 11), (13, 7), (31, 5), (127, 3), (131, 3), (251, 3)}
)


@pytest.mark.parametrize("q,n", FOLD_POINTS)
def test_fold_at_slot_bound_matches_schoolbook(q, n):
    ctx = make_context(q, n)
    _check_fold_at_bound(ctx)
    # every other way to the canonical tuple, on zero and on the element
    # with every coefficient q - 1: add, sub and neg, the linear maps,
    # inv's scaling, fq_combine's 2n digits of q - 1 and the elimination's
    # scaled pivots
    top = ctx.from_coeffs([q - 1] * ctx.deg)
    for a in (top, ctx.zero):
        assert ctx.neg(a) == reference_field.neg(ctx, a)
        for b in (top, ctx.zero):
            assert ctx.add(a, b) == reference_field.add(ctx, a, b)
            assert ctx.sub(a, b) == reference_field.add(ctx, a, reference_field.neg(ctx, b))
        for j in (1, ctx.n):
            assert ctx.frobenius(a, j) == reference_field.frobenius(ctx, a, j)
        assert ctx.rel_trace(a) == reference_field.rel_trace(ctx, a)
        digits = [q - 1] * ctx.deg
        assert ctx.fq_combine([a] * ctx.deg, [digits]) == (reference_field.apply_linear(ctx, [a] * ctx.deg, digits),)
    assert reference_field.mul(ctx, top, ctx.inv(top)) == ctx.one
    rows = ctx.pack_rows([[top] * n] * n)
    assert ctx.combine_rows([top] * n, rows) == (reference_field.dot(ctx, [top] * n, [top] * n),) * n
    assert ctx.combine_rows([ctx.zero] * n, rows) == (ctx.zero,) * n
    half = ctx.from_coeffs([q - 1] * n + [0] * n)
    elems = [top, half, ctx.zero, ctx.sub(top, half), ctx.neg(half)]
    coeff_rows = [[from_base(ctx, c) for c in ctx.to_coeffs(e)] for e in elems]
    assert ctx.fq_rank(elems) == matrix_rank(ctx, coeff_rows) == 2


def test_byte_codec_is_built_once_and_agrees_with_a_fresh_one():
    # the modulus scan at (5,13) builds 57 engines; they share one codec
    ctx = make_context(5, 13)
    width = ctx._bits // 8
    lift, canon, canon_lifted = field._byte_codec(5, width, ctx.deg)
    assert (ctx._lift, ctx._canon, ctx._canon_lifted) == (lift, canon, canon_lifted)
    fresh_lift, fresh_canon, fresh_canon_lifted = field._byte_codec.__wrapped__(5, width, ctx.deg)
    assert fresh_lift is not lift
    rng = SplitMix64(513)
    for _ in range(20):
        v = tuple(rng.draws(5, ctx.deg))
        assert lift(v) == fresh_lift(v) and canon(lift(v)) == fresh_canon(fresh_lift(v)) == v
        slots = rng.draws(256**width, ctx.deg)
        packed = sum(s << 8 * width * i for i, s in enumerate(slots))
        assert canon(packed) == fresh_canon(packed) == tuple(s % 5 for s in slots)
        assert canon_lifted(packed) == fresh_canon_lifted(packed) == lift(canon(packed))


@pytest.mark.parametrize("q,n", [(3, 5), (5, 3)])
def test_fold_on_scan_candidates_with_longest_tails(q, n, rand_felt):
    # the scan builds an engine for a candidate before it knows whether it
    # is irreducible, and the engine never divides, so it must be exact for
    # any monic f.  Both tails have degree 2n - 1, so a reduction may fold
    # 2n - 1 times: every a_i = q - 1 (f(1) = 0 at these points, reducible)
    # and every c_i = -a_i = q - 1 (the largest weight sum c_i)
    deg = 2 * n
    for a in (q - 1, 1):
        modulus = (a,) * deg + (1,)
        ctx = field._OddContext(q, n, modulus)
        assert ctx.modulus == modulus and (a == 1 or not _irreducible(q, modulus))
        _check_fold_at_bound(ctx)
        rng = SplitMix64(q * n + a)
        for terms in (1, n, deg):
            xs = [rand_felt(ctx, rng) for _ in range(terms)]
            ys = [rand_felt(ctx, rng) for _ in range(terms)]
            assert ctx.mul(xs[0], ys[0]) == reference_field.mul(ctx, xs[0], ys[0])
            assert ctx.dot(xs, ys) == reference_field.dot(ctx, xs, ys)


def test_fold_on_every_candidate_at_q3_n1_and_n3():
    # every monic f of degree 2 and 6 over F_3, the engines the scan could
    # build there: tails of every degree and weight, on 1- and 2-byte slots.
    # Slots of every input at B, and at random values up to B, reduce as
    # the schoolbook rows do.  A width chosen for the first fold alone
    # carries on some of the moduli of degree 6
    rng = SplitMix64(36)
    for n in (1, 3):
        deg = 2 * n
        bound = deg * deg * 4
        for c in range(3**deg):
            ctx = field._OddContext(3, n, tuple(c // 3**i % 3 for i in range(deg)) + (1,))
            for slots in ([bound] * (2 * deg - 1), [rng.below(bound + 1) for _ in range(2 * deg - 1)]):
                p = sum(v << ctx._bits * k for k, v in enumerate(slots))
                assert ctx._reduce(p) == ctx.from_coeffs(reference_field.reduce(ctx, slots)), ctx.modulus


def test_gf2_fold_on_every_candidate_at_n1_n3_and_n5():
    # the q = 2 sibling of the test above: every monic f of degree 2, 6 and
    # 10 over F_2, so tails of every degree and weight up to 2n - 1.  mul
    # on all-ones and top-bit operands, 2n-term dots, an n-row combination
    # and spread inputs whose slots hold up to 63, the most an XOR of
    # products leaves, reduce as the schoolbook rows do
    rng = SplitMix64(210)
    for n in (1, 3, 5):
        deg = 2 * n
        for c in range(2**deg):
            ctx = field._Gf2Context(2, n, tuple(c >> i & 1 for i in range(deg)) + (1,))
            ones, top = (1 << deg) - 1, 1 << (deg - 1)
            for a, b in ((ones, ones), (top, top), (ones, top)):
                assert ctx.mul(a, b) == reference_field.mul(ctx, a, b), ctx.modulus
            xs = [ones] * (deg - 1) + [top]
            full = reference_field.dot(ctx, xs, xs)
            assert ctx.dot([ones] * deg, [ones] * deg) == ctx.zero
            assert ctx.dot(xs, xs) == full, ctx.modulus
            square = reference_field.dot(ctx, [ones] * n, [ones] * n)
            assert ctx.combine_rows([ones] * n, ctx.pack_rows([[ones] * n] * n)) == (square,) * n, ctx.modulus
            for slots in ([63] * (2 * deg - 1), [rng.below(64) for _ in range(2 * deg - 1)]):
                p = sum(v << 8 * k for k, v in enumerate(slots))
                assert ctx._reduce(p) == ctx.from_coeffs(reference_field.reduce(ctx, slots)), ctx.modulus


@pytest.mark.parametrize("q,n,width", [(3, 9, 2), (3, 19, 2), (5, 13, 2), (31, 5, 3), (127, 3, 3), (131, 3, 3),
                                       (251, 3, 4), (65521, 1, 5), (4294967291, 1, 9)])
def test_slot_width_is_least_byte_count(q, n, width):
    # the width is the least byte count that holds every fold, tried from
    # 1 byte up: 3, 5, 6 and 7 bytes are as good as 4 and 8.  A wider slot
    # lengthens every odd-q product, fold and unpack at the benchmark
    # points (2 bytes at (3,9), (3,19) and (5,13)); the width comes from
    # the modulus, so a change to the fold's bound could widen it with
    # every other test still passing
    assert make_context(q, n)._bits == 8 * width


@pytest.mark.parametrize("q,n", [(2, 5), (2, 15), (3, 5), (5, 3), (251, 3)])
def test_products_reduce_once(spy, q, n, rand_felt):
    # machine-independent guard of the one product kernel on each engine:
    # mul and dot sum unreduced products and reduce once, and combine_rows
    # reduces once per output at odd q; at q = 2 it folds all n outputs at
    # once and makes no _reduce
    ctx = make_context(q, n)
    rng = SplitMix64(11 * q + n)
    xs = [rand_felt(ctx, rng) for _ in range(2 * n)]
    table = [[rand_felt(ctx, rng) for _ in range(n)] for _ in range(n)]
    rows = ctx.pack_rows(table)
    reduced = spy(type(ctx), "_reduce")["_reduce"]
    assert ctx.mul(xs[0], xs[1]) == reference_field.mul(ctx, xs[0], xs[1])
    assert len(reduced) == 1
    assert ctx.dot(xs, xs[::-1]) == reference_field.dot(ctx, xs, xs[::-1])
    assert len(reduced) == 2
    values = xs[:n]
    expected = tuple(reference_field.dot(ctx, values, col) for col in zip(*table))
    assert ctx.combine_rows(values, rows) == expected
    assert len(reduced) == 2 + (0 if q == 2 else n)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 5), (2, 31), (3, 9), (3, 19), (5, 13), (4294967291, 1)])
def test_combine_rows_on_non_square_tables(q, n, rand_felt):
    # 1 x n, k x n and n x n tables (the encoder's is k x n, the Moore
    # inverse n x n) against one dot per column, with zero values, zero
    # rows, and all-(q-1) entries that fill a field's slots to k * 2n * (q-1)^2
    ctx = make_context(q, n)
    rng = SplitMix64(17 * q + n)
    top = ctx.from_coeffs([q - 1] * ctx.deg)
    for height in sorted({1, (n + 1) // 2, n}):
        table = [[rand_felt(ctx, rng) for _ in range(n)] for _ in range(height)]
        table[-1] = [ctx.zero] * n
        cases = [
            (table, [rand_felt(ctx, rng) for _ in range(height)]),
            (table, [ctx.zero] * height),
            ([[top] * n] * height, [top] * height),
        ]
        for tbl, values in cases:
            got = ctx.combine_rows(values, ctx.pack_rows(tbl))
            assert got == tuple(ctx.dot(values, col) for col in zip(*tbl))


@pytest.mark.parametrize("n", [1, 3, 5, 31])
def test_gf2_combine_rows_fold_matches_schoolbook(n, rand_felt):
    # q = 2 combine_rows folds all n output fields at once by the tail.
    # Tails of degree 2n - 1 take the most rounds (X^(2n-1) alone lowers the
    # top degree by one per round), on engines the modulus scan may build;
    # (2,31) runs on its canonical modulus.  Random, all-ones and zero
    # values on tables with a zero row, against a schoolbook dot per column
    deg = 2 * n
    if n == 31:
        engines, heights = [make_context(2, n)], (1, 2)
    else:
        tails = [(0,) * (deg - 1) + (1,), (1,) * deg, (1,) + (0,) * (deg - 2) + (1,)]
        engines, heights = [field._Gf2Context(2, n, tail + (1,)) for tail in tails], (1, n, deg)
    rng = SplitMix64(2 * n + 1)
    for ctx in engines:
        for height in heights:
            table = [[rand_felt(ctx, rng) for _ in range(n)] for _ in range(height)]
            table[-1] = [ctx.zero] * n
            for values in ([rand_felt(ctx, rng) for _ in range(height)], [(1 << deg) - 1] * height,
                           [ctx.zero] * height):
                expected = tuple(reference_field.dot(ctx, values, col) for col in zip(*table))
                assert ctx.combine_rows(values, ctx.pack_rows(table)) == expected, ctx.modulus


@pytest.mark.parametrize("q,n", [(3, 19), (5, 13), (4294967291, 1)])
def test_fq_combine_at_slot_bound(q, n, rand_felt):
    # 2n digits of q - 1 against 2n all-(q-1) elements fill every slot to
    # 2n * (q-1)^2; (4294967291, 1) packs on the byte-cut path
    ctx = make_context(q, n)
    top = [ctx.from_coeffs([q - 1] * ctx.deg)] * ctx.deg
    digits = [q - 1] * ctx.deg
    assert ctx.fq_combine(top, [digits]) == (reference_field.apply_linear(ctx, top, digits),)
    rng = SplitMix64(q + 3 * n)
    for terms in (0, 1, n, 2 * n):
        elems = [rand_felt(ctx, rng) for _ in range(terms)]
        rows = [[rng.below(q) for _ in range(terms)] for _ in range(3)]
        assert ctx.fq_combine(elems, rows) == tuple(reference_field.apply_linear(ctx, elems, r) for r in rows)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_subfield_elements_are_digit_combinations(q):
    # entry i is (i // q) + (i % q) * w, the digit of 1 the more significant
    ctx = make_context(q, 3)
    w = ctx.fq2_w()
    elems = ctx.subfield_elements(2)
    assert len(elems) == q * q
    for i, a in enumerate(elems):
        assert (a,) == ctx.fq_combine((ctx.one, w), [(i // q, i % q)])
        assert a == ctx.add(from_base(ctx, i // q), ctx.mul(from_base(ctx, i % q), w))


@pytest.mark.parametrize("q,n", [(3, 5), (5, 13), (3, 19), (251, 3)])
def test_packed_kernel_ignores_host_byte_order(monkeypatch, q, n, rand_felt):
    # on a big-endian host an array's items are big-endian; the slot layout
    # must come out the same, so products match the schoolbook oracle.
    # Below q = 128 the byte codec names its byte order itself, and (251, 3)
    # packs by shift sums, which have none; the engine never reads
    # sys.byteorder, and this keeps a host-order branch from coming back
    modulus = canonical_modulus(q, n)
    monkeypatch.setattr(sys, "byteorder", "big")
    ctx = field._OddContext(q, n, modulus)
    rng = SplitMix64(q + n)
    for _ in range(50):
        a, b = rand_felt(ctx, rng), rand_felt(ctx, rng)
        assert ctx.mul(a, b) == reference_field.mul(ctx, a, b)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3), (5, 3)])
def test_fq_rank_edge_cases(q, n, rand_felt):
    ctx = make_context(q, n)
    assert ctx.fq_rank([]) == 0
    assert ctx.fq_rank([ctx.zero] * 4) == 0
    a = rand_felt(ctx, SplitMix64(q * n))
    a = a if a != ctx.zero else ctx.one
    assert ctx.fq_rank([a, a, ctx.zero, a]) == 1
    # F_q-multiples of one element span a line
    assert ctx.fq_rank([ctx.mul(from_base(ctx, c), a) for c in range(q)]) == 1
    monomials = ctx.frob_images(0)
    assert ctx.fq_rank(list(monomials) * 2) == 2 * n
    assert ctx.fq_rank(ctx.subfield_basis(2) + ctx.subfield_basis(n)) == n + 1


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3), (5, 3)])
def test_fq_rank_matches_coefficient_matrix_rank(q, n, rand_felt):
    # oracle: generic elimination over K of the coefficient matrix, which
    # has the same rank as over F_q
    ctx = make_context(q, n)
    rng = SplitMix64(11 * q + n)
    for count in (1, 2, n, 2 * n, 2 * n + 3):
        for _ in range(6):
            elems = [rand_felt(ctx, rng) for _ in range(count)]
            # sums of earlier elements force dependent rows
            elems += [ctx.add(elems[0], elems[-1]), ctx.sub(elems[-1], elems[0])]
            rows = [[from_base(ctx, c) for c in ctx.to_coeffs(e)] for e in elems]
            assert ctx.fq_rank(elems) == matrix_rank(ctx, rows)


def test_lagrange_order_of_multiplicative_group(rand_felt):
    for q, n in [(2, 3), (3, 1), (3, 3)]:
        ctx = make_context(q, n)
        rng = SplitMix64(5)
        order = q ** ctx.deg - 1
        for _ in range(20):
            a = rand_felt(ctx, rng)
            if a != ctx.zero:
                assert ctx.pow_elem(a, order) == ctx.one


# -- Frobenius and trace ----------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5)])
def test_frobenius_is_q_power(q, n, rand_felt):
    ctx = make_context(q, n)
    rng = SplitMix64(23)
    for _ in range(15):
        a = rand_felt(ctx, rng)
        for j in range(2 * n + 2):
            assert ctx.frobenius(a, j) == ctx.pow_elem(a, q ** (j % (2 * n)))


def test_frobenius_is_additive_and_multiplicative(rand_felt):
    ctx = make_context(3, 3)
    rng = SplitMix64(31)
    for _ in range(40):
        a, b = rand_felt(ctx, rng), rand_felt(ctx, rng)
        assert ctx.frobenius(ctx.add(a, b), 1) == ctx.add(ctx.frobenius(a, 1), ctx.frobenius(b, 1))
        assert ctx.frobenius(ctx.mul(a, b), 3) == ctx.mul(ctx.frobenius(a, 3), ctx.frobenius(b, 3))


#: A lone byte table at (2,1), small points, the benchmark's three and a
#: prime from 131 up.
TRACE_POINTS = [(2, 1), (3, 3), (2, 31), (3, 19), (5, 13), (131, 3)]


@pytest.mark.parametrize("q,n", TRACE_POINTS)
def test_trace_by_doubling_matches_sum_of_powers(q, n):
    # every divisor e of 2n, e = 2n (the identity, 2n/e = 1) included: the
    # doubling, run first on a fresh context, against the sum of the
    # Frobenius images over every multiple of e that it replaced
    ctx = make_context(q, n)
    divisors = [e for e in range(1, ctx.deg + 1) if ctx.deg % e == 0]
    got = {e: ctx._trace_images(e) for e in divisors}
    for e in divisors:
        assert got[e] == reference_field.trace_images_by_sum(ctx, e), e


def test_trace_images_once_per_degree(spy):
    # rel_trace's table and subfield_basis(2) share one doubling; a fresh
    # context, with no rel_trace first, makes it in subfield_basis(2)
    ctx = make_context(2, 31)
    ctx.rel_trace(ctx.gen)
    calls = spy(type(ctx), "_apply_linear")
    assert len(ctx.subfield_basis(2)) == 2
    assert calls == {"_apply_linear": []}
    assert len(make_context(2, 31).subfield_basis(2)) == 2
    assert calls["_apply_linear"]


def test_rel_trace_exhaustive_small():
    ctx = make_context(2, 3)
    everything = ctx.subfield_elements(ctx.deg)
    values = set()
    for a in everything:
        tr = ctx.rel_trace(a)
        assert ctx.in_subfield(tr, 2)
        # trace is invariant under the generating automorphism x -> x^(q^2)
        assert ctx.rel_trace(ctx.frobenius(a, 2)) == tr
        values.add(tr)
    # surjectivity onto F_{q^2}
    assert values == set(ctx.subfield_elements(2))


def test_rel_trace_additive(rand_felt):
    ctx = make_context(3, 3)
    rng = SplitMix64(37)
    for _ in range(40):
        a, b = rand_felt(ctx, rng), rand_felt(ctx, rng)
        assert ctx.rel_trace(ctx.add(a, b)) == ctx.add(ctx.rel_trace(a), ctx.rel_trace(b))


# -- subfields --------------------------------------------------------------


def test_subfield_membership_counts():
    ctx = make_context(2, 3)
    everything = ctx.subfield_elements(ctx.deg)
    assert len(everything) == 64
    for e, expected in [(1, 2), (2, 4), (3, 8), (6, 64)]:
        assert sum(ctx.in_subfield(a, e) for a in everything) == expected


def test_subfield_degree_must_divide():
    ctx = make_context(2, 3)
    for bad in (0, 4, 5, 7):
        with pytest.raises(NotADivisorError):
            ctx.in_subfield(ctx.one, bad)


def test_subfield_elements_are_closed_under_arithmetic():
    ctx = make_context(2, 3)
    four = ctx.subfield_elements(2)
    assert len(set(four)) == 4
    for a in four:
        for b in four:
            assert ctx.mul(a, b) in four
            assert ctx.add(a, b) in four


#: Every binary point, odd q up to n = 19, and wide primes down to n = 1.
SUBFIELD_POINTS = (
    [(2, n) for n in range(1, 32, 2)]
    + [(3, n) for n in range(1, 20, 2)]
    + [(5, 1), (5, 3), (5, 13), (7, 1), (7, 11), (11, 3), (13, 3), (251, 3), (65521, 1)]
)


@pytest.mark.parametrize("q,n", SUBFIELD_POINTS)
def test_subfield_basis_matches_kernel_oracle(q, n):
    # the reduced basis of the trace images is the one reduced echelon
    # basis, so it equals the RREF kernel basis of Frobenius^e - id
    ctx = make_context(q, n)
    for e in range(1, 2 * n + 1):
        if 2 * n % e == 0:
            got = [ctx.to_coeffs(b) for b in ctx.subfield_basis(e)]
            assert got == reference_field.subfield_kernel_basis(ctx, e), e


@pytest.mark.parametrize("q,n", [(2, 3), (2, 31), (3, 3), (3, 19), (5, 3), (4294967291, 1)])
def test_reduced_basis_is_reduced_echelon(q, n, rand_felt):
    ctx = make_context(q, n)
    rng = SplitMix64(q + 3 * n)
    a, b = rand_felt(ctx, rng), rand_felt(ctx, rng)
    randoms = [rand_felt(ctx, rng) for _ in range(2 * ctx.deg)]
    inputs = [
        [],
        [ctx.zero] * 3,
        [a, a, ctx.zero, a],
        [a, b, ctx.add(a, b), ctx.sub(a, b), ctx.mul(from_base(ctx, q - 1), b)],
        list(ctx.frob_images(0))[::-1],
        randoms[:3] + [ctx.add(randoms[0], randoms[2])],
        randoms,
    ]
    for elems in inputs:
        basis = ctx._reduced_basis(elems)
        leads = [_lead(ctx.to_coeffs(x)) for x in basis]
        assert leads == sorted(set(leads))
        for x, lead in zip(basis, leads):
            coeffs = ctx.to_coeffs(x)
            assert [coeffs[m] for m in leads] == [int(m == lead) for m in leads]
        assert ctx.fq_rank(basis) == ctx.fq_rank(elems) == len(basis)
        # the basis spans the same space
        assert ctx.fq_rank(list(elems) + list(basis)) == len(basis)


def test_fq2_coords_roundtrip():
    for q, n in [(2, 3), (3, 3), (3, 5)]:
        ctx = make_context(q, n)
        w = ctx.fq2_w()
        assert ctx.in_subfield(w, 2) and not ctx.in_subfield(w, 1)
        for a in ctx.subfield_elements(2):
            s, t = ctx.fq2_coords(a)
            rebuilt = ctx.add(from_base(ctx, s), ctx.mul(from_base(ctx, t), w))
            assert rebuilt == a
        # outside F_{q^2} there are no coordinates: X once read (0, 0)
        for a in (ctx.gen, ctx.add(ctx.gen, w), ctx.pow_elem(ctx.gen, q + 2)):
            assert not ctx.in_subfield(a, 2)
            with pytest.raises(NotInSubfieldError):
                ctx.fq2_coords(a)


# -- norm equation ----------------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (3, 1), (3, 3), (5, 1), (7, 1)])
def test_solve_hermitian_norm_all_targets(q, n):
    ctx = make_context(q, n)
    for a_int in range(1, q):
        a = from_base(ctx, a_int)
        c = ctx.solve_hermitian_norm(a)
        assert ctx.mul(ctx.frobenius(c, 1), c) == a


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 19, 23, 29, 31, 43])
def test_solve_hermitian_norm_matches_scan_oracle(q, n):
    # skipping the candidates j*w when N(w) is a square, and finding the
    # generator once per context, must not change any solution
    ctx = make_context(q, n)
    for a_int in range(1, q):
        a = from_base(ctx, a_int)
        assert ctx.solve_hermitian_norm(a) == reference_field.solve_hermitian_norm_scan(ctx, a)


def test_solve_hermitian_norm_skips_square_norm_candidates(spy):
    # at n = 1 with q = 3 (mod 4), N(w) = 1: the q - 1 candidates j*w all
    # have square norms, and scanning them costs thousands of field calls
    ctx = make_context(10007, 1)
    calls = spy(type(ctx), "add", "mul", "frobenius", "pow_elem")
    c = ctx.solve_hermitian_norm(from_base(ctx, 5))
    assert ctx.mul(ctx.frobenius(c, 1), c) == from_base(ctx, 5)
    total = sum(map(len, calls.values()))
    assert 0 < total < 200, total


@pytest.mark.parametrize("n", [1, 3, 31])
def test_solve_hermitian_norm_binary(n):
    # at q = 2 the discrete-log path has the trivial group F_2* and returns 1
    ctx = make_context(2, n)
    assert ctx.solve_hermitian_norm(ctx.one) == ctx.one


def test_invariant_checks_raise(monkeypatch):
    # the self-checks of subfield_basis and solve_hermitian_norm raise, not
    # assert, so python -O keeps them; each is forced to fail here
    ctx = make_context(3, 3)
    monkeypatch.setattr(ctx, "_reduced_basis", lambda elems: ())
    with pytest.raises(RuntimeError, match="wrong dimension"):
        ctx.subfield_basis(2)
    monkeypatch.undo()
    assert len(ctx.subfield_basis(2)) == 2  # the failed basis was not kept
    ctx.solve_hermitian_norm(from_base(ctx, 2))  # T_1 built on the true pow_elem
    monkeypatch.setattr(ctx, "pow_elem", lambda a, e: ctx.zero)
    with pytest.raises(RuntimeError, match="norm equation"):
        ctx.solve_hermitian_norm(from_base(ctx, 2))


def test_solve_hermitian_norm_rejects_bad_input():
    ctx = make_context(3, 3)
    with pytest.raises(ZeroInputError):
        ctx.solve_hermitian_norm(ctx.zero)
    with pytest.raises(NotInSubfieldError):
        ctx.solve_hermitian_norm(ctx.gen)


# -- serialization ----------------------------------------------------------


def test_felt_json_roundtrip(rand_felt):
    for q, n in [(2, 5), (3, 3)]:
        ctx = make_context(q, n)
        rng = SplitMix64(3)
        for _ in range(50):
            a = rand_felt(ctx, rng)
            assert ctx.felt_from_json(ctx.to_coeffs(a)) == a
        with pytest.raises(ValueError):
            ctx.felt_from_json([0] * (ctx.deg + 1))


def test_from_coeffs_validates():
    ctx = make_context(2, 3)
    with pytest.raises(ValueError):
        ctx.from_coeffs([2] + [0] * 5)
    with pytest.raises(ValueError):
        ctx.from_coeffs([0] * 5)
    octx = make_context(3, 1)
    with pytest.raises(ValueError):
        octx.from_coeffs([3, 0])


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1"])
def test_non_integer_coefficients_rejected(q, n, bad):
    # one check in from_coeffs, which felt_from_json goes through, so a
    # bool or float never becomes an element that prints as true or 1.0
    ctx = make_context(q, n)
    for pos in (0, ctx.deg - 1):
        coeffs = [0] * ctx.deg
        coeffs[pos] = bad
        with pytest.raises(BadElementError, match="integer coefficients"):
            ctx.from_coeffs(coeffs)
        with pytest.raises(BadElementError, match="integer coefficients"):
            ctx.felt_from_json(coeffs)


def test_context_json_cross_check():
    ctx = make_context(2, 3)
    obj = {"q": 2, "n": 3, "modulus": list(ctx.modulus)}
    again = context_from_json_obj(obj)
    assert again.modulus == ctx.modulus
    obj["modulus"] = [1, 0, 1, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        context_from_json_obj(obj)
