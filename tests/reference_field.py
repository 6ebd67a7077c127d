"""Schoolbook field arithmetic, kept as an oracle for the packed engines.

The package multiplies odd-q elements by packing coefficient tuples into
single ints (see hermrank.field).  These are the coefficient-by-coefficient
loops it replaced: the product as a convolution followed by reduction with
the rows X^(2n+s) mod f, and an F_q-linear map applied from its monomial
images.  They read only q, n and the modulus of a context, so a fault in
the packed kernel cannot hide in them.  The product, sum and dot read and
write elements through to_coeffs and from_coeffs, so they serve the q = 2
engine as well.  For q = 2 the linear map is also kept as the bit walk over
a packed element that the engine's nibble tables replaced, with the
Frobenius images by repeated squaring.

The modulus scan below serves every q, q = 2 included: Rabin's test on
coefficient lists, with its own remainder and gcd, against the package's
Ben-Or test.  Berlekamp's test on the field engines, which the package's
scan once ran, is kept beside it as a second oracle.

The subfield oracle is the list Gauss-Jordan the package once used for
subfield bases: F_{q^e} as the kernel of Frobenius^e - id, with the RREF
kernel basis ordered by free column, against the package's reduced echelon
basis of the trace images from the engines' own elimination.  It works on
coefficient lists, so it serves q = 2 as well.

The trace oracle is the sum the package once formed for the trace
images: the engine's Frobenius images over every multiple of e, against
the package's doubling.

The norm-equation oracle is the solver the package once used: it scans the
candidates i + j*w from idx = 1 for every right-hand side, with no skip of
the candidates j*w whose norms are all squares.
"""

import functools
import math

from hermrank import field
from hermrank.field import _prime_factors


def from_base(ctx, c):
    """The integer residue c mod q as a constant, i.e. an F_q element."""
    return ctx.from_coeffs([c % ctx.q] + [0] * (ctx.deg - 1))


@functools.lru_cache(maxsize=None)
def reduction_rows(q, modulus):
    """X^(deg+s) mod f for s = 0 .. deg-2, as coefficient lists."""
    deg = len(modulus) - 1
    red = []
    v = [(-c) % q for c in modulus[:deg]]
    for _ in range(deg - 1):
        red.append(tuple(v))
        carry = v[deg - 1]
        v = [0] + v[: deg - 1]
        if carry:
            v = [(x + carry * r) % q for x, r in zip(v, red[0])]
    return red


def mul(ctx, a, b):
    deg = ctx.deg
    a, b = ctx.to_coeffs(a), ctx.to_coeffs(b)
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return ctx.from_coeffs(reduce(ctx, prod))


def reduce(ctx, coeffs):
    """The 2n coefficients of the polynomial with the given coefficients,
    of degree below 4n - 1, reduced mod f through the rows X^(2n+s) mod f."""
    q, deg = ctx.q, ctx.deg
    acc = list(coeffs[:deg])
    for hi, row in zip(coeffs[deg:], reduction_rows(q, ctx.modulus)):
        if hi:
            acc = [a + hi * r for a, r in zip(acc, row)]
    return tuple(v % q for v in acc)


def add(ctx, a, b):
    return ctx.from_coeffs([(x + y) % ctx.q for x, y in zip(ctx.to_coeffs(a), ctx.to_coeffs(b))])


def neg(ctx, a):
    return ctx.from_coeffs([(-x) % ctx.q for x in ctx.to_coeffs(a)])


def dot(ctx, xs, ys):
    acc = ctx.zero
    for x, y in zip(xs, ys):
        acc = add(ctx, acc, mul(ctx, x, y))
    return acc


def pow_elem(ctx, a, e):
    r = ctx.one
    while e:
        if e & 1:
            r = mul(ctx, r, a)
        a = mul(ctx, a, a)
        e >>= 1
    return r


def apply_linear(ctx, images, a):
    """The F_q-linear map with images[i] = image of X^i, applied to a."""
    q, deg = ctx.q, ctx.deg
    acc = [0] * deg
    for i, c in enumerate(a):
        if c:
            row = images[i]
            for k in range(deg):
                acc[k] += c * row[k]
    return tuple(v % q for v in acc)


@functools.lru_cache(maxsize=None)
def frob_images(ctx, j):
    """(X^i)^(q^j) for i = 0 .. 2n-1, by schoolbook powering."""
    y = pow_elem(ctx, ctx.gen, ctx.q ** (j % ctx.deg))
    out = [ctx.one]
    for _ in range(ctx.deg - 1):
        out.append(mul(ctx, out[-1], y))
    return tuple(out)


def frobenius(ctx, a, j):
    return apply_linear(ctx, frob_images(ctx, j), a)


def rel_trace(ctx, a):
    acc = ctx.zero
    for i in range(ctx.n):
        acc = add(ctx, acc, frobenius(ctx, a, 2 * i))
    return acc


def trace_images_by_sum(ctx, e):
    """Tr_{K/F_{q^e}}(X^i) for i = 0 .. 2n-1 as the package once formed
    them: the sum of the engine's Frobenius images over every multiple j of
    e below 2n, each table built."""
    acc = list(ctx.frob_images(0))
    for j in range(e, ctx.deg, e):
        acc = list(map(ctx.add, acc, ctx.frob_images(j)))
    return tuple(acc)


def gf2_apply_linear(images, a):
    """The q = 2 linear map with images[i] = image of X^i, applied to the
    packed element a one set bit at a time: the kernel the engine's nibble
    tables replaced."""
    acc = 0
    while a:
        i = (a & -a).bit_length() - 1
        acc ^= images[i]
        a &= a - 1
    return acc


def gf2_frob_images(ctx):
    """(X^i)^(2^j) for i = 0 .. 2n-1, one tuple per j = 0 .. 2n-1, each
    squaring the entries of the one before with the engine's mul, which no
    linear map enters."""
    images = tuple(1 << i for i in range(ctx.deg))
    for _ in range(ctx.deg):
        yield images
        images = tuple(ctx.mul(x, x) for x in images)


# -- the modulus scan ---------------------------------------------------------


def _pq_trim(a: list[int]) -> list[int]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def pq_rem(a: list[int], b: list[int], q: int) -> list[int]:
    """a mod b over F_q by long division, on coefficient lists lowest
    first, with the high zeros of the remainder trimmed."""
    a = a[:]
    db = len(b) - 1
    inv_lead = pow(b[db], -1, q)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            scale = (c * inv_lead) % q
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - scale * b[j]) % q
    return _pq_trim(a[:db])


def _pq_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = _pq_trim(a[:]), _pq_trim(b[:])
    while b:
        a, b = b, pq_rem(a, b, q)
    return a


def pq_mulmod(a, b, f, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    out = [v % q for v in out]
    return pq_rem(out, f, q)


def pq_powmod(base, e, f, q):
    r = [1]
    base = pq_rem(base, f, q)
    while e:
        if e & 1:
            r = pq_mulmod(r, base, f, q)
        base = pq_mulmod(base, base, f, q)
        e >>= 1
    return r


def pq_irreducible(coeffs, q):
    deg = len(coeffs) - 1
    x = [0, 1]
    if _pq_trim(pq_powmod(x, q**deg, coeffs, q)) != x:
        return False
    for p in _prime_factors(deg):
        h = pq_powmod(x, q ** (deg // p), coeffs, q)
        h = h + [0] * (2 - len(h))
        h[1] = (h[1] - 1) % q
        if len(_pq_gcd(coeffs, h, q)) > 1:
            return False
    return True


def berlekamp_irreducible(q, coeffs):
    """Berlekamp's test for the monic f = coeffs of even degree D, on the
    package's engine for F_q[X]/(f), with no root filter.

    First, x^(q^D) = x mod f: then f divides X^(q^D) - X, whose derivative
    is -1, so f is squarefree.  For a squarefree f = f_1 ... f_r, the
    Chinese remainder theorem splits F_q[X]/(f) into the fields
    F_q[X]/(f_i), and the kernel of the F_q-linear map a -> a^q - a is the
    copy of F_q in each, of dimension r.  So f is irreducible exactly when
    that map, the monomial images of Frobenius minus the identity, has
    F_q-rank D - 1.  The first step cannot be dropped: for a power g^e of
    an irreducible g the kernel is F_q alone too, so the rank step passes
    it.
    """
    deg = len(coeffs) - 1
    ring = field._engine(q)(q, deg // 2, tuple(coeffs))
    frob, x = ring._frob_rows(1), ring.gen
    for _ in range(deg):
        x = ring._apply_linear(frob, x)
    if x != ring.gen:
        return False
    diffs = [ring.sub(a, b) for a, b in zip(ring.frob_images(1), ring.frob_images(0))]
    return ring.fq_rank(diffs) == deg - 1


def scan_modulus(q, n):
    """First monic irreducible of degree 2n in the order canonical_modulus
    documents, found with the schoolbook Rabin test."""
    deg = 2 * n
    for c in range(q**deg):
        digits = []
        v = c
        for _ in range(deg):
            digits.append(v % q)
            v //= q
        if pq_irreducible(digits + [1], q):
            return tuple(digits) + (1,)
    raise AssertionError("no irreducible found")


# -- the subfield oracle ------------------------------------------------------


def _fq_rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod q; returns (rows, pivot column list)."""
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % q != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(v * inv) % q for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % q:
                f = rows[i][c] % q
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _fq_kernel(rows: list[list[int]], q: int) -> list[list[int]]:
    """Canonical basis of the right kernel of the matrix, ordered by free column."""
    ncols = len(rows[0]) if rows else 0
    rref, pivots = _fq_rref(rows, q)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for prow, pcol in enumerate(pivots):
            vec[pcol] = (-rref[prow][free]) % q
        basis.append(vec)
    return basis


def subfield_kernel_basis(ctx, e):
    """Coefficient lists of the kernel basis of Frobenius^e - id, the map
    whose column i holds (X^i)^(q^e) - X^i; X^(q^e) comes from pow_elem,
    not from the Frobenius tables."""
    q, deg = ctx.q, ctx.deg
    y = ctx.pow_elem(ctx.gen, q**e)
    cols = [ctx.to_coeffs(ctx.one)]
    for _ in range(deg - 1):
        cols.append(ctx.to_coeffs(ctx.mul(ctx.from_coeffs(cols[-1]), y)))
    rows = [[(cols[i][r] - (i == r)) % q for i in range(deg)] for r in range(deg)]
    return _fq_kernel(rows, q)


def solve_hermitian_norm_scan(ctx, a):
    """c in F_{q^2} with c^(q+1) = a for nonzero a in F_q, odd q: the first
    norm generator g = i + j*w in the digit order of idx = i*q + j, scanned
    from idx = 1, then a baby-step/giant-step discrete log of a to base N(g)."""
    q = ctx.q
    a_int = ctx.to_coeffs(a)[0]
    factors = _prime_factors(q - 1)
    u1, u2 = ctx.subfield_basis(2)
    for idx in range(1, 64 * q):
        i, j = divmod(idx, q)
        g = ctx.add(ctx.mul(from_base(ctx, i), u1), ctx.mul(from_base(ctx, j), u2))
        h_int = ctx.to_coeffs(ctx.mul(ctx.frobenius(g, 1), g))[0]
        if h_int and all(pow(h_int, (q - 1) // p, q) != 1 for p in factors):
            break
    m = math.isqrt(q - 1) + 1
    baby = {}
    v = 1
    for jj in range(m):
        baby.setdefault(v, jj)
        v = v * h_int % q
    giant = pow(h_int, -m, q)
    v = a_int
    for ii in range(m + 1):
        if v in baby:
            return ctx.pow_elem(g, ii * m + baby[v])
        v = v * giant % q
