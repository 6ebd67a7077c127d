"""Arithmetic in F_{q^(2n)} = F_q[X]/(f) written from the modulus alone.

The benchmark checks hermrank's outputs with this module instead of with
hermrank's own field, matrix and rank code, so a fault in the code under
measurement cannot also hide in the check.  It takes only what the JSON
format fixes: the monic modulus f as a coefficient list, and elements as
coefficient vectors (packed into an int, bit i = coefficient of X^i, for
q = 2; a tuple of 2n residues for odd q).

Three checks are built on it:

* ``rank``: the rank over F_{q^2} of a vector (e_0, ..., e_{n-1}) in K^n,
  which is the F_{q^2}-dimension of span{e_r}; it is computed as half the
  F_q-rank of {e_r} together with {w * e_r} for a fixed w in F_{q^2} \\ F_q.
  No basis of K is involved, unlike hermrank's matrix path.
* ``is_hermitian``: the matrix A[i][r] = Tr(alpha_i^q * c_r) of a word over
  the code's basis satisfies A[i][r] = A[r][i]^q.  Entries are read through
  F_q-linear functionals precomputed from f, so a check costs 2n^2 dot
  products.
* ``gram_ok``: Tr(alpha_i^(q^n) * alpha_j) is 1 on the diagonal and 0 off it.

Tr is the relative trace K -> F_{q^2}, x -> sum_{i<n} x^(q^(2i)).
"""

from __future__ import annotations

from typing import Sequence


class OwnField:
    """F_q[X]/(f) with f monic of degree 2n, independent of hermrank."""

    def __init__(self, q: int, n: int, modulus: Sequence[int]):
        mod = [int(c) for c in modulus]
        deg = 2 * n
        if len(mod) != deg + 1 or mod[-1] != 1 or any(not 0 <= c < q for c in mod):
            raise ValueError("modulus must be monic of degree 2n with reduced coefficients")
        self.q, self.n, self.deg = q, n, deg
        self.packed = q == 2
        self._f = mod
        self._fbits = sum(1 << i for i, c in enumerate(mod) if c)
        self.zero = self.elem([0] * deg)
        self.one = self.elem([1] + [0] * (deg - 1))
        x = self.elem([0, 1] + [0] * (deg - 2))
        self._frob1 = self._power_images(self.pow(x, q))
        self._frobn = self._power_images(self.pow(x, q**n))
        # Tr(X^k) for every monomial, from the images of x -> x^(q^2)
        frob2 = self._power_images(self.pow(x, q * q))
        tr = []
        for k in range(deg):
            z = acc = self._monomial(k)
            for _ in range(n - 1):
                z = self.apply(frob2, z)
                acc = self.add(acc, z)
            tr.append(acc)
        # w: a trace value outside F_q; (coefficient 0, coefficient p) are
        # coordinates on F_{q^2} because w has a nonzero coefficient at p
        self.w = next(t for t in tr if self._coeffs(t)[1:] != [0] * (deg - 1))
        wc = self._coeffs(self.w)
        self._p = next(i for i in range(1, deg) if wc[i])
        if self.apply(frob2, self.w) != self.w:
            raise ValueError("trace value is not in F_{q^2}; the modulus is not irreducible")
        self._w0, self._wp = wc[0], wc[self._p]
        wq = self._coeffs(self.apply(self._frob1, self.w))
        self._wq0, self._wqp = wq[0], wq[self._p]
        self._tr0 = [self._coeffs(t)[0] for t in tr]
        self._trp = [self._coeffs(t)[self._p] for t in tr]

    # -- elements --------------------------------------------------------

    def elem(self, x) -> object:
        """Own form of an element given as a coefficient list, a packed int
        (q = 2) or a coefficient tuple (odd q)."""
        if self.packed:
            if isinstance(x, int):
                return x
            return sum(1 << i for i, c in enumerate(x) if c)
        return tuple(int(c) for c in x)

    def _coeffs(self, a) -> list:
        if self.packed:
            return [(a >> i) & 1 for i in range(self.deg)]
        return list(a)

    def _monomial(self, k: int):
        return self.elem([1 if i == k else 0 for i in range(self.deg)])

    def add(self, a, b):
        if self.packed:
            return a ^ b
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        if self.packed:
            return a ^ b
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def mul(self, a, b):
        deg = self.deg
        if self.packed:
            p = 0
            while b:
                if b & 1:
                    p ^= a
                a <<= 1
                b >>= 1
            while p.bit_length() > deg:
                p ^= self._fbits << (p.bit_length() - 1 - deg)
            return p
        q, f = self.q, self._f
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for top in range(2 * deg - 2, deg - 1, -1):
            c = prod[top] % q
            if c:
                base = top - deg
                for j in range(deg):
                    prod[base + j] -= c * f[j]
        return tuple(v % q for v in prod[:deg])

    def pow(self, a, e: int):
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def _power_images(self, y) -> list:
        """Images of X^0 .. X^(2n-1) under the ring map X -> y."""
        out, p = [], self.one
        for _ in range(self.deg):
            out.append(p)
            p = self.mul(p, y)
        return out

    def apply(self, images: Sequence, a):
        """Apply the F_q-linear map with the given monomial images."""
        if self.packed:
            acc, i = 0, 0
            while a:
                if a & 1:
                    acc ^= images[i]
                a >>= 1
                i += 1
            return acc
        acc = [0] * self.deg
        for c, img in zip(a, images):
            if c:
                for k, v in enumerate(img):
                    acc[k] += c * v
        q = self.q
        return tuple(v % q for v in acc)

    def times_x(self, a):
        """a * X, by one shift and at most one reduction step."""
        if self.packed:
            a <<= 1
            return a ^ self._fbits if a >> self.deg else a
        q, top = self.q, a[-1]
        return tuple((lo - top * c) % q for lo, c in zip((0,) + a[:-1], self._f))

    def conj_n(self, a):
        """a^(q^n): the involution of K fixing F_{q^n}."""
        return self.apply(self._frobn, a)

    # -- F_q-linear functionals ------------------------------------------

    def _functional(self, values: Sequence[int]):
        if self.packed:
            return sum(1 << k for k, v in enumerate(values) if v)
        return tuple(values)

    def _eval(self, fn, a) -> int:
        if self.packed:
            return (fn & a).bit_count() & 1
        return sum(u * v for u, v in zip(fn, a)) % self.q

    def _trace_coords(self, a) -> tuple:
        c = self._coeffs(a)
        q = self.q
        return (
            sum(u * v for u, v in zip(self._tr0, c)) % q,
            sum(u * v for u, v in zip(self._trp, c)) % q,
        )

    def _conj_coords(self, y0: int, yp: int) -> tuple:
        """(y0, yp) coordinates of y^q for y in F_{q^2} given by (y0, yp)."""
        q = self.q
        t = yp * pow(self._wp, -1, q) % q
        s = (y0 - t * self._w0) % q
        return (s + t * self._wq0) % q, t * self._wqp % q

    # -- checks -----------------------------------------------------------

    def rank(self, vec: Sequence) -> int:
        """F_{q^2}-dimension of the span of the entries of vec."""
        rows = []
        for e in vec:
            e = self.elem(e)
            rows.append(e)
            rows.append(self.mul(self.w, e))
        full = _fq_rank(rows, self.q) if not self.packed else _f2_rank(rows)
        if full % 2:
            raise ValueError("span is not closed under F_{q^2}: odd F_q-rank")
        return full // 2

    def basis_functionals(self, alpha: Sequence) -> list:
        """For each basis element alpha_i, the pair of F_q-functionals
        c -> coordinates of Tr(alpha_i^q * c)."""
        out = []
        for a in alpha:
            z = self.apply(self._frob1, self.elem(a))
            s_vals, t_vals = [], []
            for _ in range(self.deg):
                s, t = self._trace_coords(z)
                s_vals.append(s)
                t_vals.append(t)
                z = self.times_x(z)
            out.append((self._functional(s_vals), self._functional(t_vals)))
        return out

    def is_hermitian(self, functionals: list, word: Sequence) -> bool:
        cols = [self.elem(c) for c in word]
        n = len(cols)
        entry = [[(self._eval(fs, c), self._eval(ft, c)) for c in cols] for fs, ft in functionals]
        return all(
            entry[i][r] == self._conj_coords(*entry[r][i]) for i in range(n) for r in range(i, n)
        )

    def gram_ok(self, alpha: Sequence) -> bool:
        alpha = [self.elem(a) for a in alpha]
        for i, a in enumerate(alpha):
            ac = self.conj_n(a)
            for j, b in enumerate(alpha):
                want = (1, 0) if i == j else (0, 0)
                if self._trace_coords(self.mul(ac, b)) != want:
                    return False
        return True

    def in_half_field(self, a) -> bool:
        """True when a lies in F_{q^n}."""
        a = self.elem(a)
        return self.conj_n(a) == a


def _f2_rank(rows: list) -> int:
    rank, pool = 0, [r for r in rows if r]
    while pool:
        piv = pool.pop()
        rank += 1
        top = 1 << (piv.bit_length() - 1)
        pool = [r ^ piv if r & top else r for r in pool]
        pool = [r for r in pool if r]
    return rank


def _fq_rank(rows: list, q: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, q)
        prow = [v * inv % q for v in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            c = work[i][col]
            if c:
                work[i] = [(x - c * y) % q for x, y in zip(work[i], prow)]
        rank += 1
    return rank
