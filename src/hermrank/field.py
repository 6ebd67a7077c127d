"""Arithmetic for the field tower F_q < F_{q^2} and F_{q^n} < F_{q^(2n)}.

Everything happens inside the single extension K = F_q[X]/(f) where f is the
canonical monic irreducible of degree 2n over the prime field F_q.  Subfields
are not separate types: an element of F_{q^2} or F_{q^n} is an ordinary field
element that happens to be fixed by the appropriate Frobenius power, and
``in_subfield`` tests exactly that.

Element representation depends on the characteristic:

* q = 2: an element is a plain ``int`` whose bits are the coefficients
  (bit i = coefficient of X^i).  Addition is XOR.  A product spreads the
  bits to one byte each (Kronecker substitution) and compacts its result.
* odd prime q: an element is a ``tuple`` of 2n ints in [0, q), coefficient
  of X^i at position i.  Arithmetic packs a tuple into one int with a fixed
  slot of w bytes per coefficient (Kronecker substitution).

Every product in the package is one kernel: form unreduced products, add
them, reduce once.  The unreduced product of two lifted values is their
int product, whose slot k holds the k-th coefficient of the convolution.
Each engine supplies only the rest of the kernel, and ``FieldContext``
writes ``mul``, ``dot``, ``pack_rows``, ``combine_rows`` and ``_to_rows``
once on top, and the q = 2 engine keeps its own packed rows and
linear-map tables (below).  The decoder's skew register
(``hermrank.codec``) forms its one feedback sum, for Berlekamp-Massey's
discrepancies and for every step of its run, on the same hooks, under
the same bounds:

* ``_lift`` maps an element to the int it multiplies as, its packed
  slots.  For q = 2 a slot is one byte: bit i of the element goes to byte
  i, by ``bin``, one ``bytes.translate`` of its digits and
  ``int.from_bytes``.  Elements stay compact; only products are spread.
* ``_sum`` adds unreduced products: XOR for q = 2, ``sum`` for odd q.
* ``_reduce`` gives the canonical element of an unreduced product or sum
  of them.  It folds the high slots in by the modulus's short tail
  (below).  Then q = 2 compacts the 2n low slots back to bits, and odd
  q's ``_canon`` takes them to the canonical tuple (below).
* ``_stride`` is the width in bits of one field of a packed row (below):
  4n bits for q = 2, whose rows stay compact, and 4n slots (2 *
  ``_split`` bits) for odd q.

``mul`` is one product and one reduction, and ``dot`` sums up to 2n
products before its one reduction, so a slot of an odd-q input to
``_reduce`` holds at most B = 2n * 2n * (q-1)^2.  At q = 2 a product's
slot k counts the pairs i + j = k with i, j < 2n, so it holds at most
2n <= 62 < 256 and no slot carries into the next.  ``dot`` XORs the
products, which never carries and keeps every slot below 64, and bit 0
of each slot is the parity of that coefficient.  So q = 2 needs no bound
on the terms, but ``dot``, ``combine_rows`` and ``fq_combine`` keep the
same 2n-term contract at every q.

The odd-q reduction is a fold by the modulus's tail.  Write f = X^(2n) -
r(X), where r = sum c_i X^i with c_i = -a_i mod q has degree s.  The
canonical modulus is the first irreducible in base-q order, so s is tiny:
3 at (3,9), (3,19) and (5,13), 2 at (7,11).  X^(2n) = r mod f, so the
packed high slots H (X^(2n) and up) and low slots L of a product give
L + H * r, one big-int product with the packed tail.  Before it, each high
slot v of b = 8w bits is brought down by a slot-wise partial mod: with
h = b/2, v = lo + 2^h * hi, and v = lo + hi * (2^h mod q) mod q, which is
two masks, one shift and one multiply on the whole int.  A fold moves the
high slots to X^0 and up, so it leaves s - 1 slots at or above X^(2n)
(none for s <= 1), and each fold after it 2n - s fewer; ``_reduce`` folds
until none is left, F folds in all.

A slot must never carry into the next.  Let B_0 = B, the most a high slot
holds before the first fold.  Before fold k a high slot holds at most
B_(k-1), and is below 2^b, so its hi < 2^h stays whole under the mask
and the partial mod leaves at most V_k = (2^h - 1) + (B_(k-1) >> h) *
(2^h mod q).  The fold then adds at most B_k = W * V_k, W = sum c_i, to
any slot, which also bounds every high slot it leaves.  So no slot ever
holds more than B_0 + B_1 + ... + B_F, and V_k <= B_k when W >= 1 (a zero
tail folds in nothing).  w is the least byte count, tried in the order
1, 2, 3, ..., with 2^(8w) above that sum.  The width comes from
each engine's own modulus, so the engine of every candidate the modulus
scan tries is exact, whatever its tail.  At the canonical moduli of
(3,9), (3,19) and (5,13) it is 2 bytes.

``_canon`` takes 2n packed slots, each below 2^(8w), to the canonical
tuple of their residues mod q, and every odd-q result ends in it: a
reduction, a linear map (Frobenius, trace, ``fq_combine``), a pivot of the
elimination and ``inv``'s final scaling.  For q < 128 it works on bytes.
While any slot is at or above 256, each slot v = b_0 + 256 b_1 + ... +
256^(w-1) b_(w-1) becomes b_0 + sum_k b_k * (256^k mod q), by masks,
shifts and multiplies on the whole int.  Each round keeps the residue mod
q, since 256^k and 256^k mod q are congruent.  A slot at or above 256 has
some b_k >= 1 with k >= 1, and 256^k mod q < 256^k, so it strictly
shrinks, while a slot below 256 stays as it is; so the rounds end.  A
round never carries: it leaves at most 255 * (1 + (w-1)(q-1)) <=
255 * w * (q-1) in a slot, below 256^w for every w >= 2 when q < 128, and
at w = 1 no slot reaches 256.  Then every slot is one byte, read at stride
w from the int's little-endian bytes, and one ``bytes.translate`` through
the 256-entry table of x mod q gives the residues.  ``_lift`` spreads the
bytes of a tuple into a zeroed buffer at stride w.  ``add`` and ``sub``
(and so ``neg``, which is 0 - a on every engine) work on one-byte lanes,
one coefficient per byte: a + b and a + Q - b, with Q holding q in every
lane, are one int sum each, with at most 2q - 1 in a lane and no borrow,
and the same translate finishes them.
2q - 1 <= 255 needs q < 128.  From q = 131 on, the lanes are the slots
themselves, where q^(2n) <= 2^64 leaves at most 6 coefficients: ``_lift``
packs a tuple as the sum of entry i shifted by 8w * i bits, the set-up
packs of the tail and the partial-mod masks use the same sum at every q,
and ``_canon`` shifts and masks each slot out and takes it mod q.

The q = 2 reduction is the same fold on 1-byte slots, each taken to its
parity.  Over F_2, f = X^(2n) + r(X), with tail r of degree below 2n;
write r~ for r spread.  ``_reduce`` first masks every slot to its parity
(ONES holds 1 in each of 4n slots).  Then, while any slot is at or above
X^(2n), the low slots L and the high slots H, shifted down, become
(L + H * r~) & ONES, since X^(2n) = r mod f.  H and r~ hold bits, so a
slot of the sum holds at most 1 + weight(r) <= 2n + 1 < 256, and no slot
carries.  Each round lowers the top slot, because deg r < 2n, so the
loop ends for every monic f the modulus scan tries.  The canonical
(2,31) tail has degree 6, so a product takes at most two rounds.  Last,
the 2n low slots, each 0 or 1, go through one ``bytes.translate`` to the
digits 0 and 1, and ``int(..., 2)`` reads the compact element.

A constant table of at most 2n rows of n entries is also kept as packed
rows, so combining its rows with one scalar each, sum_r v_r * table[r][j]
for every j at once, is one packed combination.  The code keeps two: the
square Moore inverse, whose n rows interpolate, and the k x n encoder
table, whose k rows evaluate.  ``pack_rows`` lays row r out as one int
holding the lifted entry j at bit or slot ``_stride`` * j, and
``combine_rows`` sums the products of each lifted scalar with its whole
row, then cuts out the n output fields, each for its one ``_reduce``.

The q = 2 engine overrides both, and its rows stay compact: entry j's
bits at bit 4n * j.  Spread rows would be 8 times the bytes, and at
(2,31,15) a combination of the spread encoder rows, each a product of a
62-byte scalar with a 3.8 KB row, took twice as long.  Its
``combine_rows`` is a windowed carry-less product of each scalar with
its whole row.  It builds the row's 16-entry shift table, XORs entry
t[v] into bucket k for each nibble v at position k of the scalar (its
hex digits, read by one ``bytes.translate``), and shifts each bucket by
4k once after all rows.  Then one fold takes all n output fields at once:
while any field has bits at or above 2n, its high part h, shifted down,
is XORed back in shifted by each set bit b of the tail r.  deg h <= 2n - 2
and b < 2n, so no term leaves its field, and each round lowers the top
degree, as deg r < 2n.  The fields are then cut out as compact elements,
with no ``_lift`` and no ``_reduce``.

The stride is what a product of two elements fills, so the fields of a
sum never overlap:

* q = 2: a carry-less product of two elements of 2n bits has at most
  4n - 1 bits, and XOR never carries, so field j of the sum is exactly
  sum_r v_r * table[r][j] before reduction.
* odd q: a product fills the 4n - 1 slots of its field, and field j of the
  sum adds one product per row, so a square table's n rows put at most
  n * 2n * (q-1)^2 in a slot, and the encoder's k <= n rows at most
  k * 2n * (q-1)^2.  Both are below B, the bound of a 2n-term dot that
  the slot width holds, so no slot carries into the next and no field into
  the next, and each field is a valid input to ``_reduce``.

Both representations are canonical, hashable and compare with ``==``, so
elements can be dict keys and set members.  The JSON form of an element is
its coefficient list, least significant first, always of length 2n.

Frobenius powers x -> x^(q^j) are F_q-linear, so each is stored once per
context as a table made by ``_to_rows`` from the images of the monomial
basis, and ``_apply_linear`` applies it; no exponentiation happens at
lookup time.  For odd q the table is the packed images, applied as
sum_i a_i * row_i.  For q = 2 it is the "Four Russians" form (Albrecht,
Bard and Hart, ACM TOMS 2010): one byte table per 8 bits of the input,
ceil(2n/8) of them, where entry v of table k is the XOR of the images
8k .. 8k+7 over the set bits of v, built by doubling in ``_to_rows``.
A map is then one lookup per byte of its input, 8 at n = 31, instead of
one XOR per set bit, and image i reads back as entry 1 << (i % 8) of
table i // 8.  The byte tables are ``array('Q')`` rows of 256 entries,
about 17 KB a power at n = 31: an entry has at most 64 bits, and the flat
array holds it in 8 bytes, where a list holds a pointer to a separate int
object of about 36 bytes.  A context keeps only the tables of the powers
it applies, and a process may keep several contexts.

The decoder's register run reads each element x under T_2, T_4, ..,
T_2t, lifted (``hermrank.codec``).  ``_frob_stack(t)`` gives a stacked
table of those t powers, once per context, and ``_frob_lifts`` applies it
to x for the powers asked.  For odd q the stack is the tables T_2l
themselves, and each image one map and one lift.  For q = 2 the map
x -> (lift(T_2 x), .., lift(T_2t x)) is F_2-linear too, as ``_lift`` is
(bit i to byte i), so the stack is one table, built from ``frob_images``,
that holds for each monomial its t lifted images side by side in fields
of 16n bits, and one pass of lookups gives all t images, each a shift and
a mask.  A lifted image is below 2^(16n), so no field overlaps the next.
The q = 2 stack keeps one nibble table per 4 input bits, whose entries
are ints of 16nt bits (about 120 KB at (2,31) and t = 7; byte tables
would be 8 times that).  A context keeps one stack, rebuilt when a run
asks for more powers than it holds.

The tables are built by composition, each on first use.  T_0 holds the
monomials themselves, and T_1 the powers of X^q: ``pow_elem`` and 2n - 1
products.  For j >= 2, row i of T_j is (X^i)^(q^j) =
((X^i)^(q^(j-a)))^(q^a), the image under T_a of row i of T_(j-a), powers
taken mod 2n, so T_j costs 2n applications of T_a and no product.  a is
the first power whose table is built while T_(j-a) is built too, so a
power next to built ones takes no other table (T_33 = T_2 o T_31 at
(2,31)).  When no two built tables make up j, a is the largest power of
two below j, and a missing T_a or T_(j-a) is built first the same way.
So asking for T_j builds at most the tables of the powers of two below j
and of the low parts j mod 2^k (T_31 takes T_1, T_2, T_4, T_8, T_16, T_3,
T_7 and T_15), not every power below j: at (2,31,15) a ``build_params``
builds 12 of the 62 tables, and the first trial 18 more.

The trace Tr_{K/F_{q^e}} = sum_{i<2n/e} T_(e*i) is formed by doubling on
the images of the monomials.  S_m = sum_{i<m} T_(e*i) starts at S_1 = I,
and S_2m = S_m + T_(e*m) o S_m and S_(m+1) = I + T_e o S_m, taken over
the bits of 2n/e below its top one, reach S_(2n/e); each step is 2n
applications of T_(e*m) or of T_e, so it reads at most 2 log2(2n/e)
tables, not one per multiple of e.  The images are kept once per context
and e, so the relative trace down to F_{q^2}, kept as one table of them,
and the reduced basis of F_{q^2} share one doubling.

``fq_combine`` forms sums of F_q digits times at most 2n elements, the
packed odd-q kernel on any digits and an XOR of the selected elements for
q = 2, so a sum of digits times elements never embeds a digit or forms a
product.

Each engine has one F_q elimination, ``_echelon``: it pivots on the highest
nonzero coefficient of a row and clears it from the other rows, by XOR on
the bits for q = 2 and on unreduced packed slot rows for odd q.  ``fq_rank``
counts its pivots, and ``subfield_basis`` back-substitutes them into the one
reduced echelon basis of F_{q^e}, spanned by the trace images of the
monomials.

The canonical modulus f comes from a scan over the monic candidates of
degree D = 2n, each tested on the engine built for F_q[X]/(f) as if it were
the modulus; the engines' products never divide, so they are valid for any
monic f.  Ben-Or's test decides irreducibility: f is irreducible exactly
when gcd(f, X^(q^i) - X) = 1 for i = 1 .. D/2.  X^(q^i) - X is the product
of the monic irreducibles whose degree divides i.  So a reducible f, which
has an irreducible factor g of degree i <= D/2, shares g with
X^(q^i) - X, while an irreducible f of degree D divides X^(q^i) - X only
when D divides i, and so shares no factor with it for 0 < i < D.  No
squarefree step is needed: a repeated factor g^2 is caught at i = deg g
like any other, so (X^2+X+1)^2 over F_2 is rejected at i = 2.  The test
steps x <- x^q from x = X with ``pow_elem``, so x = X^(q^i) mod f and the
gcd is gcd(f, x - X); it stops at the first i with a common factor.  The
gcd is Euclid's, by XOR on packed ints for q = 2 and on coefficient lists
for odd q.  No candidate builds a Frobenius table or runs an elimination.

Before any engine is built, a candidate with a root in F_q is dropped: a
monic f of degree D >= 2 with f(a) = 0 has the factor X - a, so Ben-Or's
test would reject it too.  Only a < min(q, D) is tried, by Horner's rule on
the coefficients.  For q <= D that is all of F_q and the filter is
complete; for larger q it is partial, and the bound keeps it at D
evaluations per candidate instead of q, about 4*10^9 at q near 2^32.  A
complete filter has already done Ben-Or's step i = 1: X^q - X is the
product of the X - a for a in F_q, so gcd(f, X^q - X) = 1 exactly when f
has no root in F_q.  So for q <= D the gcds start at i = 2.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from typing import Iterable, Sequence, Union

from .exceptions import (
    BadElementError,
    BadOperandError,
    BadParamsError,
    EvenExtensionError,
    NotADivisorError,
    NotInSubfieldError,
    NotPrimeError,
    TooLargeError,
    ZeroInputError,
)

#: A field element: packed int for q = 2, coefficient tuple for odd q.
Felt = Union[int, tuple]

_ELEMENT_BIT_BUDGET = 64
#: Largest q that can meet the budget: q^(2n) <= 2^64 with n >= 1.
_MAX_Q = 2 ** (_ELEMENT_BIT_BUDGET // 2)
#: Largest n that can meet the budget: q^(2n) <= 2^64 with q >= 2.
_MAX_N = _ELEMENT_BIT_BUDGET // 2


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _lead(coeffs: Sequence[int]) -> int:
    """Index of the highest nonzero coefficient."""
    return max(i for i, c in enumerate(coeffs) if c)


def _irreducible(q: int, coeffs: Sequence[int]) -> bool:
    """Ben-Or's test (module docstring) for the monic f = coeffs of even
    degree D, on the engine for F_q[X]/(f) built for this candidate.  A
    candidate with a root a < min(q, D) is rejected first, by Horner's
    rule, before any engine is built; for q <= D that filter is Ben-Or's
    step i = 1, and the gcds start at i = 2."""
    deg = len(coeffs) - 1
    for a in range(min(q, deg)):
        v = 0
        for c in reversed(coeffs):
            v = (v * a + c) % q
        if not v:
            return False
    ring = _engine(q)(q, deg // 2, tuple(coeffs))
    x = ring.gen
    for i in range(1, deg // 2 + 1):
        x = ring.pow_elem(x, q)
        if (i > 1 or q > deg) and not ring._coprime_to_modulus(ring.sub(x, ring.gen)):
            return False
    return True


def canonical_modulus(q: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree 2n over F_q in base-q coefficient order.

    Candidates X^(2n) + a_{2n-1} X^(2n-1) + ... + a_0 are ordered by the value
    of (a_0, ..., a_{2n-1}) read as a base-q integer with a_0 least
    significant; the first irreducible wins.  Returns the full coefficient
    tuple (a_0, ..., a_{2n-1}, 1).  Irreducibles of every degree exist, so
    the scan always returns.

    This is the one check of q and n, which make_context relies on: raises
    NotPrimeError, EvenExtensionError or TooLargeError unless q is a prime,
    n a positive odd integer and q^(2n) <= 2^64.  q > 2^32 and n > 32 are
    rejected by plain comparisons before the prime test and before q^(2n)
    is formed.  A bool n is not an integer, as in json_field, so every
    context built can be written and read back.  The check runs before the
    cached scan, so no input reaches the cache unchecked.
    """
    if isinstance(q, int) and q > _MAX_Q:
        raise TooLargeError(f"q = {q} exceeds 2^32, so q^(2n) exceeds the 64-bit element budget")
    if not isinstance(q, int) or _prime_factors(q) != [q]:
        raise NotPrimeError(f"q = {q} is not a prime")
    if type(n) is not int or n < 1 or n % 2 == 0:
        raise EvenExtensionError(f"n = {n} is not a positive odd integer")
    if n > _MAX_N or q ** (2 * n) > 2**_ELEMENT_BIT_BUDGET:
        raise TooLargeError(f"q^(2n) = {q}^{2 * n} exceeds the 64-bit element budget")
    return _first_irreducible(q, n)


@functools.lru_cache(maxsize=None)
def _first_irreducible(q: int, n: int) -> tuple[int, ...]:
    """canonical_modulus's scan, once per checked (q, n)."""
    deg = 2 * n
    for c in range(q**deg):
        coeffs = tuple(c // q**i % q for i in range(deg)) + (1,)
        if _irreducible(q, coeffs):
            return coeffs


# ---------------------------------------------------------------------------
# Field contexts.
# ---------------------------------------------------------------------------


class FieldContext:
    """Arithmetic context for K = F_{q^(2n)} with its canonical modulus.

    Use :func:`make_context` to build one.  Two contexts built from the same
    (q, n) are interchangeable; every derived table is deterministic.

    This class holds only what both engines share.  An engine supplies
    ``_setup_engine`` (``zero``, ``one`` and the kernel's constants),
    ``add``, ``sub``, ``inv``, ``_from_coeffs`` (the element of checked
    coefficients), ``to_coeffs``, the kernel's ``_lift``, ``_sum``,
    ``_reduce`` and ``_stride`` (module docstring), and:

    * ``_apply_linear(rows, a)``: the F_q-linear map whose table, in the
      form ``_to_rows`` makes, is rows, applied to a;
    * ``frob_images(j)``: the images (X^i)^(q^j) of the monomial basis,
      i = 0 .. 2n-1, read back from the table ``_frob_rows(j)``;
    * ``_echelon(elems)``: the pivots of an elimination on the span of
      elems, each read as its 2n coefficients: nonzero elements with
      distinct leads (highest nonzero coefficient), each 1 at its lead and
      0 at the lead of every pivot before it;
    * ``_coprime_to_modulus(h)``: True when gcd(f, h) = 1, with h read as a
      polynomial of degree below 2n, by Euclid's algorithm on the engine's
      coefficient form.
    """

    def __init__(self, q: int, n: int, modulus: tuple[int, ...]):
        self.q = q
        self.n = n
        self.deg = 2 * n
        self.modulus = modulus
        self._setup_engine()
        self.gen = self.from_coeffs([0, 1] + [0] * (self.deg - 2))
        self._frob: dict[int, tuple] = {}
        self._subfield_bases: dict[int, tuple] = {}
        self._traces: dict[int, tuple] = {}
        # memos filled on first use; plain fields, not cached_property,
        # whose write through __dict__ makes every later attribute load on
        # the context slower on CPython 3.11 (about 3% of a (2,31,15) decode)
        self._trace_tbl: tuple | None = None
        self._norm_gen: tuple | None = None
        self._stack_top, self._stack = 0, ()

    def neg(self, a: Felt) -> Felt:
        """-a as 0 - a, on the engine's sub: a itself at q = 2."""
        return self.sub(self.zero, a)

    def from_coeffs(self, coeffs: Sequence[int]) -> Felt:
        """Element from its 2n coefficients, least significant first, each
        a plain int in [0, q); anything else, bools and floats included,
        raises BadElementError, so a non-canonical value can never pass
        through to an output."""
        if len(coeffs) != self.deg or any(type(c) is not int or not 0 <= c < self.q for c in coeffs):
            raise BadElementError(f"element needs {self.deg} integer coefficients in [0, {self.q})")
        return self._from_coeffs(coeffs)

    def fq_rank(self, elems: Sequence[Felt]) -> int:
        """Dimension over F_q of the span of elems; the one elimination
        behind every rank in the package."""
        return len(self._echelon(elems))

    def _reduced_basis(self, elems: Sequence[Felt]) -> tuple:
        """The reduced echelon basis of the span of elems, in increasing
        lead order: each element 1 at its lead and 0 at every other lead.

        Back-substitution from the last pivot: a pivot is already 0 at the
        leads of the pivots before it, and subtracting c * b for a later,
        reduced b changes it only at b's lead and below, at no other lead.
        """
        basis: dict[int, Felt] = {}
        for p in reversed(self._echelon(elems)):
            c = self.to_coeffs(p)
            (below,) = self.fq_combine(list(basis.values()), [[c[lead] for lead in basis]])
            basis[_lead(c)] = self.sub(p, below)
        return tuple(basis[lead] for lead in sorted(basis))

    # -- one product kernel on _lift, _sum, _reduce, _stride ---------------

    def mul(self, a: Felt, b: Felt) -> Felt:
        """a * b: one product of the lifted elements, one reduction."""
        return self._reduce(self._lift(a) * self._lift(b))

    def dot(self, xs: Sequence[Felt], ys: Sequence[Felt]) -> Felt:
        """sum_i xs[i] * ys[i] over at most 2n terms, with one reduction.

        The products are summed unreduced.  For odd q each of the 4n-1
        slots then holds at most B = 2n * 2n * (q-1)^2, the input bound of
        the tail fold, and the slot width holds B plus all that the folds
        add (module docstring), so no slot carries and the _canon of the
        result is exact.
        At q = 2 a spread product's slot holds at most 2n and XOR never
        carries, so no slot reaches 64; q = 2 keeps the same bound on the
        terms.  This does not go through mul.  xs and ys must be of equal
        length, else BadOperandError, as past the slot bound.
        """
        if len(xs) > self.deg or len(ys) != len(xs):
            raise BadOperandError(f"need equal lengths, at most 2n terms: {len(xs)} and {len(ys)}")
        lift = self._lift
        return self._reduce(self._sum(map(operator.mul, map(lift, xs), map(lift, ys))))

    def _to_rows(self, images: Sequence[Felt]) -> tuple:
        """Table form of a linear map's monomial images for _apply_linear:
        each image lifted (the q = 2 engine keeps byte tables instead)."""
        return tuple(map(self._lift, images))

    def _frob_stack(self, top: int) -> tuple:
        """The stacked table of T_2, T_4, .., T_(2*top) that _frob_lifts
        applies, covering at least top powers: built once per context and
        rebuilt when a caller asks past it."""
        if top > self._stack_top:
            self._stack_top, self._stack = top, self._stacked(top)
        return self._stack

    def _stacked(self, top: int) -> tuple:
        """The tables T_2 .. T_(2*top) themselves (the q = 2 engine stacks
        their lifted images into one table instead)."""
        return tuple(self._frob_rows(2 * l) for l in range(1, top + 1))

    def _frob_lifts(self, stack: tuple, a: Felt, powers: range) -> list:
        """The lifted images lift(a^(q^(2l))) for l in powers, a range
        within 1 .. top of the stack _frob_stack(top) gave: one map and
        one lift each (the q = 2 engine reads them all from one stacked
        pass instead)."""
        lift, apply = self._lift, self._apply_linear
        return [lift(apply(stack[l - 1], a)) for l in powers]

    def pack_rows(self, table: Sequence[Sequence[Felt]]) -> tuple:
        """Packed-row form of a table for combine_rows: each row as one int
        holding its lifted entries at the engine's stride (module
        docstring)."""
        stride, lift = self._stride, self._lift
        return tuple(sum(lift(e) << stride * j for j, e in enumerate(row)) for row in table)

    def combine_rows(self, values: Sequence[Felt], rows: Sequence[int]) -> tuple:
        """(sum_r values[r] * table[r][j])_j for the table of at most 2n
        rows of n entries packed into rows by pack_rows: one packed
        combination of the rows, then one reduction per output.  This does
        not go through mul or dot.  One value per row, else
        BadOperandError, as past the slot bound."""
        if len(rows) > self.deg or len(values) != len(rows):
            raise BadOperandError(f"need one value per row, at most 2n rows: {len(values)} for {len(rows)}")
        acc = self._sum(map(operator.mul, map(self._lift, values), rows))
        stride = self._stride
        mask = (1 << stride) - 1
        out = []
        for _ in range(self.n):
            out.append(self._reduce(acc & mask))
            acc >>= stride
        return tuple(out)

    # -- shared operations --------------------------------------------------

    def fq_combine(self, elems: Sequence[Felt], digit_rows: Iterable[Sequence[int]]) -> tuple:
        """(sum_i digits[i] * elems[i] for digits in digit_rows): F_q-combinations
        of at most 2n elements with digits in [0, q).

        The elements are packed once by _to_rows, and each combination is
        one pass of _apply_linear's kernel, with no product and no
        reduction: one big-int sum of digit times packed element and one
        _canon.  The q = 2 engine instead XORs the selected
        elements.  The odd-q sum cannot carry: a packed element holds its
        canonical coefficients, at most q - 1 per slot, so 2n terms put at
        most 2n * (q-1)^2 in a slot, below the 2n * 2n * (q-1)^2 every slot
        width holds (module docstring).  Each digit row must hold one digit
        per element, else BadOperandError, as past the slot bound.
        """
        rows = self._to_rows(elems)
        return tuple(self._apply_linear(rows, digits) for digits in self._digit_rows(elems, digit_rows))

    def _digit_rows(self, elems: Sequence[Felt], digit_rows: Iterable[Sequence[int]]):
        """The rows of digit_rows, each checked to hold one digit per
        element, each in [0, q), else BadOperandError: fq_combine's check
        on both engines, so no term is dropped unmatched and no digit is
        read mod 2 by the q = 2 XOR or carries out of an odd-q slot.  More
        than 2n elements raise BadOperandError at the first row taken, with
        or without rows, as past the slot bound, at every q."""
        if len(elems) > self.deg:
            raise BadOperandError(f"need at most 2n elements, got {len(elems)}")
        for digits in digit_rows:
            if len(digits) != len(elems):
                raise BadOperandError(f"need one digit per element: {len(digits)} for {len(elems)}")
            if digits and (min(digits) < 0 or max(digits) >= self.q):
                raise BadOperandError(f"digits must lie in [0, {self.q})")
            yield digits

    def pow_elem(self, a: Felt, e: int) -> Felt:
        """a^e for an int e >= 0, else BadOperandError; square-and-multiply
        from the top bit of e: bit_length(e) - 1 squarings and popcount(e)
        - 1 products."""
        if type(e) is not int or e < 0:
            raise BadOperandError(f"exponent must be a non-negative integer, got {e!r}")
        if not e:
            return self.one
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def _frob_rows(self, j: int) -> tuple:
        """Table T_j of x -> x^(q^j), built once per context and power j
        mod 2n: T_0 and T_1 directly, any other T_j as T_a o T_(j-a), 2n
        applications of T_a, for the first built a with T_(j-a) built too,
        else for a the largest power of two below j, with either built
        first if missing (module docstring)."""
        j %= self.deg
        rows = self._frob.get(j)
        if rows is None:
            if j == 0:
                out = self._monomials()
            elif j == 1:
                y = self.pow_elem(self.gen, self.q)
                out = list(itertools.accumulate(itertools.repeat(y, self.deg - 1), self.mul, initial=self.one))
            else:
                built = self._frob
                a = next((a for a in built if (j - a) % self.deg in built), 1 << (j - 1).bit_length() - 1)
                ta = self._frob_rows(a)
                out = [self._apply_linear(ta, x) for x in self.frob_images(j - a)]
            rows = self._frob[j] = self._to_rows(out)
        return rows

    def _monomials(self) -> list:
        """X^0 .. X^(2n-1), the images of the identity map."""
        deg = self.deg
        return [self.from_coeffs([int(k == i) for k in range(deg)]) for i in range(deg)]

    def frobenius(self, a: Felt, j: int) -> Felt:
        """a^(q^j) with the int j taken mod 2n; any other j raises
        BadOperandError."""
        if type(j) is not int:
            raise BadOperandError(f"Frobenius power must be an integer, got {j!r}")
        j %= self.deg
        if j == 0:
            return a
        return self._apply_linear(self._frob_rows(j), a)

    def _trace_images(self, e: int) -> tuple:
        """Tr_{K/F_{q^e}}(X^i) for i = 0 .. 2n-1, once per context and e:
        the images of the monomials under S_(2n/e), where S_m = sum_{i<m}
        T_(e*i), by doubling over the bits of 2n/e from S_1 = I (module
        docstring)."""
        images = self._traces.get(e)
        if images is None:
            ones = images = self._monomials()
            m = 1
            for bit in bin(self.deg // e)[3:]:
                t = self._frob_rows(e * m)
                images = [self.add(s, self._apply_linear(t, s)) for s in images]
                m *= 2
                if bit == "1":
                    t = self._frob_rows(e)
                    images = [self.add(x, self._apply_linear(t, s)) for x, s in zip(ones, images)]
                    m += 1
            images = self._traces[e] = tuple(images)
        return images

    def rel_trace(self, a: Felt) -> Felt:
        """Trace down to F_{q^2}: the sum of a^(q^(2i)) for i = 0 .. n-1."""
        if self._trace_tbl is None:
            self._trace_tbl = self._to_rows(self._trace_images(2))
        return self._apply_linear(self._trace_tbl, a)

    def _check_degree(self, e) -> None:
        """NotADivisorError unless e is a positive int (not a bool) that
        divides 2n."""
        if type(e) is not int or e <= 0 or self.deg % e:
            raise NotADivisorError(f"subfield degree {e!r} does not divide {self.deg}")

    def in_subfield(self, a: Felt, e: int) -> bool:
        """True when a lies in F_{q^e}; e must divide 2n (_check_degree)."""
        self._check_degree(e)
        return self.frobenius(a, e) == a

    def subfield_basis(self, e: int) -> tuple:
        """Canonical F_q-basis of F_{q^e} inside K: its reduced echelon basis.

        The trace Tr_{K/F_{q^e}} maps K onto F_{q^e}, so the trace images
        of the monomials span it, and _reduced_basis reduces them.  A
        subspace has exactly one reduced echelon basis: its leads are the
        highest nonzero positions of its nonzero elements, and two elements
        1 at the same lead and 0 at every other lead differ by an element
        that is 0 at every lead, which is zero.  So this is also the basis
        an RREF kernel of Frobenius^e - id gives, ordered by free column:
        kernel vector v_f is 1 at its free column f, its highest nonzero
        entry, and 0 at the other free columns.  e must divide 2n
        (_check_degree).
        """
        self._check_degree(e)
        basis = self._subfield_bases.get(e)
        if basis is None:
            basis = self._reduced_basis(self._trace_images(e))
            if len(basis) != e:
                raise RuntimeError("trace image has the wrong dimension")
            self._subfield_bases[e] = basis
        return basis

    def subfield_elements(self, e: int) -> tuple:
        """All q^e elements of F_{q^e}, in canonical digit order: entry i
        combines the base-q digits of i with the basis, the first basis
        element's digit the most significant.  Small e only."""
        return self.fq_combine(self.subfield_basis(e), itertools.product(range(self.q), repeat=e))

    def fq2_w(self) -> Felt:
        """Canonical element with F_{q^2} = F_q + F_q * w: the second
        element of the reduced basis of F_{q^2}, whose first is 1 (lead 0)."""
        return self.subfield_basis(2)[1]

    def fq2_span(self, elems: Sequence[Felt], w: Felt) -> list:
        """elems, then w * elems.  For w in F_{q^2} outside F_q, {1, w} is
        an F_q-basis of F_{q^2}, so the F_q-span of this list is the
        F_{q^2}-span of elems, and its fq_rank is twice that span's
        F_{q^2}-dimension."""
        return [*elems, *(self.mul(w, x) for x in elems)]

    def fq2_coords(self, a: Felt) -> tuple[int, int]:
        """Coordinates (s, t) with a = s + t*w for a in F_{q^2}, else
        NotInSubfieldError.  In the reduced basis {1, w}, w is 0 at X^0 and
        1 at its lead, where 1 is 0, so s and t are the coefficients of a at
        X^0 and at that lead."""
        if not self.in_subfield(a, 2):
            raise NotInSubfieldError("element does not lie in F_{q^2}")
        ac = self.to_coeffs(a)
        return ac[0], ac[_lead(self.to_coeffs(self.fq2_w()))]

    def solve_hermitian_norm(self, a: Felt) -> Felt:
        """Solve c^(q+1) = a for c in F_{q^2}, given nonzero a in F_q.

        The norm from F_{q^2} down to F_q is surjective, so a solution always
        exists.  It is found by a baby-step/giant-step discrete log in F_q*
        against the norm of a fixed norm-generating element; at q = 2 that
        element is 1 and the only valid input, 1, has discrete log 0.
        """
        if a == self.zero:
            raise ZeroInputError("norm equation needs a nonzero right-hand side")
        if not self.in_subfield(a, 1):
            raise NotInSubfieldError("right-hand side of the norm equation must lie in F_q")
        q = self.q
        a_int = self.to_coeffs(a)[0]
        if self._norm_gen is None:
            self._norm_gen = self._norm_generator()
        g, h_int = self._norm_gen
        # discrete log of a_int to base h_int in F_q*
        m = math.isqrt(q - 1) + 1
        baby = {}
        v = 1
        for jj in range(m):
            baby.setdefault(v, jj)
            v = (v * h_int) % q
        giant = pow(h_int, -m, q)
        v = a_int
        for ii in range(m + 1):
            if v in baby:
                break
            v = (v * giant) % q
        else:  # pragma: no cover - dlog always exists for a generator
            raise RuntimeError("discrete log failed")
        c = self.pow_elem(g, ii * m + baby[v])
        if self.mul(self.frobenius(c, 1), c) != a:
            raise RuntimeError("norm equation solution fails its check")
        return c

    def _norm_generator(self) -> tuple:
        """(g, N(g)) for the first g = i + j*w, in the order of idx = i*q + j,
        whose norm g^(q+1) generates F_q*; solve_hermitian_norm keeps it.
        The first q - 1 candidates j*w have norms j^2 * N(w), all squares
        when N(w) is one (Euler's criterion), and a square never generates
        F_q* for odd q, so the scan then starts at idx = q: same g.  At
        q = 2, F_q* is trivial and the scan stops at its first candidate."""
        q = self.q
        factors = _prime_factors(q - 1)
        basis = self.subfield_basis(2)
        norm_w = self.to_coeffs(self.mul(self.frobenius(basis[1], 1), basis[1]))[0]
        start = q if pow(norm_w, (q - 1) // 2, q) == 1 else 1
        for idx in range(start, 64 * q):
            (cand,) = self.fq_combine(basis, [divmod(idx, q)])
            h_int = self.to_coeffs(self.mul(self.frobenius(cand, 1), cand))[0]
            if all(pow(h_int, (q - 1) // p, q) != 1 for p in factors):
                return cand, h_int
        raise RuntimeError("no norm generator found")  # pragma: no cover - generators are dense

    # -- serialization ------------------------------------------------------

    def felt_to_json(self, a: Felt) -> list[int]:
        return self.to_coeffs(a)

    def felt_from_json(self, obj: list) -> Felt:
        """Element from its JSON coefficient list, checked by from_coeffs."""
        if not isinstance(obj, list):
            raise BadElementError(f"element must be a list of {self.deg} integer coefficients")
        return self.from_coeffs(obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldContext(q={self.q}, n={self.n})"


#: bytes.translate tables of the q = 2 engine: a binary digit of bin() to
#: its bit (the "0b" prefix to 0), a 0 or 1 slot to its binary digit, and
#: a hex digit to its nibble.
_BITS = bytes.maketrans(b"01b", b"\0\1\0")
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


class _Gf2Context(FieldContext):
    """Bit-packed engine for q = 2: compact elements, products on
    byte-spread bits (module docstring)."""

    def _setup_engine(self) -> None:
        deg = self.deg
        self.zero = 0
        self.one = 1
        self._stride = 2 * deg
        self._fpacked = self._from_coeffs(self.modulus)
        self._split = 8 * deg
        self._low = (1 << self._split) - 1
        self._ones = int.from_bytes(b"\1" * 2 * deg, "little")
        self._tail = self._lift(self._fpacked ^ 1 << deg)
        # combine_rows' fold: the low 2n bits of each of its n fields, and
        # the set bits of the tail
        self._lows = ((1 << self._stride * self.n) - 1) // ((1 << self._stride) - 1) * ((1 << deg) - 1)
        self._shifts = [b for b in range(deg) if self.modulus[b]]

    def add(self, a, b):
        return a ^ b

    sub = add

    @staticmethod
    def _lift(a):
        """a with bit i spread to byte i."""
        return int.from_bytes(bin(a).encode().translate(_BITS), "big")

    @staticmethod
    def _sum(products):
        return functools.reduce(operator.xor, products, 0)

    def _reduce(self, p):
        """Canonical element of a spread, unreduced product or XOR of them:
        each slot taken to its parity, the high slots folded in by the
        tail, the 2n low slots compacted (module docstring)."""
        split, low, ones, tail = self._split, self._low, self._ones, self._tail
        p &= ones
        while high := p >> split:
            p = ((p & low) + high * tail) & ones
        return int(p.to_bytes(self.deg, "big").translate(_DIGITS), 2)

    def pack_rows(self, table):
        """Compact rows: entry j's bits at bit _stride * j."""
        stride = self._stride
        return tuple(sum(e << stride * j for j, e in enumerate(row)) for row in table)

    def combine_rows(self, values, rows):
        """The 4-bit windowed carry-less product of each value with its
        whole row: entry t[w] of the row's 16-entry shift table XORed into
        bucket k for the hex digit w at position k of the value, and each
        bucket shifted once; then one fold of all n output fields by the
        tail (module docstring)."""
        if len(rows) > self.deg or len(values) != len(rows):
            raise BadOperandError(f"need one value per row, at most 2n rows: {len(values)} for {len(rows)}")
        buckets = [0] * -(-self.deg // 4)
        for v, row in zip(values, rows):
            t = [0, row]
            for i in range(1, 8):
                d = t[i] << 1
                t += (d, d ^ row)
            for k, w in enumerate(f"{v:x}".encode()[::-1].translate(_NIBBLES)):
                buckets[k] ^= t[w]
        acc = functools.reduce(lambda p, b: p << 4 ^ b, reversed(buckets), 0)
        deg, stride, lows = self.deg, self._stride, self._lows
        while high := acc >> deg & lows:
            acc = functools.reduce(operator.xor, (high << b for b in self._shifts), acc & lows)
        mask = (1 << deg) - 1
        return tuple(acc >> stride * j & mask for j in range(self.n))

    def inv(self, a):
        if a == 0:
            raise ZeroInputError("inverse of zero")
        u, v = a, self._fpacked
        g1, g2 = 1, 0
        while u != 1:
            du, dv = u.bit_length(), v.bit_length()
            if du < dv:
                u, v = v, u
                g1, g2 = g2, g1
                du, dv = dv, du
            sh = du - dv
            u ^= v << sh
            g1 ^= g2 << sh
        return g1

    def _coprime_to_modulus(self, h):
        # Euclid on packed ints: a mod b XORs shifted copies of b into a
        a, b = self._fpacked, h
        while b:
            db = b.bit_length()
            while (da := a.bit_length()) >= db:
                a ^= b << (da - db)
            a, b = b, a
        return a == 1

    @staticmethod
    def _from_coeffs(coeffs):
        return sum(c << i for i, c in enumerate(coeffs))

    def to_coeffs(self, a):
        return [(a >> i) & 1 for i in range(self.deg)]

    def _to_rows(self, images):
        """Byte tables of a linear map (module docstring): table k maps a
        byte v of the input to the XOR of images[8k .. 8k+7] over the set
        bits of v, ceil(2n/8) ``array('Q')`` tables of 256 entries."""
        return tuple(array("Q", row) for row in _doubling_tables(images, 8))

    def _apply_linear(self, tables, a):
        """One lookup per byte of a in the tables _to_rows makes."""
        acc = 0
        for t in tables:
            acc ^= t[a & 255]
            a >>= 8
        return acc

    def frob_images(self, j):
        tables = self._frob_rows(j)
        return tuple(tables[i >> 3][1 << (i & 7)] for i in range(self.deg))

    def _stacked(self, top):
        """Nibble tables of the stacked map x -> (lift(T_2 x), ..,
        lift(T_2top x)), the images of each monomial lifted from
        frob_images and laid out in fields of 16n bits (module
        docstring)."""
        split, lift = self._split, self._lift
        images = zip(*(self.frob_images(2 * l) for l in range(1, top + 1)))
        return tuple(_doubling_tables([sum(lift(x) << split * k for k, x in enumerate(xs)) for xs in images], 4))

    def _frob_lifts(self, stack, a, powers):
        """One lookup per nibble of a in the stacked tables: field l - 1 of
        the sum, 16n bits wide, is lift(a^(2^(2l)))."""
        acc = 0
        for t in stack:
            acc ^= t[a & 15]
            a >>= 4
        split, low = self._split, self._low
        return [acc >> split * (l - 1) & low for l in powers]

    def fq_combine(self, elems, digit_rows):
        rows = self._digit_rows(elems, digit_rows)
        return tuple(functools.reduce(operator.xor, itertools.compress(elems, d), 0) for d in rows)

    def _echelon(self, elems):
        # XOR elimination on the packed coefficient bits: each pivot clears
        # its top bit from every other row
        pivots = []
        pool = [r for r in elems if r]
        while pool:
            pivot = pool.pop()
            pivots.append(pivot)
            top = 1 << (pivot.bit_length() - 1)
            pool = [(r ^ pivot) if r & top else r for r in pool]
            pool = [r for r in pool if r]
        return pivots


def _doubling_tables(images, width: int) -> list:
    """The Four Russians tables of the F_2-linear map with monomial images
    images (module docstring): table k maps a group v of width input bits
    to the XOR of images[width*k ..] over the set bits of v, built by
    doubling; zero padding keeps every table 2^width entries long."""
    images = list(images) + [0] * (-len(images) % width)
    tables = []
    for k in range(0, len(images), width):
        row = [0]
        for m in images[k : k + width]:
            row += [r ^ m for r in row]
        tables.append(row)
    return tables


@functools.lru_cache(maxsize=None)
def _byte_codec(q: int, width: int, count: int):
    """(lift, canon) for q < 128 between tuples of count coefficients in
    [0, q) and one int holding entry i in bytes width*i .. width*(i+1)-1.
    lift spreads the entries' bytes at stride width; canon takes count
    slots, each below 2^(8*width), to their residues mod q by byte folds
    and one bytes.translate (module docstring).  Built once per shape: the
    modulus scan builds an engine for every candidate it tries."""
    table = bytes(x % q for x in range(256))
    size = width * count
    zeros = bytes(size)
    low = int.from_bytes((b"\xff" + bytes(width - 1)) * count, "little")
    high = int.from_bytes((b"\0" + b"\xff" * (width - 1)) * count, "little")
    weights = [(8 * k, pow(256, k, q)) for k in range(1, width)]

    def lift(v):
        if width == 1:
            return int.from_bytes(bytes(v), "little")
        buf = bytearray(zeros)
        buf[::width] = bytes(v)
        return int.from_bytes(buf, "little")

    def canon(p):
        while p & high:
            acc = p & low
            for shift, m in weights:
                acc += (p >> shift & low) * m
            p = acc
        return tuple(p.to_bytes(size, "little")[::width].translate(table))

    return lift, canon


class _OddContext(FieldContext):
    """Tuple elements with packed slot arithmetic for odd prime q; the
    module docstring gives the layout, the slot-width bound and the two
    ways to the canonical tuple."""

    def _setup_engine(self) -> None:
        q, deg = self.q, self.deg
        self.zero = (0,) * deg
        self.one = (1,) + (0,) * (deg - 1)
        # X^(2n) = r(X) mod f for the tail r = sum c_i X^i of degree s; a
        # fold leaves s - 1 high slots, and each fold after it 2n - s fewer
        tail = [(-c) % q for c in self.modulus[:deg]]
        s = max((i for i, c in enumerate(tail) if c), default=0)
        folds, count = 1, s - 1
        while count > 0:
            folds, count = folds + 1, count + s - deg
        # the least width whose slots hold every fold (module docstring)
        top, weight = deg * deg * (q - 1) ** 2, sum(tail)
        for width in itertools.count(1):
            half, wrap = 4 * width, pow(2, 4 * width, q)
            bound = high = top
            for _ in range(folds):
                high = weight * ((1 << half) - 1 + (high >> half) * wrap)
                bound += high
            if bound < 1 << 8 * width:
                break
        self._bits = bits = 8 * width

        def pack(v):
            return sum(c << bits * i for i, c in enumerate(v))

        if q < 128:
            # add and sub work on one-byte lanes, which hold 2q - 1
            self._lift, self._canon = _byte_codec(q, width, deg)
            self._lanes, self._lanes_canon = _byte_codec(q, 1, deg)
        else:
            mask = (1 << bits) - 1
            self._lift = self._lanes = pack
            self._canon = self._lanes_canon = lambda p: tuple((p >> bits * i & mask) % q for i in range(deg))
        self._lanes_q = self._lanes((q,) * deg)
        self._split = bits * deg
        self._stride = 2 * self._split
        self._low = (1 << self._split) - 1
        self._half, self._wrap = half, wrap
        self._halves = pack([(1 << half) - 1] * (deg - 1))
        self._tail = pack(tail[: s + 1])

    def add(self, a, b):
        return self._lanes_canon(self._lanes(a) + self._lanes(b))

    def sub(self, a, b):
        lanes = self._lanes
        return self._lanes_canon(lanes(a) + self._lanes_q - lanes(b))

    _sum = staticmethod(sum)

    def _reduce(self, p):
        """Canonical element of a packed, unreduced product or sum of them:
        the high slots folded in by the tail (module docstring)."""
        split, low, half, halves = self._split, self._low, self._half, self._halves
        while high := p >> split:
            p = (p & low) + ((high & halves) + (high >> half & halves) * self._wrap) * self._tail
        return self._canon(p)

    def inv(self, a):
        """a^-1 = a^(r-1) / N(a) for r = (q^(2n) - 1) / (q - 1) (Itoh-Tsujii).

        The norm N(a) = a^r = a * a^(r-1) lies in F_q and is nonzero, and
        r - 1 = S_(2n-1) with S_k = q + q^2 + ... + q^k.  b_k = a^(S_k)
        follows an addition chain on k: b_(2k) = b_k * b_k^(q^k) and
        b_(k+1) = (a * b_k)^q, starting from b_1 = a^q.  The products and
        Frobenius powers run on the packed kernel directly, so an inversion
        makes no calls to mul or frobenius.  The final scaling by 1/N(a)
        puts at most (q-1)^2 < B in a slot.
        """
        if a == self.zero:
            raise ZeroInputError("inverse of zero")
        q, lift, reduce, frob = self.q, self._lift, self._reduce, self._frob_rows
        a_lift = lift(a)
        b, k = self._apply_linear(frob(1), a), 1
        for bit in bin(self.deg - 1)[3:]:
            b, k = reduce(lift(b) * lift(self._apply_linear(frob(k), b))), 2 * k
            if bit == "1":
                b, k = self._apply_linear(frob(1), reduce(a_lift * lift(b))), k + 1
        b_lift = lift(b)
        return self._canon(pow(reduce(a_lift * b_lift)[0], -1, q) * b_lift)

    def _coprime_to_modulus(self, h):
        # Euclid on coefficient lists, least significant first; a division
        # leaves its entries unreduced and reduces the remainder mod q once
        q = self.q
        a, b = list(self.modulus), list(h)
        while True:
            while b and not b[-1]:
                b.pop()
            if not b:
                return len(a) == 1
            db, inv = len(b) - 1, pow(b[-1], -1, q)
            for s in range(len(a) - 1 - db, -1, -1):
                if c := a[s + db] * inv % q:
                    a[s : s + db] = [x - c * y for x, y in zip(a[s : s + db], b)]
            a, b = b, [x % q for x in a[:db]]

    _from_coeffs = staticmethod(tuple)

    def to_coeffs(self, a):
        return list(a)

    def _apply_linear(self, rows, a):
        return self._canon(sum(map(operator.mul, a, rows)))

    def _echelon(self, elems):
        """The odd-q engine's pivot-and-clear elimination on packed rows.

        A popped row is taken to its canonical tuple and scaled so its last
        nonzero slot c is 1; every other row r then becomes r + (q - f) *
        pivot with f = r[c] mod q, which clears slot c mod q and is left
        unreduced.  A row takes at most one such update per pivot, and
        there are at most 2n pivots, so its slots stay below
        q + 2n * (q-1)^2 <= 2n * 2n * (q-1)^2, the bound B on a 2n-term dot
        that every slot width holds (module docstring): no slot carries.
        The scaling puts at most (q-1)^2 in a slot before its canon.
        """
        q, deg, lift, canon = self.q, self.deg, self._lift, self._canon
        bits = self._bits
        mask = (1 << bits) - 1
        pivots = []
        pool = [lift(e) for e in elems if e != self.zero]
        while pool:
            row = canon(pool.pop())
            c = next((i for i in range(deg - 1, -1, -1) if row[i]), None)
            if c is None:
                continue
            pivot = canon(pow(row[c], -1, q) * lift(row))
            pivots.append(pivot)
            packed, shift = lift(pivot), bits * c
            pool = [r + (q - f) * packed if (f := (r >> shift & mask) % q) else r for r in pool]
        return pivots

    def frob_images(self, j):
        return tuple(map(self._canon, self._frob_rows(j)))


def _engine(q: int) -> type:
    """The engine class for prime q: bit-packed at q = 2, else tuples."""
    return _Gf2Context if q == 2 else _OddContext


def make_context(q: int, n: int) -> FieldContext:
    """Build the arithmetic context for F_{q^(2n)} over prime q and odd n.

    Raises NotPrimeError, EvenExtensionError or TooLargeError when the
    parameters are out of range; elements must pack into 64 bits, i.e.
    q^(2n) <= 2^64.  canonical_modulus makes this one check of q and n;
    build_params relies on it.
    """
    return _engine(q)(q, n, canonical_modulus(q, n))


_JSON_NAMES = {dict: "an object", list: "a list", int: "an integer", float: "a number",
               str: "a string", bool: "a boolean", type(None): "null"}


def json_field(obj, key: str, kind: type, what: str, error: type):
    """obj[key], where obj must be a parsed JSON object holding exactly a
    kind under key (true and 3.0 are not integers); otherwise raises error
    naming the shape found."""
    if type(obj) is not dict:
        raise error(f"{what} must be a JSON object, got {_JSON_NAMES.get(type(obj), 'a value')}")
    if key not in obj:
        raise error(f"{what} has no {key!r} field")
    if type(obj[key]) is not kind:
        got = _JSON_NAMES.get(type(obj[key]), "a value")
        raise error(f"{what} field {key!r} must be {_JSON_NAMES[kind]}, got {got}")
    return obj[key]


def context_from_json_obj(obj: dict) -> FieldContext:
    """Rebuild a context from {"q", "n", "modulus"} and cross-check the
    modulus; any other shape, or a modulus that is not the canonical list of
    integers, raises BadParamsError."""
    q = json_field(obj, "q", int, "params", BadParamsError)
    n = json_field(obj, "n", int, "params", BadParamsError)
    modulus = json_field(obj, "modulus", list, "params", BadParamsError)
    ctx = make_context(q, n)
    if modulus != list(ctx.modulus) or any(type(c) is not int for c in modulus):
        raise BadParamsError("modulus in file does not match the canonical modulus")
    return ctx
