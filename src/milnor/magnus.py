"""Truncated integer power series in non-commuting variables.

The Magnus expansion substitutes 1 + X_j for the j-th meridian generator and
the alternating geometric series for its inverse.  A series lives on a
``Basis``: a factor-closed set of monomials (every contiguous subword of a
member is a member), sorted by (degree, lexicographic monomial).  The
monomials outside such a set span a two-sided ideal, so products and
inverses taken modulo that ideal leave every coefficient inside the set
exact (the free differential calculus view: Fox, Free differential calculus
I, Ann. of Math. 57, 1953).  Truncation at total degree q is the dense basis
of all monomials of degree at most q; a batch of queries needs only the
factor closure of its own monomials.

A series is one flat coefficient vector over its basis.  The basis
tabulates, degree by degree from 2, the inner splits w = ab (a and b both
nonempty) of every monomial, as two position lists.  The Magnus expansion
maps the free group into the units 1 + I of the series ring (Milnor,
Isotopy of links, 1957), so a product or quotient refuses a series whose
constant term is not 1.  Every series operation solves one identity
x y = u v for one factor, degree by degree; with constant terms 1 it reads

    x[w] + y[w] + s(x, y)[w] = u[w] + v[w] + s(u, v)[w]   (w nonempty),

where s(x, y)[w] sums x[a] y[b] over the inner splits w = ab and reads
lower degrees only.  So the unknown's degree d is its ends (x[w] + y[w]
less the other factor of its side) plus ``Basis.inner``'s one step,
s(x, y) - s(u, v).  A product p o is (p, o | out, 1), a right quotient
q o = p is (p, 1 | out, o), whose 1 has no nonempty part and adds terms 0,
and the inverse is 1 / o.  ``meridian_walk`` solves each Wirtinger
conjugation the same way.  Degree 1 has no inner split: the ends alone
write it, and the walk starts every arc at 1 + X_c.  The basis picks one
of two kernels from its split count (len(w) + 1 per monomial):

* below ``NUMPY_SPLITS`` splits the vector is a list of Python integers,
  a degree's step is one comprehension over its position lists and each
  monomial's d - 1 consecutive terms are summed.  Python integers are
  exact, so no guard is needed, and numpy is never imported;
* from ``NUMPY_SPLITS`` on the vector is an int64 array, the position lists
  are ``np.intp`` arrays and a degree's step is one gather, multiply and
  subtract, then one reshaped row sum (a product with ones).  Exactness
  rests on one rule, ``fits``: before each int64 step (a product, a
  quotient's ends and degrees, a degree of the meridian walk) every value
  it computes is bounded in floating point from norms taken by ``norms``,
  and past 2**60 the step and everything after it run with Python-integer
  (object) dtype instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import add, sub

_GUARD = float(2**60)
# Split count from which a basis uses the numpy kernel: every split is
# counted (len(w) + 1 per monomial w), though only the inner ones are
# stored.  Measured on a 2-CPU x86-64 machine, Python 3.11, numpy 2.4, with
# both kernels on one word set: ``longitude_series`` of every component of
# the reduced closure of Surjection(3, 3, (1, 1, 2, 2))'s generator (101
# crossings) and of its 2-cable (410), minima of 15 calls, two runs.  The
# Python kernel takes 1.0-1.3x numpy's time at 547 splits (dense(3, 4)),
# 1.4-1.6x at 583 (the cable's injective words) and 940 (the link's r <= 2
# words), 2.9-3.9x at 2,005 and 2,383 and 4.7-6.4x at 6,703 and 7,108;
# numpy saves about 0.1 us per passage and split.
# Importing numpy costs 0.11-0.12 s of CPU, so on one walk numpy repays its
# import only from about 1.2 million passages x splits (near 3,000 splits
# on the cable, 12,000 on the link).  The threshold keeps on Python
# integers every link-homotopy query (at most 141 splits), the r <= 2 table
# of a 3-component link (940) and every length of the doubling scan of a
# 3-component link (at most 587, at length 6), so no 3-component self-delta
# report loads numpy.  The r <= 2 table of a 4-component link (35,157) and
# the doubling scan of one from length 5 (1,773) use numpy.
NUMPY_SPLITS = 1024
# float64 entries per chunk of ``norms`` (8 MiB): a walk's block of rows is
# far larger, 1,551 x 63,000 at degree 8 of the n = 5, m = 10 generator
NORM_ENTRIES = 1 << 20

np = None  # numpy, bound by _numpy() when the first large basis is built


def _numpy():
    """The numpy module, imported on first use."""
    global np
    if np is None:
        import numpy

        np = numpy
    return np


def fits(start: float, l1: float, peak: float) -> bool:
    """The int64 kernel's one exactness rule.  A value that starts at most
    ``start`` in magnitude and then adds products x[u] y[v] stays exact,
    partial sums included, when start + l1 peak <= 2**60; l1 bounds the sum
    of the |x[u]| and peak bounds each |y[v]|."""
    return start + l1 * peak <= _GUARD


def norms(a, lo: int = 0, hi: int | None = None) -> tuple[float, float]:
    """The largest row L1 norm and largest magnitude over columns lo:hi of
    an int64 vector or block of rows, in float64 so that neither wraps,
    read ``NORM_ENTRIES`` entries of whole rows at a time."""
    rows = np.atleast_2d(a[..., lo:hi])
    step = max(1, NORM_ENTRIES // max(1, rows.shape[1]))
    l1 = peak = 0.0
    for i in range(0, len(rows), step):
        chunk = np.abs(rows[i : i + step], dtype=np.float64)
        l1, peak = max(l1, chunk.sum(axis=1).max()), max(peak, chunk.max(initial=0.0))
    return float(l1), float(peak)


def is_int64(x) -> bool:
    """Whether a coefficient vector or block of rows is held in int64."""
    return not isinstance(x, list) and x.dtype != object


def widen(x):
    """An int64 vector or block of rows as Python integers (object dtype)."""
    return x.astype(object)


class Basis:
    """A factor-closed monomial set in X_1..X_n, sorted by (degree, lex).

    ``pos`` maps each monomial to its position and ``bounds[d]`` is the
    position of the first monomial of degree d.  ``splits`` counts the
    splits w = ab of every monomial, len(w) + 1 each; below
    ``NUMPY_SPLITS`` of them ``small`` is true and coefficient vectors are
    Python lists, otherwise numpy arrays.  Only the inner splits (a and b
    both nonempty) are tabulated, d - 1 per degree-d monomial, as one pair
    of position lists per degree from 2 (degree 1 has none): ``inner`` runs
    over one of them, the one step of every series operation.
    """

    __slots__ = ("n", "q", "words", "pos", "bounds", "splits", "small", "_inner")

    def __init__(self, n: int, words):
        words = list(words)
        letters = itertools.chain.from_iterable(words)
        if type(n) is not int or not set(map(type, letters)) <= {int}:
            raise ValueError(f"n={n!r} and every letter must be integers")
        words.sort(key=lambda w: (len(w), w))
        if n < 1 or not words or words[0] != ():
            raise ValueError("a basis needs n >= 1 and the empty monomial")
        for w in words:
            if len(w) == 1 and not 1 <= w[0] <= n:
                raise ValueError(f"variable index {w[0]} out of range 1..{n}")
        self.n = n
        self.q = q = len(words[-1])
        self.words = tuple(words)
        self.pos = pos = {w: i for i, w in enumerate(words)}
        if len(pos) < len(words):
            raise ValueError("a monomial is repeated")
        degrees = [len(w) for w in words]
        self.bounds = bounds = [bisect_left(degrees, d) for d in range(q + 2)]
        self.splits = sum(degrees) + len(words)
        self.small = self.splits < NUMPY_SPLITS
        # the positions of u and v over the inner splits w = uv of each
        # degree's monomials, in basis order, keyed by the degree
        self._inner = {}
        for d in range(2, q + 1):
            layer = words[bounds[d] : bounds[d + 1]]
            try:
                left = [pos[w[:k]] for w in layer for k in range(1, d)]
                right = [pos[w[k:]] for w in layer for k in range(1, d)]
            except KeyError as exc:
                raise ValueError(f"monomial set is not factor-closed: {exc}") from None
            if not self.small:
                np = _numpy()
                left, right = np.array(left, np.intp), np.array(right, np.intp)
            self._inner[d] = left, right

    def inner(self, d: int, acc, x, y, u, v):
        """acc + s(x, y) - s(u, v) over the monomials of degree d >= 2, the
        step of the identity x y = u v (module docstring), where s(x, y)
        sums x[a] y[b] over each monomial's d - 1 inner splits w = ab; acc
        is a degree-d slice, or on the Python kernel any iterable of one.
        Degree 1 has no inner splits and no table, so a call at d = 1
        raises ``KeyError``.

        Only degrees 1..d-1 of x, y, u and v are read, so a recursion that
        solves degree d from lower degrees can call it on the vectors it is
        filling.  Every argument is a coefficient vector or slice of this
        basis's kernel; the result is a new list or array.
        """
        left, right = self._inner[d]
        if self.small:
            terms = iter([x[i] * y[j] - u[i] * v[j] for i, j in zip(left, right)])
            # each monomial's d - 1 consecutive terms, summed
            sums = terms if d == 2 else map(sum, zip(*[terms] * (d - 1)))
            return list(map(add, acc, sums))
        terms = (x[left] * y[right] - u[left] * v[right]).reshape(-1, d - 1)
        # each row summed as a product with ones, about 3x faster than sum(axis=1)
        return acc + terms @ np.ones(d - 1, np.int64)

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self is other or (self.n == other.n and self.words == other.words)

    def __repr__(self) -> str:
        return f"Basis(n={self.n}, q={self.q}, size={len(self.words)})"


def closure(n: int, monomials) -> Basis:
    """The smallest factor-closed basis containing the given monomials."""
    seen = {()}
    frontier = [tuple(w) for w in monomials]
    while frontier:
        w = frontier.pop()
        if w not in seen:
            seen.add(w)
            frontier += (w[:-1], w[1:])
    return Basis(n, seen)


def dense(n: int, q: int) -> Basis:
    """Every monomial of degree at most q: plain degree truncation."""
    if type(n) is not int or type(q) is not int or n < 1 or q < 0:
        raise ValueError(f"need integers n >= 1 and q >= 0, got n={n!r}, q={q!r}")
    letters = range(1, n + 1)
    words = (w for d in range(q + 1) for w in itertools.product(letters, repeat=d))
    return Basis(n, words)


class Series:
    """An integer power series in X_1..X_n modulo the monomials outside its
    basis; on ``dense(n, q)`` that is truncation beyond degree q."""

    __slots__ = ("basis", "x", "_norms")

    def __init__(self, basis: Basis, x=None):
        self.basis = basis
        if x is None:
            x = [0] * len(basis) if basis.small else np.zeros(len(basis), np.int64)
        self.x = x
        self._norms = None

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def coeffs(self) -> list:
        """Read-only per-degree numpy views of the coefficient vector; on a
        small basis, int64 copies (object dtype where a value leaves int64)."""
        b = self.basis.bounds
        views = [self.x[b[d] : b[d + 1]] for d in range(self.q + 1)]
        if self.basis.small:
            views = [_int_array(v) for v in views]
        for v in views:
            v.flags.writeable = False
        return views

    @property
    def constant(self) -> int:
        return int(self.x[0])

    def coefficient(self, monomial) -> int:
        """The coefficient of a monomial of the basis; a letter out of range
        or a degree above q is outside every basis on X_1..X_n."""
        monomial = tuple(monomial)
        try:
            return int(self.x[self.basis.pos[monomial]])
        except KeyError:
            raise ValueError(f"monomial {monomial} is outside the basis") from None

    def _l1_peak(self) -> tuple[float, float]:
        """``norms`` of an int64 vector, cached, since a series never
        changes after construction."""
        if self._norms is None:
            self._norms = norms(self.x)
        return self._norms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.basis == other.basis and list(self.x) == list(other.x)

    def _solve(self, other: "Series", sign: int) -> "Series":
        """The unknown out of the identity x y = u v (module docstring), with
        p self and o other: the product p o, (p, o | out, 1), at sign +1 and
        the right quotient q o = p, (p, 1 | out, o), at sign -1.  Its ends
        are p + sign o; each degree from 2 is one ``Basis.inner`` step.

        One ``fits`` rule guards every int64 step: the b of a monomial's
        splits w = ab are distinct, o[()] = 1 and the 1's terms are 0, so
        |out[w]| <= peak(p) + (L1(o) - 1) max(1, peak(l)), with l = p for
        the product and l = q for the quotient.  A product asks it once; a
        quotient before its ends and before each degree, with the largest
        |q[a]| so far.
        """
        if not isinstance(other, Series):
            return NotImplemented
        b = self.basis
        if b != other.basis:
            raise ValueError("series bases differ")
        if self.constant != 1 or other.constant != 1:
            raise ValueError("series products and quotients need constant term 1")
        p, o = self.x, other.x
        int64 = not b.small and is_int64(p) and is_int64(o)
        if int64:
            start, l1 = self._l1_peak()[1], other._l1_peak()[0] - 1
            peak = start if sign > 0 else 1.0
        if not (b.small or (int64 and fits(start, l1, peak))):
            p, o = widen(p), widen(o)
        # the ends, where a or b is empty, then one step per degree from 2
        op = add if sign > 0 else sub
        out = list(map(op, p, o)) if b.small else op(p, o)
        out[0] = 1
        one = unit(b).x
        for d in range(2, b.q + 1):
            lo, hi = b.bounds[d], b.bounds[d + 1]
            if sign < 0 and is_int64(out):
                peak = max(peak, norms(out, b.bounds[d - 1], lo)[1])
                if not fits(start, l1, peak):
                    out, o = widen(out), widen(o)
            y, v = (o, one) if sign > 0 else (one, o)
            out[lo:hi] = b.inner(d, out[lo:hi], p, y, out, v)
        return Series(b, out)

    def __mul__(self, other: "Series") -> "Series":
        """The product, ``_solve`` with sign +1."""
        return self._solve(other, 1)

    def __truediv__(self, other: "Series") -> "Series":
        """The right quotient q with q o = p, where p is self and o is
        other, ``_solve`` with sign -1."""
        return self._solve(other, -1)

    def inverse(self) -> "Series":
        """Group inverse, the quotient 1 / self; requires constant term 1."""
        return unit(self.basis) / self

    def monomials(self):
        """Yield (monomial, coefficient) with nonzero coefficient, ordered by
        (degree, lexicographic monomial)."""
        for w, c in zip(self.basis.words, self.x):
            if c:
                yield w, int(c)

    def __str__(self) -> str:
        parts = []
        for mono, c in self.monomials():
            body = "".join(f"X{v}" for v in mono)
            if mono and abs(c) == 1:
                term = body
            elif mono:
                term = f"{abs(c)}{body}"
            else:
                term = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    __repr__ = __str__


def _int_array(values):
    np = _numpy()
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def unit(basis: Basis) -> Series:
    s = Series(basis)
    s.x[0] = 1
    return s


def generator_series(j: int, basis: Basis) -> Series:
    """1 + X_j on the basis, or 1 where X_j is outside it."""
    if type(j) is not int or not 1 <= j <= basis.n:
        raise ValueError(f"variable index {j!r} out of range 1..{basis.n}")
    s = unit(basis)
    if (j,) in basis.pos:
        s.x[basis.pos[(j,)]] = 1
    return s


def meridian_walk(basis: Basis, comps, passages) -> list:
    """The graded meridian recursion of a Wirtinger walk on a basis: the
    Magnus series of every arc's meridian, solved degree by degree through
    the basis's top degree.  ``comps`` gives each arc's component, in arc
    order, and ``passages`` the under-passages that lead to a further arc,
    as (arc in, arc out, over-arc, sign) in walk order.

    No passage changes degree 1: a conjugate of m has m's degree-1 part.
    So every arc of component c starts at 1 + X_c, and the walk solves
    degrees 2..q.  A passage under o takes m to m' by the identity
    x y = u v (module docstring), where (x, y | u, v) is (m, o | o, m') at
    sign +1 (m' = o^-1 m o) and (o, m | m', o) at sign -1 (m' = o m o^-1).
    Its ends are m's at either sign, so degree d of m' is one
    ``Basis.inner`` step, m'[d] = m[d] + s(x, y)[d] - s(u, v)[d], which
    reads degrees below d only.  One walk per degree, in walk order,
    therefore fills degree d of every arc.  The result is the fixed point
    of the depth-by-depth refinement, which it equals at depth q + 1
    (depth stability: Milnor, Isotopy of links, 1957).
    """
    gens = {c: generator_series(c, basis).x for c in set(comps)}
    m = [gens[c][:] for c in comps]
    if not basis.small:
        m = np.array(m)
    # each passage as the arcs of its step: in, out, then x, y and u, v
    steps = [(a, out, *((a, o, o, out) if sign == 1 else (o, a, out, o)))
             for a, out, o, sign in passages]
    # the largest row L1 norm and the largest entry over the finished
    # degrees, while the rows are int64
    l1 = peak = 0.0
    bounds, inner = basis.bounds, basis.inner
    for deg in range(2, basis.q + 1):
        lo, hi = bounds[deg], bounds[deg + 1]
        if is_int64(m):
            deg_l1, deg_peak = norms(m, bounds[deg - 1], lo)
            l1, peak = l1 + deg_l1, max(peak, deg_peak)
            # each passage's step adds s(x, y) - s(u, v), at most
            # 2 l1 peak, to a running value that starts at most 1
            if not fits(1.0, 2 * len(passages) * l1, peak):
                m = widen(m)
        for a, out, x, y, u, v in steps:
            m[out][lo:hi] = inner(deg, m[a][lo:hi], m[x], m[y], m[u], m[v])
    # each row wrapped once, so its guard norms are computed once
    return [Series(basis, row) for row in m]


def expand(word: Word, q: int) -> Series:
    """Magnus expansion of a ``freegroup.Word``, truncated beyond degree q."""
    basis = dense(word.rank, q)
    out = unit(basis)
    for x in word.letters:
        g = generator_series(abs(x), basis)
        out = out * g if x > 0 else out / g
    return out
