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
tabulates, degree by degree from 2, the inner splits w = uv (u and v both
nonempty) of every monomial, as two position lists; ``Basis.inner`` sums
the products over those of one degree.  Degree 1 has no inner split, so no
operation sums there: a product or quotient writes it directly, and the
meridian walk starts every arc at its generator 1 + X_c
(``meridian_rows``).  Every series operation is one graded recursion
on that step: a product x y is solved degree by degree from
out[w] = x0 y[w] + x[w] y0 + s(x, y)[w], a right quotient p / o from the
same identity read for q in q o = p, the inverse is the quotient 1 / o, and
the meridian walk of ``wirtinger`` solves its conjugations the same way.
The basis picks one of two kernels from its split count (every split,
len(w) + 1 per monomial):

* below ``NUMPY_SPLITS`` splits the vector is a list of Python integers,
  a degree's products are one comprehension over its position lists and
  each monomial's d - 1 consecutive products are summed.  Python integers
  are exact, so no guard is needed, and numpy is never imported;
* from ``NUMPY_SPLITS`` on the vector is an int64 array, the position lists
  are ``np.intp`` arrays and a degree's sums are one gather, multiply and
  reshaped row sum.  Exactness rests on one rule, ``fits``: before each
  int64 step (a product, a quotient's degree, a degree of the meridian
  walk) every value it computes is bounded in floating point from norms
  taken by ``norms``, and past 2**60 the step and everything after it run
  with Python-integer (object) dtype instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import add, sub

_GUARD = float(2**60)
# Split count from which a basis uses the numpy kernel: every split is
# counted (len(w) + 1 per monomial w), though only the inner ones are
# stored.  Measured on a 2-CPU x86-64 machine, Python 3.11, numpy 2.4, on
# the graded meridians and longitudes of 3-component links and their
# 2-cables (23 to 877 reduced crossings): the Python kernel takes 2.3-2.9x
# numpy's time at 583 and 940 splits, 5-8x at 2,383.  Importing numpy
# costs 0.145 s of CPU, which below 1024 splits exceeds what numpy saves on
# every query measured (at most 0.10 s, the 877-crossing cable at 583
# splits), and at 2,383 splits no longer does (0.54 s saved there).  So
# every link-homotopy query (at most 141 splits), the r <= 2 table of a
# 3-component link (940) and every length of the doubling scan of a
# 3-component link (at most 587, at length 6) stay on Python integers: no
# 3-component self-delta report loads numpy.  The r <= 2 table of a
# 4-component link (35,157) and the doubling scan of one from length 5
# (1,773) use numpy.
NUMPY_SPLITS = 1024

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
    an int64 vector or block of rows, in float64 so that neither wraps."""
    a = np.abs(a[..., lo:hi], dtype=np.float64)
    return float(np.max(a.sum(axis=-1), initial=0.0)), float(np.max(a, initial=0.0))


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
    splits w = uv of every monomial, len(w) + 1 each; below
    ``NUMPY_SPLITS`` of them ``small`` is true and coefficient vectors are
    Python lists, otherwise numpy arrays.  Only the inner splits (u and v
    both nonempty) are tabulated, d - 1 per degree-d monomial, as one pair
    of position lists per degree from 2 (degree 1 has none): ``inner`` sums
    over one of them, the step of every series operation.
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

    def inner(self, d: int, x, y, acc, sign: int = 1):
        """acc + sign * s over the monomials of degree d >= 2, where s sums
        x[u] y[v] over each monomial's d - 1 inner splits w = uv (u and v
        nonempty); acc is a degree-d slice, or on the Python kernel any
        iterable of one.  Degree 1 has no inner splits and no table, so a
        call at d = 1 raises ``KeyError``.

        Only degrees 1..d-1 of x and y are read, so a recursion that solves
        degree d from lower degrees can call it on the vectors it is
        filling.  Every argument is a coefficient vector or slice of this
        basis's kernel; the result is a new list or array.
        """
        left, right = self._inner[d]
        if self.small:
            terms = iter([x[i] * y[j] for i, j in zip(left, right)])
            # each monomial's d - 1 consecutive terms, summed
            sums = terms if d == 2 else map(sum, zip(*[terms] * (d - 1)))
            return list(map(add if sign > 0 else sub, acc, sums))
        sums = (x[left] * y[right]).reshape(-1, d - 1).sum(axis=1)
        return acc + sums if sign > 0 else acc - sums

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

    def __mul__(self, other: "Series") -> "Series":
        """The product, solved degree by degree: for w nonempty,
        out[w] = x0 y[w] + x[w] y0 + s(x, y)[w], where s sums x[u] y[v] over
        the inner splits w = uv (``Basis.inner``)."""
        if not isinstance(other, Series):
            return NotImplemented
        b = self.basis
        if b != other.basis:
            raise ValueError("series bases differ")
        x, y = self.x, other.x
        # out[w] sums x[u] y[v] over every split w = uv, whose u differ
        if not b.small and not (
            is_int64(x) and is_int64(y) and fits(0.0, self._l1_peak()[0], other._l1_peak()[1])
        ):
            x, y = widen(x), widen(y)
        x0, y0 = self.constant, other.constant
        # the splits with u or v empty, then every degree's inner splits;
        # degree 1 has none
        left, right = _scaled(x0, y), _scaled(y0, x)
        out = list(map(add, left, right)) if b.small else left + right
        out[0] = x0 * y0
        for d in range(2, b.q + 1):
            lo, hi = b.bounds[d], b.bounds[d + 1]
            out[lo:hi] = b.inner(d, x, y, out[lo:hi])
        return Series(b, out)

    def __truediv__(self, other: "Series") -> "Series":
        """The right quotient q with q o = p, where p is self and o is other;
        requires o's constant term o0 to be +1 or -1.

        Solved degree by degree from the product's identity: for w nonempty,
        q[w] = o0 (p[w] - q0 o[w] - s(q, o)[w]), where s reads only the
        degrees of q below w's, which are solved already.
        """
        if not isinstance(other, Series):
            return NotImplemented
        b = self.basis
        if b != other.basis:
            raise ValueError("series bases differ")
        c0 = other.constant
        if c0 not in (1, -1):
            raise ValueError("series with constant term != +-1 has no inverse")
        p, o = self.x, other.x
        p0 = self.constant
        q0 = c0 * p0
        q = [0] * len(b) if b.small else np.zeros_like(p)
        if not b.small and not (is_int64(p) and is_int64(o)):
            p, o, q = widen(p), widen(o), widen(q)
        q[0] = q0
        peak = float(abs(q0))
        for d in range(1, b.q + 1):
            lo, hi = b.bounds[d], b.bounds[d + 1]
            # o0 q[w] is p[w] less q[u] o[v] over the splits w = uv with v
            # nonempty, whose v differ and whose u are shorter than w
            if is_int64(q) and not fits(self._l1_peak()[1], other._l1_peak()[0] - 1, peak):
                p, o, q = widen(p), widen(o), widen(q)
            # o0 (p[w] - q0 o[w]), the split with u empty, since o0 q0 = p0;
            # degree 1 has no other split
            left, right = _scaled(c0, p[lo:hi]), _scaled(p0, o[lo:hi])
            acc = map(sub, left, right) if b.small else left - right
            q[lo:hi] = b.inner(d, q, o, acc, -c0) if d > 1 else acc
            if is_int64(q):
                peak = max(peak, norms(q, lo, hi)[1])
        return Series(b, q)

    def inverse(self) -> "Series":
        """Ring inverse, the quotient 1 / self; requires constant term +1 or
        -1."""
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


def _scaled(c: int, part):
    """c times a coefficient slice, the slice itself when c is 1."""
    if c == 1:
        return part
    return [c * v for v in part] if isinstance(part, list) else c * part


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


def generator_series(j: int, sign: int, basis: Basis) -> Series:
    """1 + X_j for sign +1; 1 - X_j + X_j^2 - ... for -1, on the basis."""
    if type(j) is not int or not 1 <= j <= basis.n:
        raise ValueError(f"variable index {j!r} out of range 1..{basis.n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = unit(basis)
    for d in range(1, basis.q + 1 if sign == -1 else min(basis.q, 1) + 1):
        i = basis.pos.get((j,) * d)
        if i is None:
            break
        s.x[i] = sign**d
    return s


def meridian_rows(basis: Basis, comps):
    """The coefficient vectors of 1 + X_c for each c of comps, in order, on
    basis's kernel: a list of lists, or the rows of one int64 matrix."""
    gens = {c: generator_series(c, 1, basis).x for c in set(comps)}
    rows = [gens[c][:] for c in comps]
    return rows if basis.small else np.array(rows)


def expand(word: Word, q: int) -> Series:
    """Magnus expansion of a ``freegroup.Word``, truncated beyond degree q."""
    basis = dense(word.rank, q)
    out = unit(basis)
    for x in word.letters:
        out = out * generator_series(abs(x), 1 if x > 0 else -1, basis)
    return out
