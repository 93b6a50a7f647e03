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
tabulates, degree by degree, the inner splits w = uv (u and v both nonempty)
of every monomial, as pairs of positions; ``Basis.inner`` sums the products
over those of one degree.  Every series operation is one graded recursion
on that step: a product x y is solved degree by degree from
out[w] = x0 y[w] + x[w] y0 + s(x, y)[w], a right quotient p / o from the
same identity read for q in q o = p, the inverse is the quotient 1 / o, and
the meridian walk of ``wirtinger`` solves its conjugations the same way.
The basis picks one of two kernels from its split count (every split,
len(w) + 1 per monomial):

* below ``NUMPY_SPLITS`` splits the vector is a list of Python integers, the
  gathers are prebuilt ``operator.itemgetter``s and each monomial's d - 1
  consecutive products are summed.  Python integers are exact, so no guard
  is needed, and numpy is never imported;
* from ``NUMPY_SPLITS`` on the vector is an int64 array and a degree's sums
  are one gather, multiply and reshaped row sum.  Exactness is preserved by
  an overflow guard: every value an operation computes is bounded in
  floating point, and above 2**60 it is taken with Python-integer (object)
  dtype instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from operator import add, itemgetter, mul, sub

from .freegroup import Word

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


def _gather(positions):
    """A function mapping a sequence to the tuple of its items at the given
    positions; ``itemgetter`` alone returns a bare item for one position and
    takes no empty list."""
    if len(positions) <= 1:
        return lambda s: tuple(s[i] for i in positions)
    return itemgetter(*positions)


class Basis:
    """A factor-closed monomial set in X_1..X_n, sorted by (degree, lex).

    ``pos`` maps each monomial to its position and ``bounds[d]`` is the
    position of the first monomial of degree d.  ``splits`` counts the
    splits w = uv of every monomial, len(w) + 1 each; below
    ``NUMPY_SPLITS`` of them ``small`` is true and coefficient vectors are
    Python lists, otherwise numpy arrays.  Only the inner splits (u and v
    both nonempty) are tabulated, d - 1 per degree-d monomial, one table per
    degree: ``inner`` sums over one of them, the step of every series
    operation.
    """

    __slots__ = ("n", "q", "words", "pos", "bounds", "splits", "small", "_inner")

    def __init__(self, n: int, words):
        words = sorted(words, key=lambda w: (len(w), w))
        if n < 1 or not words or words[0] != ():
            raise ValueError("a basis needs n >= 1 and the empty monomial")
        for w in words:
            if len(w) == 1 and not 1 <= w[0] <= n:
                raise ValueError(f"variable index {w[0]} out of range 1..{n}")
        self.n = n
        self.q = q = len(words[-1])
        self.words = tuple(words)
        self.pos = pos = {w: i for i, w in enumerate(words)}
        degrees = [len(w) for w in words]
        self.bounds = bounds = [bisect_left(degrees, d) for d in range(q + 2)]
        self.splits = sum(degrees) + len(words)
        self.small = self.splits < NUMPY_SPLITS
        # the positions of u and v over the inner splits w = uv of each
        # degree's monomials, in basis order
        self._inner = []
        for d in range(2, q + 1):
            layer = words[bounds[d] : bounds[d + 1]]
            try:
                left = [pos[w[:k]] for w in layer for k in range(1, d)]
                right = [pos[w[k:]] for w in layer for k in range(1, d)]
            except KeyError as exc:
                raise ValueError(f"monomial set is not factor-closed: {exc}") from None
            if self.small:
                self._inner.append((_gather(left), _gather(right)))
            else:
                np = _numpy()
                self._inner.append((np.array(left, np.intp), np.array(right, np.intp)))

    def inner(self, d: int, x, y, acc, sign: int = 1, extra=None):
        """acc + sign * (s + extra) over the monomials of degree d, where s
        sums x[u] y[v] over each monomial's d - 1 inner splits w = uv (u and
        v nonempty); acc and extra are degree-d slices, extra zero when None.

        Only degrees 1..d-1 of x and y are read, so a recursion that solves
        degree d from lower degrees can call it on the vectors it is
        filling.  Every argument is a coefficient vector or slice of this
        basis's kernel; the result is a new list or array.
        """
        if self.small:
            if d > 1:
                gather_left, gather_right = self._inner[d - 2]
                terms = map(mul, gather_left(x), gather_right(y))
                # each monomial's d - 1 consecutive terms, summed
                sums = terms if d == 2 else map(sum, zip(*[terms] * (d - 1)))
            else:
                sums = itertools.repeat(0, self.bounds[2] - self.bounds[1])
            if extra is not None:
                sums = map(add, sums, extra)
            return list(map(add if sign > 0 else sub, acc, sums))
        if d > 1:
            left, right = self._inner[d - 2]
            sums = (x[left] * y[right]).reshape(-1, d - 1).sum(axis=1)
        else:
            sums = np.zeros(self.bounds[2] - self.bounds[1], dtype=np.int64)
        if extra is not None:
            sums = sums + extra
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


@lru_cache(maxsize=32)
def dense(n: int, q: int) -> Basis:
    """Every monomial of degree at most q: plain degree truncation."""
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
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
        monomial = tuple(monomial)
        for v in monomial:
            if not 1 <= v <= self.n:
                raise ValueError(f"variable index {v} out of range 1..{self.n}")
        if len(monomial) > self.q:
            raise ValueError(
                f"monomial degree {len(monomial)} exceeds truncation {self.q}"
            )
        try:
            return int(self.x[self.basis.pos[monomial]])
        except KeyError:
            raise ValueError(f"monomial {monomial} is outside the basis") from None

    def _l1_peak(self) -> tuple[float, float]:
        """L1 norm and largest magnitude of an int64 vector, in float64 so
        that neither can wrap; cached, since a series never changes after
        construction."""
        if self._norms is None:
            a = np.abs(self.x.astype(np.float64))
            self._norms = (float(a.sum()), float(a.max()))
        return self._norms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.basis.small:
            return self.basis == other.basis and self.x == other.x
        return self.basis == other.basis and np.array_equal(self.x, other.x)

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
        # |out[w]| <= sum over every split w = uv of |x[u]| |y[v]|
        # <= L1(x) peak(y), partial sums included, since the u of distinct
        # splits differ
        if not b.small and (
            x.dtype == object
            or y.dtype == object
            or self._l1_peak()[0] * other._l1_peak()[1] > _GUARD
        ):
            x, y = x.astype(object), y.astype(object)
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
        q0 = c0 * self.constant
        q = [0] * len(b) if b.small else np.zeros_like(p)
        q[0] = q0
        if not b.small:
            if p.dtype == object or o.dtype == object:
                p, o, q = p.astype(object), o.astype(object), q.astype(object)
            else:
                # |q[w]| <= peak(p) + peak(q over shorter monomials) (L1(o) - 1),
                # partial sums included, since the v of distinct splits differ
                peak_p, l1_o = self._l1_peak()[1], other._l1_peak()[0] - 1.0
                peak = float(abs(q0))
        for d in range(1, b.q + 1):
            lo, hi = b.bounds[d], b.bounds[d + 1]
            if not b.small and q.dtype != object and peak_p + peak * l1_o > _GUARD:
                p, o, q = p.astype(object), o.astype(object), q.astype(object)
            q[lo:hi] = b.inner(d, q, o, _scaled(c0, p[lo:hi]), -c0, _scaled(q0, o[lo:hi]))
            if not b.small and q.dtype != object:
                peak = max(peak, float(np.abs(q[lo:hi].astype(np.float64)).max()))
        return Series(b, q)

    def inverse(self) -> "Series":
        """Ring inverse, the quotient 1 / self; requires constant term +1 or
        -1."""
        return unit(self.basis) / self

    def monomials(self):
        """Yield (monomial, coefficient) with nonzero coefficient, ordered by
        (degree, lexicographic monomial)."""
        if self.basis.small:
            for w, c in zip(self.basis.words, self.x):
                if c:
                    yield w, c
            return
        for i in np.flatnonzero(self.x):
            yield self.basis.words[i], int(self.x[i])

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
    if not 1 <= j <= basis.n:
        raise ValueError(f"variable index {j} out of range 1..{basis.n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = unit(basis)
    for d in range(1, basis.q + 1 if sign == -1 else min(basis.q, 1) + 1):
        i = basis.pos.get((j,) * d)
        if i is None:
            break
        s.x[i] = sign**d
    return s


def expand(word: Word, q: int, n: int | None = None) -> Series:
    """Magnus expansion of a word, truncated beyond degree q."""
    if n is None:
        n = word.rank
    elif n != word.rank:
        raise ValueError("rank mismatch")
    basis = dense(n, q)
    out = unit(basis)
    for x in word.letters:
        out = out * generator_series(abs(x), 1 if x > 0 else -1, basis)
    return out
