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
tabulates the inner splits w = uv (u and v both nonempty) of every
monomial, in basis order, as pairs of positions; the two splits with u or v
empty are the ends x0 y[w] + x[w] y0, added once per monomial.  So a
product is one gather and one multiply over that table, one segment sum and
the ends, and the table's slice of one degree gives ``Basis.inner``: the
step by which a graded recursion solves one degree from the degrees below
it.  The basis picks one of two kernels from its split count (every split,
len(w) + 1 per monomial):

* below ``NUMPY_SPLITS`` splits the vector is a list of Python integers, the
  gathers are prebuilt ``operator.itemgetter``s and the segment sum is a
  running sum differenced at each segment end.  Python integers are exact,
  so no guard is needed, and numpy is never imported;
* from ``NUMPY_SPLITS`` on the vector is an int64 array and the segment sum
  is one ``np.add.reduceat`` over the runs of the monomials of degree 2 and
  up.  Exactness is preserved by an overflow guard: every output
  coefficient is bounded by L1(a) * peak(b), computed in floating point,
  and above 2**60 the product is taken with Python-integer (object) dtype
  instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from operator import add, itemgetter, mul, neg, sub

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
    both nonempty) are tabulated, d - 1 per degree-d monomial in basis
    order: ``inner`` sums over those of one degree, the step of every
    graded recursion, and a product sums over all of them at once.
    """

    __slots__ = (
        "n", "q", "words", "pos", "bounds", "splits", "small", "_product", "_inner",
        "_hash",
    )

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
        # the inner splits of every monomial, and where each monomial's run
        # of them begins, with the table's length appended
        left, right, cuts = [], [], []
        try:
            for w in words:
                cuts.append(len(left))
                for k in range(1, len(w)):
                    left.append(pos[w[:k]])
                    right.append(pos[w[k:]])
        except KeyError as exc:
            raise ValueError(f"monomial set is not factor-closed: {exc}") from None
        cuts.append(len(left))
        degrees = [len(w) for w in words]
        self.bounds = bounds = [bisect_left(degrees, d) for d in range(q + 2)]
        self.splits = sum(degrees) + len(words)
        self.small = self.splits < NUMPY_SPLITS
        spans = [(cuts[bounds[d]], cuts[bounds[d + 1]]) for d in range(2, q + 1)]
        if self.small:
            self._product = (_gather(left), _gather(right), _gather(cuts))
            self._inner = [(_gather(left[i:j]), _gather(right[i:j])) for i, j in spans]
        else:
            np = _numpy()
            left = np.array(left, dtype=np.intp)
            right = np.array(right, dtype=np.intp)
            # the first monomial of degree 2 or more, and where the run of
            # each one from there begins
            lo = bounds[min(q + 1, 2)]
            self._product = (left, right, lo, np.array(cuts[lo:-1], dtype=np.intp))
            self._inner = [(left[i:j], right[i:j]) for i, j in spans]
        self._hash = hash((n, self.words))

    def inner(self, d: int, x, y, acc=None, sign: int = 1, extra=None):
        """acc + sign * (s + extra) over the monomials of degree d, where s
        sums x[u] y[v] over each monomial's d - 1 inner splits w = uv (u and
        v nonempty); acc and extra are degree-d slices, zero when None.

        Only degrees 1..d-1 of x and y are read, so a recursion that solves
        degree d from lower degrees can call it on the vectors it is
        filling.  Every argument is a coefficient vector or slice of this
        basis's kernel; the result is a new list or array.
        """
        if self.small:
            if d > 1:
                gather_left, gather_right = self._inner[d - 2]
                terms = map(mul, gather_left(x), gather_right(y))
                run = list(itertools.accumulate(terms, initial=0))
                sums = map(sub, run[d - 1 :: d - 1], run[: -1 : d - 1])
            else:
                sums = itertools.repeat(0, self.bounds[2] - self.bounds[1])
            if extra is not None:
                sums = map(add, sums, extra)
            if acc is None:
                return list(sums if sign > 0 else map(neg, sums))
            return list(map(add if sign > 0 else sub, acc, sums))
        if d > 1:
            left, right = self._inner[d - 2]
            sums = (x[left] * y[right]).reshape(-1, d - 1).sum(axis=1)
        else:
            sums = np.zeros(self.bounds[2] - self.bounds[1], dtype=np.int64)
        if extra is not None:
            sums = sums + extra
        if acc is None:
            return sums if sign > 0 else -sums
        return acc + sums if sign > 0 else acc - sums

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self is other or (self.n == other.n and self.words == other.words)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Basis(n={self.n}, q={self.q}, size={len(self.words)})"


@lru_cache(maxsize=32)
def _basis(n: int, words: frozenset) -> Basis:
    return Basis(n, words)


def closure(n: int, monomials) -> Basis:
    """The smallest factor-closed basis containing the given monomials."""
    seen = {()}
    frontier = [tuple(w) for w in monomials]
    while frontier:
        w = frontier.pop()
        if w not in seen:
            seen.add(w)
            frontier += (w[:-1], w[1:])
    return _basis(n, frozenset(seen))


@lru_cache(maxsize=32)
def dense(n: int, q: int) -> Basis:
    """Every monomial of degree at most q: plain degree truncation."""
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    letters = range(1, n + 1)
    words = (w for d in range(q + 1) for w in itertools.product(letters, repeat=d))
    return _basis(n, frozenset(words))


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
        if not isinstance(other, Series):
            return NotImplemented
        b = self.basis
        if b != other.basis:
            raise ValueError("series bases differ")
        x, y = self.x, other.x
        x0, y0 = x[0], y[0]
        if b.small:
            # a running sum over the inner splits, differenced at each
            # monomial's run, and the two ends x0 y[w] + x[w] y0
            gather_left, gather_right, gather_cuts = b._product
            terms = map(mul, gather_left(x), gather_right(y))
            at = gather_cuts(list(itertools.accumulate(terms, initial=0)))
            ends = map(
                add,
                y if x0 == 1 else map(mul, itertools.repeat(x0), y),
                x if y0 == 1 else map(mul, x, itertools.repeat(y0)),
            )
            out = list(map(add, map(sub, at[1:], at[:-1]), ends))
            out[0] = x0 * y0
            return Series(b, out)
        # |out[w]| <= sum over splits w = uv of |x[u]| |y[v]| <= L1(x) peak(y),
        # partial sums included, since the u of distinct splits differ
        if (
            x.dtype == object
            or y.dtype == object
            or self._l1_peak()[0] * other._l1_peak()[1] > _GUARD
        ):
            x, y = x.astype(object), y.astype(object)
            x0, y0 = x[0], y[0]
        left, right, lo, runs = b._product
        out = x0 * y + x * y0
        out[0] = x0 * y0
        out[lo:] += np.add.reduceat(x[left] * y[right], runs)
        return Series(b, out)

    def inverse(self) -> "Series":
        """Ring inverse; requires constant term +1 or -1.

        Solved degree by degree from x * y = 1: for w nonempty,
        y[w] = -(x[w] + c0 * s[w]), where s sums x[u] y[v] over the inner
        splits w = uv (``Basis.inner``), every such v shorter than w.  The
        work is that of one product.
        """
        c0 = self.constant
        if c0 not in (1, -1):
            raise ValueError("series with constant term != +-1 has no inverse")
        b = self.basis
        x = self.x
        y = Series(b).x
        y[0] = c0
        if not b.small:
            # |y[w]| <= (L1(x) - |c0|) peak(y over shorter monomials)
            l1 = np.inf if x.dtype == object else self._l1_peak()[0] - 1.0
            peak = 1.0
        for d in range(1, self.q + 1):
            lo, hi = b.bounds[d], b.bounds[d + 1]
            if not b.small and y.dtype != object and l1 * peak > _GUARD:
                x, y = x.astype(object), y.astype(object)
            part = x[lo:hi]
            if c0 == -1:
                part = [-v for v in part] if b.small else -part
            y[lo:hi] = b.inner(d, x, y, None, -c0, part)
            if not b.small and y.dtype != object:
                peak = max(peak, float(np.abs(y[lo:hi].astype(np.float64)).max()))
        return Series(b, y)

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
