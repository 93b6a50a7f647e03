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

A series is one flat coefficient vector over its basis.  The basis lists
every split w = uv of every monomial as a pair of positions, so a product is
one gather, one multiply and one segment sum.  The basis picks one of two
kernels from the length of that split table:

* below ``NUMPY_SPLITS`` splits the vector is a list of Python integers, the
  gathers are prebuilt ``operator.itemgetter``s and the segment sum is a
  running sum differenced at each segment end.  Python integers are exact,
  so no guard is needed, and numpy is never imported;
* from ``NUMPY_SPLITS`` on the vector is an int64 array and the segment sum
  is ``np.add.reduceat``.  Exactness is preserved by an overflow guard: every
  output coefficient is bounded by L1(a) * peak(b), computed in floating
  point, and above 2**60 the product is taken with Python-integer (object)
  dtype instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter, mul, neg, sub

from .freegroup import Word

_GUARD = float(2**60)
# Split-table size from which a basis uses the numpy kernel.  Measured on a
# 2-CPU x86-64 machine, Python 3.11, numpy 2.4: a product costs the same in
# both kernels near 130 splits (about 12 us) and 2.4x more in Python at 261;
# the Python inverse stays faster up to about 400 splits; numpy is 4-6x
# faster at 900 splits and 13x at 6,700.  Importing numpy costs 0.16 s of
# CPU, which below 256 splits outweighs what numpy saves on the few thousand
# products of a query: every link-homotopy query (at most 141 splits) and the
# n = 2 self-delta queries stay on the Python side and never import it.
NUMPY_SPLITS = 256

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
    positions; ``itemgetter`` alone returns a bare item for one position."""
    if len(positions) == 1:
        (i,) = positions
        return lambda s: (s[i],)
    return itemgetter(*positions)


class Basis:
    """A factor-closed monomial set in X_1..X_n, sorted by (degree, lex).

    ``pos`` maps each monomial to its position.  ``left[k]``/``right[k]``
    are the positions of u and v for the k-th split w = uv; the splits of
    the i-th monomial start at ``starts[i]``, shortest u first.
    ``bounds[d]`` is the position of the first monomial of degree d.  On a
    basis of fewer than ``NUMPY_SPLITS`` splits ``small`` is true and the
    split table is held in Python lists; otherwise in numpy arrays.
    """

    __slots__ = (
        "n", "q", "words", "pos", "left", "right", "starts", "bounds", "small",
        "_mul_plan", "_inverse_plan", "_hash",
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
        left, right, starts = [], [], []
        try:
            for w in words:
                starts.append(len(left))
                for k in range(len(w) + 1):
                    left.append(pos[w[:k]])
                    right.append(pos[w[k:]])
        except KeyError as exc:
            raise ValueError(f"monomial set is not factor-closed: {exc}") from None
        degrees = [len(w) for w in words]
        self.bounds = bounds = [bisect_left(degrees, d) for d in range(q + 2)]
        self.small = len(left) < NUMPY_SPLITS
        if self.small:
            self.left, self.right, self.starts = left, right, starts
            # running sum position of each monomial's last split
            ends = [s - 1 for s in starts[1:]] + [len(left) - 1]
            self._mul_plan = (_gather(left), _gather(right), _gather(ends))
            # per degree d >= 1: the splits with u nonempty, d per monomial
            self._inverse_plan = []
            for d in range(1, q + 1):
                lo, hi = bounds[d], bounds[d + 1]
                ks = [s + k for s in starts[lo:hi] for k in range(1, d + 1)]
                gather_left = _gather([left[k] for k in ks])
                gather_right = _gather([right[k] for k in ks])
                self._inverse_plan.append((d, lo, hi, gather_left, gather_right))
        else:
            np = _numpy()
            self.left = np.array(left, dtype=np.intp)
            self.right = np.array(right, dtype=np.intp)
            self.starts = np.array(starts, dtype=np.intp)
            self._mul_plan = self._inverse_plan = None
        self._hash = hash((n, self.words))

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

    def _position(self, monomial) -> int:
        monomial = tuple(monomial)
        for v in monomial:
            if not 1 <= v <= self.n:
                raise ValueError(f"variable index {v} out of range 1..{self.n}")
        if len(monomial) > self.q:
            raise ValueError(
                f"monomial degree {len(monomial)} exceeds truncation {self.q}"
            )
        try:
            return self.basis.pos[monomial]
        except KeyError:
            raise ValueError(f"monomial {monomial} is outside the basis") from None

    def coefficient(self, monomial) -> int:
        return int(self.x[self._position(monomial)])

    def set_coefficient(self, monomial, value: int) -> None:
        self.x[self._position(monomial)] = int(value)
        self._norms = None

    def _l1_peak(self) -> tuple[float, float]:
        """L1 norm and largest magnitude of an int64 vector, in float64 so
        that neither can wrap; cached, series are not changed by products."""
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
        if b.small:
            gather_left, gather_right, gather_ends = b._mul_plan
            run = itertools.accumulate(map(mul, gather_left(x), gather_right(y)))
            ends = gather_ends(list(run))
            return Series(b, list(map(sub, ends, (0,) + ends[:-1])))
        # |out[w]| <= sum over splits w = uv of |x[u]| |y[v]| <= L1(x) peak(y),
        # partial sums included, since the u of distinct splits differ
        if (
            x.dtype == object
            or y.dtype == object
            or self._l1_peak()[0] * other._l1_peak()[1] > _GUARD
        ):
            x, y = x.astype(object), y.astype(object)
        return Series(b, np.add.reduceat(x[b.left] * y[b.right], b.starts))

    def inverse(self) -> "Series":
        """Ring inverse; requires constant term +1 or -1.

        Solved degree by degree from x * y = 1: for w nonempty,
        y[w] = -c0 * sum over splits w = uv, u nonempty, of x[u] y[v], and
        every such v is shorter than w.  The work is that of one product.
        """
        c0 = self.constant
        if c0 not in (1, -1):
            raise ValueError("series with constant term != +-1 has no inverse")
        b = self.basis
        if b.small:
            x = self.x
            y = [0] * len(b)
            y[0] = c0
            for d, lo, hi, gather_left, gather_right in b._inverse_plan:
                terms = map(mul, gather_left(x), gather_right(y))
                run = list(itertools.accumulate(terms, initial=0))
                # each monomial of degree d has d splits with u nonempty
                sums = map(sub, run[d::d], run[:-1:d])
                y[lo:hi] = map(neg, sums) if c0 == 1 else sums
            return Series(b, y)
        x = self.x.copy()
        x[0] = 0
        y = np.zeros_like(x)
        y[0] = c0
        l1 = np.inf if x.dtype == object else self._l1_peak()[0] - 1.0
        peak = 1.0
        for d in range(1, self.q + 1):
            lo, hi = b.bounds[d], b.bounds[d + 1]
            if y.dtype != object and l1 * peak > _GUARD:
                x, y = x.astype(object), y.astype(object)
            s0 = b.starts[lo]
            s1 = b.starts[hi] if hi < len(b) else len(b.left)
            terms = x[b.left[s0:s1]] * y[b.right[s0:s1]]
            y[lo:hi] = np.add.reduceat(terms, b.starts[lo:hi] - s0) * -c0
            if y.dtype != object:
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


def zero(n: int, q: int) -> Series:
    return Series(dense(n, q))


def one(n: int, q: int) -> Series:
    return unit(dense(n, q))


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
