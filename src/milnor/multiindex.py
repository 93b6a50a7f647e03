"""Multi-indices and the generator index families.

A multi-index is a finite sequence of component indices (1-based).  The
classification machinery enumerates two kinds of index data:

* ordered injections pi: {1..k} -> {1..n} with pi(i) < pi(k-1) < pi(k) for
  i <= k-2, which label the iterated-commutator generators used for
  link-homotopy classification, and
* surjections tau: {1..m-2} -> {1..n}\\{k} with every value hit at most twice
  and values above k hit exactly once, which label the doubled generators
  used for self-delta classification.

Surjection families split under value-sequence reversal into a palindromic
part and reversal-asymmetric pairs; enumeration picks the ascending
representative of each pair.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence

Index = tuple[int, ...]


def format_index(index: Sequence[int], n: int) -> str:
    if n <= 9:
        return "".join(str(e) for e in index)
    return ",".join(str(e) for e in index)


class Injection(namedtuple("Injection", "n values")):
    """An injection pi with pi(i) < pi(k-1) < pi(k) for all i <= k-2."""

    __slots__ = ()

    def __new__(cls, n: int, values: Index):
        if any(type(v) is not int for v in (n, *values)):
            raise ValueError(f"n={n!r} and values {values} must be integers")
        k = len(values)
        if k < 2 or k > n:
            raise ValueError(f"arity {k} out of range 2..{n}")
        if len(set(values)) != k:
            raise ValueError(f"values {values} are not pairwise distinct")
        for v in values:
            if not 1 <= v <= n:
                raise ValueError(f"value {v} out of range 1..{n}")
        if values[k - 2] >= values[k - 1]:
            raise ValueError(f"{values}: last two values must increase")
        for v in values[: k - 2]:
            if v >= values[k - 2]:
                raise ValueError(f"{values}: early values must lie below the top pair")
        return super().__new__(cls, n, values)

    @property
    def k(self) -> int:
        return len(self.values)


def injections(k: int, n: int) -> list[Injection]:
    """All ordered injections of arity k into 1..n, lexicographically."""
    if k < 2 or k > n:
        raise ValueError(f"arity must satisfy 2 <= k <= n, got k={k}, n={n}")
    out = []
    for image in itertools.combinations(range(1, n + 1), k):
        head, top = image[: k - 2], image[k - 2 :]
        for prefix in itertools.permutations(head):
            out.append(Injection._make((n, prefix + top)))
    out.sort(key=lambda p: p.values)
    return out


def all_injections(n: int) -> list[Injection]:
    """The injection families for k = 2..n, each lexicographic, concatenated."""
    out: list[Injection] = []
    for k in range(2, n + 1):
        out.extend(injections(k, n))
    return out


class Surjection(namedtuple("Surjection", "n k values")):
    """A surjection tau onto {1..n}\\{k}, values hit at most twice.

    ``m`` is len(values) + 2: the associated invariant reads the index
    tau(1)...tau(m-2) k k of length m.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, values: Index):
        if any(type(v) is not int for v in (n, k, *values)):
            raise ValueError(f"n={n!r}, k={k!r} and values {values} must be integers")
        m = len(values) + 2
        if not 1 <= k <= n:
            raise ValueError(f"excluded component {k} out of range")
        if not n < m <= 2 * n:
            raise ValueError(f"m={m} out of range ({n}, {2 * n}]")
        if set(values) != set(range(1, n + 1)) - {k}:
            raise ValueError(f"{values} is not onto the complement of {k}")
        for v in set(values):
            c = values.count(v)
            if c > 2:
                raise ValueError(f"value {v} hit {c} > 2 times")
            if v > k and c != 1:
                raise ValueError(f"value {v} > k={k} must be hit exactly once")
        return super().__new__(cls, n, k, values)

    @property
    def m(self) -> int:
        return len(self.values) + 2

    def index(self) -> Index:
        """The length-m invariant index tau(1)...tau(m-2) k k."""
        return self.values + (self.k, self.k)


def surjections(m: int, k: int, n: int) -> list[Surjection]:
    """All qualifying surjections for (m, k, n), lexicographically: every
    distinct ordering of each value but k once plus m-1-n values below k
    twice.

    Empty when k < m - n: fewer than m-1-n values lie below k.
    """
    if not n < m <= 2 * n:
        raise ValueError(f"m={m} out of range ({n}, {2 * n}]")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    once = tuple(v for v in range(1, n + 1) if v != k)
    orders = set()
    for twice in itertools.combinations(range(1, k), m - 1 - n):
        orders.update(itertools.permutations(once + twice))
    return [Surjection._make((n, k, values)) for values in sorted(orders)]


def palindromic_surjections(m: int, k: int, n: int) -> list[Surjection]:
    """The reversal-symmetric surjections; nonempty only for m in {2n-1, 2n},
    since a palindrome hits at most one value once."""
    return [t for t in surjections(m, k, n) if t.values == t.values[::-1]]


def ascending_surjections(m: int, k: int, n: int) -> list[Surjection]:
    """One representative per reversal-asymmetric pair: the value sequence is
    smaller than its reversal at the first position where they differ."""
    return [t for t in surjections(m, k, n) if t.values < t.values[::-1]]


def selfdelta_generator_indices(n: int, m: int) -> list[Surjection]:
    """Ascending plus palindromic surjections over all k, for one length m:
    each value sequence no larger than its reversal, by k then values."""
    return [
        t
        for k in range(1, n + 1)
        for t in surjections(m, k, n)
        if t.values <= t.values[::-1]
    ]


def palindromic_partner(phi: Surjection) -> Surjection:
    """The length-2n palindromic surjection matching a length-(2n-1) one on
    its first n-1 values.  This matching is a bijection between the two
    palindromic families at k = n."""
    n = phi.n
    if phi.m != 2 * n - 1 or phi.k != n:
        raise ValueError("defined for palindromic surjections with m = 2n-1, k = n")
    head = phi.values[: n - 1]
    return Surjection(n, n, head + head[::-1])
