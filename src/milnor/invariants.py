"""Milnor invariants: exact values for string links, residue classes for links.

Every value comes from one query, ``evaluate``: for a batch of indices it
reduces the diagram once (``diagram.reduced`` cancels R1 kinks and R2
bigons, which are Tietze moves on the Wirtinger presentation) and reads
the invariant of I as the coefficient of X_{i_1}...X_{i_{m-1}} in the
Magnus expansion of the last index's longitude, exact in every degree
(``wirtinger.longitude_series``), so one expansion per component serves
the whole batch; one call builds them all, and nothing sized by the batch
outlives it.  The expansion lives on the factor closure of the
batch's monomials X_{i_1}...X_{i_{m-1}} (``magnus.closure``): every
monomial outside it lies in an ideal that no coefficient inside it
depends on, so a repetition-free or repetition-2 batch never pays for the
dense truncation at its longest index.

For a closed link the same integer is taken modulo Milnor's indeterminacy
Delta(I), the gcd of the invariants of all indices obtained from I by
deleting at least one entry and permuting the rest cyclically.  By
Milnor's cyclic symmetry (Isotopy of links, 1957, Thm. 6) the invariant
of a classical link is unchanged modulo Delta by rotating its index, so
the gcd over deletions and their rotations equals the gcd over deletions
alone, which is what is computed here.  ``residues`` closes a query set
under one-entry deletion, evaluates the closure once, and assembles Delta
shortest index first by

    Delta(I) = gcd over one-entry deletions J of I of mu(J) and Delta(J).

Every proper deletion is a one-entry deletion or a deletion of one, so the
recursion is exact.  Each call assembles its own closure and keeps nothing
on the link; ``table``'s indices are closed under deletion already, and go
straight to the assembly.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

# magnus and diagram first, the largest compiles, on the fewest modules held
# (the order of cli.py's imports says why)
from . import magnus
from .diagram import _SLOT, Diagram, _must_fit, reduced
from . import wirtinger
from .multiindex import format_index


class Residue(namedtuple("Residue", "value modulus")):
    """An integer modulo a nonnegative modulus; modulus 0 means exact."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int = 0):
        if modulus < 0:
            raise ValueError("modulus must be nonnegative")
        return super().__new__(cls, value % modulus if modulus else value, modulus)

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def _check_index(d: Diagram, index) -> tuple[int, ...]:
    index = tuple(index)
    if len(index) < 2:
        raise ValueError("invariants need indices of length at least 2")
    for i in index:
        if type(i) is not int:
            raise ValueError(f"index entry {i!r} is not an integer")
        if not 1 <= i <= d.n:
            raise ValueError(f"index entry {i} out of range 1..{d.n}")
    return index


def evaluate(d: Diagram, indices) -> dict[tuple[int, ...], int]:
    """The coefficient of each index, read off one longitude expansion per
    component on the factor closure of the batch's monomials."""
    indices = list(dict.fromkeys(_check_index(d, index) for index in indices))
    if not indices:
        return {}
    basis = magnus.closure(d.n, [index[:-1] for index in indices])
    d = reduced(d)
    series = wirtinger.longitude_series(d, {index[-1] for index in indices}, basis)
    return {index: series[index[-1]].coefficient(index[:-1]) for index in indices}


def _deletions(index):
    """The one-entry deletions of length at least 2."""
    if len(index) <= 2:
        return set()
    return {index[:k] + index[k + 1 :] for k in range(len(index))}


def residues(l: Diagram, indices) -> dict[tuple[int, ...], Residue]:
    """Residue-class invariants of a closed link, each modulo the gcd over
    its proper deletion subindices."""
    if not l.closed:
        raise ValueError("residue invariants are defined for closed links")
    indices = [_check_index(l, index) for index in indices]
    todo = set(indices)
    frontier = list(todo)
    while frontier:
        for sub in _deletions(frontier.pop()):
            if sub not in todo:
                todo.add(sub)
                frontier.append(sub)
    known = _assemble(l, todo)
    return {index: known[index] for index in indices}


def _assemble(l: Diagram, closed) -> dict[tuple[int, ...], Residue]:
    """The residue of every index of a set closed under one-entry deletion."""
    values = evaluate(l, closed)
    known = {}
    for index in sorted(values, key=len):
        # gcd(mu(J), Delta(J)) survives the reduction of mu(J) mod Delta(J)
        g = 0
        for sub in _deletions(index):
            g = math.gcd(g, known[sub].value, known[sub].modulus)
        known[index] = Residue(values[index], g)
    return known


def mu(l: Diagram, index) -> int:
    """Exact string-link invariant of one index."""
    if l.closed:
        raise ValueError("exact invariants are defined for string links")
    (value,) = evaluate(l, [index]).values()
    return value


def mu_bar(l: Diagram, index) -> Residue:
    """Residue-class invariant of a closed link."""
    (r,) = residues(l, [index]).values()
    return r


def indeterminacy(l: Diagram, index) -> int:
    """gcd of the invariants of all proper deletion subindices."""
    return mu_bar(l, index).modulus


def invariant(d: Diagram, index) -> Residue:
    """Uniform access: exact for string links, residue for links."""
    if d.closed:
        return mu_bar(d, index)
    return Residue(mu(d, index), 0)


def indices_up_to(n: int, max_len: int, max_r: int):
    """All indices with 2 <= length <= max_len and repetition bound max_r,
    by length then lexicographically.  Each length extends the words of the
    one before by every letter still under the bound, in order, so no word
    outside the bound is built."""
    words = [()]
    for ln in range(1, max_len + 1):
        words = [w + (a,) for w in words for a in range(1, n + 1) if w.count(a) < max_r]
        if not words:
            break  # no word is longer than n * max_r
        if ln >= 2:
            yield from words


_TUPLE = sys.getsizeof(())  # bytes of a tuple before its entries


def _refuse_unlistable(n: int, max_len: int, max_r: int) -> None:
    """Refuse with ``MemoryError`` a table whose indices cannot all be
    listed, each of length k at least a k-tuple.  Of length k there are
    n^k indices while k <= max_r, and in general k! times the x^k
    coefficient of (sum of x^c / c! over c <= max_r)^n, from J. C. P.
    Miller's recurrence for the powers of a series.  The count stops at
    n * max_r, past which no index lies, or where no address space holds
    the floor."""
    counts = [1]  # indices of length k, from k = 0
    total = need = 0
    for k in range(1, min(max_len, n * max_r) + 1):
        if k <= max_r:
            counts.append(counts[-1] * n)
        else:
            terms = (((n + 1) * j - k) * math.comb(k, j) * counts[k - j] for j in range(1, max_r + 1))
            counts.append(sum(terms) // k)
        if k >= 2:
            total += counts[k]
            need += counts[k] * (_TUPLE + k * _SLOT)
            _must_fit(need, f"the {total:,} indices of length 2 to {k} on {n} components")
            if need > sys.maxsize:
                break


class InvariantTable:
    """The residue of every index within the filters, in ``entries`` by
    length, then lexicographically (``indices_up_to``'s order)."""

    def __init__(self, subject, n, max_length, max_r, closed, entries):
        self.subject = subject
        self.n = n
        self.max_length = max_length
        self.max_r = max_r
        self.closed = closed
        self.entries = entries  # index -> Residue

    def nonzero(self):
        return {i: r for i, r in self.entries.items() if not r.is_zero()}

    def to_json(self):
        return {
            "subject": self.subject,
            "components": self.n,
            "kind": "link" if self.closed else "stringlink",
            "max_length": self.max_length,
            "max_r": self.max_r,
            "invariants": [
                {
                    "index": format_index(i, self.n),
                    "value": r.value,
                    "modulus": r.modulus,
                }
                for i, r in self.entries.items()
            ],
        }

    def to_text(self):
        lines = []
        width = max((len(format_index(i, self.n)) for i in self.entries), default=5)
        for i, r in self.entries.items():
            lines.append(f"{format_index(i, self.n):>{width}}: {r}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, InvariantTable)
            and self.n == other.n
            and self.entries == other.entries
        )


def table(d: Diagram, max_len: int, max_r: int) -> InvariantTable:
    """Evaluate every index within the filters in one batch."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    _refuse_unlistable(d.n, max_len, max_r)
    indices = indices_up_to(d.n, max_len, max_r)
    if d.closed:
        entries = _assemble(d, indices)  # closed under deletion already
    else:
        entries = {i: Residue(v, 0) for i, v in evaluate(d, indices).items()}
    return InvariantTable(d.name or repr(d), d.n, max_len, max_r, d.closed, entries)
