"""Freely reduced words on meridian generators.

A letter is a nonzero signed integer: ``j`` stands for the j-th generator,
``-j`` for its inverse.  Words are kept freely reduced at all times.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word(namedtuple("Word", "rank letters")):
    __slots__ = ()

    def __new__(cls, rank: int, letters: tuple[int, ...] = ()):
        if any(type(v) is not int for v in (rank, *letters)):
            raise ValueError(f"rank {rank!r} and letters {letters} must be integers")
        for x in letters:
            if x == 0 or abs(x) > rank:
                raise ValueError(f"letter {x} out of range for rank {rank}")
        return super().__new__(cls, rank, _reduce(letters))

    def __mul__(self, other: Word) -> Word:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Word(self.rank, self.letters + other.letters)

    def __truediv__(self, other: Word) -> Word:
        return self * other.inverse()

    def inverse(self) -> Word:
        return Word(self.rank, tuple(-x for x in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def exponent_sum(self, j: int) -> int:
        return sum(1 if x == j else -1 if x == -j else 0 for x in self.letters)

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters)
