"""Freely reduced words on meridian generators.

A letter is a nonzero signed integer: ``j`` stands for the j-th generator,
``-j`` for its inverse.  Words are kept freely reduced at all times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


def _reduce(letters: Iterable[int]) -> Tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    rank: int
    letters: Tuple[int, ...] = ()

    def __post_init__(self):
        for x in self.letters:
            if x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x} out of range for rank {self.rank}")
        reduced = _reduce(self.letters)
        if reduced != self.letters:
            object.__setattr__(self, "letters", reduced)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Word(self.rank, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-x for x in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def exponent_sum(self, j: int) -> int:
        return sum(1 if x == j else -1 if x == -j else 0 for x in self.letters)

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters)

