"""Morse slice constructions of diagrams.

Braids and their closures, tree tangles (and with them the generator
links) and a cable's framing twists all run one Morse slice executor,
``run_slices``, so every diagram it returns is planar by construction.  A
commutator tangle is a braid word.  The move that carries one point across
the row, over the points between, is written once, as ``_over``.  With the
diagram sign convention, a braid generator acting as "left strand passes
over right strand" on two downward strands is positive, and the linking
number of the resulting clasp is +1.
"""

from __future__ import annotations

from collections.abc import Sequence

from .diagram import OVER, UNDER, Diagram, DiagramError


# -- Morse slice executor ----------------------------------------------------
#
# Ops (executed top to bottom on a row of points):
#   ("x", pos, over)   crossing of the points at pos, pos+1; over is "L" or "R"
#   ("max", pos, down) birth of two points at pos, pos+1; ``down`` says which
#                      side flows downward ("L" or "R"), the other flows up
#   ("min", pos)       the points at pos, pos+1 join and die


class _Leg:
    __slots__ = ("strand", "direction", "events", "up_link", "down_link")

    def __init__(self, strand, direction):
        self.strand = strand
        self.direction = direction  # +1 flows down, -1 flows up
        self.events = []
        self.up_link = None  # leg continuing past this leg's top end
        self.down_link = None  # leg continuing past this leg's bottom end


def run_slices(n, ops, closed=False, name=None):
    """Execute a slice program and return the resulting Diagram.

    The program starts from n downward strands and must end with the points
    of strands 1..n, in order, all flowing down.
    """
    if type(n) is not int:
        raise DiagramError(f"strand count {n!r} is not an integer")
    row = [_Leg(i, 1) for i in range(1, n + 1)]
    starts = list(row)
    legs = len(row)
    signs = []
    for op in ops:
        kind = op[0]
        if kind == "x":
            _, pos, over = op
            if not 0 <= pos < len(row) - 1:
                raise DiagramError(f"crossing position {pos} out of range")
            left, right = row[pos], row[pos + 1]
            over_leg, under_leg = (left, right) if over == "L" else (right, left)
            # left over right is positive when both flow the same way;
            # reversing either strand mirrors the sign
            cid = len(signs)
            signs.append((1 if over == "L" else -1) * left.direction * right.direction)
            over_leg.events.append((cid, OVER))
            under_leg.events.append((cid, UNDER))
            row[pos], row[pos + 1] = right, left
        elif kind == "max":
            _, pos, down = op
            if not 0 <= pos <= len(row):
                raise DiagramError(f"birth position {pos} out of range")
            a, b = _Leg(None, 1), _Leg(None, -1)
            legs += 2
            b.up_link = a
            row[pos:pos] = [a, b] if down == "L" else [b, a]
        elif kind == "min":
            _, pos = op
            if not 0 <= pos < len(row) - 1:
                raise DiagramError(f"join position {pos} out of range")
            left, right = row.pop(pos), row.pop(pos)
            if left.direction == right.direction:
                raise DiagramError("a local minimum needs opposite directions")
            down_leg, up_leg = (left, right) if left.direction == 1 else (right, left)
            down_leg.down_link = up_leg
        else:
            raise DiagramError(f"unknown op {op!r}")
    # every max adds one up-flowing leg and every min removes exactly one,
    # since it joins opposite directions, so a row of n points has none
    # left; every down-flowing leg gets its down_link at its join or here,
    # and every up-flowing leg its up_link at birth, so no walk runs off
    if len(row) != len(starts):
        raise DiagramError("program ends with wrong point count")
    for want, leg in enumerate(row, start=1):
        leg.down_link = want
    walks, exit_of = {}, {}
    for strand, leg in enumerate(starts, start=1):
        acc = walks[strand] = []
        while True:
            legs -= 1
            if leg.direction == 1:
                acc.extend(leg.events)
                nxt = leg.down_link
            else:
                acc.extend(reversed(leg.events))
                nxt = leg.up_link
            if isinstance(nxt, int):
                break
            leg = nxt
        if not closed and nxt != strand:
            raise DiagramError(f"strand {strand} exits at position {nxt}")
        exit_of[strand] = nxt
    if legs:
        raise DiagramError("a closed loop meets no strand")
    # each strand continues as the strand that starts where it exits
    events = []
    for strand in walks:
        if strand in exit_of:
            events.append([])
            while strand in exit_of:
                events[-1].extend(walks[strand])
                strand = exit_of.pop(strand)
    return Diagram(len(events), events, signs, closed=closed, name=name)


# -- braids ------------------------------------------------------------------


def braid_permutation(strands, word):
    if type(strands) is not int:
        raise DiagramError(f"strand count {strands!r} is not an integer")
    perm = list(range(1, strands + 1))
    for g in word:
        if type(g) is not int or g == 0:
            raise DiagramError(f"braid letter {g!r} is not a nonzero integer")
        i = abs(g) - 1
        if i + 1 >= strands:
            raise DiagramError(f"braid letter {g} needs more than {strands} strands")
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def _braid_ops(word, offset=0):
    """Slice ops of a braid word whose first strand is at ``offset``."""
    return [("x", offset + abs(g) - 1, "L" if g > 0 else "R") for g in word]


def from_braid(strands, word, closed=False, name=None):
    """The string link traced by a pure braid word, or the closure of any
    braid word; generator +i is the strand at position i passing over its
    right neighbour, -i the mirror crossing."""
    word = list(word)
    perm = braid_permutation(strands, word)
    if not closed and perm != list(range(1, strands + 1)):
        raise DiagramError(f"braid is not pure (permutation {perm})")
    return run_slices(strands, _braid_ops(word), closed=closed, name=name)


# -- commutator tangles and generator links -----------------------------------


def _over(a, b):
    """Braid letters carrying the point at row position a (from 0) to
    position b, over every point between."""
    return list(range(a + 1, b + 1)) if a < b else list(range(-a, -b))


def _inverse(word):
    return [-g for g in reversed(word)]


def commutator_tangle(word: Word, target: int, n: int) -> Diagram:
    """A pure string link whose target strand reads the word: for each letter
    the target strand travels over to the named strand and encircles it once
    with the letter's sign, all other strands staying vertical.

    The target strand's longitude expands to the word's expansion on every
    monomial that avoids the target variable; monomials through the target
    variable pick up contributions from the travel conjugators.
    """
    if not 1 <= target <= n:
        raise DiagramError(f"target {target} out of range")
    if word.rank != n:
        raise DiagramError("word rank must equal the component count")
    if word.exponent_sum(target) != 0 or any(abs(x) == target for x in word.letters):
        raise DiagramError("word may not mention the target strand's meridian")
    letters = []
    pos = target - 1  # current position of the target point (0-based)
    for x in word.letters:
        # carry the target beside strand |x|, whose point is at jpos with
        # the target on its right and at jpos + 1 with it on its left
        jpos = abs(x) - 1 if abs(x) < target else abs(x) - 2
        dest = min(max(pos, jpos), jpos + 1)
        clasp = jpos + 1 if x > 0 else -(jpos + 1)
        letters += _over(pos, dest) + [clasp, clasp]
        pos = dest
    return from_braid(n, letters + _over(pos, target - 1))


def _pure_braid_generator(i, j, m):
    """Braid word clasping strands i < j of m, positive linking."""
    conj = list(range(j - 1, i, -1))
    return conj + [i, i] + _inverse(conj)


def _bracket_braid(m):
    """Braid word of the nested clasp commutator on m strands: the m-th
    strand carries the iterated commutator of the others' meridians."""
    word = _pure_braid_generator(m - 1, m, m)
    for i in range(m - 2, 0, -1):
        a = _pure_braid_generator(i, m, m)
        word = a + word + _inverse(a) + _inverse(word)
    return word


def tree_tangle(n: int, leaves: Sequence[int]) -> Diagram:
    """String link obtained from the trivial one by surgery along a linear
    tree grasping the listed components in order.

    The nested clasp chain is drawn closed to the right of the strands, and
    its i-th loop is spliced into the component grasped by the i-th leaf
    through a band.  The band's two sides run anti-parallel, so every
    crossing they make with intervening material cancels.
    """
    leaves = list(leaves)
    m = len(leaves)
    if m < 2:
        raise DiagramError("a tree needs at least two leaves")
    for c in leaves:
        if type(c) is not int:
            raise DiagramError(f"leaf component {c!r} is not an integer")
        if not 1 <= c <= n:
            raise DiagramError(f"leaf component {c} out of range")
    if any(leaves.count(c) > 2 for c in set(leaves)):
        raise DiagramError("a component may be grasped at most twice")
    ops: list = []
    # chain births: row becomes [strands | entries e_1..e_m | returns R_m..R_1]
    for j in range(m):
        ops.append(("max", n + j, "L"))
    # splice loop i into its strand: out along one band side, around the
    # loop, back along the other side
    for i, c in enumerate(leaves, start=1):
        p = c - 1
        x = n + m + (m - i)  # position of the return of loop i
        ops += _braid_ops(_over(p, x - 1))
        ops += [("min", x - 1), ("max", x - 1, "L")]
        ops += _braid_ops(_over(x - 1, p))
    # the chain pattern itself
    ops.extend(_braid_ops(_bracket_braid(m), n))
    # close the chain off: entries meet their returns, innermost first
    for i in range(m, 0, -1):
        ops.append(("min", n + i - 1))
    return run_slices(n, ops, closed=False)
