"""Diagram data model and constructors.

The combinatorial core of a diagram here is the *walk*: for every component,
the ordered sequence of crossing passages (each tagged over or under), plus a
sign per crossing.  This is exactly the data consumed by the Wirtinger
presentation and longitude computations.  Geometric constructors (braids,
commutator tangles, the generator links) produce walks by executing a Morse
slice program, so every constructed diagram is planar by construction; PD
files round-trip through the same structure.

Sign convention: a crossing is positive when rotating the under-strand
direction counterclockwise by 90 degrees aligns it with the over-strand
direction.  With the slice executor below, a braid generator acting as
"left strand passes over right strand" on two downward strands is positive,
and the linking number of the resulting clasp is +1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .freegroup import Word

OVER = "o"
UNDER = "u"


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class Crossing:
    """One crossing: sign and the two passages through it."""

    sign: int
    over: tuple[int, int]  # (component, event position in that component's walk)
    under: tuple[int, int]


class Diagram:
    """An oriented link or string-link diagram in walk form.

    ``events[i]`` lists component i's passages in order: from the top
    endpoint for string links, from the base point for closed links.
    """

    def __init__(self, n, events, signs, closed, name=None):
        self.n = int(n)
        self.events = tuple(tuple(ev) for ev in events)
        self.signs = tuple(int(s) for s in signs)
        self.closed = bool(closed)
        self.name = name
        self._cache: dict = {}
        self._validate_and_index()

    def _validate_and_index(self):
        if self.n < 1:
            raise DiagramError("a diagram needs at least one component")
        if len(self.events) != self.n:
            raise DiagramError("component count does not match event lists")
        seen: dict[int, dict[str, tuple[int, int]]] = {}
        for comp, ev in enumerate(self.events):
            for pos, (cid, role) in enumerate(ev):
                if role not in (OVER, UNDER):
                    raise DiagramError(f"bad role {role!r}")
                if not 0 <= cid < len(self.signs):
                    raise DiagramError(f"crossing id {cid} out of range")
                slot = seen.setdefault(cid, {})
                if role in slot:
                    raise DiagramError(f"crossing {cid} passed twice as {role}")
                slot[role] = (comp + 1, pos)
        crossings = []
        for cid, sign in enumerate(self.signs):
            slot = seen.get(cid, {})
            if set(slot) != {OVER, UNDER}:
                raise DiagramError(f"crossing {cid} lacks an over or under passage")
            if sign not in (1, -1):
                raise DiagramError(f"crossing {cid} has sign {sign}")
            crossings.append(Crossing(sign, slot[OVER], slot[UNDER]))
        self.crossings = tuple(crossings)
        # arc ordinal before each event position: number of earlier unders
        self._arc_before = []
        for ev in self.events:
            acc, run = [], 0
            for cid, role in ev:
                acc.append(run)
                if role == UNDER:
                    run += 1
            acc.append(run)
            self._arc_before.append(tuple(acc))

    # -- basic derived data ------------------------------------------------

    @property
    def crossing_count(self):
        return len(self.signs)

    def arc_count(self, comp):
        """Number of Wirtinger arcs of a component (at least 1)."""
        unders = self._arc_before[comp - 1][-1]
        return max(unders, 1) if self.closed else unders + 1

    def arc_at(self, comp, pos):
        """Arc ordinal of component ``comp`` at event position ``pos``."""
        return self._arc_before[comp - 1][pos]

    def writhe(self, comp):
        return sum(
            c.sign
            for c in self.crossings
            if c.over[0] == comp and c.under[0] == comp
        )

    def __repr__(self):
        kind = "Link" if self.closed else "StringLink"
        label = f" {self.name!r}" if self.name else ""
        return f"<{kind}{label} n={self.n} crossings={self.crossing_count}>"


def trivial_string_link(n):
    return Diagram(n, [[] for _ in range(n)], [], closed=False)


def trivial_link(n):
    return Diagram(n, [[] for _ in range(n)], [], closed=True)


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


def _tangent(direction, side):
    # side "L": the point moves right through the crossing; "R": moves left
    dx = 1 if side == "L" else -1
    return (dx, -1) if direction == 1 else (-dx, 1)


def run_slices(n, ops, closed=False, name=None):
    """Execute a slice program and return the resulting Diagram.

    The program starts from n downward strands and must end with the points
    of strands 1..n, in order, all flowing down.
    """
    row = [_Leg(i, 1) for i in range(1, n + 1)]
    starts = list(row)
    signs = []
    for op in ops:
        kind = op[0]
        if kind == "x":
            _, pos, over = op
            if not 0 <= pos < len(row) - 1:
                raise DiagramError(f"crossing position {pos} out of range")
            left, right = row[pos], row[pos + 1]
            over_leg, under_leg = (left, right) if over == "L" else (right, left)
            ot = _tangent(over_leg.direction, "L" if over == "L" else "R")
            ut = _tangent(under_leg.direction, "R" if over == "L" else "L")
            ccw = (-ut[1], ut[0])
            dot = ccw[0] * ot[0] + ccw[1] * ot[1]
            if dot == 0:
                raise DiagramError("degenerate crossing")
            cid = len(signs)
            signs.append(1 if dot > 0 else -1)
            over_leg.events.append((cid, OVER))
            under_leg.events.append((cid, UNDER))
            row[pos], row[pos + 1] = right, left
        elif kind == "max":
            _, pos, down = op
            if not 0 <= pos <= len(row):
                raise DiagramError(f"birth position {pos} out of range")
            a, b = _Leg(None, 1), _Leg(None, -1)
            if down == "L":
                b.up_link = a
                row[pos:pos] = [a, b]
            else:
                b.up_link = a
                row[pos:pos] = [b, a]
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
    if len(row) != n:
        raise DiagramError("program ends with wrong point count")
    for want, leg in enumerate(row, start=1):
        if leg.direction != 1:
            raise DiagramError("a strand exits flowing upward")
        leg.down_link = ("end", want)
    events = [[] for _ in range(n)]
    for strand, leg in enumerate(starts, start=1):
        acc = events[strand - 1]
        while True:
            if leg.direction == 1:
                acc.extend(leg.events)
                nxt = leg.down_link
            else:
                acc.extend(reversed(leg.events))
                nxt = leg.up_link
            if nxt is None:
                raise DiagramError("a strand runs off the diagram")
            if isinstance(nxt, tuple):
                if nxt[1] != strand:
                    raise DiagramError(
                        f"strand {strand} exits at position {nxt[1]}"
                    )
                break
            leg = nxt
    return Diagram(n, events, signs, closed=closed, name=name)


# -- braids ------------------------------------------------------------------


def braid_permutation(strands, word):
    perm = list(range(1, strands + 1))
    for g in word:
        if g == 0:
            raise DiagramError("braid letters are nonzero integers")
        i = abs(g) - 1
        if i + 1 >= strands:
            raise DiagramError(f"braid letter {g} needs more than {strands} strands")
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def from_braid(strands, word, closed=False, name=None):
    """The string link traced by a pure braid word, or the closure of any
    braid word; generator +i is the strand at position i passing over its
    right neighbour, -i the mirror crossing."""
    word = list(word)
    perm = braid_permutation(strands, word)
    if not closed and perm != list(range(1, strands + 1)):
        raise DiagramError(f"braid is not pure (permutation {perm})")
    # cycles of the permutation top->bottom; each cycle is one component
    comp_of_start = {}
    cycles = []
    for s in range(1, strands + 1):
        if s in comp_of_start:
            continue
        cyc, cur = [], s
        while cur not in comp_of_start:
            comp_of_start[cur] = len(cycles) + 1
            cyc.append(cur)
            cur = perm.index(cur) + 1
        cycles.append(cyc)
    # trace events: simulate, tagging each passage with the entering strand
    pos_strand = list(range(1, strands + 1))
    per_strand = {s: [] for s in pos_strand}
    signs = []
    for g in word:
        i = abs(g) - 1
        left, right = pos_strand[i], pos_strand[i + 1]
        over_s, under_s = (left, right) if g > 0 else (right, left)
        cid = len(signs)
        signs.append(1 if g > 0 else -1)  # downward strands only
        per_strand[over_s].append((cid, OVER))
        per_strand[under_s].append((cid, UNDER))
        pos_strand[i], pos_strand[i + 1] = right, left
    events = [[e for s in cyc for e in per_strand[s]] for cyc in cycles]
    return Diagram(len(cycles), events, signs, closed=closed, name=name)


# -- composition operations ----------------------------------------------


def stack(a: Diagram, b: Diagram) -> Diagram:
    """a on top of b; both must be string links on the same component count."""
    if a.closed or b.closed:
        raise DiagramError("stacking is defined for string links")
    if a.n != b.n:
        raise DiagramError("component counts differ")
    off = a.crossing_count
    events = [
        list(ea) + [(cid + off, role) for cid, role in eb]
        for ea, eb in zip(a.events, b.events)
    ]
    return Diagram(a.n, events, a.signs + b.signs, closed=False)


def stack_all(parts: Sequence[Diagram], n: int | None = None) -> Diagram:
    if not parts:
        if n is None:
            raise DiagramError("empty stack needs an explicit component count")
        return trivial_string_link(n)
    out = parts[0]
    for p in parts[1:]:
        out = stack(out, p)
    return out


def closure(l: Diagram) -> Diagram:
    """Join top and bottom endpoints by disjoint external arcs."""
    if l.closed:
        raise DiagramError("diagram is already closed")
    return Diagram(l.n, l.events, l.signs, closed=True, name=l.name)


def cut_open(l: Diagram) -> Diagram:
    """Cut a closed diagram at its base points, yielding a string link."""
    if not l.closed:
        raise DiagramError("diagram is already a string link")
    return Diagram(l.n, l.events, l.signs, closed=False, name=l.name)


def power(v: Diagram, e: int) -> Diagram:
    """e-fold stacked power; negative exponents use the mirror inverse."""
    if e == 0:
        return trivial_string_link(v.n)
    base = v if e > 0 else invert(v)
    return stack_all([base] * abs(e))


def invert(v: Diagram) -> Diagram:
    """The stacking inverse of a string link: its top-bottom reflection.

    Reflection reverses every walk and negates every crossing sign; for a
    braid this is exactly the inverse braid word.
    """
    if v.closed:
        raise DiagramError("inversion is defined for string links")
    events = [list(reversed(ev)) for ev in v.events]
    return Diagram(v.n, events, tuple(-s for s in v.signs), closed=False)


def with_kink(d: Diagram, comp: int, sign: int, at: int = 0) -> Diagram:
    """Insert a small curl (one self-crossing of the given sign) on a
    component.  Used to exercise framing corrections."""
    if sign not in (1, -1):
        raise DiagramError("kink sign must be +-1")
    events = [list(ev) for ev in d.events]
    cid = d.crossing_count
    events[comp - 1][at:at] = [(cid, OVER), (cid, UNDER)]
    return Diagram(d.n, events, d.signs + (sign,), closed=d.closed)


def reduced(d: Diagram) -> Diagram:
    """The diagram with cancelling Reidemeister pairs removed until none is
    left: (R1) a crossing whose over- and under-passages are adjacent on one
    walk, and (R2) two opposite-sign crossings whose under-passages are
    adjacent on one walk and whose over-passages are adjacent on one walk.

    Adjacency wraps at the base point of a closed component and never at the
    ends of a string link.  Both moves are Tietze moves on the Wirtinger
    presentation.  On a string link every Magnus coefficient of every
    longitude is unchanged.  On a closed link a move that removes a
    component's last under-passage, or straddles its base point, changes
    which arc the longitude recursion identifies with the base arc, so a
    coefficient may change by a multiple of its indeterminacy; residues are
    unchanged.  Crossings keep their relative order and the name is kept;
    the result is cached on ``d`` and is its own reduction.
    """
    if "reduced" in d._cache:
        return d._cache["reduced"]
    nxt: dict = {}
    prv: dict = {}
    for ev in d.events:
        for a, b in zip(ev, ev[1:] + ev[:1] if d.closed else ev[1:]):
            nxt[a], prv[b] = b, a
    alive = set(range(d.crossing_count))

    def remove(*cids):
        touched = []
        for cid in cids:
            alive.discard(cid)
            for p in ((cid, OVER), (cid, UNDER)):
                a, b = prv.pop(p, None), nxt.pop(p, None)
                if a is not None and a != p:
                    nxt[a] = b
                    touched.append(a[0])
                if b is not None and b != p:
                    prv[b] = a
                    touched.append(b[0])
        return touched

    todo = list(alive)
    while todo:
        cid = todo.pop()
        if cid not in alive:
            continue
        o, u = (cid, OVER), (cid, UNDER)
        if nxt.get(o) == u or nxt.get(u) == o:
            todo.extend(remove(cid))
            continue
        for p in (nxt.get(u), prv.get(u)):
            if (
                p is not None
                and p[1] == UNDER
                and d.signs[p[0]] == -d.signs[cid]
                and (p[0], OVER) in (nxt.get(o), prv.get(o))
            ):
                todo.extend(remove(cid, p[0]))
                break
    if len(alive) == d.crossing_count:
        out = d
    else:
        kept = sorted(alive)
        new_id = {cid: k for k, cid in enumerate(kept)}
        events = [
            [(new_id[cid], role) for cid, role in ev if cid in alive]
            for ev in d.events
        ]
        signs = [d.signs[cid] for cid in kept]
        out = Diagram(d.n, events, signs, d.closed, name=d.name)
        out._cache["reduced"] = out
    d._cache["reduced"] = out
    return out


# -- cabling ------------------------------------------------------------------


def cable(l: Diagram, multiplicities: Sequence[int]) -> Diagram:
    """Replace each component by zero-framed parallel copies.

    Copies of component i become components h^-1(i), grouped by source
    component and ordered within each group; the framing of every copy
    family is corrected to zero by appending full twists.
    """
    if not l.closed:
        raise DiagramError("cabling is defined for closed links")
    mult = [int(c) for c in multiplicities]
    if len(mult) != l.n:
        raise DiagramError("need one multiplicity per component")
    if any(c < 1 for c in mult):
        raise DiagramError("multiplicities must be positive")
    new_of = []  # new_of[i-1][s-1] = new component id
    next_id = 1
    for i in range(l.n):
        ids = list(range(next_id, next_id + mult[i]))
        new_of.append(ids)
        next_id += mult[i]
    n_new = next_id - 1
    events: list[list] = [[] for _ in range(n_new)]
    signs: list[int] = []
    grid: dict[int, list[list[int]]] = {}
    for cid, c in enumerate(l.crossings):
        ci = mult[c.under[0] - 1]
        cj = mult[c.over[0] - 1]
        grid[cid] = [[0] * cj for _ in range(ci)]
        for s in range(ci):
            for t in range(cj):
                grid[cid][s][t] = len(signs)
                signs.append(c.sign)
    for i in range(1, l.n + 1):
        ci = mult[i - 1]
        for s in range(1, ci + 1):
            ev_new = events[new_of[i - 1][s - 1] - 1]
            for cid, role in l.events[i - 1]:
                c = l.crossings[cid]
                if role == UNDER:
                    cj = mult[c.over[0] - 1]
                    ts = range(1, cj + 1) if c.sign == 1 else range(cj, 0, -1)
                    ev_new.extend((grid[cid][s - 1][t - 1], UNDER) for t in ts)
                else:
                    cu = mult[c.under[0] - 1]
                    ss = range(cu, 0, -1) if c.sign == 1 else range(1, cu + 1)
                    ev_new.extend((grid[cid][u - 1][s - 1], OVER) for u in ss)
    # framing correction: full twists so parallel copies have linking zero
    for i in range(1, l.n + 1):
        ci = mult[i - 1]
        w = l.writhe(i)
        if ci < 2 or w == 0:
            continue
        twist_word = []
        for _ in range(ci):
            twist_word.extend(range(1, ci))
        twist_word = twist_word * abs(w)
        if w > 0:
            twist_word = [-g for g in reversed(twist_word)]
        perm = list(range(ci))  # position -> copy ordinal (0-based)
        for g in twist_word:
            p = abs(g) - 1
            a, b = perm[p], perm[p + 1]
            # a positive letter puts the copy at position p + 1 over; the
            # opposite choice gives walk data no planar diagram realizes
            over_copy, under_copy = (b, a) if g > 0 else (a, b)
            cid = len(signs)
            signs.append(1 if g > 0 else -1)
            events[new_of[i - 1][over_copy] - 1].append((cid, OVER))
            events[new_of[i - 1][under_copy] - 1].append((cid, UNDER))
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
    return Diagram(n_new, events, signs, closed=True)


def cable_map(l: Diagram, multiplicities: Sequence[int]):
    """The map h sending each cabled component to its source component."""
    out = []
    for i, c in enumerate(multiplicities, start=1):
        out.extend([i] * c)
    return tuple(out)


# -- commutator tangles and generator links -----------------------------------


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
    ops = []
    pos = target - 1  # current position of the target point (0-based)
    for x in word.letters:
        j, sign = abs(x), (1 if x > 0 else -1)
        jpos = j - 1 if j < target else j - 2  # position of strand j's point
        # travel: move the target point next to strand j, passing over
        while pos < jpos:
            ops.append(("x", pos, "L"))
            pos += 1
        while pos > jpos + 1:
            ops.append(("x", pos - 1, "R"))
            pos -= 1
        side = "L" if sign == 1 else "R"
        ops.append(("x", min(pos, jpos), side))
        ops.append(("x", min(pos, jpos), side))
    # travel home
    home = target - 1
    while pos < home:
        ops.append(("x", pos, "L"))
        pos += 1
    while pos > home:
        ops.append(("x", pos - 1, "R"))
        pos -= 1
    return run_slices(n, ops, closed=False)


def _pure_braid_generator(i, j, m):
    """Braid word clasping strands i < j of m, positive linking."""
    if not 1 <= i < j <= m:
        raise DiagramError("need 1 <= i < j <= m")
    conj = list(range(j - 1, i, -1))
    return conj + [i, i] + [-g for g in reversed(conj)]


def _bracket_braid(m):
    """Braid word of the nested clasp commutator on m strands: the m-th
    strand carries the iterated commutator of the others' meridians."""
    word = _pure_braid_generator(m - 1, m, m)
    for i in range(m - 2, 0, -1):
        a = _pure_braid_generator(i, m, m)
        inv = [-g for g in reversed(word)]
        ainv = [-g for g in reversed(a)]
        word = a + word + ainv + inv
    return word


def tree_tangle(n: int, leaves: Sequence[int]) -> Diagram:
    """String link obtained from the trivial one by surgery along a linear
    tree grasping the listed components in order.

    The nested clasp chain is drawn closed to the right of the strands, and
    its i-th loop is spliced into the component grasped by the i-th leaf
    through a band.  The band's two sides run anti-parallel, so every
    crossing they make with intervening material cancels.
    """
    leaves = [int(c) for c in leaves]
    m = len(leaves)
    if m < 2:
        raise DiagramError("a tree needs at least two leaves")
    for c in leaves:
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
        for pos in range(p, x - 1):
            ops.append(("x", pos, "L"))
        ops.append(("min", x - 1))
        ops.append(("max", x - 1, "L"))
        for pos in range(x - 1, p, -1):
            ops.append(("x", pos - 1, "R"))
    # the chain pattern itself
    for g in _bracket_braid(m):
        ops.append(("x", n + abs(g) - 1, "L" if g > 0 else "R"))
    # close the chain off: entries meet their returns, innermost first
    for i in range(m, 0, -1):
        ops.append(("min", n + i - 1))
    return run_slices(n, ops, closed=False)


# -- PD files ------------------------------------------------------------------


def to_pd_json(d: Diagram) -> dict:
    """Serialize a diagram: 4-tuples in counterclockwise order starting from
    the incoming under-edge, plus component and successor data that resolve
    the orientation ambiguities of bare PD codes."""
    edge_ids: list[list[int]] = []
    counter = 1
    for comp in range(1, d.n + 1):
        k = len(d.events[comp - 1])
        count = max(k, 1) if d.closed else k + 1
        edge_ids.append(list(range(counter, counter + count)))
        counter += count

    def edge_before(comp, pos):
        return edge_ids[comp - 1][pos % len(edge_ids[comp - 1])]

    def edge_after(comp, pos):
        ids = edge_ids[comp - 1]
        return ids[(pos + 1) % len(ids)] if d.closed else ids[pos + 1]

    pd = []
    for c in d.crossings:
        ui, uo = edge_before(*c.under), edge_after(*c.under)
        oi, oo = edge_before(*c.over), edge_after(*c.over)
        if c.sign == 1:
            pd.append([ui, oi, uo, oo])
        else:
            pd.append([ui, oo, uo, oi])
    component_of = {}
    orientation = {}
    for comp in range(1, d.n + 1):
        ids = edge_ids[comp - 1]
        for j, e in enumerate(ids):
            component_of[str(e)] = comp
            if d.closed:
                orientation[str(e)] = ids[(j + 1) % len(ids)]
            elif j + 1 < len(ids):
                orientation[str(e)] = ids[j + 1]
    data = {
        "name": d.name or "",
        "kind": "link" if d.closed else "stringlink",
        "components": d.n,
        "pd": pd,
        "component_of_arc": component_of,
        "orientation": orientation,
    }
    if not d.closed:
        data["endpoints"] = {
            "top": [edge_ids[c][0] for c in range(d.n)],
            "bottom": [edge_ids[c][-1] for c in range(d.n)],
        }
    return data


def parse_pd(data) -> Diagram:
    """Parse the JSON form back into a diagram, validating the edge
    structure, component walks, and crossing orientations."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = int(data["components"])
        pd = [list(map(int, row)) for row in data["pd"]]
        comp_of = {int(k): int(v) for k, v in data["component_of_arc"].items()}
        succ = {int(k): int(v) for k, v in data["orientation"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DiagramError(f"malformed diagram file: {exc}") from None
    kind = data.get("kind", "link")
    if kind not in ("link", "stringlink"):
        raise DiagramError(f"unknown diagram kind {kind!r}")
    closed = kind == "link"
    if closed and "endpoints" in data:
        raise DiagramError("closed links do not carry endpoints")
    for row in pd:
        if len(row) != 4:
            raise DiagramError(f"crossing {row} is not a 4-tuple")
    counts: dict[int, int] = {}
    for row in pd:
        for e in row:
            counts[e] = counts.get(e, 0) + 1
    for e, k in counts.items():
        if e not in comp_of:
            raise DiagramError(f"edge {e} lacks a component")
        if k > 2:
            raise DiagramError(f"edge {e} used {k} times")
    # build the edge chain of every component
    chains: list[list[int]] = []
    edges_of: dict[int, list[int]] = {}
    for e, c in comp_of.items():
        edges_of.setdefault(c, []).append(e)
    if set(edges_of) != set(range(1, n + 1)):
        raise DiagramError("component labels must be 1..n")
    if closed:
        starts = {c: min(es) for c, es in edges_of.items()}
    else:
        try:
            tops = [int(e) for e in data["endpoints"]["top"]]
        except (KeyError, TypeError, ValueError):
            raise DiagramError("string links need endpoint data") from None
        if len(tops) != n:
            raise DiagramError("need one top endpoint per component")
        for e in tops:
            if e not in comp_of:
                raise DiagramError(f"top endpoint {e} lacks a component")
        starts = {comp_of[e]: e for e in tops}
        if set(starts) != set(range(1, n + 1)):
            raise DiagramError("top endpoints must cover all components")
    for comp in range(1, n + 1):
        es = set(edges_of[comp])
        chain = [starts[comp]]
        while True:
            nxt = succ.get(chain[-1])
            if nxt is None:
                if closed:
                    raise DiagramError(
                        f"component {comp} is not a cycle (edge {chain[-1]} stops)"
                    )
                break
            if nxt == chain[0] and closed:
                break
            if nxt in chain:
                raise DiagramError(f"edge {nxt} revisited in component {comp}")
            if comp_of.get(nxt) != comp:
                raise DiagramError(f"successor of {chain[-1]} leaves component {comp}")
            chain.append(nxt)
        if set(chain) != es:
            raise DiagramError(f"component {comp} does not traverse its edges")
        chains.append(chain)
    # transitions: edge -> (component, index); consumed by passages
    trans_at: dict[int, tuple[int, int]] = {}
    for comp, chain in enumerate(chains, start=1):
        last = len(chain) - 1
        for j, e in enumerate(chain):
            if j < last or closed:
                if e in trans_at:
                    raise DiagramError(f"edge {e} has two successors")
                trans_at[e] = (comp, j)
    succ_of = lambda comp, j: chains[comp - 1][(j + 1) % len(chains[comp - 1])]
    consumed: set[int] = set()
    passages = []  # per crossing: (under (comp, j), over (comp, j), sign)
    for cid, (a, b, c_out, dd) in enumerate(pd):
        if a not in trans_at or succ_of(*trans_at[a]) != c_out:
            raise DiagramError(
                f"crossing {cid}: under-strand {a}->{c_out} does not follow "
                "the orientation data"
            )
        if a in consumed:
            raise DiagramError(f"edge {a} terminates at two crossings")
        consumed.add(a)
        passages.append([trans_at[a], None, None, (b, dd)])
    for cid, (a, b, c_out, dd) in enumerate(pd):
        over_in = None
        if b in trans_at and b not in consumed and succ_of(*trans_at[b]) == dd:
            over_in, sign = b, 1
        elif dd in trans_at and dd not in consumed and succ_of(*trans_at[dd]) == b:
            over_in, sign = dd, -1
        else:
            raise DiagramError(f"crossing {cid}: over-strand orientation unresolved")
        consumed.add(over_in)
        passages[cid][1] = trans_at[over_in]
        passages[cid][2] = sign
    for e in set(trans_at) - consumed:
        comp, _ = trans_at[e]
        if not (closed and len(chains[comp - 1]) == 1):
            raise DiagramError(f"edge {e} flows onward but meets no crossing")
    # assemble events ordered by transition index
    events: list[list] = [[] for _ in range(n)]
    per_comp: list[list] = [[] for _ in range(n)]
    for cid, (under, over, sign, _) in enumerate(passages):
        per_comp[under[0] - 1].append((under[1], cid, UNDER))
        per_comp[over[0] - 1].append((over[1], cid, OVER))
    for comp in range(1, n + 1):
        for _, cid, role in sorted(per_comp[comp - 1]):
            events[comp - 1].append((cid, role))
    signs = [p[2] for p in passages]
    d = Diagram(n, events, signs, closed=closed, name=data.get("name") or None)
    _check_planar(d)
    return d


def _check_planar(d: Diagram) -> None:
    """Reject walk data that no diagram on the sphere realizes.

    Each component's last passage is joined to its first, which closes a
    planar string link planarly.  The crossings, with their edge ends in the
    counterclockwise order ``to_pd_json`` writes, then span a 4-valent graph
    with a rotation system; it embeds in the sphere iff V - E + F = 2 on each
    connected piece, that is F = V + 2 * pieces, since E = 2V.  Faces are the
    orbits of "follow the edge, then step to the next end counterclockwise".
    """
    order = {1: ("uin", "oin", "uout", "oout"), -1: ("uin", "oout", "uout", "oin")}

    def end(cid, name):
        return 4 * cid + order[d.signs[cid]].index(name)

    mate = [0] * (4 * d.crossing_count)
    piece = list(range(d.crossing_count))

    def root(c):
        while piece[c] != c:
            piece[c] = c = piece[piece[c]]
        return c

    for ev in d.events:
        for (c1, r1), (c2, r2) in zip(ev, ev[1:] + ev[:1]):
            a, b = end(c1, r1 + "out"), end(c2, r2 + "in")
            mate[a], mate[b] = b, a
            piece[root(c1)] = root(c2)
    faces = 0
    seen = [False] * len(mate)
    for start in range(len(mate)):
        if seen[start]:
            continue
        faces += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = mate[x]
            x = y - y % 4 + (y + 1) % 4
    pieces = len({root(c) for c in range(d.crossing_count)})
    if faces != d.crossing_count + 2 * pieces:
        raise DiagramError(
            f"diagram is not planar: {faces} faces where a planar diagram "
            f"with {d.crossing_count} crossings in {pieces} connected pieces "
            f"has {d.crossing_count + 2 * pieces}"
        )


def load_diagram(data) -> Diagram:
    """Load either a PD file or a braid file."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise DiagramError("a diagram file holds a JSON object")
    if "pd" in data:
        return parse_pd(data)
    if "word" in data:
        try:
            strands = int(data["strands"])
            word = [int(g) for g in data["word"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramError(f"malformed braid file: {exc}") from None
        kind = data.get("kind", "stringlink")
        if kind not in ("stringlink", "closure"):
            raise DiagramError(f"unknown braid kind {kind!r}")
        return from_braid(
            strands, word, closed=(kind == "closure"), name=data.get("name")
        )
    raise DiagramError("file is neither a PD diagram nor a braid")
