"""Diagram data model and constructors.

The combinatorial core of a diagram here is the *walk*: for every component,
the ordered sequence of crossing passages (each tagged over or under), plus a
sign per crossing.  This is exactly the data consumed by the Wirtinger
presentation and longitude computations.  Braids and their closures,
commutator tangles, the generator links and a cable's framing twists run
one Morse slice executor, ``run_slices``; stacks, inverses and cables copy
walks and kinks insert a curl, so every constructed diagram is planar by
construction.  ``to_pd_json`` alone defines the PD file layout: a file
is read back only if it is that layout of the walks it traces.

Sign convention: a crossing is positive when rotating the under-strand
direction counterclockwise by 90 degrees aligns it with the over-strand
direction.  With the slice executor below, a braid generator acting as
"left strand passes over right strand" on two downward strands is positive,
and the linking number of the resulting clasp is +1.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence

from .freegroup import Word

OVER = "o"
UNDER = "u"


class DiagramError(ValueError):
    pass


class Diagram:
    """An oriented link or string-link diagram in walk form.

    ``events[i]`` lists component i's passages in order: from the top
    endpoint for string links, from the base point for closed links.
    ``over_at[cid]`` and ``under_at[cid]`` locate crossing cid's two
    passages as (component, position in its walk) pairs, components
    numbered from 1; validation fills them in one pass over the walks.
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
        count = len(self.signs)
        over, under = [None] * count, [None] * count
        for comp, ev in enumerate(self.events, start=1):
            for pos, (cid, role) in enumerate(ev):
                if role == OVER:
                    at = over
                elif role == UNDER:
                    at = under
                else:
                    raise DiagramError(f"bad role {role!r}")
                if not 0 <= cid < count:
                    raise DiagramError(f"crossing id {cid} out of range")
                if at[cid] is not None:
                    raise DiagramError(f"crossing {cid} passed twice as {role}")
                at[cid] = (comp, pos)
        for cid, sign in enumerate(self.signs):
            if over[cid] is None or under[cid] is None:
                raise DiagramError(f"crossing {cid} lacks an over or under passage")
            if sign not in (1, -1):
                raise DiagramError(f"crossing {cid} has sign {sign}")
        self.over_at, self.under_at = tuple(over), tuple(under)

    # -- basic derived data ------------------------------------------------

    @property
    def crossing_count(self):
        return len(self.signs)

    def writhe(self, comp):
        return sum(
            sign
            for sign, over, under in zip(self.signs, self.over_at, self.under_at)
            if over[0] == comp == under[0]
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


def run_slices(n, ops, closed=False, name=None):
    """Execute a slice program and return the resulting Diagram.

    The program starts from n downward strands and must end with the points
    of strands 1..n, in order, all flowing down.
    """
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
    if len(row) != len(starts):
        raise DiagramError("program ends with wrong point count")
    for want, leg in enumerate(row, start=1):
        if leg.direction != 1:
            raise DiagramError("a strand exits flowing upward")
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
            if nxt is None:
                raise DiagramError("a strand runs off the diagram")
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
    perm = list(range(1, strands + 1))
    for g in word:
        if g == 0:
            raise DiagramError("braid letters are nonzero integers")
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


# -- composition operations ----------------------------------------------


def stack(a: Diagram, b: Diagram) -> Diagram:
    """a on top of b; both must be string links on the same component count."""
    return stack_all([a, b])


def stack_all(parts: Sequence[Diagram], n: int | None = None) -> Diagram:
    """The parts stacked top to bottom in one new diagram; each must be a
    string link on n components, the first part's count by default."""
    if n is None:
        if not parts:
            raise DiagramError("empty stack needs an explicit component count")
        n = parts[0].n
    events: list[list] = [[] for _ in range(n)]
    signs: list[int] = []
    for part in parts:
        if part.closed:
            raise DiagramError("stacking is defined for string links")
        if part.n != n:
            raise DiagramError("component counts differ")
        off = len(signs)
        for walk, ev in zip(events, part.events):
            walk.extend((cid + off, role) for cid, role in ev)
        signs.extend(part.signs)
    return Diagram(n, events, signs, closed=False)


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
    if not 1 <= comp <= d.n:
        raise DiagramError(f"component {comp} out of range")
    if not 0 <= at <= len(d.events[comp - 1]):
        raise DiagramError(f"kink position {at} out of range")
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
    # the copies of crossing cid are base[cid] + s * c + t for the s-th
    # under-copy and t-th over-copy, c the over-component's multiplicity
    base: list[int] = []
    signs: list[int] = []
    for sign, over, under in zip(l.signs, l.over_at, l.under_at):
        base.append(len(signs))
        signs.extend([sign] * (mult[under[0] - 1] * mult[over[0] - 1]))
    copies = [[[] for _ in range(c)] for c in mult]
    for walk, group in zip(l.events, copies):
        for s, ev_new in enumerate(group):
            for cid, role in walk:
                b, c = base[cid], mult[l.over_at[cid][0] - 1]
                if role == UNDER:
                    ids = range(b + s * c, b + s * c + c)
                else:
                    ids = range(b + s, b + mult[l.under_at[cid][0] - 1] * c, c)
                if (role == OVER) == (l.signs[cid] == 1):
                    ids = reversed(ids)
                ev_new.extend((x, role) for x in ids)
    # framing correction: full twists so parallel copies have linking zero;
    # the copies are numbered right to left across the twist, the choice
    # that a planar diagram realizes
    for i, group in enumerate(copies, start=1):
        ci, w = len(group), l.writhe(i)
        if ci < 2 or w == 0:
            continue
        letters = [ci - g if w < 0 else -g for g in range(1, ci)] * (ci * abs(w))
        twist = from_braid(ci, letters)
        off = len(signs)
        signs.extend(twist.signs)
        for ev_new, ev in zip(reversed(group), twist.events):
            ev_new.extend((cid + off, role) for cid, role in ev)
    events = [ev_new for group in copies for ev_new in group]
    return Diagram(len(events), events, signs, closed=True)


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
    ops.extend(_braid_ops(_bracket_braid(m), n))
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
    for sign, over, under in zip(d.signs, d.over_at, d.under_at):
        ui, uo = edge_before(*under), edge_after(*under)
        oi, oo = edge_before(*over), edge_after(*over)
        if sign == 1:
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


def _int(value):
    """A JSON integer: floats, booleans and strings are rejected."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _edge(key):
    """An edge named by a JSON object key, which must be an integer's
    decimal form, so that no two keys name one edge."""
    if str(int(key)) != key:
        raise ValueError(f"{key!r} is not an edge number")
    return int(key)


def parse_pd(data) -> Diagram:
    """Parse the JSON form back into a diagram.

    Each component's walk is read off ``orientation``: from its least edge on
    a link, from its top endpoint on a string link.  A crossing's
    under-passage sits at its incoming edge ``row[0]``.  Its over-passage
    sits at ``row[1]`` (sign +1) if that edge flows on to ``row[3]`` and is
    no under-passage's or earlier over-passage's incoming edge, else at
    ``row[3]`` (sign -1).  The file must then be ``to_pd_json`` of the result
    with its edges renumbered in walk order, so that function alone defines
    the layout.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = _int(data["components"])
        pd = [list(map(_int, row)) for row in data["pd"]]
        comp_of = {_edge(k): _int(v) for k, v in data["component_of_arc"].items()}
        succ = {_edge(k): _int(v) for k, v in data["orientation"].items()}
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
    edges_of: dict[int, list[int]] = {}
    for e, c in comp_of.items():
        edges_of.setdefault(c, []).append(e)
    if len(edges_of) != n or set(edges_of) != set(range(1, n + 1)):
        raise DiagramError("component labels must be 1..n")
    if closed:
        starts = [min(edges_of[c]) for c in range(1, n + 1)]
    else:
        try:
            endpoints = {
                k: list(map(_int, data["endpoints"][k])) for k in ("top", "bottom")
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramError(f"string links need endpoint data: {exc}") from None
        if len(endpoints["top"]) != n:
            raise DiagramError("need one top endpoint per component")
        for e in endpoints["top"]:
            if e not in comp_of:
                raise DiagramError(f"top endpoint {e} lacks a component")
        start_of = {comp_of[e]: e for e in endpoints["top"]}
        if len(start_of) != n:
            raise DiagramError("top endpoints must cover all components")
        starts = [start_of[c] for c in range(1, n + 1)]
    walks, enters = [], {}  # enters: edge -> the passage it flows into
    for e in starts:
        walk = []
        while e is not None and e not in enters:
            walk.append(e)
            enters[e] = None
            e = succ.get(e)
        walks.append(walk)
    consumed = {row[0] for row in pd}
    signs = []
    for cid, (a, b, _, dd) in enumerate(pd):
        if b not in consumed and succ.get(b) == dd:
            over, sign = b, 1
        else:
            over, sign = dd, -1
        consumed.add(over)
        enters[a], enters[over] = (cid, UNDER), (cid, OVER)
        signs.append(sign)
    events = [[enters[e] for e in walk if enters[e]] for walk in walks]
    d = Diagram(n, events, signs, closed=closed, name=data.get("name") or None)
    # the file must be the layout of its walks, up to the names of its edges
    num = {e: i for i, e in enumerate(itertools.chain(*walks), start=1)}
    got = {
        "pd": [[num.get(e) for e in row] for row in pd],
        "component_of_arc": {str(num.get(e)): c for e, c in comp_of.items()},
        "orientation": {str(num.get(e)): num.get(f) for e, f in succ.items()},
    }
    if not closed:
        got["endpoints"] = {k: [num.get(e) for e in es] for k, es in endpoints.items()}
    out = to_pd_json(d)
    for field, value in got.items():
        if value != out[field]:
            raise DiagramError(f"{field} is not the layout of the traced walks")
    _check_planar(out)
    return d


def _check_planar(data: dict) -> None:
    """Reject a layout that no diagram on the sphere realizes.

    Each string-link component's bottom edge is joined to its top edge, which
    closes a planar string link planarly.  The rows of ``data``, edge ends in
    counterclockwise order, then span a 4-valent graph with a rotation
    system; it embeds in the sphere iff V - E + F = 2 on each connected piece,
    that is F = V + 2 * pieces, since E = 2V.  Faces are the orbits of
    "follow the edge, then step to the next end counterclockwise".
    """
    rows = data["pd"]
    if "endpoints" in data:
        join = dict(zip(data["endpoints"]["bottom"], data["endpoints"]["top"]))
        rows = [[join.get(e, e) for e in row] for row in rows]
    slots: dict[int, list[int]] = {}
    for x, e in enumerate(itertools.chain(*rows)):
        slots.setdefault(e, []).append(x)
    v = len(rows)
    mate = [0] * (4 * v)
    piece = list(range(v))

    def root(c):
        while piece[c] != c:
            piece[c] = c = piece[piece[c]]
        return c

    for a, b in slots.values():
        mate[a], mate[b] = b, a
        piece[root(a // 4)] = root(b // 4)
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
    pieces = len({root(c) for c in range(v)})
    if faces != v + 2 * pieces:
        raise DiagramError(
            f"diagram is not planar: {faces} faces where a planar diagram "
            f"with {v} crossings in {pieces} connected pieces has {v + 2 * pieces}"
        )


def load_diagram(data) -> Diagram:
    """Load either a PD file or a braid file."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise DiagramError("a diagram file holds a JSON object")
    if not isinstance(data.get("name", ""), (str, type(None))):
        raise DiagramError("a diagram name is a string")
    if "pd" in data:
        return parse_pd(data)
    if "word" in data:
        try:
            strands = _int(data["strands"])
            word = [_int(g) for g in data["word"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramError(f"malformed braid file: {exc}") from None
        kind = data.get("kind", "stringlink")
        if kind not in ("stringlink", "closure"):
            raise DiagramError(f"unknown braid kind {kind!r}")
        return from_braid(
            strands, word, closed=(kind == "closure"), name=data.get("name")
        )
    raise DiagramError("file is neither a PD diagram nor a braid")
