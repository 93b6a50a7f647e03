"""The diagram data model and the operations on its walks.

The combinatorial core of a diagram here is the *walk*: for every component,
the ordered sequence of crossing passages (each tagged over or under), plus a
sign per crossing.  This is exactly the data consumed by the Wirtinger
presentation and longitude computations.  Stacks, inverses, closures and
cables copy walks, reduction deletes cancelling passages and kinks insert a
curl, so every diagram made from planar ones is planar.  The Morse slice
constructions, cabling's framing twists among them, are in ``tangles``; the
PD file layer is in ``pdfile``.

Sign convention: a crossing is positive when rotating the under-strand
direction counterclockwise by 90 degrees aligns it with the over-strand
direction.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

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
        if type(n) is not int:
            raise DiagramError(f"component count {n!r} is not an integer")
        if type(closed) is not bool:
            raise DiagramError(f"closed flag {closed!r} is not a boolean")
        self.n = n
        self.events = tuple(tuple(ev) for ev in events)
        self.signs = tuple(signs)
        self.closed = closed
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
            for pos, passage in enumerate(ev):
                if type(passage) is not tuple or len(passage) != 2:
                    raise DiagramError(f"passage {passage!r} is not a 2-tuple")
                cid, role = passage
                if role == OVER:
                    at = over
                elif role == UNDER:
                    at = under
                else:
                    raise DiagramError(f"bad role {role!r}")
                if type(cid) is not int:
                    raise DiagramError(f"crossing id {cid!r} is not an integer")
                if not 0 <= cid < count:
                    raise DiagramError(f"crossing id {cid} out of range")
                if at[cid] is not None:
                    raise DiagramError(f"crossing {cid} passed twice as {role}")
                at[cid] = (comp, pos)
        for cid, sign in enumerate(self.signs):
            if over[cid] is None or under[cid] is None:
                raise DiagramError(f"crossing {cid} lacks an over or under passage")
            if type(sign) is not int or sign not in (1, -1):
                raise DiagramError(f"crossing {cid} has sign {sign!r}")
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


def _must_fit(need: int, what: str) -> None:
    """Refuse with ``MemoryError`` a job whose floor of ``need`` bytes for
    ``what`` exceeds the soft ``RLIMIT_AS``; nothing is refused with no
    limit, or no ``resource`` module to read it from."""
    try:
        import resource
    except ImportError:
        return
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY and need > limit:
        raise MemoryError(
            f"{what} need at least {need:,} bytes, over the {limit:,}-byte "
            "address-space limit"
        )


_SLOT = sys.getsizeof([None]) - sys.getsizeof([])  # bytes of one list entry


def _empty_walks(n):
    _must_fit(n * sys.getsizeof([]), f"the walks of {n} components")
    return [[] for _ in range(n)]


def trivial_string_link(n):
    return Diagram(n, _empty_walks(n), [], closed=False)


def trivial_link(n):
    return Diagram(n, _empty_walks(n), [], closed=True)


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
    return stack_all([v if e >= 0 else invert(v)] * abs(e), v.n)


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
    if type(comp) is not int:
        raise DiagramError(f"component {comp!r} is not an integer")
    if not 1 <= comp <= d.n:
        raise DiagramError(f"component {comp} out of range")
    if type(at) is not int:
        raise DiagramError(f"kink position {at!r} is not an integer")
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
    the result is cached on ``d`` and is its own reduction, marked None in
    its own memo rather than held there, so that no cycle keeps it alive.
    """
    if "reduced" in d._cache:
        return d._cache["reduced"] or d
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
        d._cache["reduced"] = None
        return d
    kept = sorted(alive)
    new_id = {cid: k for k, cid in enumerate(kept)}
    events = [
        [(new_id[cid], role) for cid, role in ev if cid in alive]
        for ev in d.events
    ]
    signs = [d.signs[cid] for cid in kept]
    out = Diagram(d.n, events, signs, d.closed, name=d.name)
    out._cache["reduced"] = None
    d._cache["reduced"] = out
    return out


# -- cabling ------------------------------------------------------------------


def _multiplicities(l: Diagram, multiplicities) -> list[int]:
    """One positive integer per component of l."""
    mult = list(multiplicities)
    if len(mult) != l.n:
        raise DiagramError("need one multiplicity per component")
    if any(type(c) is not int for c in mult):
        raise DiagramError(f"multiplicities {mult} are not all integers")
    if any(c < 1 for c in mult):
        raise DiagramError("multiplicities must be positive")
    return mult


def cable(l: Diagram, multiplicities: Sequence[int]) -> Diagram:
    """Replace each component by zero-framed parallel copies.

    Copies of component i become components h^-1(i), grouped by source
    component and ordered within each group; the framing of every copy
    family is corrected to zero by appending full twists.
    """
    if not l.closed:
        raise DiagramError("cabling is defined for closed links")
    mult = _multiplicities(l, multiplicities)
    # each crossing copy holds a sign and two passages, each a 2-tuple
    copies = sum(mult[o[0] - 1] * mult[u[0] - 1] for o, u in zip(l.over_at, l.under_at))
    need = copies * (_SLOT + 2 * sys.getsizeof((0, OVER)))
    _must_fit(need, f"the {copies} crossings of the cable")
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
        from .tangles import from_braid

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
    mult = _multiplicities(l, multiplicities)
    return tuple(i for i, c in enumerate(mult, start=1) for _ in range(c))


# Names of ``pdfile`` and ``tangles`` that perfbench/ reads on this module.
# Both modules import the walk model above, so this module imports neither
# when it loads: each name resolves on first use and is then stored here.
_MOVED = {
    **dict.fromkeys(("load_diagram", "parse_pd", "to_pd_json"), "pdfile"),
    **dict.fromkeys(("commutator_tangle", "from_braid", "run_slices", "tree_tangle"), "tangles"),
}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MOVED[name]}", __package__), name)
    globals()[name] = value
    return value
