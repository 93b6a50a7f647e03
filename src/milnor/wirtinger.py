"""Wirtinger presentation and the longitude recursion.

Every arc of a diagram carries a meridian: walking a component from its
base arc, which carries the base meridian m_i, each under-passage
conjugates the running meridian by the over-arc's, the direction given by
the crossing sign.  The zero-framed longitude of a component multiplies the
over-arc meridians along its under-passages and strips the accumulated
self-framing.  The correction x_i^(-w) multiplies on the left: a kink
contributes x_k^(+-1), which is lambda_{<k}^-1 x_i^(+-1) lambda_{<k}, so it
moves x_i^(+-1) to the left of the partial longitude lambda_{<k}.  For a
string link, whose longitude need not commute with x_i, only the left
correction cancels it.

``_walk`` alone reads a diagram's walks as Wirtinger arcs: it numbers the
arcs, lists each under-passage with its over-arc, and writes each
longitude as factors, the framing correction first as |w| factors of the
base arc.  Everything below reads that table.  ``_refine`` refines every
arc's meridian depth by depth, each pass conjugating by the previous pass's
meridians, and ``_longitude`` multiplies a longitude along its factors.
Both work on any element with ``*`` and ``inverse()``: on free-group words
they give ``meridian_words`` and ``longitude_word``, exact at every depth,
and the tests run them on Magnus series as the oracle of the graded walk.
The invariant engine uses the graded walk ``_Graded`` on Magnus series over
a monomial basis, which it sizes by its query: degree d of every meridian
depends only on lower degrees of the over-arcs, so one walk per degree fills
it for every arc.  ``longitude_series(d, comps, basis)`` builds one such
state for a batch of components and returns their longitudes; nothing sized
by the basis is kept on the diagram, so the state dies with the query.
"""

from __future__ import annotations

from collections import namedtuple

from . import magnus
from .diagram import UNDER, Diagram
from .freegroup import Word


class Relation(namedtuple("Relation", "crossing sign out_arc in_arc over_arc")):
    """out = over^-sign * in * over^sign, one per crossing."""

    __slots__ = ()


class Presentation(namedtuple("Presentation", "diagram arcs component_of relations")):
    """``arcs`` are the PD edge labels, one generator each."""

    __slots__ = ()


def presentation(d: Diagram) -> Presentation:
    """One generator per diagram arc (PD edge) and one conjugation relation
    per crossing; arcs joined by an over-passage carry equal meridians."""
    from .diagram import to_pd_json

    data = to_pd_json(d)
    arcs = tuple(sorted(int(e) for e in data["component_of_arc"]))
    component_of = {int(e): c for e, c in data["component_of_arc"].items()}
    relations = []
    for cid, (a, b, c_out, dd) in enumerate(data["pd"]):
        sign = d.signs[cid]
        relations.append(
            Relation(
                crossing=cid,
                sign=sign,
                out_arc=c_out,
                in_arc=a,
                over_arc=b if sign == 1 else dd,
            )
        )
    return Presentation(d, arcs, component_of, tuple(relations))


class _Walk(namedtuple("_Walk", "arcs bases passages factors")):
    """A diagram's Wirtinger arcs, numbered flat component by component.

    ``arcs`` labels them (comp, ordinal), ordinal 0 being comp's base arc;
    ``bases`` pairs each component with its base arc; ``passages`` lists
    the under-passages that lead to a further arc, as (arc in, arc out,
    over-arc, sign), each component's in walk order; and ``factors[comp]``
    lists the longitude factors of comp as (arc, sign): |w| copies of
    (base arc, -sign w), the framing correction x_comp^(-w) for comp's
    self-writhe w, then the over-arc of each under-passage along its walk.
    """

    __slots__ = ()


def _walk(d: Diagram) -> _Walk:
    """The walk data of d, cached on it, read from its events alone.  A
    component with k under-passages has k + 1 arcs on a string link and
    max(k, 1) on a closed link, where the stretch after the last
    under-passage is the base arc; so an over-passage after j
    under-passages of its walk lies on arc j modulo the component's arc
    count."""
    if "walk" in d._cache:
        return d._cache["walk"]
    arcs, bases, over_arc = [], [], {}
    for comp, ev in enumerate(d.events, start=1):
        unders = sum(role == UNDER for _, role in ev)
        count = max(unders, 1) if d.closed else unders + 1
        bases.append((comp, len(arcs)))
        j = 0
        for cid, role in ev:
            if role == UNDER:
                j += 1
            else:
                over_arc[cid] = len(arcs) + j % count
        arcs += [(comp, a) for a in range(count)]
    passages, factors = [], {}
    for comp, base in bases:
        w = d.writhe(comp)
        ev = d.events[comp - 1]
        unders = [(over_arc[c], d.signs[c]) for c, role in ev if role == UNDER]
        factors[comp] = [(base, -1 if w > 0 else 1)] * abs(w) + unders
        # on a closed link the last under-passage leads back to the base arc
        leading = unders[: len(unders) - 1] if d.closed else unders
        passages += [(base + j, base + j + 1, o, s) for j, (o, s) in enumerate(leading)]
    d._cache["walk"] = _Walk(tuple(arcs), tuple(bases), tuple(passages), factors)
    return d._cache["walk"]


def _refine(d: Diagram, depth: int, base) -> dict:
    """Each arc's meridian, keyed by its ``_walk`` label (comp, arc), after
    depth passes from the base meridians base(comp).  Every arc starts at its
    component's base meridian; each pass walks the passages, conjugating the
    running meridian by the previous pass's over-arc meridian.  The elements
    need only ``*`` and ``inverse()``."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    walk = _walk(d)
    gens = {comp: base(comp) for comp, _ in walk.bases}
    rows = [gens[comp] for comp, _ in walk.arcs]
    for _ in range(depth - 1):
        prev, rows = rows, list(rows)
        for a, out, o, sign in walk.passages:
            x, m = prev[o], rows[a]
            rows[out] = x.inverse() * m * x if sign == 1 else x * m * x.inverse()
    return dict(zip(walk.arcs, rows))


def _longitude(d: Diagram, comp: int, meridians: dict, one):
    """The zero-framed longitude of comp multiplied from the meridians of
    ``_refine`` along ``_walk(d).factors[comp]``, inverted at sign -1; one is
    the identity element."""
    walk, out = _walk(d), one
    for o, sign in walk.factors[comp]:
        x = meridians[walk.arcs[o]]
        out = out * (x if sign == 1 else x.inverse())
    return out


def meridian_words(d: Diagram, depth: int) -> dict[tuple[int, int], Word]:
    """Exact meridian words per arc at a given depth.  Word lengths grow
    quickly with depth; intended for inspection and cross-checks."""
    return _refine(d, depth, lambda comp: Word(d.n, (comp,)))


def longitude_word(d: Diagram, comp: int, depth: int) -> Word:
    """Zero-framed longitude as an exact word at a given depth."""
    if not 1 <= comp <= d.n:
        raise ValueError(f"component {comp} out of range")
    return _longitude(d, comp, meridian_words(d, depth), Word(d.n))


class _Graded:
    """The graded meridian recursion of one diagram on one basis: the Magnus
    series of every arc's meridian, solved degree by degree through the
    basis's top degree.

    At an under-passage with sign +1 the next arc's meridian is
    m' = o^-1 m o, where o is the over-arc's meridian, so o m' = m o; with
    sign -1, m' o = o m.  All constant terms are 1, so degree d of these
    identities reads

        m'[d] = m[d] + s(m, o)[d] - s(o, m')[d]      (sign +1)
        m'[d] = m[d] + s(o, m)[d] - s(m', o)[d]      (sign -1)

    where s(x, y)[d] sums x[u] y[v] over the inner splits of each degree-d
    monomial (``Basis.inner``), which read degrees below d only.  One walk
    per degree, in walk order, therefore fills degree d of every arc.  The
    result is the fixed point of the depth-by-depth refinement, which it
    equals at depth ``q + 1`` (depth stability: Milnor, Isotopy of links,
    1957).  A state serves one query on one basis and solves it from degree
    1; a longitude multiplies its rows along the walk's factors, dividing
    by them at sign -1 with the same step.  A base arc's row is 1 + X_comp,
    so the framing factors divide or multiply by x_comp.
    """

    def __init__(self, d: Diagram, basis: magnus.Basis):
        self.walk = walk = _walk(d)
        self.basis = basis
        arcs = len(walk.arcs)
        if basis.small:
            self.m = [[1] + [0] * (len(basis) - 1) for _ in range(arcs)]
        else:
            np = magnus.np
            self.m = np.zeros((arcs, len(basis)), dtype=np.int64)
            self.m[:, 0] = 1
            # the guard's running L1 norm and peak of each row over the
            # finished degrees, and the passages as index arrays
            self.l1, self.peak = np.zeros(arcs), np.zeros(arcs)
            if walk.passages:
                self.passage_arrays = tuple(np.array(c) for c in zip(*walk.passages))
        for deg in range(1, basis.q + 1):
            self._degree(deg)
        # each row wrapped once, so its guard norms are computed once
        self.rows = [magnus.Series(basis, row) for row in self.m]

    def _degree(self, deg: int) -> None:
        b = self.basis
        lo, hi = b.bounds[deg], b.bounds[deg + 1]
        if not b.small and self.m.dtype != object and self._bound(deg) > magnus._GUARD:
            self.m = self.m.astype(object)
        m, inner = self.m, b.inner
        if deg == 1:
            for comp, arc in self.walk.bases:
                i = b.pos.get((comp,))
                if i is not None:
                    m[arc][i] = 1
        for a, out, o, sign in self.walk.passages:
            if sign == 1:
                step = inner(deg, m[a], m[o], m[a][lo:hi])
                m[out][lo:hi] = inner(deg, m[o], m[out], step, -1)
            else:
                step = inner(deg, m[o], m[a], m[a][lo:hi])
                m[out][lo:hi] = inner(deg, m[out], m[o], step, -1)

    def _bound(self, deg: int) -> float:
        """On the int64 kernel, a bound on every value degree deg computes,
        partial sums included.  |s(x, y)[w]| <= L1(x) peak(y) over degrees
        1..deg-1; each passage adds two such sums to a running value that
        starts at most 1, and the bound adds all of them.  Degree deg - 1 is
        folded into the running norms first, one slice at a time."""
        np = magnus.np
        if deg > 1:
            b = self.basis
            a = self.m[:, b.bounds[deg - 1] : b.bounds[deg]].astype(np.float64)
            np.abs(a, out=a)
            self.l1 += a.sum(axis=1)
            np.maximum(self.peak, a.max(axis=1), out=self.peak)
        if not self.walk.passages:
            return 1.0
        l1, peak = self.l1, self.peak
        a, out, o, sign = self.passage_arrays
        plus = sign == 1
        # sign +1: s(m, o) and s(o, m'); sign -1: s(o, m) and s(m', o)
        first = np.where(plus, l1[a] * peak[o], l1[o] * peak[a])
        second = np.where(plus, l1[o] * peak[out], l1[out] * peak[o])
        return 1.0 + float(first.sum() + second.sum())

    def longitude(self, comp: int) -> magnus.Series:
        """The zero-framed longitude of comp: the product of its factors'
        rows, divided by at sign -1."""
        out = magnus.unit(self.basis)
        for o, sign in self.walk.factors[comp]:
            out = out * self.rows[o] if sign == 1 else out / self.rows[o]
        return out


def longitude_series(d: Diagram, comps, basis: magnus.Basis) -> dict[int, magnus.Series]:
    """Magnus expansions of the zero-framed longitudes of the set of
    components comps on a monomial basis, exact in every degree the basis
    holds (the depth-by-depth refinement at depth ``basis.q + 1``).  One
    graded state serves them all and is freed on return."""
    for comp in comps:
        if not 1 <= comp <= d.n:
            raise ValueError(f"component {comp} out of range")
    state = _Graded(d, basis)
    return {comp: state.longitude(comp) for comp in comps}
