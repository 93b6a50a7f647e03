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
arcs, lists each under-passage with its in-, out- and over-arc, and writes
each longitude as factors, the framing correction first as |w| factors of
the base arc.  Everything below reads that table: ``presentation`` lists
it as generators and relations.  ``_refine`` refines every arc's meridian
depth by depth, each pass conjugating by the previous pass's meridians, and
``_longitude`` multiplies a longitude along its factors.  Both work on any
element with ``*``, ``/`` and ``inverse()``: on free-group words they give
``meridian_words`` and ``longitude_word``, exact at every depth, and the
tests run them on Magnus series as the oracle of the graded walk.
The engine solves the meridians on a basis sized by its query with
``magnus.meridian_walk``, one step per passage and degree of the identity
x y = u v that the ``magnus`` module docstring writes once for every
series operation; ``longitude_series(d, comps, basis)`` walks once for a
batch of components and returns their longitudes.  A base arc's row is
1 + X_c, so the framing factors of ``_longitude`` divide or multiply by
x_c.  Nothing sized by the basis is kept on the diagram or outlives the query.
"""

from __future__ import annotations

from collections import namedtuple

from . import magnus
from .diagram import UNDER, Diagram


class _Walk(namedtuple("_Walk", "arcs bases passages closers factors")):
    """A diagram's Wirtinger arcs, numbered flat component by component.

    ``arcs`` labels them (comp, ordinal), ordinal 0 being comp's base arc;
    ``bases`` pairs each component with its base arc; ``passages`` lists
    the under-passages that lead to a further arc, as (arc in, arc out,
    over-arc, sign), each component's in walk order, and ``closers`` the
    last under-passage of each closed component, which leads back to its
    base arc; and ``factors[comp]`` lists the longitude factors of comp as
    (arc, sign): |w| copies of (base arc, -sign w), the framing correction
    x_comp^(-w) for comp's self-writhe w, then the over-arc of each
    under-passage along its walk.
    """

    __slots__ = ()


def _walk(d: Diagram) -> _Walk:
    """The walk data of d, read from its events alone and rebuilt by each
    caller: one pass over the walks costs about a tenth of the ``reduced``
    it is read from.  A component with k under-passages has k + 1 arcs on a
    string link and max(k, 1) on a closed link, where the stretch after
    the last under-passage is the base arc; so an over-passage after j
    under-passages of its walk lies on arc j modulo the component's arc
    count."""
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
    passages, closers, factors = [], [], {}
    for comp, base in bases:
        w = d.writhe(comp)
        ev = d.events[comp - 1]
        unders = [(over_arc[c], d.signs[c]) for c, role in ev if role == UNDER]
        factors[comp] = [(base, -1 if w > 0 else 1)] * abs(w) + unders
        passages += [(base + j, base + j + 1, o, s) for j, (o, s) in enumerate(unders)]
        if d.closed and unders:
            a, _, o, s = passages.pop()
            closers.append((a, base, o, s))
    return _Walk(tuple(arcs), tuple(bases), tuple(passages), tuple(closers), factors)


class Relation(namedtuple("Relation", "in_arc out_arc over_arc sign")):
    """m_out = o^-sign m_in o^sign, where o is the over-arc's meridian."""

    __slots__ = ()


class Presentation(namedtuple("Presentation", "diagram arcs relations")):
    """``arcs`` labels the generators as ``_walk`` does, one per Wirtinger
    arc; a relation names arcs by their positions in it."""

    __slots__ = ()


def presentation(d: Diagram) -> Presentation:
    """The Wirtinger presentation read off ``_walk``: one generator per arc
    and one relation per crossing, at its under-passage."""
    walk = _walk(d)
    relations = map(Relation._make, walk.passages + walk.closers)
    return Presentation(d, walk.arcs, tuple(relations))


def _refine(walk: _Walk, depth: int, base) -> list:
    """Each arc's meridian, in ``walk.arcs`` order, after depth passes from
    the base meridians base(comp).  Every arc starts at its component's base
    meridian; each pass walks the passages, conjugating the running meridian
    by the previous pass's over-arc meridian.  The elements need only ``*``
    and ``inverse()``."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = {comp: base(comp) for comp, _ in walk.bases}
    rows = [gens[comp] for comp, _ in walk.arcs]
    for _ in range(depth - 1):
        prev, rows = rows, list(rows)
        for a, out, o, sign in walk.passages:
            x, m = prev[o], rows[a]
            rows[out] = x.inverse() * m * x if sign == 1 else x * m * x.inverse()
    return rows


def _longitude(walk: _Walk, comp: int, rows, one):
    """The zero-framed longitude of comp: the identity element one times the
    meridian rows of ``walk.factors[comp]``, divided on the right by the row
    at sign -1.  The rows, in ``walk.arcs`` order, come from ``_refine`` or
    ``magnus.meridian_walk``; the elements need only ``*`` and ``/``."""
    out = one
    for o, sign in walk.factors[comp]:
        out = out * rows[o] if sign == 1 else out / rows[o]
    return out


def meridian_words(d: Diagram, depth: int) -> dict[tuple[int, int], Word]:
    """Exact meridian words per arc at a given depth.  Word lengths grow
    quickly with depth; intended for inspection and cross-checks."""
    from .freegroup import Word

    walk = _walk(d)
    return dict(zip(walk.arcs, _refine(walk, depth, lambda comp: Word(d.n, (comp,)))))


def longitude_word(d: Diagram, comp: int, depth: int) -> Word:
    """Zero-framed longitude as an exact word at a given depth."""
    from .freegroup import Word

    if not 1 <= comp <= d.n:
        raise ValueError(f"component {comp} out of range")
    rows = list(meridian_words(d, depth).values())
    return _longitude(_walk(d), comp, rows, Word(d.n))


def longitude_series(d: Diagram, comps, basis: magnus.Basis) -> dict[int, magnus.Series]:
    """Magnus expansions of the zero-framed longitudes of the set of
    components comps on a monomial basis, exact in every degree the basis
    holds (the depth-by-depth refinement at depth ``basis.q + 1``).  One
    graded walk serves them all, and its rows are freed on return."""
    for comp in comps:
        if not 1 <= comp <= d.n:
            raise ValueError(f"component {comp} out of range")
    walk = _walk(d)
    rows = magnus.meridian_walk(basis, [comp for comp, _ in walk.arcs], walk.passages)
    return {comp: _longitude(walk, comp, rows, magnus.unit(basis)) for comp in comps}
