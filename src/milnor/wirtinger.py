"""Wirtinger presentation and the longitude recursion.

Every arc of a diagram carries a meridian word in the base meridians
m_1..m_n, refined depth by depth: at depth 1 each arc of component i maps to
m_i; passing to depth t+1, walking a component from its base arc, each
under-passage conjugates the running word by the depth-t word of the
over-arc, with the conjugation direction given by the crossing sign.  The
zero-framed longitude of a component multiplies the over-arc words along its
under-passages and strips the accumulated self-framing.  The correction
x_i^(-w) multiplies on the left: a kink contributes x_k^(+-1), which is
lambda_{<k}^-1 x_i^(+-1) lambda_{<k}, so it moves x_i^(+-1) to the left of
the partial longitude lambda_{<k}.  For a string link, whose longitude need
not commute with x_i, only the left correction cancels it.

The same recursion is implemented twice: on free-group words (exact, for
inspection and small depths) and on Magnus series over a monomial basis
(used by the invariant engine, which sizes the basis by its query; word
length would blow up at the depths tables need).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import magnus
from .diagram import UNDER, Diagram
from .freegroup import Word


@dataclass(frozen=True)
class Relation:
    """out = over^-sign * in * over^sign, one per crossing."""

    crossing: int
    sign: int
    out_arc: int
    in_arc: int
    over_arc: int


@dataclass(frozen=True)
class Presentation:
    diagram: Diagram
    arcs: tuple[int, ...]  # edge labels, one generator each
    component_of: dict
    relations: tuple[Relation, ...]

    def dump(self) -> str:
        lines = [f"arcs: {len(self.arcs)}, relations: {len(self.relations)}"]
        for r in self.relations:
            e = "^-1" if r.sign == 1 else ""
            lines.append(
                f"x{r.out_arc} = x{r.over_arc}{e} x{r.in_arc} x{r.over_arc}"
                + ("" if r.sign == 1 else "^-1")
            )
        return "\n".join(lines)


def presentation(d: Diagram) -> Presentation:
    """One generator per diagram arc (PD edge) and one conjugation relation
    per crossing; arcs joined by an over-passage carry equal meridians."""
    from .diagram import to_pd_json

    data = to_pd_json(d)
    arcs = tuple(sorted(int(e) for e in data["component_of_arc"]))
    component_of = {int(e): c for e, c in data["component_of_arc"].items()}
    relations = []
    for cid, (a, b, c_out, dd) in enumerate(data["pd"]):
        sign = d.crossings[cid].sign
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


def _arc_wrap(d: Diagram, comp: int, ordinal: int) -> int:
    # in a closed diagram the arc after the final under-passage is the base arc
    if d.closed and ordinal >= d.arc_count(comp):
        return 0
    return ordinal


def meridian_words(d: Diagram, depth: int) -> dict[tuple[int, int], Word]:
    """Exact meridian words per arc at a given depth.  Word lengths grow
    quickly with depth; intended for inspection and cross-checks."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    words = {
        (comp, a): Word(d.n, (comp,))
        for comp in range(1, d.n + 1)
        for a in range(d.arc_count(comp))
    }
    for _ in range(depth - 1):
        prev = words
        words = {}
        for comp in range(1, d.n + 1):
            cur = Word(d.n, (comp,))
            words[(comp, 0)] = cur
            arc = 0
            for cid, role in d.events[comp - 1]:
                if role != UNDER:
                    continue
                c = d.crossings[cid]
                oc, op = c.over
                over = prev[(oc, _arc_wrap(d, oc, d.arc_at(oc, op)))]
                conj = over.inverse() if c.sign == 1 else over
                cur = conj * cur * conj.inverse()
                arc += 1
                if arc < d.arc_count(comp):
                    words[(comp, arc)] = cur
    return words


def longitude_word(d: Diagram, comp: int, depth: int) -> Word:
    """Zero-framed longitude as an exact word at a given depth."""
    if not 1 <= comp <= d.n:
        raise ValueError(f"component {comp} out of range")
    words = meridian_words(d, depth)
    out = Word(d.n)
    for cid, role in d.events[comp - 1]:
        if role != UNDER:
            continue
        c = d.crossings[cid]
        oc, op = c.over
        over = words[(oc, _arc_wrap(d, oc, d.arc_at(oc, op)))]
        out = out * (over if c.sign == 1 else over.inverse())
    w = d.writhe(comp)
    correction = Word(d.n, (-comp if w > 0 else comp,) * abs(w))
    return correction * out


def _meridian_series(d: Diagram, depth: int, basis: magnus.Basis):
    key = ("meridians", depth, basis)
    if key in d._cache:
        return d._cache[key]
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = d.n
    gens = {comp: magnus.generator_series(comp, 1, basis) for comp in range(1, n + 1)}
    series = {
        (comp, a): gens[comp]
        for comp in range(1, n + 1)
        for a in range(d.arc_count(comp))
    }
    for _ in range(depth - 1):
        prev = series
        inv_cache: dict[tuple[int, int], magnus.Series] = {}
        series = {}
        for comp in range(1, n + 1):
            cur = gens[comp]
            series[(comp, 0)] = cur
            arc = 0
            for cid, role in d.events[comp - 1]:
                if role != UNDER:
                    continue
                c = d.crossings[cid]
                oc, op = c.over
                okey = (oc, _arc_wrap(d, oc, d.arc_at(oc, op)))
                over = prev[okey]
                if okey not in inv_cache:
                    inv_cache[okey] = over.inverse()
                over_inv = inv_cache[okey]
                if c.sign == 1:
                    cur = over_inv * cur * over
                else:
                    cur = over * cur * over_inv
                arc += 1
                if arc < d.arc_count(comp):
                    series[(comp, arc)] = cur
    d._cache[key] = series
    return series


def longitude_series(
    d: Diagram, comp: int, depth: int, basis: magnus.Basis
) -> magnus.Series:
    """Magnus expansion of the zero-framed longitude on a monomial basis,
    with arc meridians refined to the given depth.  Cached per diagram."""
    key = ("longitude", comp, depth, basis)
    if key in d._cache:
        return d._cache[key]
    if not 1 <= comp <= d.n:
        raise ValueError(f"component {comp} out of range")
    series = _meridian_series(d, depth, basis)
    out = magnus.unit(basis)
    for cid, role in d.events[comp - 1]:
        if role != UNDER:
            continue
        c = d.crossings[cid]
        oc, op = c.over
        over = series[(oc, _arc_wrap(d, oc, d.arc_at(oc, op)))]
        out = out * (over if c.sign == 1 else over.inverse())
    w = d.writhe(comp)
    if w:
        corr = magnus.generator_series(comp, -1 if w > 0 else 1, basis)
        for _ in range(abs(w)):
            out = corr * out
    d._cache[key] = out
    return out
