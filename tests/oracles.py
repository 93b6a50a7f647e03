"""Reference implementations that the tests compare the engine against.

``longitude_series`` is the depth-by-depth meridian recursion the engine
used before its graded walk: every arc starts at its component's base
meridian, and each pass walks every component from its base arc,
conjugating the running series by the previous pass's over-arc series at
each under-passage.  After ``depth`` passes the meridians, and the
longitude multiplied from them, are exact in every degree below ``depth``
(Milnor, Isotopy of links, 1957).  It costs ``depth - 1`` full products per
passage and is kept only as an oracle.
"""

from milnor import magnus
from milnor.diagram import UNDER, Diagram
from milnor.wirtinger import _arc_wrap


def meridian_series(d: Diagram, depth: int, basis: magnus.Basis) -> dict:
    """Each arc's meridian series after ``depth`` passes, keyed (comp, arc)."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = {comp: magnus.generator_series(comp, 1, basis) for comp in range(1, d.n + 1)}
    series = {
        (comp, a): gens[comp]
        for comp in range(1, d.n + 1)
        for a in range(d.arc_count(comp))
    }
    for _ in range(depth - 1):
        prev, series = series, {}
        for comp in range(1, d.n + 1):
            cur = gens[comp]
            series[(comp, 0)] = cur
            arc = 0
            for cid, role in d.events[comp - 1]:
                if role != UNDER:
                    continue
                c = d.crossings[cid]
                oc, op = c.over
                over = prev[(oc, _arc_wrap(d, oc, d.arc_at(oc, op)))]
                if c.sign == 1:
                    cur = over.inverse() * cur * over
                else:
                    cur = over * cur * over.inverse()
                arc += 1
                if arc < d.arc_count(comp):
                    series[(comp, arc)] = cur
    return series


def longitude_series(d: Diagram, comp: int, depth: int, basis: magnus.Basis):
    """The zero-framed longitude multiplied from the meridians at ``depth``,
    with the framing correction x_comp^(-w) on the left."""
    series = meridian_series(d, depth, basis)
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
    return out
