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

The recursion is implemented twice.  On free-group words it refines every
arc depth by depth, each pass conjugating by the previous pass's words;
the words are exact at every depth and serve inspection and small depths.
On Magnus series over a monomial basis (used by the invariant engine,
which sizes the basis by its query) it is graded: degree d of every
meridian depends only on lower degrees of the over-arcs, so one walk per
degree fills it for every arc, and a larger query reuses every degree a
smaller one on the same monomials computed (``_Graded``).
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


@dataclass(frozen=True)
class _Walk:
    """A diagram's ``arcs`` arcs, numbered flat component by component.

    ``bases`` pairs each component with its base arc; ``passages`` lists
    the under-passages that lead to a further arc, as (arc in, arc out,
    over-arc, sign), each component's in walk order; ``factors[comp]`` lists
    the longitude factors of comp as (over-arc, sign) along its walk;
    ``inverted`` lists the arcs whose meridian some longitude inverts; and
    ``writhe[comp]`` is comp's self-writhe, which its longitude cancels.
    """

    arcs: int
    bases: tuple
    passages: tuple
    factors: dict
    inverted: tuple
    writhe: dict


def _walk(d: Diagram) -> _Walk:
    """The walk data of d, cached on it."""
    if "walk" in d._cache:
        return d._cache["walk"]
    arcs = [(comp, a) for comp in range(1, d.n + 1) for a in range(d.arc_count(comp))]
    index = {arc: i for i, arc in enumerate(arcs)}
    passages, factors = [], {}
    for comp in range(1, d.n + 1):
        arc, factors[comp] = 0, []
        for cid, role in d.events[comp - 1]:
            if role != UNDER:
                continue
            c = d.crossings[cid]
            oc, op = c.over
            over = index[(oc, _arc_wrap(d, oc, d.arc_at(oc, op)))]
            factors[comp].append((over, c.sign))
            arc += 1
            if arc < d.arc_count(comp):
                passages.append((index[(comp, arc - 1)], index[(comp, arc)], over, c.sign))
    inverted = sorted({o for fs in factors.values() for o, sign in fs if sign == -1})
    bases = tuple((comp, index[(comp, 0)]) for comp in range(1, d.n + 1))
    writhe = {comp: d.writhe(comp) for comp in range(1, d.n + 1)}
    d._cache["walk"] = _Walk(
        len(arcs), bases, tuple(passages), factors, tuple(inverted), writhe
    )
    return d._cache["walk"]


def _shared_degree(a: magnus.Basis, b: magnus.Basis) -> int:
    """The largest t such that both bases hold the same monomials through
    degree t, which then sit at the same positions in both."""
    t = 0
    while t < min(a.q, b.q) and (
        a.words[a.bounds[t + 1] : a.bounds[t + 2]]
        == b.words[b.bounds[t + 1] : b.bounds[t + 2]]
    ):
        t += 1
    return t


class _Graded:
    """The graded meridian recursion of one diagram on one basis: the Magnus
    series of every arc's meridian, and of the inverse of each meridian a
    longitude inverts, solved degree by degree through the basis's top
    degree.

    At an under-passage with sign +1 the next arc's meridian is
    m' = o^-1 m o, where o is the over-arc's meridian, so o m' = m o; with
    sign -1, m' o = o m.  All constant terms are 1, so degree d of these
    identities reads

        m'[d] = m[d] + s(m, o)[d] - s(o, m')[d]      (sign +1)
        m'[d] = m[d] + s(o, m)[d] - s(m', o)[d]      (sign -1)

    where s(x, y)[d] sums x[u] y[v] over the inner splits of each degree-d
    monomial (``Basis.inner``), which read degrees below d only.  One walk
    per degree, in walk order, therefore fills degree d of every arc; an
    inverse then follows from m m^-1 = 1 as m^-1[d] = -(m[d] + s(m, m^-1)[d]).
    The result is the fixed point of the depth-by-depth refinement, which
    it equals at depth ``q + 1`` (depth stability: Milnor, Isotopy of links,
    1957).  The rows are kept, so a query on a basis holding the same
    monomials through degree t copies them through degree t and solves only
    the degrees above.
    """

    def __init__(self, d: Diagram, basis: magnus.Basis, old: "_Graded | None"):
        self.walk = walk = _walk(d)
        self.basis = basis
        self.slot = {arc: j for j, arc in enumerate(walk.inverted)}
        self.factors = {}  # (arc, sign, basis) -> Series
        self.longitudes = {}  # (comp, basis) -> Series
        t = 0 if old is None else _shared_degree(old.basis, basis)
        keep = basis.bounds[t + 1]
        self.m = self._rows(walk.arcs, None if old is None else old.m, keep)
        self.inv = self._rows(len(walk.inverted), None if old is None else old.inv, keep)
        if not basis.small and object in (self.m.dtype, self.inv.dtype):
            self.m, self.inv = self.m.astype(object), self.inv.astype(object)
        for deg in range(t + 1, basis.q + 1):
            self._degree(deg)

    def serves(self, basis: magnus.Basis) -> bool:
        """Whether basis is this basis or its monomials through some degree."""
        return basis == self.basis or (
            basis.q <= self.basis.q and _shared_degree(self.basis, basis) == basis.q
        )

    def _rows(self, count: int, old, keep: int):
        """count coefficient vectors in this basis's kernel: the first keep
        positions of old's rows when given, else constant term 1; the rest
        zero."""
        b = self.basis
        if old is None:
            prefix, keep = [[1]] * count, 1
        elif isinstance(old, list):
            prefix = [row[:keep] for row in old]
        else:
            prefix = old[:, :keep]
        if b.small:
            if not isinstance(prefix, list):
                prefix = prefix.tolist()
            pad = [0] * (len(b) - keep)
            return [row + pad for row in prefix]
        if isinstance(prefix, list):
            prefix = magnus._int_array(prefix) if prefix else magnus.np.zeros((0, keep), int)
        rows = magnus.np.zeros((count, len(b)), dtype=prefix.dtype)
        rows[:, :keep] = prefix
        return rows

    def _degree(self, deg: int) -> None:
        b = self.basis
        lo, hi = b.bounds[deg], b.bounds[deg + 1]
        if not b.small and self.m.dtype != object and self._bound(deg) > magnus._GUARD:
            self.m, self.inv = self.m.astype(object), self.inv.astype(object)
        m, inv, inner = self.m, self.inv, b.inner
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
        for j, a in enumerate(self.walk.inverted):
            inv[j][lo:hi] = inner(deg, m[a], inv[j], None, -1, m[a][lo:hi])

    def _bound(self, deg: int) -> float:
        """On the int64 kernel, a bound on every value degree deg computes,
        partial sums included.  |s(x, y)[w]| <= L1(x) peak(y) over degrees
        1..deg-1; each passage adds two such sums to a running value that
        starts at most 1, and the bound adds all of them.  An inverse adds
        one more to a value of the walk."""
        np = magnus.np
        top = self.basis.bounds[deg]
        norms = []
        for rows in (self.m, self.inv):
            a = np.abs(rows[:, 1:top].astype(np.float64))
            norms += [a.sum(axis=1), a.max(axis=1, initial=0.0)]
        l1, peak, inv_l1, inv_peak = norms
        bound = 1.0
        if self.walk.passages:
            a, out, o, sign = (np.array(c) for c in zip(*self.walk.passages))
            plus = sign == 1
            # sign +1: s(m, o) and s(o, m'); sign -1: s(o, m) and s(m', o)
            first = np.where(plus, l1[a] * peak[o], l1[o] * peak[a])
            second = np.where(plus, l1[o] * peak[out], l1[out] * peak[o])
            bound += float(first.sum() + second.sum())
        if self.walk.inverted:
            bound += float((l1[list(self.walk.inverted)] * inv_peak).max())
        return bound

    def _factor(self, arc: int, sign: int, basis: magnus.Basis) -> magnus.Series:
        """The meridian of arc, or its inverse for sign -1, on basis."""
        key = (arc, sign, basis)
        if key not in self.factors:
            row = self.m[arc] if sign == 1 else self.inv[self.slot[arc]]
            if basis != self.basis:
                row = row[: len(basis)]
                if basis.small and not self.basis.small:
                    row = row.tolist()
            self.factors[key] = magnus.Series(basis, row)
        return self.factors[key]

    def longitude(self, comp: int, basis: magnus.Basis) -> magnus.Series:
        """The zero-framed longitude of comp on basis, which this serves: the
        product of the over-arc meridians along the walk, inverted at a
        negative crossing, with the framing correction x_comp^(-w) multiplied
        on the left.  Cached per basis."""
        key = (comp, basis)
        if key in self.longitudes:
            return self.longitudes[key]
        out = magnus.unit(basis)
        for o, sign in self.walk.factors[comp]:
            out = out * self._factor(o, sign, basis)
        w = self.walk.writhe[comp]
        if w:
            corr = magnus.generator_series(comp, -1 if w > 0 else 1, basis)
            for _ in range(abs(w)):
                out = corr * out
        self.longitudes[key] = out
        return out


def _meridian_series(d: Diagram, basis: magnus.Basis) -> _Graded:
    """The graded recursion of d serving basis: the cached one when it
    serves basis, otherwise one extended from it, which replaces it."""
    state = d._cache.get("meridians")
    if state is None or not state.serves(basis):
        state = _Graded(d, basis, state)
        d._cache["meridians"] = state
    return state


def longitude_series(d: Diagram, comp: int, basis: magnus.Basis) -> magnus.Series:
    """Magnus expansion of the zero-framed longitude on a monomial basis,
    exact in every degree the basis holds (the depth-by-depth refinement at
    depth ``basis.q + 1``)."""
    if not 1 <= comp <= d.n:
        raise ValueError(f"component {comp} out of range")
    return _meridian_series(d, basis).longitude(comp, basis)
