"""Diagram files: the PD layout of a diagram, and the files read back.

``_layout`` alone defines the PD file layout, in integers; ``to_pd_json``
writes it with JSON keys.  A file is read back only if it is that layout of
the walks it traces, up to edge names, and some diagram on the sphere
realizes it.  A braid file names a braid word, built by the slice executor.
"""

from __future__ import annotations

import itertools

from .diagram import OVER, UNDER, Diagram, DiagramError
from .tangles import from_braid


def _layout(d: Diagram):
    """The PD layout of d as ``(rows, comp, succ, top, bottom)``.

    Edges are numbered from 1, component c's k passages in one range from
    ``top[c - 1]`` to ``bottom[c - 1]``: k edges on a link (one if k = 0),
    k + 1 on a string link.  A passage at pos flows in along start + pos and
    out along start + pos + 1, wrapping to start on a link.  ``rows`` lists
    each crossing's four edges counterclockwise from the incoming under-edge;
    ``comp[e - 1]`` and ``succ[e - 1]`` are edge e's component and successor,
    None after a string link's last edge.
    """
    comp, succ, top, bottom = [], [], [], []
    for c, ev in enumerate(d.events, start=1):
        start = len(comp) + 1
        count = max(len(ev), 1) if d.closed else len(ev) + 1
        comp += [c] * count
        succ += [*range(start + 1, start + count), start if d.closed else None]
        top.append(start)
        bottom.append(start + count - 1)
    rows = []
    for sign, (oc, op), (uc, up) in zip(d.signs, d.over_at, d.under_at):
        ui, oi = top[uc - 1] + up, top[oc - 1] + op
        uo, oo = succ[ui - 1], succ[oi - 1]
        rows.append([ui, oi, uo, oo] if sign == 1 else [ui, oo, uo, oi])
    return rows, comp, succ, top, bottom


def to_pd_json(d: Diagram) -> dict:
    """Serialize a diagram: its layout's 4-tuples, plus the component and
    successor data that resolve the orientation ambiguities of bare PD codes."""
    rows, comp, succ, top, bottom = _layout(d)
    data = {
        "name": d.name or "",
        "kind": "link" if d.closed else "stringlink",
        "components": d.n,
        "pd": rows,
        "component_of_arc": {str(e): c for e, c in enumerate(comp, 1)},
        "orientation": {str(e): f for e, f in enumerate(succ, 1) if f is not None},
    }
    if not d.closed:
        data["endpoints"] = {"top": top, "bottom": bottom}
    return data


def _owned(data) -> dict:
    """data as a dict the reader may take its tables out of: JSON text
    decoded, a dict copied shallowly (the caller's tables are only read).
    Both readers enter here: anything but a JSON object whose name is a
    string or absent, or nesting too deep to decode, is a DiagramError."""
    if isinstance(data, str):
        import json  # here, so that importing pdfile loads no codec

        try:
            data = json.loads(data)
        except RecursionError:
            raise DiagramError("JSON nested too deeply") from None
    elif isinstance(data, dict):
        data = dict(data)
    if not isinstance(data, dict):
        raise DiagramError("a diagram file holds a JSON object")
    if not isinstance(data.get("name", ""), (str, type(None))):
        raise DiagramError("a diagram name is a string")
    return data


def _int(value):
    """A JSON integer: floats, booleans and strings are rejected."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _ints(values):
    """values, each checked in place to be a JSON integer."""
    for value in values:
        _int(value)
    return values


def _edges(table):
    """table, an object keyed by edges, checked in place: each key must be
    an integer's decimal form, so that edge e is looked up as ``str(e)`` and
    no two keys name one edge, and each value a JSON integer."""
    for key, value in table.items():
        if str(int(key)) != key:
            raise ValueError(f"{key!r} is not an edge number")
        _int(value)
    return table


def parse_pd(data) -> Diagram:
    """Parse the JSON form back into a diagram.

    Each component's walk is read off ``orientation``: from its least edge on
    a link, from its top endpoint on a string link.  A crossing's
    under-passage sits at its incoming edge ``row[0]``.  Its over-passage
    sits at ``row[1]`` (sign +1) if that edge flows on to ``row[3]`` and is
    no under-passage's or earlier over-passage's incoming edge, else at
    ``row[3]`` (sign -1).  The file must then be ``_layout`` of the result,
    its edges renumbered in walk order, compared field by field.  The
    objects keyed by edges are checked in place and read at ``str(e)``, so
    the load makes no int-keyed copy of them.  A caller's dict is read,
    never changed.
    """
    return _read_pd(_owned(data))


def _read_pd(data) -> Diagram:
    """``parse_pd`` of a dict that the reader owns.  It takes the file's
    tables out of ``data`` and, once the walks are traced, keeps only their
    walk positions, so tables that no caller holds (``load_diagram``'s own
    decode) are freed before the diagram, its layout and the planarity check
    are built."""
    try:
        n = _int(data["components"])
        pd = data.pop("pd")
        for row in pd:
            _ints(row)
        comp_of = _edges(data.pop("component_of_arc"))
        succ = _edges(data.pop("orientation"))
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
            raise DiagramError(f"crossing {list(row)} is not a 4-tuple")
    least: dict[int, int] = {}  # component -> its least edge
    for key, c in comp_of.items():
        e = int(key)
        least[c] = min(e, least.get(c, e))
    if len(least) != n or set(least) != set(range(1, n + 1)):
        raise DiagramError("component labels must be 1..n")
    if closed:
        ends = []
        starts = [least[c] for c in range(1, n + 1)]
    else:
        try:
            ends = data.pop("endpoints")
            ends = [_ints(ends[k]) for k in ("top", "bottom")]
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramError(f"string links need endpoint data: {exc}") from None
        if len(ends[0]) != n:
            raise DiagramError("need one top endpoint per component")
        for e in ends[0]:
            if str(e) not in comp_of:
                raise DiagramError(f"top endpoint {e} lacks a component")
        start_of = {comp_of[str(e)]: e for e in ends[0]}
        if len(start_of) != n:
            raise DiagramError("top endpoints must cover all components")
        starts = [start_of[c] for c in range(1, n + 1)]
    walks, num = [], {}  # num: edge -> its place in walk order, from 1
    for e in starts:
        start = len(num) + 1
        while e is not None and e not in num:
            num[e] = len(num) + 1
            e = succ.get(str(e))
        walks.append(range(start, len(num) + 1))
    # the file in walk positions, None at an untraced edge, and the sizes of
    # its tables: all that the checks below read of it, each table renumbered
    # and dropped as soon as the reader is done with it
    at_comp, edges = [comp_of.get(str(e)) for e in num], len(comp_of)
    at_ends = [[num.get(e) for e in es] for es in ends]
    del comp_of, ends
    consumed = {row[0] for row in pd}
    enters = [None] * (len(num) + 1)  # by place; slot 0 takes untraced edges
    signs = []
    for cid, (a, b, _, dd) in enumerate(pd):
        if b not in consumed and succ.get(str(b)) == dd:
            over, sign = b, 1
        else:
            over, sign = dd, -1
        consumed.add(over)
        enters[num.get(a, 0)], enters[num.get(over, 0)] = (cid, UNDER), (cid, OVER)
        signs.append(sign)
    events = [[enters[j] for j in walk if enters[j]] for walk in walks]
    del consumed, enters
    at_rows = [num.get(e) for row in pd for e in row]
    at_succ, arrows = [num.get(succ.get(str(e))) for e in num], len(succ)
    del pd, succ, num  # freed before the diagram is built
    d = Diagram(n, events, signs, closed=closed, name=data.get("name") or None)
    # the file must be the layout of its walks, up to the names of its edges
    rows, comp, after, first, last = _layout(d)
    unlike = "{} is not the layout of the traced walks".format
    if any(e != j for e, j in zip(at_rows, itertools.chain.from_iterable(rows))):
        raise DiagramError(unlike("pd"))
    if not len(at_comp) >= len(comp) == edges or any(
        a != c for a, c in zip(at_comp, comp)
    ):
        raise DiagramError(unlike("component_of_arc"))
    if arrows != len(after) - after.count(None) or any(
        f is not None and g != f for g, f in zip(at_succ, after)
    ):
        raise DiagramError(unlike("orientation"))
    if any(es != out for es, out in zip(at_ends, (first, last))):
        raise DiagramError(unlike("endpoints"))
    _check_planar(rows, {} if closed else dict(zip(last, first)))
    return d


def _check_planar(rows, join) -> None:
    """Reject a layout that no diagram on the sphere realizes.

    ``join`` maps each string-link component's bottom edge to its top edge,
    which closes a planar string link planarly.  The ``rows``, edge ends in
    counterclockwise order, then span a 4-valent graph with a rotation
    system; it embeds in the sphere iff V - E + F = 2 on each connected piece,
    that is F = V + 2 * pieces, since E = 2V.  Faces are the orbits of
    "follow the edge, then step to the next end counterclockwise".
    """
    v = len(rows)
    mate = [0] * (4 * v)
    piece = list(range(v))

    def root(c):
        while piece[c] != c:
            piece[c] = c = piece[piece[c]]
        return c

    pending: dict[int, int] = {}  # edge -> the slot of its first end
    for b, e in enumerate(itertools.chain.from_iterable(rows)):
        e = join.get(e, e)
        a = pending.pop(e, None)
        if a is None:
            pending[e] = b
        else:
            mate[a], mate[b] = b, a
            piece[root(a // 4)] = root(b // 4)
    faces = 0
    seen = [False] * len(mate)
    for start in range(len(mate)):
        faces += not seen[start]
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
    """Load either a PD file or a braid file.  A braid file's strand count
    and letters are checked by ``from_braid``."""
    data = _owned(data)
    if "pd" in data:
        return _read_pd(data)
    if "word" in data:
        try:
            strands, letters = data["strands"], iter(data["word"])
        except (KeyError, TypeError) as exc:
            raise DiagramError(f"malformed braid file: {exc}") from None
        kind = data.get("kind", "stringlink")
        if kind not in ("stringlink", "closure"):
            raise DiagramError(f"unknown braid kind {kind!r}")
        return from_braid(strands, letters, closed=(kind == "closure"), name=data.get("name"))
    raise DiagramError("file is neither a PD diagram nor a braid")
