"""Diagram files: the PD layout of a diagram, and the files read back.

``to_pd_json`` alone defines the PD file layout: a file is read back only if
it is that layout of the walks it traces, and only if some diagram on the
sphere realizes it.  A braid file names a braid word and is built by the
slice executor.
"""

from __future__ import annotations

import itertools
import json

from .diagram import OVER, UNDER, Diagram, DiagramError
from .tangles import from_braid


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


def _decoded(data):
    """data, decoded first when it is JSON text; nesting too deep for the
    decoder is a DiagramError."""
    try:
        return json.loads(data) if isinstance(data, str) else data
    except RecursionError:
        raise DiagramError("JSON nested too deeply") from None


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
    data = _decoded(data)
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
    data = _decoded(data)
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
