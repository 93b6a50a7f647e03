"""Reference implementations and tools that the tests check the engine with.

``meridian_series`` runs the depth-by-depth refinement of
``wirtinger._refine`` on Magnus series: after ``depth`` passes the
meridians, and the longitude ``longitude_series`` multiplies from them,
are exact in every degree below ``depth`` (Milnor, Isotopy of links, 1957).
It costs ``depth - 1`` full products per pass, and the graded walk is
checked against it.
``shuffles`` lists the interleavings that a shuffle relation sums over.
``link_homotopy_trivial`` reads every repetition-free value of a closed link,
where the engine reads only the ordered injections.  ``roundtrip_parse_pd``
is the PD reader as it was before it compared files in integers: it builds
the file's renumbered fields and compares them with ``to_pd_json`` of what it
traced, and the integer reader must accept and reject exactly as it does.
``spy_graded`` tells the tests which diagram each graded walk reads.
``build_parser`` is the command line as argparse read it, before
``milnor.cli.parse`` read it from one grammar table.
``selfdelta_equivalent`` compares two self-delta tables entry by entry, as
``SelfDeltaVector.equivalent`` did before it read only nonzero residues.
"""

import argparse
import itertools

from milnor import magnus
from milnor.classify import Verdict
from milnor.diagram import OVER, UNDER, Diagram, DiagramError
from milnor.invariants import evaluate
from milnor.pdfile import _int, _owned, to_pd_json
from milnor.wirtinger import _longitude, _refine, _walk


def meridian_series(d, depth, basis):
    """Every arc's meridian after ``depth`` passes, in ``_walk`` order."""
    return _refine(_walk(d), depth, lambda c: magnus.generator_series(c, 1, basis))


def longitude_series(d, comp, depth, basis):
    """The zero-framed longitude multiplied from the meridians at ``depth``,
    with the framing correction x_comp^(-w) on the left."""
    rows = meridian_series(d, depth, basis)
    return _longitude(_walk(d), comp, rows, magnus.unit(basis))


def shuffles(i, j):
    """Every interleaving of i and j, with multiplicity."""
    m = len(i) + len(j)
    for places in itertools.combinations(range(m), len(i)):
        rest_i, rest_j = iter(i), iter(j)
        yield tuple(next(rest_i) if p in places else next(rest_j) for p in range(m))


def link_homotopy_trivial(l):
    """Whether every repetition-free value of a closed link vanishes, read
    over all k-permutations one length k at a time, stopping at the first
    nonzero one: the shortest nonzero value is exact."""
    for k in range(2, l.n + 1):
        if any(evaluate(l, itertools.permutations(range(1, l.n + 1), k)).values()):
            return False
    return True


def selfdelta_equivalent(a, b):
    """The self-delta verdict from two repetition-2 tables through length 2n:
    both hypotheses holding, yes iff the length-2n values agree; otherwise
    no when some residue differs and undecided when none does."""
    n = a.n
    tables = [a.entries, b.entries]
    if all(r.is_zero() for t in tables for i, r in t.items() if len(i) < 2 * n):
        top = [{i: r for i, r in t.items() if len(i) == 2 * n} for t in tables]
        return Verdict.YES if top[0] == top[1] else Verdict.NO
    return Verdict.NO if tables[0] != tables[1] else Verdict.UNDECIDED


def canonical_form(d):
    """Walk data with crossings renumbered by first appearance; equal
    canonical forms mean equal diagrams up to crossing relabeling."""
    relabel = {}
    walks = tuple(
        tuple((relabel.setdefault(cid, len(relabel)), role, d.signs[cid]) for cid, role in ev)
        for ev in d.events
    )
    return (d.n, d.closed, walks)


def spy_graded(monkeypatch, record):
    """Patch the graded walk so that record(d, basis) runs before each walk,
    d being the diagram whose walk table it reads: ``longitude_series``
    reads the table with ``_walk`` just before it walks on it."""
    from milnor import wirtinger

    walk, graded, last = wirtinger._walk, wirtinger._graded, []

    def spy_walk(d):
        last[:] = [d, walk(d)]
        return last[1]

    def spy(table, basis):
        d, read = last
        assert read is table
        record(d, basis)
        return graded(table, basis)

    monkeypatch.setattr(wirtinger, "_walk", spy_walk)
    monkeypatch.setattr(wirtinger, "_graded", spy)


def commutator(a, b):
    """a b a^-1 b^-1 of two words."""
    return a * b * a.inverse() * b.inverse()


def nested_commutator(factors):
    """Right-normed bracket [w_1, [w_2, [..., w_r]...]]; a single factor is
    returned as is."""
    if not factors:
        raise ValueError("need at least one factor")
    word = factors[-1]
    for w in reversed(factors[:-1]):
        word = commutator(w, word)
    return word


def repeat_max(index):
    """Maximum multiplicity of any value in the index (0 for the empty index)."""
    return max(map(index.count, index), default=0)


def _edge(key):
    """An edge named by a JSON object key, which must be an integer's
    decimal form, so that no two keys name one edge."""
    if str(int(key)) != key:
        raise ValueError(f"{key!r} is not an edge number")
    return int(key)


def roundtrip_parse_pd(data) -> Diagram:
    """Parse the JSON form back into a diagram: the reader that compared
    renumbered copies of the file with a second ``to_pd_json``.

    Each component's walk is read off ``orientation``: from its least edge on
    a link, from its top endpoint on a string link.  A crossing's
    under-passage sits at its incoming edge ``row[0]``.  Its over-passage
    sits at ``row[1]`` (sign +1) if that edge flows on to ``row[3]`` and is
    no under-passage's or earlier over-passage's incoming edge, else at
    ``row[3]`` (sign -1).  The file must then be ``to_pd_json`` of the result
    with its edges renumbered in walk order, so that function alone defines
    the layout.
    """
    data = _owned(data)
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
    roundtrip_check_planar(out)
    return d


def roundtrip_check_planar(data: dict) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    """The argparse reading of the command line that ``milnor.cli.parse``
    replaced, as CPython 3.11's argparse reads it: later versions changed
    how ``--`` and a ``*`` positional after an option are read."""
    ap = argparse.ArgumentParser(
        prog="milnor",
        description="Milnor invariants and classification of links and string links",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="invariant tables for diagrams")
    inv.add_argument("files", nargs="+")
    inv.add_argument("--max-length", type=int, default=4)
    inv.add_argument("--max-r", type=int, default=2)
    inv.add_argument("--format", choices=["json", "table"], default="json")

    cl = sub.add_parser("classify", help="classification reports")
    group = cl.add_mutually_exclusive_group(required=True)
    group.add_argument("--homotopy", action="store_true")
    group.add_argument("--self-delta", action="store_true")
    cl.add_argument("files", nargs="+")
    cl.add_argument("--format", choices=["json", "table"], default="json")
    cl.add_argument("--strict", action="store_true")

    gen = sub.add_parser("generate", help="emit generator diagrams")
    gen.add_argument(
        "kind", choices=["milnor-link", "v-pi", "v-tau", "whitehead", "trivial"]
    )
    gen.add_argument("spec", nargs="*")
    gen.add_argument("--components", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("-o", "--output", default=None)

    cab = sub.add_parser("cable", help="zero-framed parallel copies")
    cab.add_argument("file")
    cab.add_argument("multiplicities")
    cab.add_argument("-o", "--output", default=None)
    return ap
