"""Reference implementations and tools that the tests check the engine with.

``longitude_series`` runs the depth-by-depth refinement of
``wirtinger._refine`` on Magnus series: after ``depth`` passes the
meridians, and the longitude multiplied from them, are exact in every degree
below ``depth`` (Milnor, Isotopy of links, 1957).  It costs ``depth - 1``
full products per pass, and the graded walk is checked against it.
``link_homotopy_trivial`` reads every repetition-free value of a closed link,
where the engine reads only the ordered injections.
"""

import itertools

from milnor import magnus
from milnor.invariants import evaluate
from milnor.wirtinger import _longitude, _refine


def meridian_series(d, depth, basis):
    """Each arc's meridian series after ``depth`` passes, keyed (comp, arc)."""
    return _refine(d, depth, lambda comp: magnus.generator_series(comp, 1, basis))


def longitude_series(d, comp, depth, basis):
    """The zero-framed longitude multiplied from the meridians at ``depth``,
    with the framing correction x_comp^(-w) on the left."""
    return _longitude(d, comp, meridian_series(d, depth, basis), magnus.unit(basis))


def link_homotopy_trivial(l):
    """Whether every repetition-free value of a closed link vanishes, read
    over all k-permutations one length k at a time, stopping at the first
    nonzero one: the shortest nonzero value is exact."""
    for k in range(2, l.n + 1):
        if any(evaluate(l, itertools.permutations(range(1, l.n + 1), k)).values()):
            return False
    return True


def canonical_form(d):
    """Walk data with crossings renumbered by first appearance; equal
    canonical forms mean equal diagrams up to crossing relabeling."""
    relabel = {}
    walks = tuple(
        tuple((relabel.setdefault(cid, len(relabel)), role, d.signs[cid]) for cid, role in ev)
        for ev in d.events
    )
    return (d.n, d.closed, walks)


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
