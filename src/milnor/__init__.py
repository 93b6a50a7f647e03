"""Milnor invariants of links and string links, and the classification
procedures built on them: link-homotopy normal forms for string links and
self-delta classification for links with vanishing low-order invariants."""

from . import (
    classify,
    diagram,
    freegroup,
    invariants,
    magnus,
    multiindex,
    pdfile,
    tangles,
    wirtinger,
)

__all__ = [
    "classify",
    "diagram",
    "freegroup",
    "invariants",
    "magnus",
    "multiindex",
    "pdfile",
    "tangles",
    "wirtinger",
]
