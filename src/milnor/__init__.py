"""Milnor invariants of links and string links, and the classification
procedures built on them: link-homotopy normal forms for string links and
self-delta classification for links with vanishing low-order invariants."""

# freegroup, the exact words of the tests and of ``wirtinger``'s word
# functions, loads on first use, so no CLI command compiles it
from . import classify, diagram, invariants, magnus, multiindex, pdfile, tangles, wirtinger

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
