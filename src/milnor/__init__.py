"""Milnor invariants of links and string links, and the classification
procedures built on them: link-homotopy normal forms for string links and
self-delta classification for links with vanishing low-order invariants."""

# no submodule is imported here, so ``python -m milnor.cli`` compiles cli.py
# before the engine is held and its own imports load the rest in dependency
# order; ``from milnor import *`` still loads every module
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
