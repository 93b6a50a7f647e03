#!/usr/bin/env python3
"""Small end-to-end demo: invariants and verdicts for a handful of links."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from milnor.classify import (  # noqa: E402
    cabling_cross_check,
    homotopy_normal_form,
    link_homotopy_trivial,
    milnor_link,
    selfdelta_trivial,
    whitehead_link,
)
from milnor.diagram import closure, trivial_link  # noqa: E402
from milnor.tangles import from_braid, tree_tangle  # noqa: E402
from milnor.invariants import table  # noqa: E402


def main():
    links = {
        "trivial (2 comps)": trivial_link(2),
        "hopf": closure(from_braid(2, [1, 1])),
        "whitehead": whitehead_link(),
        "milnor 3-chain": milnor_link(3),
    }
    for name, l in links.items():
        nz = table(l, min(2 * l.n, 4), 2).nonzero()
        print(f"{name}:")
        print(f"  nonzero invariants (len<=4, r<=2): "
              f"{ {''.join(map(str, i)): str(r) for i, r in nz.items()} }")
        print(f"  link-homotopy trivial: {link_homotopy_trivial(l)}")
        print(f"  self-delta trivial:    {selfdelta_trivial(l)}")
        print(f"  doubling consistency:  {cabling_cross_check(l)}")

    print("\nnormal form of a composite string link:")
    l = tree_tangle(3, (1, 2))
    from milnor.diagram import stack

    l = stack(l, tree_tangle(3, (1, 2, 3)))
    nf = homotopy_normal_form(l)
    for pi, e in nf.ordered():
        if e:
            print(f"  generator {pi.values}: exponent {e}")


if __name__ == "__main__":
    main()
