#!/usr/bin/env python3
"""Write the reference diagram corpus as JSON files.

Usage: python scripts/generate_corpus.py [outdir]   (default: ./corpus)
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from milnor.classify import (  # noqa: E402
    injection_generator,
    milnor_link,
    surjection_generator,
    whitehead_link,
)
from milnor.diagram import closure, trivial_link  # noqa: E402
from milnor.pdfile import to_pd_json  # noqa: E402
from milnor.tangles import from_braid  # noqa: E402
from milnor.multiindex import selfdelta_generator_indices  # noqa: E402


def main():
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "corpus")
    outdir.mkdir(parents=True, exist_ok=True)
    items = {
        "trivial2": trivial_link(2),
        "trivial3": trivial_link(3),
        "hopf": closure(from_braid(2, [1, 1])),
        "whitehead": whitehead_link(),
        "milnor3": milnor_link(3),
        "milnor4": milnor_link(4),
    }
    for n in (2, 3):
        for m in range(n + 1, 2 * n + 1):
            for tau in selfdelta_generator_indices(n, m):
                name = f"vtau_n{n}_{''.join(map(str, tau.values))}_k{tau.k}"
                items[name] = closure(surjection_generator(tau))
    for name, d in items.items():
        d.name = name
        path = outdir / f"{name}.json"
        text = json.dumps(to_pd_json(d), sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
