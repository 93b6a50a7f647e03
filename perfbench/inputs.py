#!/usr/bin/env python3
"""Seeded inputs for the milnor benchmark.

Usage: python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Writes the reference corpus of ``scripts/generate_corpus.py`` to DIR/corpus,
the seeded string links of the ``homotopy`` workload to DIR/strings, and
DIR/manifest.json: the workload's op list for one pass.  Each op carries the
``milnor`` arguments, the input properties (``n``, ``crossings``,
``doubled_crossings``, ``length``) and what its output must be.  The same seed
gives the same manifest, byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from milnor.classify import HomotopyNormalForm, injection_generator  # noqa: E402
from milnor.diagram import cable, load_diagram, stack_all, to_pd_json  # noqa: E402
from milnor.multiindex import (  # noqa: E402
    all_injections,
    palindromic_surjections,
    selfdelta_generator_indices,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("selfdelta", "homotopy")

# size classes of corpus links, as (components, crossings from, crossings
# below); links within a class cost about the same, so a pass that draws a
# fixed number from each class does about the same work for every seed
SMALL2 = (2, 30, 50)
SMALL3 = (3, 80, 100)
# homotopy forms: nonzero exponents per arity 2..n, each +1 or -1
FORM_SHAPES = {4: (3, 2, 2), 5: (2, 2, 2, 1)}


def write_corpus(out: Path) -> dict:
    """Run the corpus script into out; map each link name to its facts."""
    script = ROOT / "scripts" / "generate_corpus.py"
    argv = sys.argv
    sys.argv = [str(script), str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    links = {}
    for path in sorted(out.glob("*.json")):
        d = load_diagram(path.read_text())
        links[d.name] = {
            "file": str(path),
            "n": d.n,
            "crossings": d.crossing_count,
            "doubled_crossings": cable(d, [2] * d.n).crossing_count,
        }
    return links


def constructions() -> dict:
    """Values known by construction, keyed by corpus link name.

    A doubled generator has every shorter invariant zero and its own
    invariant 1, or 2 on the palindromic length-2n family; the Milnor link
    has every shorter invariant zero and 1 on the identity index; a trivial
    link has every invariant zero.
    """
    known = {"trivial2": {"zero_below": 99}, "trivial3": {"zero_below": 99}}
    for n in (3, 4):
        known[f"milnor{n}"] = {"zero_below": n, "own": [list(range(1, n + 1)), 1]}
    for n in (2, 3):
        for m in range(n + 1, 2 * n + 1):
            for tau in selfdelta_generator_indices(n, m):
                name = f"vtau_n{n}_{''.join(map(str, tau.values))}_k{tau.k}"
                pal = tau in palindromic_surjections(m, tau.k, n)
                fact = {"zero_below": m}
                if not pal:
                    fact["own"] = [list(tau.index()), 1]
                elif m == 2 * n:
                    fact["own"] = [list(tau.index()), 2]
                known[name] = fact
    return known


def _op(argv, links, length, expect):
    files = [links[name] for name in expect["names"]]
    return {
        "argv": argv,
        "props": {
            "n": files[0]["n"],
            "crossings": sum(f["crossings"] for f in files),
            "doubled_crossings": sum(f["doubled_crossings"] for f in files),
            "length": length,
        },
        "expect": expect,
    }


def _members(links, size_class):
    """Names of the corpus links in one size class."""
    n, lo, hi = size_class
    return sorted(
        name for name, link in links.items()
        if link["n"] == n and lo <= link["crossings"] < hi
    )


def _selfdelta_expect(names, reference, known):
    refs = [reference["selfdelta"].get(name) for name in names]
    expect = {
        "kind": "selfdelta",
        "names": names,
        "reference": dict(zip(names, refs)),
        "known": {name: known[name] for name in names if name in known},
    }
    if len(names) == 2 and all(refs):
        same = refs[0]["entries"] == refs[1]["entries"]
        expect["equivalent"] = "yes" if same else "no"
    return expect


def selfdelta_ops(rng, links, reference):
    """One link each of the classes SMALL2 and SMALL3, ``milnor3``, and
    one pair of SMALL2 links.

    Larger 3-component links take 4-9 s, too long an op to repeat often
    within a run.  Links with four or more components are left out: their
    doubling check needs dense series far beyond the child memory cap.
    """
    known = constructions()
    small2 = _members(links, SMALL2)
    names = [rng.choice(small2), rng.choice(_members(links, SMALL3)), "milnor3"]
    ops = [[name] for name in names]
    # the pair: two of them, which cost alike and are self-delta equivalent
    ops.append(rng.sample(small2, 2))
    rng.shuffle(ops)
    out = []
    for names in ops:
        argv = ["classify", "--self-delta"] + [links[name]["file"] for name in names]
        expect = _selfdelta_expect(names, reference, known)
        out.append(_op(argv, links, 2 * links[names[0]]["n"], expect))
    return out


def _random_exponents(rng, n):
    pis = all_injections(n)
    exponents = {pi: 0 for pi in pis}
    for k, count in zip(range(2, n + 1), FORM_SHAPES[n]):
        for pi in rng.sample([pi for pi in pis if pi.k == k], count):
            exponents[pi] = rng.choice((-1, 1))
    return exponents


def _write_string(out: Path, name, diagram, links, exponents):
    diagram.name = name
    path = out / f"{name}.json"
    path.write_text(json.dumps(to_pd_json(diagram), sort_keys=True) + "\n")
    links[name] = {
        "file": str(path),
        "n": diagram.n,
        "crossings": diagram.crossing_count,
        "doubled_crossings": 0,
        "exponents": [
            {"injection": list(pi.values), "exponent": e}
            for pi, e in HomotopyNormalForm(diagram.n, exponents).ordered()
        ],
    }


def homotopy_ops(rng, links, reference, out: Path):
    """Normal forms of seeded products (one at n=5, one at n=4), one n=4
    pair, and link-homotopy triviality of closed corpus links."""
    out.mkdir(parents=True, exist_ok=True)
    forms = []
    for i, n in enumerate((5, 4)):
        exponents = _random_exponents(rng, n)
        forms.append(f"form{i}_n{n}")
        _write_string(out, forms[-1], HomotopyNormalForm(n, exponents).realize(), links, exponents)
    # a pair: the same product with a cancelling pair of one arity-2
    # generator spliced in (link-homotopic), or with that generator's zero
    # exponent moved to +-1 (not); both add about the same crossings
    exponents = _random_exponents(rng, 4)
    _write_string(out, "pair_a", HomotopyNormalForm(4, exponents).realize(), links, exponents)
    parts = [injection_generator(pi, e) for pi, e in exponents.items() if e]
    pi = rng.choice(sorted(p for p, e in exponents.items() if p.k == 2 and e == 0))
    homotopic = rng.random() < 0.5
    if homotopic:
        at = rng.randrange(len(parts) + 1)
        parts[at:at] = [injection_generator(pi, 1), injection_generator(pi, -1)]
        other = exponents
        b = stack_all(parts, 4)
    else:
        other = dict(exponents)
        other[pi] = rng.choice((-1, 1))
        b = HomotopyNormalForm(4, other).realize()
    _write_string(out, "pair_b", b, links, other)
    ops = [
        _op(
            ["classify", "--homotopy", links[name]["file"]],
            links,
            links[name]["n"],
            {"kind": "normal_form", "names": [name],
             "exponents": {name: links[name]["exponents"]}},
        )
        for name in forms
    ]
    names = ["pair_a", "pair_b"]
    ops.append(
        _op(
            ["classify", "--homotopy"] + [links[name]["file"] for name in names],
            links,
            4,
            {"kind": "normal_form", "names": names, "homotopic": homotopic,
             "exponents": {name: links[name]["exponents"] for name in names}},
        )
    )
    # closed links: every link of 4 or more components, and one other
    closed = sorted(name for name in reference["homotopy_trivial"] if name in links)
    picks = [name for name in closed if links[name]["n"] > 3]
    picks.append(rng.choice([name for name in closed if links[name]["n"] <= 3]))
    for name in picks:
        ops.append(
            _op(
                ["classify", "--homotopy", links[name]["file"]],
                links,
                links[name]["n"],
                {"kind": "homotopy_trivial", "names": [name],
                 "trivial": reference["homotopy_trivial"][name]},
            )
        )
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, out: Path) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    reference = json.loads(REFERENCE.read_text())
    links = write_corpus(out / "corpus")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "selfdelta":
        ops = selfdelta_ops(rng, links, reference)
    else:
        ops = homotopy_ops(rng, links, reference, out / "strings")
    for i, op in enumerate(ops):
        op["id"] = f"{workload}-{i}"
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    build(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
