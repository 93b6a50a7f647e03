"""Output checks for benchmark ops.

Each op's manifest entry says what its output must be: values known by
construction, the seeded normal-form exponents, and digests of the
self-delta reports recorded in ``reference.json``.  ``check`` returns the
list of problems, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _known(name, known, vector):
    """Values known by construction, in one link's self-delta vector: no
    nonzero invariant below length ``zero_below``, and the link's own
    invariant exact, among the low-order values or the length-2n entries."""
    values = {**vector.get("low_order_nonzero", {}), **vector["entries"]}
    below = known.get("zero_below", 0)
    nonzero = sorted(i for i, r in values.items() if len(i) < below and r["value"] != 0)
    problems = []
    if nonzero:
        problems.append(f"{name}: nonzero below length {below}: {nonzero[:3]}")
    if "own" in known:
        index, value = known["own"]
        if len(index) <= 2 * vector["components"] and max(map(index.count, index)) <= 2:
            key = "".join(map(str, index))
            got = values.get(key)
            if got != {"value": value, "modulus": 0}:
                problems.append(f"{name}: mu({key}) = {got}, want {value} exact")
    return problems


def _selfdelta(expect, out):
    problems = []
    for name in expect["names"]:
        ref = expect["reference"][name]
        if ref is None:
            problems.append(f"{name}: no reference self-delta report")
            continue
        if digest(out["vectors"][name]) != ref["vector"]:
            problems.append(f"{name}: self-delta vector differs from the reference")
        if out["selfdelta_trivial"][name] != ref["trivial"]:
            problems.append(f"{name}: selfdelta_trivial differs from the reference")
        if out["doubling_consistency"][name] is not True:
            problems.append(f"{name}: doubling_consistency is not true")
        if name in expect["known"]:
            problems += _known(name, expect["known"][name], out["vectors"][name])
    if "equivalent" in expect and out.get("selfdelta_equivalent") != expect["equivalent"]:
        problems.append(
            f"selfdelta_equivalent is {out.get('selfdelta_equivalent')!r}, "
            f"want {expect['equivalent']!r}"
        )
    return problems


def _normal_form(expect, out):
    problems = []
    for name, exponents in expect["exponents"].items():
        if out["normal_forms"].get(name) != exponents:
            problems.append(f"{name}: normal form differs from the seeded exponents")
    if "homotopic" in expect and out.get("link_homotopic") is not expect["homotopic"]:
        problems.append(
            f"link_homotopic is {out.get('link_homotopic')!r}, want {expect['homotopic']!r}"
        )
    return problems


def _homotopy_trivial(expect, out):
    if out.get("link_homotopy_trivial") is not expect["trivial"]:
        return [
            f"{expect['names'][0]}: link_homotopy_trivial is "
            f"{out.get('link_homotopy_trivial')!r}, want {expect['trivial']!r}"
        ]
    return []


CHECKS = {
    "selfdelta": _selfdelta,
    "normal_form": _normal_form,
    "homotopy_trivial": _homotopy_trivial,
}


def check(expect: dict, stdout: str) -> list[str]:
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    try:
        return CHECKS[expect["kind"]](expect, out)
    except (KeyError, TypeError) as exc:
        return [f"output lacks {exc}"]
