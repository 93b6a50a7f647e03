#!/usr/bin/env python3
"""Run one ``milnor`` CLI op with a span around every public function.

Usage: python3 perfbench/traced_child.py SPANS_OUT OP_ID ARGV...

Wraps the public functions of ``magnus``, ``invariants``, ``diagram``,
``wirtinger``, ``classify`` and ``cli`` from outside, rebinding every name
another module imported them under, then calls ``milnor.cli.main(ARGV)``.
Spans stay in memory as ``[name, start, end, parent, attrs, attrs_cost]`` and
are written to SPANS_OUT as JSON when the op ends, with the op id and the
time the ``milnor.cli`` import took.  ``attrs_cost`` is the time spent
computing a span's attributes after it closed; ``layers.py`` charges it to
no layer.
"""

import functools
import json
import sys
import time
from pathlib import Path

_clock = time.perf_counter
_start = _clock()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import milnor.cli as cli  # noqa: E402

IMPORT_S = _clock() - _start

from milnor import classify, diagram, invariants, magnus, wirtinger  # noqa: E402

SPANS: list = []
_open: list = []


def _mul_attrs(args, out):
    """[madds, bytes, object dtype] of one dense product: one multiply-add
    per output term of each pair of nonzero degrees, and the bytes of the
    result and of the outer-product temporaries, computed, not measured."""
    a, b = args
    n, q = a.n, a.q
    da = [d for d, c in enumerate(a.coeffs) if c.any()]
    db = [d for d, c in enumerate(b.coeffs) if c.any()]
    madds = sum(n ** (x + y) for x in da for y in db if x + y <= q)
    size = sum(n**d for d in range(q + 1))
    return [madds, 8 * (size + madds), int(out.coeffs[0].dtype == object)]


def _crossings(args, out):
    return [out.crossing_count]


def _entries(args, out):
    return [len(out.entries)]


def _wrap(name, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = [name, _clock(), 0.0, _open[-1] if _open else -1, None, 0.0]
        _open.append(len(SPANS))
        SPANS.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            _open.pop()
        if attrs is not None:
            span[4] = attrs(args, result)
            span[5] = _clock() - span[2]
        return result

    return traced


TRACED = {
    magnus: ["expand"],
    invariants: ["mu", "mu_bar", "indeterminacy", "invariant", "table"],
    wirtinger: ["longitude_series", "longitude_word", "meridian_words", "presentation"],
    diagram: [
        "load_diagram", "parse_pd", "cable", "stack", "stack_all", "power", "invert",
        "closure", "cut_open", "tree_tangle", "trivial_string_link", "trivial_link",
        "from_braid", "run_slices", "with_kink", "commutator_tangle",
    ],
    classify: [
        "injection_generator", "surjection_generator", "milnor_link", "whitehead_link",
        "mu_of", "homotopy_normal_form", "link_homotopic", "homotopy_classes_agree",
        "selfdelta_vector", "selfdelta_equivalent", "selfdelta_trivial",
        "link_homotopy_trivial", "brunnian_representative", "cabling_cross_check",
    ],
    cli: ["_emit", "main"],
}
ATTRS = {
    "magnus.Series.mul": _mul_attrs,
    "diagram.load_diagram": _crossings,
    "diagram.cable": _crossings,
    "invariants.table": _entries,
}


def install():
    wrapped = {}
    for module, names in TRACED.items():
        short = module.__name__.split(".")[-1]
        for attr in names:
            fn = getattr(module, attr)
            name = f"{short}.{attr}"
            wrapped[fn] = _wrap(name, fn, ATTRS.get(name))
    # rebind the names other modules imported with ``from ... import``
    for module in TRACED:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    magnus.Series.__mul__ = _wrap(
        "magnus.Series.mul", magnus.Series.__mul__, ATTRS["magnus.Series.mul"]
    )
    magnus.Series.inverse = _wrap("magnus.Series.inverse", magnus.Series.inverse)


def main() -> int:
    out_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        payload = {"op": op_id, "import_s": IMPORT_S, "spans": SPANS}
        Path(out_path).write_text(json.dumps(payload, separators=(",", ":")))


if __name__ == "__main__":
    sys.exit(main())
