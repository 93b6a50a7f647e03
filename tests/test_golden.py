"""Byte identity of the command line's output on a fixed command set.

Each command runs in process through ``milnor.cli.main``; the sha256 of its
exit code and standard output must equal the digest in
``golden_sha256.json``, recorded from a tree whose output is known good.
The set:

* ``invariants --max-length 4`` on each of the 22 corpus links;
* ``classify --homotopy`` on each closed corpus link and on two ``generate
  v-pi`` string links;
* ``classify --self-delta`` on each corpus link under 100 crossings and on
  one pair;
* ``invariants``, ``classify --self-delta`` and ``cable`` at multiplicities
  2 and 3,2 on two braid files, closures of non-pure braids whose components
  have nonzero self-writhe, so the cable adds framing twists;
* ``invariants --max-length 6 --max-r 2`` on a third such closure, whose
  4,917-split basis puts the framing correction on the int64 kernel;
* ``generate`` of each generator kind, printed to standard output.

A change that means to alter the output re-records the table by running
this file as a script from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

from milnor.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_sha256.json"

# corpus links of fewer than 100 crossings
SMALL = [
    "hopf", "milnor3", "milnor4", "trivial2", "trivial3", "vtau_n2_11_k2",
    "vtau_n2_1_k2", "vtau_n2_2_k1", "vtau_n3_12_k3", "vtau_n3_13_k2",
    "vtau_n3_23_k1", "whitehead",
]
PAIR = ["vtau_n3_12_k3", "vtau_n3_13_k2"]
STRING_LINKS = {"vpi_123": "1,2,3", "vpi_2134": "2,1,3,4"}
# self-writhe +3 on component 1; -3 on both components
BRAIDS = {
    "braid_pos": {"strands": 3, "word": [1, 1, 1, 2, 2], "kind": "closure"},
    "braid_neg": {
        "strands": 4, "word": [-1, -1, -1, 2, 2, -3, -3, -3], "kind": "closure"
    },
}
# self-writhe +3 on component 4; its length-6 table runs on the int64 kernel
NUMPY_BRAID = {
    "braid_int64": {
        "strands": 5, "word": [1, 1, 2, 2, -3, -3, 4, 4, 4], "kind": "closure"
    }
}
GENERATE = [
    ["whitehead"], ["milnor-link", "4"], ["v-pi", "2,1,3,4"],
    ["v-tau", "1,2,1", "--k", "3"], ["trivial", "3"],
]


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def write_inputs(outdir: Path) -> dict:
    """The corpus, the string links and the braids as files, by name."""
    corpus = runpy.run_path(str(ROOT / "scripts" / "generate_corpus.py"))["main"]
    argv = sys.argv
    sys.argv = ["generate_corpus.py", str(outdir)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            corpus()
    finally:
        sys.argv = argv
    for name, values in STRING_LINKS.items():
        code, _ = _run("generate", "v-pi", values, "-o", str(outdir / f"{name}.json"))
        assert code == 0
    for name, data in {**BRAIDS, **NUMPY_BRAID}.items():
        (outdir / f"{name}.json").write_text(json.dumps(data))
    return {p.stem: str(p) for p in sorted(outdir.glob("*.json"))}


def commands(files: dict) -> dict:
    """Each command's argument list, keyed by a name free of paths."""
    inputs = {*STRING_LINKS, *BRAIDS, *NUMPY_BRAID}
    corpus = sorted(name for name in files if name not in inputs)
    out = {}
    for name in corpus:
        out[f"invariants --max-length 4 {name}"] = [
            "invariants", files[name], "--max-length", "4"
        ]
    for name in corpus + sorted(STRING_LINKS):
        out[f"classify --homotopy {name}"] = ["classify", "--homotopy", files[name]]
    for names in [[name] for name in SMALL] + [PAIR]:
        out["classify --self-delta " + " ".join(names)] = [
            "classify", "--self-delta", *(files[name] for name in names)
        ]
    for name in sorted(BRAIDS):
        out[f"invariants {name}"] = ["invariants", files[name]]
        out[f"classify --self-delta {name}"] = ["classify", "--self-delta", files[name]]
        for mults in ["2", "3,2"]:
            out[f"cable {name} {mults}"] = ["cable", files[name], mults]
    for name in NUMPY_BRAID:
        out[f"invariants --max-length 6 --max-r 2 {name}"] = [
            "invariants", files[name], "--max-length", "6", "--max-r", "2"
        ]
    for argv in GENERATE:
        out["generate " + " ".join(argv)] = ["generate", *argv]
    return out


def digest(argv) -> str:
    code, out = _run(*argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def test_output_is_byte_identical(tmp_path):
    files = write_inputs(tmp_path)
    assert len(files) == 22 + len(STRING_LINKS) + len(BRAIDS) + len(NUMPY_BRAID)
    want = json.loads(TABLE.read_text())
    got = {key: digest(argv) for key, argv in commands(files).items()}
    assert sorted(got) == sorted(want)
    assert [key for key in got if got[key] != want[key]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(Path(tmp))
        table = {key: digest(argv) for key, argv in commands(files).items()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {TABLE}")
