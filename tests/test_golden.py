"""Byte identity of the command line's output on a fixed command set.

Each command runs in process through ``milnor.cli.main``; the sha256 of its
exit code and standard output must equal the digest in
``golden_sha256.json``, recorded from a tree whose output is known good.
The set:

* ``invariants --max-length 4`` on each of the 22 corpus links;
* ``classify --homotopy`` on each closed corpus link and on two ``generate
  v-pi`` string links;
* ``classify --self-delta`` on each corpus link under 100 crossings and on
  one pair.

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


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def write_inputs(outdir: Path) -> dict:
    """The corpus and the string links as files, by name."""
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
    return {p.stem: str(p) for p in sorted(outdir.glob("*.json"))}


def commands(files: dict) -> dict:
    """Each command's argument list, keyed by a name free of paths."""
    corpus = sorted(name for name in files if name not in STRING_LINKS)
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
    return out


def digest(argv) -> str:
    code, out = _run(*argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def test_output_is_byte_identical(tmp_path):
    files = write_inputs(tmp_path)
    assert len(files) == 22 + len(STRING_LINKS)
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
