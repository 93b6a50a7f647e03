"""Smoke test of the shipped scripts: each runs to completion, and every
diagram file the corpus script writes loads, evaluates and is written back
byte for byte.  The benchmark's trace harness runs a classify pair of each
mode, and every name it wraps exists.  The at-scale benchmark script keeps
each op's exit code and stdout digest."""

import ast
import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from milnor.classify import injection_generator, whitehead_link
from milnor.cli import main
from milnor.diagram import trivial_link
from milnor.multiindex import Injection
from milnor.pdfile import load_diagram, to_pd_json
from milnor.tangles import from_braid

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The directory the corpus script writes."""
    corpus = tmp_path_factory.mktemp("corpus")
    subprocess.run(
        [sys.executable, str(SCRIPTS / "generate_corpus.py"), str(corpus)],
        check=True,
        capture_output=True,
    )
    return corpus


def test_corpus_and_demo_run(corpus, capsys):
    files = sorted(str(p) for p in corpus.glob("*.json"))
    assert len(files) == 22
    assert main(["invariants", *files, "--max-length", "3"]) == 0
    subprocess.run(
        [sys.executable, str(SCRIPTS / "classification_demo.py")],
        check=True,
        capture_output=True,
    )


def test_corpus_files_are_their_own_layout(corpus):
    # the benchmark reads these files: each is what the writer makes of what
    # the reader traced, so reader and writer share one layout
    paths = sorted(corpus.glob("*.json"))
    assert len(paths) == 22
    for path in paths:
        text = path.read_text(encoding="utf-8")
        again = json.dumps(to_pd_json(load_diagram(text)), sort_keys=True) + "\n"
        assert again == text, path.name


@pytest.mark.parametrize(
    "mode, verdict, make",
    [
        (
            "--self-delta",
            "classify.selfdelta_equivalent",
            lambda: (whitehead_link(), trivial_link(2)),
        ),
        (
            "--homotopy",
            "classify.link_homotopic",
            lambda: (from_braid(3, [1, 1]), injection_generator(Injection(3, (1, 2, 3)))),
        ),
    ],
)
def test_trace_harness_runs_a_pair(tmp_path, mode, verdict, make):
    # the harness wraps classify's public functions by name, so renaming or
    # deleting one stops it before the op runs
    files = []
    for name, d in zip("ab", make()):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(to_pd_json(d)))
    spans = tmp_path / "spans.json"
    harness = ROOT / "perfbench" / "traced_child.py"
    argv = ["classify", mode, *map(str, files)]
    done = subprocess.run(
        [sys.executable, str(harness), str(spans), "op", *argv],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.main", verdict} <= names


def test_trace_harness_names_exist():
    # every name the harness wraps, read from its source without importing
    # it: each name listed in TRACED and each method it rebinds on a class
    tree = ast.parse((ROOT / "perfbench" / "traced_child.py").read_text())
    wrapped = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        (target,) = node.targets
        if isinstance(target, ast.Name) and target.id == "TRACED":
            for module, names in zip(node.value.keys, node.value.values):
                wrapped += [(module.id, ast.literal_eval(name)) for name in names.elts]
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Attribute):
            wrapped.append((target.value.value.id, f"{target.value.attr}.{target.attr}"))
    assert ("magnus", "Series.__mul__") in wrapped
    assert ("magnus", "Series.inverse") in wrapped
    assert len(wrapped) > 30
    for module, path in wrapped:
        obj = importlib.import_module(f"milnor.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{module}.{path}"
            obj = getattr(obj, attr)


def test_bench_records_each_op_from_wait4():
    # scripts/bench.py runs an op as fresh CLI processes under the memory
    # cap and keeps its exit code and stdout digest, the same on every run
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (rec,) = bench.measure([("trivial-2", ["generate", "trivial", "2"], 2)], ROOT)
    d = trivial_link(2)
    d.name = "trivial-2"
    text = json.dumps(to_pd_json(d), sort_keys=True, indent=2)
    assert rec["repeats"] == 2 and rec["exit"] == 0
    assert rec["stdout_sha256"] == hashlib.sha256((text + "\n").encode()).hexdigest()
    assert rec["cpu_s_min"] > 0 and rec["peak_rss_mb"] > 0
