"""Smoke test of the shipped scripts: each runs to completion, and every
diagram file the corpus script writes loads, evaluates and is written back
byte for byte.  The benchmark's trace harness runs a classify pair of each
mode, and every name it wraps exists.  The at-scale benchmark script keeps
each op's exit code and stdout digest, writes no bytecode, records the
length of the package's path, and writes a file no earlier run wrote."""

import ast
import hashlib
import importlib
import importlib.util
import json
import shutil
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


def _bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_records_each_op_from_wait4():
    # scripts/bench.py runs an op as fresh CLI processes under the memory
    # cap and keeps its exit code and stdout digest, the same on every run
    bench = _bench()
    (rec,) = bench.measure([("trivial-2", ["generate", "trivial", "2"], 2)], {"change": ROOT})
    d = trivial_link(2)
    d.name = "trivial-2"
    text = json.dumps(to_pd_json(d), sort_keys=True, indent=2)
    assert rec["repeats"] == 2 and rec["exit"] == 0
    assert rec["stdout_sha256"] == hashlib.sha256((text + "\n").encode()).hexdigest()
    assert rec["cpu_s_min"] > 0 and rec["peak_rss_mb"] > 0


def test_bench_records_the_input_build(tmp_path):
    # the inputs are built in a child, whose wall and CPU time the file keeps
    bench = _bench()
    built = bench.build_in_child(tmp_path, ROOT)
    assert set(built["inputs_build"]) == {"wall_s", "cpu_s"}
    assert built["inputs_build"]["wall_s"] > 0 and built["inputs_build"]["cpu_s"] > 0
    assert {f"{name}.json" for name in built["inputs"]} == {p.name for p in tmp_path.iterdir()}
    # the first op does no work, so the file shows what every op pays
    assert built["ops"][0] == ["cli --help", ["--help"], bench.REPEATS]


def test_bench_writes_the_next_file(tmp_path):
    # a re-run without --out leaves the files of earlier runs alone
    bench = _bench()
    assert bench.next_out(tmp_path) == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}\n", encoding="utf-8")
    assert bench.next_out(tmp_path) == tmp_path / "BENCH_2.json"
    assert not bench.next_out(ROOT).exists()


def test_bench_children_write_no_bytecode(tmp_path, monkeypatch):
    # from a shell that lets Python cache bytecode, an op still compiles the
    # package from source and writes nothing under src/
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    bench = _bench()
    root = tmp_path / "checkout"
    shutil.copytree(
        ROOT / "src" / "milnor", root / "src" / "milnor",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cmd = [sys.executable, "-m", "milnor.cli", "generate", "trivial", "2"]
    assert bench.run_child(cmd, root, cap=True)["exit"] == 0
    assert not list(root.rglob("__pycache__"))


def test_bench_records_the_package_path_length(tmp_path, monkeypatch):
    # a peak depends on the directory the package is imported from, so the
    # file keeps the length of its path; the timing itself is stubbed out
    bench = _bench()
    built = {"numpy": "", "inputs": {}, "ops": [], "inputs_build": {}}
    monkeypatch.setattr(bench, "build_in_child", lambda work, root: built)
    monkeypatch.setattr(bench, "measure", lambda ops, sides: [])
    monkeypatch.setattr(bench, "tier1", lambda root: {})
    out = tmp_path / "BENCH.json"
    assert bench.main(["--out", str(out)]) == 0
    recorded = json.loads(out.read_text())["package_dir_chars"]
    assert recorded == len(str(ROOT / "src" / "milnor"))


def test_bench_pairs_two_copies_of_one_tree(tmp_path, monkeypatch):
    # --against runs each op from copies of both src/ trees at paths of one
    # length, one round per repeat, the side that goes first alternating;
    # one tree against itself gives one exit code and digest on both sides.
    # The input build is stubbed out to the one op cli --help
    bench = _bench()
    built = {"numpy": "", "inputs": {}, "ops": [["cli --help", ["--help"], 2]], "inputs_build": {}}
    monkeypatch.setattr(bench, "build_in_child", lambda work, root: built)
    copies, copy_sides = [], bench.copy_sides

    def spy(*args):
        copies.append(copy_sides(*args))
        return copies[-1]

    monkeypatch.setattr(bench, "copy_sides", spy)
    out = tmp_path / "PAIRED.json"
    assert bench.main(["--against", str(ROOT), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (rec,) = report["ops"]
    assert rec["op"] == "cli --help" and rec["exit"] == 0 and rec["rounds"] == 2
    assert rec["first"] == ["change", "parent"]
    for side in ("change", "parent"):
        assert rec[side]["cpu_s_min"] > 0 and rec[side]["peak_rss_mb"] > 0
        assert rec[side]["cpu_s_min"] <= rec[side]["cpu_s_median"]
    assert 0 <= rec["change_won"] <= 2
    assert "tier1" not in report
    (sides,) = copies
    assert len({len(str(path)) for path in sides.values()}) == 1
    assert report["package_dir_chars"] == len(str(sides["change"] / "src" / "milnor"))


def test_bench_pairs_stop_on_differing_output(tmp_path):
    # a parent that prints another help text stops the paired run
    bench = _bench()
    sides = bench.copy_sides(tmp_path, ROOT, ROOT)
    assert not list(tmp_path.rglob("__pycache__"))
    cli = sides["parent"] / "src" / "milnor" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace("usage: milnor", "usage: milnor2"),
                   encoding="utf-8")
    with pytest.raises(SystemExit, match="cli --help: the parent side's round 1 differs"):
        bench.measure([("cli --help", ["--help"], 2)], sides)
