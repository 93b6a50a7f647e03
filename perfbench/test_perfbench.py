"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_times_and_misses():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None, 0.0],
        ["classify.selfdelta_vector", 1.0, 9.0, 0, None, 0.0],
        ["invariants.table", 1.0, 8.0, 1, [5], 0.5],
        ["wirtinger.longitude_series", 2.0, 6.0, 2, None, 0.0],
        ["magnus.Series.mul", 3.0, 4.0, 3, [10, 160, 0], 0.25],
        ["wirtinger.longitude_series", 6.0, 7.0, 2, None, 0.0],
    ]
    m = layers.layer_metrics([{"spans": spans, "import_s": 0.2}])
    assert m["magnus.mul_count"] == 1 and m["magnus.mul_madds"] == 10
    assert m["magnus.mul_s"] == 1.0
    # 4 s span, 1 s child, 0.25 s of the child's attribute cost
    assert m["wirtinger.self_s"] == (4.0 - 1.25) + 1.0
    assert m["invariants.self_s"] == 7.0 - 5.0
    assert m["classify.self_s"] == 8.0 - 7.5
    assert m["wirtinger.longitude_calls"] == 2 and m["wirtinger.longitude_misses"] == 1
    assert m["invariants.entries"] == 5 and m["classify.tables_per_op"] == 1.0
    assert m["cli.import_s"] == 0.2


def _selfdelta_output(name, entries, low=None):
    vector = {"components": 2, "hypothesis_ok": not low, "entries": entries}
    if low:
        vector["low_order_nonzero"] = low
    out = {"vectors": {name: vector}, "selfdelta_trivial": {name: False},
           "doubling_consistency": {name: True}}
    return vector, json.dumps(out)


def test_selfdelta_check():
    exact = {"value": 2, "modulus": 0}
    vector, text = _selfdelta_output("t", {"1122": exact, "1212": {"value": -4, "modulus": 0}})
    expect = {"kind": "selfdelta", "names": ["t"],
              "reference": {"t": {"vector": checks.digest(vector), "trivial": False}},
              "known": {"t": {"zero_below": 4, "own": [[1, 1, 2, 2], 2]}}}
    assert checks.check(expect, text) == []
    # a wrong own value, which also changes the digest
    _, wrong = _selfdelta_output("t", {"1122": {"value": 2, "modulus": 4}})
    problems = checks.check(expect, wrong)
    assert len(problems) == 2 and any("mu(1122)" in p for p in problems)
    # a nonzero invariant below the generator's length
    _, low = _selfdelta_output("t", {}, low={"12": {"value": 1, "modulus": 0}, "1122": exact})
    assert any("below length 4" in p for p in checks.check(expect, low))
    assert checks.check(expect, "not json") == ["output is not JSON"]


def test_normal_form_check():
    forms = [{"injection": [1, 2], "exponent": 1}]
    expect = {"kind": "normal_form", "names": ["a"], "exponents": {"a": forms},
              "homotopic": True}
    good = json.dumps({"normal_forms": {"a": forms}, "link_homotopic": True})
    assert checks.check(expect, good) == []
    bad = json.dumps({"normal_forms": {"a": []}, "link_homotopic": False})
    assert len(checks.check(expect, bad)) == 2


def test_inputs_repeat_for_a_seed(tmp_path):
    a = inputs.build("homotopy", 7, tmp_path / "a")
    b = inputs.build("homotopy", 7, tmp_path / "b")
    assert [op["expect"] for op in a["ops"]] == [op["expect"] for op in b["ops"]]
    assert [op["props"] for op in a["ops"]] == [op["props"] for op in b["ops"]]
    for path in (tmp_path / "a" / "strings").glob("*.json"):
        assert path.read_bytes() == (tmp_path / "b" / "strings" / path.name).read_bytes()
    c = inputs.build("homotopy", 8, tmp_path / "c")
    assert [op["expect"] for op in a["ops"]] != [op["expect"] for op in c["ops"]]


def test_milnor4_self_delta_hits_the_memory_cap(tmp_path):
    # left out of the selfdelta workload: its doubling check needs about
    # 7 GB of dense series, so under the child cap it must fail this way
    inputs.write_corpus(tmp_path / "corpus")
    op = {"id": "capped", "expect": {},
          "argv": ["classify", "--self-delta", str(tmp_path / "corpus" / "milnor4.json")]}
    rec = run.run_op(op, tmp_path)
    assert not rec["ok"] and rec["failure"] == "memory cap"


def test_a_failed_op_fails_the_run(monkeypatch, capsys, tmp_path):
    op = {"id": "bad", "expect": {"kind": "selfdelta", "names": ["x"]}, "props": {},
          "argv": ["classify", "--self-delta", str(tmp_path / "missing.json")]}
    monkeypatch.setattr(run, "setup", lambda args, work: (0.1, [op]))
    monkeypatch.setattr(run, "build_inputs", lambda args, work, i: 0.1)
    code = run.main(["--workload", "selfdelta", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_traced_counts_repeat(tmp_path):
    inputs.write_corpus(tmp_path / "corpus")
    argv = ["invariants", str(tmp_path / "corpus" / "whitehead.json"), "--max-length", "4"]
    env = dict(run.ENV)
    results = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        subprocess.run(
            [sys.executable, str(HERE / "traced_child.py"), str(spans), "op", *argv],
            cwd=ROOT, env=env, check=True, capture_output=True,
        )
        results.append(layers.layer_metrics([json.loads(spans.read_text())]))
    counts = [k for k, unit in layers.METRICS.items() if unit == "count"]
    assert {k: results[0][k] for k in counts} == {k: results[1][k] for k in counts}
    assert results[0]["magnus.mul_count"] > 0 and results[0]["invariants.entries"] > 0


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selfdelta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0 and out.stdout == ""
