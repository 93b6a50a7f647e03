import ast
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import build_parser, canonical_form, spy_graded

from milnor.classify import surjection_generator
from milnor.cli import GRAMMAR, KINDS, USAGE, UsageError, main, parse
from milnor.diagram import closure, trivial_link, with_kink
from milnor.multiindex import Surjection
from milnor.pdfile import parse_pd, to_pd_json
from milnor.tangles import from_braid


@pytest.fixture
def workdir(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    files = {
        "hopf": write("hopf.json", to_pd_json(closure(from_braid(2, [1, 1])))),
        "trivial2": write("trivial2.json", to_pd_json(trivial_link(2))),
        "trivial3": write("trivial3.json", to_pd_json(trivial_link(3))),
        "braid": write(
            "braid.json", {"strands": 2, "word": [1, 1], "kind": "stringlink"}
        ),
    }
    files["dir"] = tmp_path
    return files


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInvariantsCmd:
    def test_table_format(self, capsys, workdir):
        code, out = run(
            capsys,
            "invariants",
            workdir["hopf"],
            "--max-length",
            "2",
            "--max-r",
            "1",
            "--format",
            "table",
        )
        assert code == 0
        assert "12: 1 (mod 0)" in out

    def test_table_format_of_two_files(self, capsys, workdir):
        # each file's "# name" line, then its table, in the order given
        args = ("--max-length", "3", "--format", "table")
        outs = [run(capsys, "invariants", workdir[name], *args) for name in ("hopf", "trivial3")]
        assert [out.split("\n", 1)[0] for _, out in outs] == ["# hopf", "# trivial3"]
        code, out = run(capsys, "invariants", workdir["hopf"], workdir["trivial3"], *args)
        assert code == 0
        assert out == outs[0][1] + outs[1][1]

    def test_json_deterministic(self, capsys, workdir):
        args = ("invariants", workdir["hopf"], "--max-length", "3")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data[0]["invariants"][0]["index"] == "11"

    def test_trivial_all_zero(self, capsys, workdir):
        code, out = run(capsys, "invariants", workdir["trivial3"], "--max-length", "3")
        assert code == 0
        assert all(row["value"] == 0 for row in json.loads(out)[0]["invariants"])

    def test_parse_error_exit_code(self, capsys, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["invariants", str(bad)]) == 2

    def test_deeply_nested_json_exit_code(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["classify", "--homotopy", str(deep)]) == 2
        assert f"{deep}: JSON nested too deeply" in capsys.readouterr().err

    def test_length_bound_beyond_every_index(self, workdir):
        # no index is longer than n * max_r, so the bound stops costing there
        proc = subprocess.run(
            [sys.executable, "-m", "milnor.cli", "invariants", workdir["hopf"],
             "--max-length", "1000000000"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        rows = json.loads(proc.stdout)[0]["invariants"]
        assert max(len(row["index"]) for row in rows) == 4

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"pd"'])
    def test_non_object_exit_code(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["invariants", str(bad)]) == 2
        assert "holds a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["component_of_arc", "orientation"])
    def test_list_mapping_exit_code(self, capsys, tmp_path, field):
        data = to_pd_json(closure(from_braid(2, [1, 1])))
        data[field] = list(data[field].values())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["invariants", str(bad)]) == 2
        assert "malformed diagram file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, loosen",
        [
            (["components"], lambda v: v + 0.5),
            (["pd", 0, 1], float),
            (["component_of_arc", "1"], bool),
            (["orientation", "1"], str),
            (["endpoints", "top", 0], float),
        ],
    )
    def test_loose_pd_value_exit_code(self, capsys, tmp_path, keys, loosen):
        # each file would load as the clasp if the value were cast to int
        data = to_pd_json(from_braid(2, [1, 1]))
        *path, last = keys
        target = data
        for key in path:
            target = target[key]
        target[last] = loosen(target[last])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["invariants", str(bad)]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, old, new",
        [
            ("component_of_arc", None, "01"),
            ("orientation", None, "01"),
            ("component_of_arc", "1", "+1"),
            ("orientation", "3", "3 "),
            ("component_of_arc", "2", "02"),
        ],
    )
    def test_loose_pd_key_exit_code(self, capsys, tmp_path, field, old, new):
        # each file would load as the Hopf link if the key were cast to int:
        # a second key for edge 1, or a key renamed to another form of itself
        data = to_pd_json(closure(from_braid(2, [1, 1])))
        keys = data[field]
        keys[new] = keys["1"] if old is None else keys.pop(old)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["invariants", str(bad)]) == 2
        assert "is not an edge number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"strands": 2.8, "word": [True, "1"], "kind": "closure"},
            {"strands": 2, "word": [1.9, 1.2], "kind": "closure"},
            {"strands": "2", "word": [1, 1], "kind": "closure"},
            {"strands": 2, "word": "11", "kind": "closure"},
        ],
    )
    def test_loose_braid_value_exit_code(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["invariants", str(bad)]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [["hopf"], {"a": 1}, 7])
    def test_non_string_name_exit_code(self, capsys, tmp_path, name):
        data = to_pd_json(closure(from_braid(2, [1, 1])))
        data["name"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["classify", "--self-delta", str(bad)]) == 2
        assert "name is a string" in capsys.readouterr().err

    def test_unknown_top_endpoint_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "stringlink",
            "components": 1,
            "pd": [],
            "component_of_arc": {"1": 1},
            "orientation": {},
            "endpoints": {"top": [7], "bottom": [1]},
        }))
        assert main(["invariants", str(bad)]) == 2
        assert "top endpoint 7 lacks a component" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, data",
        [
            (["invariants"], {"strands": -2, "word": []}),
            (
                ["classify", "--self-delta"],
                {"kind": "link", "components": 0, "pd": [], "component_of_arc": {},
                 "orientation": {}},
            ),
            (["generate", "trivial", "0"], None),
        ],
    )
    def test_zero_components_exit_code(self, capsys, tmp_path, args, data):
        if data is not None:
            empty = tmp_path / "empty.json"
            empty.write_text(json.dumps(data))
            args = args + [str(empty)]
        assert main(args) == 2
        assert "at least one component" in capsys.readouterr().err

    def test_huge_component_count_exit_code(self, tmp_path):
        # the labels are checked before anything is sized by the count; the
        # child's address space is capped, so an allocation exits 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "link",
            "components": 10**9,
            "pd": [],
            "component_of_arc": {"1": 1},
            "orientation": {"1": 1},
        }))
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "milnor.cli", "invariants", str(bad)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "component labels must be 1..n" in proc.stderr

    def test_missing_file(self, workdir):
        assert main(["invariants", str(workdir["dir"] / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "target, reason",
        [("nope.json", "No such file or directory"), (".", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_an_unreadable_path_is_named_once(self, capsys, tmp_path, target, reason):
        path = tmp_path / target
        assert main(["invariants", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {reason}\n")

    def test_filter_validation_exit_code(self, capsys, workdir):
        assert main(["invariants", workdir["hopf"], "--max-length", "1"]) == 2
        assert main(["invariants", workdir["hopf"], "--max-r", "0"]) == 2
        err = capsys.readouterr().err
        assert "max_len must be at least 2" in err and "max_r must be at least 1" in err

    def test_non_planar_exit_code(self, capsys, workdir):
        virtual_hopf = workdir["dir"] / "virtual_hopf.json"
        virtual_hopf.write_text(json.dumps({
            "kind": "link",
            "components": 2,
            "pd": [[1, 2, 1, 2]],
            "component_of_arc": {"1": 1, "2": 2},
            "orientation": {"1": 1, "2": 2},
        }))
        assert main(["invariants", str(virtual_hopf)]) == 2
        assert "not planar" in capsys.readouterr().err


class TestClassifyCmd:
    def test_self_delta_pair(self, capsys, workdir):
        code, out = run(
            capsys,
            "classify",
            "--self-delta",
            workdir["trivial2"],
            workdir["trivial2"],
        )
        assert code == 0
        assert json.loads(out)["selfdelta_equivalent"] == "yes"

    @pytest.mark.parametrize("mode", ["--homotopy", "--self-delta"])
    def test_pair_with_one_name_exit_code(self, capsys, workdir, mode):
        # keyed by name, the report would keep only the second input
        from milnor.classify import whitehead_link

        braid = {"strands": 2, "word": [1, 1, 1, 1], "kind": "stringlink", "name": "x"}
        files = {
            "--homotopy": [braid, dict(braid, word=[1, 1])],
            "--self-delta": [
                dict(to_pd_json(whitehead_link()), name="x"),
                dict(to_pd_json(closure(from_braid(2, [1, 1]))), name="x"),
            ],
        }[mode]
        paths = []
        for k, data in enumerate(files):
            path = workdir["dir"] / f"same_name_{k}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
        assert main(["classify", mode, *paths]) == 2
        assert "two different diagrams are named 'x'" in capsys.readouterr().err

    def test_homotopy_stringlink(self, capsys, workdir):
        code, out = run(capsys, "classify", "--homotopy", workdir["braid"])
        assert code == 0
        forms = json.loads(out)["normal_forms"]
        assert list(forms.values())[0][0]["exponent"] == 1

    def test_strict_undecided_exit(self, capsys, workdir):
        code, _ = run(
            capsys,
            "classify",
            "--self-delta",
            "--strict",
            workdir["hopf"],
            workdir["hopf"],
        )
        assert code == 3

    def test_self_delta_evaluates_each_link_once(self, capsys, workdir, monkeypatch):
        from milnor import invariants
        from milnor.classify import whitehead_link

        white = workdir["dir"] / "whitehead.json"
        white.write_text(json.dumps(to_pd_json(whitehead_link())))
        builds, assembled, inside, tables = [], [], [], []
        assemble = invariants._assemble
        evaluate = invariants.evaluate
        table = invariants.table

        def record(d, basis):
            # every walk solves its basis from degree 1; depth is q + 1
            builds.append((d.name, d.n, basis.q + 1, basis.q))

        def spy_assemble(l, closed):
            # the residue assembly, which tables and residues share
            inside.append(l)
            try:
                return assemble(l, closed)
            finally:
                inside.pop()

        def spy_evaluate(d, indices):
            if inside:
                assembled.append(d.name)
            return evaluate(d, indices)

        def spy_table(d, max_len, max_r):
            tables.append(d.name)
            return table(d, max_len, max_r)

        spy_graded(monkeypatch, record)
        monkeypatch.setattr(invariants, "_assemble", spy_assemble)
        monkeypatch.setattr(invariants, "evaluate", spy_evaluate)
        monkeypatch.setattr(invariants, "table", spy_table)
        code, out = run(
            capsys, "classify", "--self-delta", str(white), workdir["trivial2"]
        )
        assert code == 0
        assert json.loads(out)["selfdelta_equivalent"] == "no"
        # the inputs have n=2; their 4-component cables are separate diagrams
        inputs = sorted(b for b in builds if b[1] == 2)
        assert inputs == [("trivial2", 2, 4, 3), ("whitehead", 2, 4, 3)]
        # the doubling check reads each cable one length at a time: neither
        # cable has a nonzero repetition-free value below length 4
        assert {b[2:] for b in builds if b[1] == 4} == {(2, 1), (3, 2), (4, 3)}
        assert sorted(assembled) == ["trivial2", "whitehead"]
        # every verdict (vector, triviality, doubling check, pair) reads one
        # table per input
        assert sorted(tables) == ["trivial2", "whitehead"]

    def test_the_file_walks_die_before_the_first_query(self, capsys, tmp_path, monkeypatch):
        # the input is read as its reduction, so with the cyclic collector
        # off the diagram that _read returned is gone before the normal form
        from milnor import classify, cli

        path = tmp_path / "kinked.json"
        path.write_text(json.dumps(to_pd_json(with_kink(from_braid(2, [1, 1]), 1, 1))))
        read, seen = [], []
        real_read, real_form = cli._read, classify.homotopy_normal_form

        def spy_read(p):
            d = real_read(p)
            read.append(weakref.ref(d))
            return d

        def spy_form(l):
            seen.append([ref() for ref in read])
            return real_form(l)

        monkeypatch.setattr(cli, "_read", spy_read)
        monkeypatch.setattr(classify, "homotopy_normal_form", spy_form)
        enabled = gc.isenabled()
        gc.disable()
        try:
            code, out = run(capsys, "classify", "--homotopy", str(path))
        finally:
            if enabled:
                gc.enable()
        assert code == 0 and json.loads(out)["inputs"] == ["kinked"]
        assert seen == [[None]]

    def test_homotopy_evaluates_the_input_once(self, capsys, workdir, monkeypatch):
        from milnor import invariants
        from milnor.classify import injection_generator
        from milnor.diagram import stack_all
        from milnor.multiindex import Injection

        def write(name, exponents):
            parts = [injection_generator(Injection(4, v), e) for v, e in exponents.items()]
            path = workdir["dir"] / f"{name}.json"
            path.write_text(json.dumps(to_pd_json(stack_all(parts, 4))))
            return str(path)

        exponents = {(1, 2): 1, (2, 4): -1, (1, 2, 3): 1, (2, 1, 3, 4): 1}
        path = write("product4", exponents)
        other = write("other4", {(1, 2): 1, (2, 4): -1, (1, 2, 4): 1})
        builds, evaluated = [], []
        evaluate = invariants.evaluate

        def record(d, basis):
            builds.append((d.name, basis.q + 1, basis.q))

        def spy_evaluate(d, indices):
            evaluated.append(d.name)
            return evaluate(d, indices)

        spy_graded(monkeypatch, record)
        monkeypatch.setattr(invariants, "evaluate", spy_evaluate)
        code, out = run(capsys, "classify", "--homotopy", path)
        assert code == 0
        form = {
            tuple(row["injection"]): row["exponent"]
            for row in json.loads(out)["normal_forms"]["product4"]
        }
        assert {v: e for v, e in form.items() if e} == exponents
        assert [b for b in builds if b[0] == "product4"] == [("product4", 4, 3)]
        # the input once, then one partial product per level k = 2, 3, 4
        assert evaluated == ["product4", None, None, None]

        # a pair: the verdict compares the normal forms already computed, so
        # neither input is read a second time
        builds.clear()
        evaluated.clear()
        code, out = run(capsys, "classify", "--homotopy", path, other)
        assert code == 0
        assert json.loads(out)["link_homotopic"] is False
        inputs = [b for b in builds if b[0] is not None]
        assert inputs == [("product4", 4, 3), ("other4", 4, 3)]
        assert [name for name in evaluated if name] == ["product4", "other4"]

    def test_self_delta_milnor4_completes(self, capsys, workdir):
        # the input fails the hypothesis at length 4, and the doubling
        # check's scan of the 8-component cable stops at length 4, where
        # its ordered injections need 114 monomials
        from milnor.classify import milnor_link

        path = workdir["dir"] / "milnor4.json"
        path.write_text(json.dumps(to_pd_json(milnor_link(4))))
        code, out = run(capsys, "classify", "--self-delta", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["doubling_consistency"] == {"milnor4": True}
        assert report["selfdelta_trivial"] == {"milnor4": False}
        assert not report["vectors"]["milnor4"]["hypothesis_ok"]

    def test_self_delta_of_a_string_link_exit_code(self, capsys, workdir):
        assert main(["classify", "--self-delta", workdir["braid"]]) == 2
        assert "applies to closed links" in capsys.readouterr().err

    def test_mixed_kind_error(self, capsys, workdir):
        assert (
            main(["classify", "--homotopy", workdir["hopf"], workdir["braid"]]) == 2
        )


class TestGenerateCmd:
    def test_milnor_link_reparses(self, capsys, tmp_path):
        out_path = tmp_path / "m3.json"
        assert main(["generate", "milnor-link", "3", "-o", str(out_path)]) == 0
        d = parse_pd(out_path.read_text())
        assert d.closed and d.n == 3

    def test_vpi(self, capsys, tmp_path):
        out_path = tmp_path / "vpi.json"
        assert main(["generate", "v-pi", "1,2,3", "-o", str(out_path)]) == 0
        d = parse_pd(out_path.read_text())
        assert not d.closed and d.n == 3
        from milnor.invariants import mu

        assert mu(d, (1, 2, 3)) == 1

    def test_vtau_needs_k(self, capsys):
        assert main(["generate", "v-tau", "1,2,2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(USAGE + "\nmilnor: error: ")
        assert main(["generate", "v-tau", "1,2,2", "--k", "3"]) == 0

    def test_bad_injection(self, capsys):
        assert main(["generate", "v-pi", "2,1"]) == 2

    def test_zero_components_is_not_unset(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        assert main(["generate", "v-pi", "1,2", "--components", "0", "-o", str(out_path)]) == 2
        args = ["generate", "v-tau", "1,2,2", "--k", "3", "--components", "0"]
        assert main([*args, "-o", str(out_path)]) == 2
        assert not out_path.exists()

    def test_roundtrip_canonical(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        assert main(["generate", "whitehead", "-o", str(out_path)]) == 0
        d1 = parse_pd(out_path.read_text())
        d2 = parse_pd(to_pd_json(d1))
        assert canonical_form(d1) == canonical_form(d2)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["milnor-link", "02"], "milnor-link-2"),
            (["v-pi", "1,02,3"], "v-pi-1-2-3"),
            (["v-tau", "1,2,2", "--k", "3"], "v-tau-1-2-2-k3"),
            (["whitehead"], "whitehead"),
            (["trivial", "02"], "trivial-2"),
        ],
        ids=["milnor-link", "v-pi", "v-tau", "whitehead", "trivial"],
    )
    def test_names_from_the_parsed_integers(self, capsys, argv, name):
        assert main(["generate", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == name

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["milnor-link", "x"], "component count 'x' is not an integer"),
            (["v-pi", "1,x"], "injection value 'x' is not an integer"),
            (["v-tau", "1,2,x", "--k", "3"], "surjection value 'x' is not an integer"),
            (["trivial", "2.5"], "component count '2.5' is not an integer"),
        ],
        ids=["milnor-link", "v-pi", "v-tau", "trivial"],
    )
    def test_names_a_word_that_is_not_an_integer(self, capsys, argv, message):
        assert main(["generate", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCableCmd:
    def test_cable_output(self, capsys, workdir, tmp_path):
        out_path = tmp_path / "c.json"
        assert main(["cable", workdir["hopf"], "2,2", "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["components"] == 4
        assert data["source_component"] == [1, 1, 2, 2]
        d = parse_pd(data)
        assert d.n == 4

    def test_cable_of_kinked_link_reads_back(self, capsys, tmp_path):
        kinked = tmp_path / "kinked.json"
        hopf = closure(from_braid(2, [1, 1]))
        kinked.write_text(json.dumps(to_pd_json(with_kink(hopf, 1, 1))))
        out_path = tmp_path / "c.json"
        assert main(["cable", str(kinked), "2", "-o", str(out_path)]) == 0
        assert main(["invariants", str(out_path)]) == 0

    def test_uniform_multiplicity(self, capsys, workdir):
        code, out = run(capsys, "cable", workdir["hopf"], "2")
        assert code == 0
        assert json.loads(out)["components"] == 4

    def test_names_a_word_that_is_not_an_integer(self, capsys, workdir):
        assert main(["cable", workdir["hopf"], "2,x"]) == 2
        assert capsys.readouterr() == ("", "error: multiplicity 'x' is not an integer\n")


@pytest.mark.parametrize(
    "argv",
    [["generate", "milnor-link", "3"], ["generate", "v-pi", "1,2,3"],
     ["generate", "v-tau", "1,2,2", "--k", "3"], ["generate", "whitehead"],
     ["generate", "trivial", "2"], ["cable", "hopf", "2,2"]],
    ids=" ".join,
)
def test_output_file_holds_the_stdout_bytes(capsys, workdir, tmp_path, argv):
    argv = [workdir.get(word, word) for word in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out.json"
    assert main([*argv, "-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "target, reason",
    [("missing/out.json", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_an_unwritable_output_file_exits_2(capsys, tmp_path, target, reason):
    path = tmp_path / target
    assert main(["generate", "whitehead", "-o", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {reason}\n")


# the oracle's dests as the grammar names them; classify's two switches are
# one dest, mode, in the grammar
RENAMED = {"format": "fmt", "output": "out"}
ORACLE = build_parser()
OPTIONS = sorted({name for _, options in GRAMMAR.values() for name in options})
WORDS = ["a.json", "b.json", "", "-", "0", "3", "-1", "-2", "-1.5", "x", "1,2,2",
         "json", "table", *KINDS]
# lines that argparse read and `generate` then ignored part of
DROPPED = [
    ["generate", "milnor-link", "3", "4"],
    ["generate", "whitehead", "extra"],
    ["generate", "milnor-link", "3", "--components", "3"],
    ["generate", "whitehead", "--components", "2"],
    ["generate", "trivial", "2", "--components", "2"],
    ["generate", "milnor-link", "3", "--k", "1"],
    ["generate", "v-pi", "1,2", "--k", "1"],
    ["generate", "whitehead", "--k=1"],
    ["generate", "trivial", "2", "--k", "1"],
]


def oracle_parse(argv):
    """What argparse read from a line, in the grammar's dests, or None."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            values = vars(ORACLE.parse_args(argv))
    except SystemExit:
        return None
    command = values.pop("command")
    if command == "classify":
        values["mode"] = "self-delta" if values.pop("self_delta") else "homotopy"
        values.pop("homotopy")
    return command, {RENAMED.get(dest, dest): value for dest, value in values.items()}


def grammar_parse(argv):
    try:
        return parse(argv)
    except UsageError:
        return None


def dropped(read) -> bool:
    """Whether argparse's reading gives generate more specification words,
    or options, than its kind reads."""
    command, values = read
    if command != "generate":
        return False
    arity, reads = KINDS[values["kind"]]
    given = {dest for dest in ("components", "k") if values[dest] is not None}
    return len(values["spec"]) != arity or not given <= set(reads)


def option_words(options, name):
    """An option alone, with a value, or with an `=` value; the values are
    mostly of its type."""
    what = options[name][1] if name in options else str
    if not isinstance(what, (type, tuple)):
        return st.sampled_from([[name], [f"{name}=x"]])
    value = st.sampled_from(
        [*what, "x"] if isinstance(what, tuple) else ["0", "3", "-1", "x"] if what is int else WORDS
    )
    return st.one_of(
        st.just([name]), value.map(lambda v: [name, v]), value.map(lambda v: [f"{name}={v}"])
    )


@st.composite
def command_lines(draw):
    """A command, up to three positional words (a kind first for generate)
    and up to four options among them, mostly its own, and at most one
    `--`.  A command with a required switch gets one of those as a fifth
    option half the time."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    options = GRAMMAR[command][1]
    own = st.sampled_from(sorted(options))
    name = st.one_of(own, own, own, st.sampled_from(OPTIONS))
    first = st.sampled_from(sorted(KINDS) if command == "generate" else WORDS)
    words = draw(st.lists(first, max_size=1)) + draw(st.lists(st.sampled_from(WORDS), max_size=2))
    pieces = [[word] for word in words]
    more = draw(st.lists(name.flatmap(lambda n: option_words(options, n)), max_size=4))
    required = [
        name for name, (_, what, default) in options.items()
        if default is None and not isinstance(what, (type, tuple))
    ]
    if required and draw(st.booleans()):
        more.append([draw(st.sampled_from(required))])
    for words in more + [["--"]] * draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), words)
    return [command, *(w for words in pieces for w in words)]


class TestParser:
    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_reads_as_argparse_did(self, argv):
        want = oracle_parse(argv)
        if want is not None and dropped(want):
            assert grammar_parse(argv) is None
        else:
            assert grammar_parse(argv) == want

    @pytest.mark.parametrize("argv", DROPPED, ids=" ".join)
    def test_generate_refuses_what_it_would_drop(self, capsys, argv):
        assert dropped(oracle_parse(argv))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(USAGE + "\nmilnor: error: ")
        assert err.count("\n") == USAGE.count("\n") + 2

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["--", "invariants", "a"], ["invariants", "a", "--max-l", "3"],
         ["generate", "v-pi"], ["invariants", "a", "--max-length", "3", "b"],
         # no file "a" exists: classify counts its files before it reads any
         ["classify", "--homotopy", "a", "b", "c"]],
        ids=repr,
    )
    def test_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert "\n".join(lines[:-1]) == USAGE
        assert lines[-1].startswith("milnor: error: ")

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["invariants", "-h"], ["classify", "a", "--help"]]
    )
    def test_help(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr() == (USAGE + "\n", "")

    def test_usage_is_the_readme_synopsis(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        assert f"```\n{USAGE}\n```" in readme

    def test_values_anywhere(self, workdir):
        hopf = workdir["hopf"]
        assert parse(["invariants", "--max-r=1", hopf, "--max-length", "3", "--max-r", "2"]) == (
            "invariants", {"files": [hopf], "max_length": 3, "max_r": 2, "fmt": "json"}
        )
        assert parse(["cable", hopf, "-o", "c.json", "-1"]) == (
            "cable", {"file": hopf, "multiplicities": "-1", "out": "c.json"}
        )
        assert parse(["classify", "--homotopy", "--", "--strict"])[1]["files"] == ["--strict"]

    def test_negative_multiplicity_reaches_cable(self, capsys, workdir):
        assert main(["cable", workdir["hopf"], "-1"]) == 2
        assert "milnor: error" not in capsys.readouterr().err


SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "milnor").glob("*.py") if p.stem != "__init__")


def cli_imports(*argv):
    """The modules a fresh ``python -m milnor.cli`` process imports, read
    from ``-X importtime``; asserts that the command succeeds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "milnor.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    # the package loads neither; numpy, past NUMPY_SPLITS, loads inspect
    assert "dataclasses" not in modules
    assert "inspect" not in modules or "numpy" in modules
    # the command line is read from milnor.cli.GRAMMAR, not by argparse,
    # which loads gettext, which loads locale
    assert not {"argparse", "gettext", "locale"} & modules
    return modules


def test_files_are_read_and_written_as_utf8(tmp_path, capsys):
    # JSON is UTF-8 (RFC 8259): no command falls back to the locale's encoding
    w, cabled = tmp_path / "w.json", tmp_path / "w2.json"
    strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (
        ["generate", "whitehead", "-o", str(w)],
        ["classify", "--self-delta", str(w)],
        ["cable", str(w), "2", "-o", str(cabled)],
    ):
        proc = subprocess.run(
            [sys.executable, *strict, "-m", "milnor.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
    cable_data = json.loads(cabled.read_text(encoding="utf-8"))
    assert cable_data["source_component"] == [1, 1, 2, 2]
    w.write_bytes(b"\xff" + w.read_bytes())
    assert main(["classify", "--self-delta", str(w)]) == 2
    assert f"{w}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_a_closed_pipe_ends_the_cli_quietly():
    # the output, about 490 kB, overfills the pipe, so a write meets the
    # closed end whenever the reader stops
    proc = subprocess.Popen(
        [sys.executable, "-m", "milnor.cli", "generate", "milnor-link", "10"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "compo'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux"
)
class TestOutOfMemory:
    """A run that exhausts its address space exits 4, with one line on
    standard error that names ``MemoryError`` and nothing on standard
    output.  The cap is set on the child only."""

    def run_capped(self, *argv):
        cap = 64 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "milnor.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 4, proc.stderr[-2000:]
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "MemoryError" in lines[0], proc.stderr[-2000:]
        return lines[0]

    def test_allocation(self):
        # the 30-component Milnor link's tangle outgrows 64 MB as it is built
        self.run_capped("generate", "milnor-link", "30")

    def test_numpy_that_cannot_load(self, tmp_path):
        # the doubling check's cable needs the numpy kernel, whose shared
        # libraries do not fit in 64 MB
        from milnor.classify import milnor_link

        path = tmp_path / "milnor4.json"
        path.write_text(json.dumps(to_pd_json(milnor_link(4))))
        assert "numpy" in self.run_capped("classify", "--self-delta", str(path))


class TestStartup:
    """What a fresh CLI process pays before it computes: queries on split
    tables below magnus.NUMPY_SPLITS never load numpy, and no module's
    compile dominates the import."""

    def test_no_module_compile_sets_the_import_peak(self):
        """A process running from source, without cached bytecode (as the
        benchmark's children run), compiles each module it imports, and the
        largest single compile sets the import's memory peak, not the total.
        Before ``diagram.py`` (805 lines) was split in three, it compiled at
        a 2.40 MB peak under tracemalloc, against 1.09 MB for the next
        largest, ``magnus.py``, on CPython 3.11."""
        for path in sorted((SRC / "milnor").glob("*.py")):
            source = path.read_text(encoding="utf-8")
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                compile(source, str(path), "exec")
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 1.25e6, f"{path.name} compiles at {peak / 1e6:.2f} MB"

    def test_no_module_imports_argparse(self):
        for path in sorted((SRC / "milnor").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert "argparse" not in names, path.name

    @pytest.mark.parametrize("module", MODULES)
    def test_each_module_imports_on_its_own(self, module):
        # first through milnor/__init__.py, then with a bare package in its
        # place, so that the module is the first of the package to load:
        # tangles and pdfile import diagram, which must then load without
        # importing either of them
        bare = (
            "import importlib, sys, types\n"
            "package = types.ModuleType('milnor')\n"
            f"package.__path__ = [{str(SRC / 'milnor')!r}]\n"
            "sys.modules['milnor'] = package\n"
            f"importlib.import_module('milnor.{module}')\n"
        )
        for code in (f"import milnor.{module}", bare):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]

    def test_homotopy_of_a_four_component_string_link(self, tmp_path):
        path = tmp_path / "vpi.json"
        assert main(["generate", "v-pi", "1,2,3,4", "-o", str(path)]) == 0
        assert json.loads(path.read_text())["kind"] == "stringlink"
        modules = cli_imports("classify", "--homotopy", str(path))
        assert "milnor.magnus" in modules
        assert "numpy" not in modules
        assert "milnor.freegroup" not in modules

    def test_self_delta_of_whitehead(self, tmp_path):
        path = tmp_path / "w.json"
        assert main(["generate", "whitehead", "-o", str(path)]) == 0
        modules = cli_imports("classify", "--self-delta", str(path))
        assert "milnor.magnus" in modules
        assert "numpy" not in modules
        assert "milnor.freegroup" not in modules

    def test_self_delta_of_milnor3(self, tmp_path):
        # the r <= 2 table (940 splits) and the doubled link's scan, which
        # stops at length 3 (41 splits)
        path = tmp_path / "m3.json"
        assert main(["generate", "milnor-link", "3", "-o", str(path)]) == 0
        modules = cli_imports("classify", "--self-delta", str(path))
        assert "milnor.magnus" in modules
        assert "numpy" not in modules

    def test_self_delta_of_a_three_component_generator(self, tmp_path):
        # vtau_n3_23_k1: the doubled link's scan stops at length 4 (139 splits)
        self.assert_self_delta_skips_numpy(tmp_path, Surjection(3, 1, (2, 3)))

    def test_self_delta_of_a_full_length_scan(self, tmp_path):
        # vtau_n3_1122_k3: the doubled link's scan reads every length and
        # ends at length 6 (587 splits)
        self.assert_self_delta_skips_numpy(tmp_path, Surjection(3, 3, (1, 1, 2, 2)))

    def assert_self_delta_skips_numpy(self, tmp_path, tau):
        path = tmp_path / "vtau.json"
        path.write_text(json.dumps(to_pd_json(closure(surjection_generator(tau)))))
        modules = cli_imports("classify", "--self-delta", str(path))
        assert "milnor.magnus" in modules
        assert "numpy" not in modules

    def test_self_delta_of_milnor4_loads_numpy(self, tmp_path):
        # the r <= 2 table through length 8 has 35,157 splits
        path = tmp_path / "m4.json"
        assert main(["generate", "milnor-link", "4", "-o", str(path)]) == 0
        assert "numpy" in cli_imports("classify", "--self-delta", str(path))
