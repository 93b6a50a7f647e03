import json

import pytest

from milnor.cli import main
from milnor.diagram import closure, from_braid, parse_pd, to_pd_json, trivial_link


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

    def test_missing_file(self, workdir):
        assert main(["invariants", str(workdir["dir"] / "nope.json")]) == 2

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
        from milnor import invariants, wirtinger
        from milnor.classify import whitehead_link

        white = workdir["dir"] / "whitehead.json"
        white.write_text(json.dumps(to_pd_json(whitehead_link())))
        builds, assembled, inside = [], [], []
        meridian_series = wirtinger._meridian_series
        residues = invariants.residues
        evaluate = invariants.evaluate

        def spy_meridians(d, depth, q):
            if ("meridians", depth, q) not in d._cache:
                builds.append((d.name, d.n, depth, q))
            return meridian_series(d, depth, q)

        def spy_residues(l, indices):
            inside.append(l)
            try:
                return residues(l, indices)
            finally:
                inside.pop()

        def spy_evaluate(d, indices):
            if inside:
                assembled.append(d.name)
            return evaluate(d, indices)

        monkeypatch.setattr(wirtinger, "_meridian_series", spy_meridians)
        monkeypatch.setattr(invariants, "residues", spy_residues)
        monkeypatch.setattr(invariants, "evaluate", spy_evaluate)
        code, out = run(
            capsys, "classify", "--self-delta", str(white), workdir["trivial2"]
        )
        assert code == 0
        assert json.loads(out)["selfdelta_equivalent"] == "no"
        # the inputs have n=2; their 4-component cables are separate diagrams
        inputs = sorted(b for b in builds if b[1] == 2)
        assert inputs == [("trivial2", 2, 4, 3), ("whitehead", 2, 4, 3)]
        assert {b[2:] for b in builds if b[1] == 4} == {(4, 3)}
        assert sorted(assembled) == ["trivial2", "whitehead"]

    def test_homotopy_evaluates_the_input_once(self, capsys, workdir, monkeypatch):
        from milnor import invariants, wirtinger
        from milnor.classify import injection_generator
        from milnor.diagram import stack_all
        from milnor.multiindex import Injection

        exponents = {(1, 2): 1, (2, 4): -1, (1, 2, 3): 1, (2, 1, 3, 4): 1}
        parts = [injection_generator(Injection(4, v), e) for v, e in exponents.items()]
        path = workdir["dir"] / "product4.json"
        path.write_text(json.dumps(to_pd_json(stack_all(parts, 4))))
        builds, evaluated = [], []
        meridian_series = wirtinger._meridian_series
        evaluate = invariants.evaluate

        def spy_meridians(d, depth, q):
            if ("meridians", depth, q) not in d._cache:
                builds.append((d.name, depth, q))
            return meridian_series(d, depth, q)

        def spy_evaluate(d, indices):
            evaluated.append(d.name)
            return evaluate(d, indices)

        monkeypatch.setattr(wirtinger, "_meridian_series", spy_meridians)
        monkeypatch.setattr(invariants, "evaluate", spy_evaluate)
        code, out = run(capsys, "classify", "--homotopy", str(path))
        assert code == 0
        form = {
            tuple(row["injection"]): row["exponent"]
            for row in json.loads(out)["normal_forms"]["product4"]
        }
        assert {v: e for v, e in form.items() if e} == exponents
        assert [b for b in builds if b[0] == "product4"] == [("product4", 4, 3)]
        # the input once, then one partial product per level k = 2, 3, 4
        assert evaluated == ["product4", None, None, None]

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
        assert main(["generate", "v-tau", "1,2,2"]) == 2
        assert main(["generate", "v-tau", "1,2,2", "--k", "3"]) == 0

    def test_bad_injection(self, capsys):
        assert main(["generate", "v-pi", "2,1"]) == 2

    def test_roundtrip_canonical(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        assert main(["generate", "whitehead", "-o", str(out_path)]) == 0
        d1 = parse_pd(out_path.read_text())
        d2 = parse_pd(to_pd_json(d1))
        assert d1.canonical_form() == d2.canonical_form()


class TestCableCmd:
    def test_cable_output(self, capsys, workdir, tmp_path):
        out_path = tmp_path / "c.json"
        assert main(["cable", workdir["hopf"], "2,2", "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["components"] == 4
        assert data["source_component"] == [1, 1, 2, 2]
        d = parse_pd(data)
        assert d.n == 4

    def test_uniform_multiplicity(self, capsys, workdir):
        code, out = run(capsys, "cable", workdir["hopf"], "2")
        assert code == 0
        assert json.loads(out)["components"] == 4

