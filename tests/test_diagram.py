import ast
import copy
import gc
import hashlib
import itertools
import json
import random
import runpy
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import braid_permutation, canonical_form, commutator, roundtrip_parse_pd

from milnor.diagram import (
    Diagram,
    DiagramError,
    cable,
    cable_map,
    closure,
    cut_open,
    invert,
    power,
    reduced,
    stack,
    stack_all,
    trivial_link,
    trivial_string_link,
    with_kink,
)
from milnor.classify import (
    HomotopyNormalForm,
    injection_generator,
    surjection_generator,
    whitehead_link,
)
from milnor.freegroup import Word
from milnor.multiindex import (
    Injection,
    Surjection,
    all_injections,
)
from milnor.pdfile import load_diagram, parse_pd, to_pd_json
from milnor.tangles import commutator_tangle, from_braid, run_slices, tree_tangle
from milnor import diagram, invariants, pdfile, tangles, wirtinger


def oracle_linking(d, i, j):
    """Half the signed count of crossings between two components."""
    total = 0
    for sign, over, under in zip(d.signs, d.over_at, d.under_at):
        if {over[0], under[0]} == {i, j}:
            total += sign
    assert total % 2 == 0
    return total // 2


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def corpus():
    """The links ``scripts/generate_corpus.py`` writes, by name."""
    return runpy.run_path(str(ROOT / "scripts" / "generate_corpus.py"))["corpus"]()


def names_read_on_diagram():
    """The names the files of perfbench/ read on milnor.diagram, from their
    source alone: what they import from it, and the names ``TRACED`` lists
    under ``diagram``."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "milnor.diagram":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    if isinstance(key, ast.Name) and key.id == "diagram":
                        names.update(ast.literal_eval(value))
    return names


def test_moved_names_stay_on_diagram():
    # _MOVED holds exactly the names of tangles and pdfile that perfbench/
    # reads on milnor.diagram, and each resolves to its defining module's object
    defined = {
        name: module
        for module in (tangles, pdfile)
        for name, value in vars(module).items()
        if getattr(value, "__module__", None) == module.__name__
    }
    read = names_read_on_diagram() & defined.keys()
    assert read == set(diagram._MOVED)
    for name in read:
        assert defined[name].__name__ == f"milnor.{diagram._MOVED[name]}"
        assert getattr(diagram, name) is getattr(defined[name], name)


class TestValidation:
    @pytest.mark.parametrize(
        "n, events, signs, message",
        [
            (0, [], [], "at least one component"),
            (2, [[]], [], "component count does not match event lists"),
            (1, [[(0, "x"), (0, "u")]], [1], "bad role 'x'"),
            (1, [[(-1, "o"), (0, "u")]], [1], "crossing id -1 out of range"),
            (1, [[(0, "o"), (1, "u")]], [1], "crossing id 1 out of range"),
            (1, [[(0, "o"), (0, "o")]], [1], "crossing 0 passed twice as o"),
            (1, [[(0, "u"), (0, "o"), (0, "u")]], [1], "crossing 0 passed twice as u"),
            (1, [[(0, "o"), (1, "o"), (1, "u")]], [1, 1], "crossing 0 lacks an over"),
            (1, [[(0, "o"), (0, "u")]], [2], "crossing 0 has sign 2"),
            # integers only, as in a file
            (2.9, [[], []], [], "component count 2.9 is not an integer"),
            (True, [[]], [], "component count True is not an integer"),
            (1, [[(0, "o"), (0, "u")]], [1.7], "crossing 0 has sign 1.7"),
            (1, [[(0, "o"), (0, "u")]], [True], "crossing 0 has sign True"),
            (1, [[(0, "o"), (0, "u")]], ["1"], "crossing 0 has sign '1'"),
            (1, [[(0.0, "o"), (0.0, "u")]], [1], "crossing id 0.0 is not an integer"),
            (1, [[(False, "o"), (False, "u")]], [1], "crossing id False is not an"),
            # a passage is a (cid, role) pair, as walks hash and unpack it
            (
                2,
                [[[0, "o"], [1, "u"]], [[0, "u"], [1, "o"]]],
                [1, 1],
                r"passage \[0, 'o'\] is not a 2-tuple",
            ),
            (1, [[(0, "o", 1), (0, "u")]], [1], r"passage \(0, 'o', 1\) is not a"),
        ],
    )
    def test_diagram_rejects(self, n, events, signs, message):
        for closed in (False, True):
            with pytest.raises(DiagramError, match=message):
                Diagram(n, events, signs, closed)

    @pytest.mark.parametrize(
        "closed, message",
        [("no", "closed flag 'no' is not a boolean"), (0, "closed flag 0 is not a")],
    )
    def test_closed_flag_is_a_boolean(self, closed, message):
        with pytest.raises(DiagramError, match=message):
            Diagram(2, [[], []], [], closed=closed)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda h: cable(h, [2.9, 1]), r"\[2.9, 1\] are not all integers"),
            (lambda h: cable(h, [True, 2]), r"\[True, 2\] are not all integers"),
            (lambda h: cable_map(h, [0, -1, 5]), "one multiplicity per component"),
            (lambda h: cable_map(h, [0, 2]), "multiplicities must be positive"),
            (lambda h: tree_tangle(3, (1.7, 2)), "leaf component 1.7 is not an"),
            (lambda h: tree_tangle(True, (1, 1)), "strand count True is not an"),
        ],
    )
    def test_constructors_take_integers(self, build, message):
        with pytest.raises(DiagramError, match=message):
            build(closure(from_braid(2, [1, 1])))

    def test_passages_located(self):
        d = Diagram(2, [[(1, "u"), (0, "o")], [(0, "u"), (1, "o")]], [1, -1], True)
        assert d.over_at == ((1, 1), (2, 1))
        assert d.under_at == ((2, 0), (1, 0))

    @pytest.mark.parametrize(
        "parts, n, message",
        [
            ([trivial_link(2)], None, "stacking is defined for string links"),
            ([trivial_string_link(2), trivial_link(2)], 2, "defined for string links"),
            ([trivial_string_link(2), trivial_string_link(3)], None, "counts differ"),
            ([trivial_string_link(2)], 3, "component counts differ"),
            ([], None, "empty stack needs an explicit component count"),
        ],
    )
    def test_stack_all_rejects(self, parts, n, message):
        with pytest.raises(DiagramError, match=message):
            stack_all(parts, n)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda s: closure(closure(s)), "diagram is already closed"),
            (lambda s: cut_open(s), "diagram is already a string link"),
            (lambda s: invert(closure(s)), "inversion is defined for string links"),
            (lambda s: with_kink(s, 1, 0), "kink sign must be"),
        ],
        ids=["closure-of-link", "cut_open-of-stringlink", "invert-of-link", "kink-sign-0"],
    )
    def test_operations_reject(self, build, message):
        with pytest.raises(DiagramError, match=message):
            build(from_braid(2, [1, 1]))


class TestBraids:
    def test_empty_is_trivial(self):
        assert canonical_form(from_braid(3, [])) == canonical_form(trivial_string_link(3))

    def test_clasp_signs(self):
        s = from_braid(2, [1, 1])
        assert s.signs == (1, 1)
        assert oracle_linking(s, 1, 2) == 1

    def test_negative_clasp(self):
        s = from_braid(2, [-1, -1])
        assert s.signs == (-1, -1)
        assert oracle_linking(s, 1, 2) == -1

    def test_non_pure_rejected(self):
        with pytest.raises(DiagramError):
            from_braid(2, [1])

    def test_non_pure_closure_components(self):
        t = from_braid(2, [1], closed=True)
        assert t.n == 1
        assert braid_permutation(2, [1]) == [2, 1]

    def test_bad_letter(self):
        with pytest.raises(DiagramError):
            from_braid(2, [2])
        for closed in (False, True):
            with pytest.raises(DiagramError, match="nonzero"):
                from_braid(2, [1, 0, 1], closed=closed)

    @pytest.mark.parametrize(
        "strands, word, message",
        [
            (2.0, [1, 1], "strand count 2.0 is not an integer"),
            (True, [], "strand count True is not an integer"),
            (2, [1.0, 1], "braid letter 1.0 is not a nonzero integer"),
            (2, [True, True], "braid letter True is not a nonzero integer"),
        ],
    )
    def test_strands_and_letters_are_integers(self, strands, word, message):
        with pytest.raises(DiagramError, match=message):
            from_braid(strands, word)

    def test_closure_keeps_name(self):
        assert from_braid(2, [1, 1], closed=True, name="hopf").name == "hopf"


class TestStack:
    def test_unit(self):
        s = from_braid(2, [1, 1])
        assert canonical_form(stack(s, trivial_string_link(2))) == canonical_form(s)
        assert canonical_form(stack(trivial_string_link(2), s)) == canonical_form(s)

    def test_additive_linking(self):
        s = from_braid(2, [1, 1])
        assert oracle_linking(stack(s, s), 1, 2) == 2

    def test_associative(self):
        a = from_braid(3, [1, 1])
        b = from_braid(3, [2, 2])
        c = tree_tangle(3, (1, 2, 3))
        lhs = stack(stack(a, b), c)
        rhs = stack(a, stack(b, c))
        assert canonical_form(lhs) == canonical_form(rhs)

    def test_mismatch(self):
        with pytest.raises(DiagramError):
            stack(trivial_string_link(2), trivial_string_link(3))

    def test_results_are_new_diagrams(self):
        # renaming, or caching a reduction on, a result never reaches the
        # next call's result
        s = from_braid(2, [1, 1])
        assert stack_all([s]) is not s and power(s, 1) is not s
        assert canonical_form(power(s, 1)) == canonical_form(s)
        pi = Injection(3, (1, 2, 3))
        exponents = {p: int(p == pi) for p in all_injections(3)}
        for make in [
            lambda: injection_generator(pi),
            lambda: surjection_generator(Surjection(3, 3, (1, 2, 1))),
            lambda: HomotopyNormalForm(3, exponents).realize(),
        ]:
            g = make()
            g.name = "renamed"
            reduced(g)
            again = make()
            assert again is not g and again.name is None
            assert "reduced" not in again._cache

    def test_power_inverse(self):
        s = from_braid(2, [1, 1])
        assert canonical_form(power(s, -1)) == canonical_form(invert(s))
        assert canonical_form(power(s, 0)) == canonical_form(trivial_string_link(2))
        z = stack(s, invert(s))
        assert invariants.mu(z, (1, 2)) == 0


class TestClosure:
    def test_trivial(self):
        c = closure(trivial_string_link(3))
        assert c.closed and c.n == 3 and c.crossing_count == 0

    def test_hopf(self):
        h = closure(from_braid(2, [1, 1]))
        assert invariants.mu_bar(h, (1, 2)) == invariants.Residue(1, 0)

    def test_cut_open_roundtrip(self):
        s = tree_tangle(2, (1, 2, 2))
        assert canonical_form(cut_open(closure(s))) == canonical_form(s)


class TestKinks:
    def test_writhe(self):
        s = with_kink(trivial_string_link(2), 1, 1)
        assert s.writhe(1) == 1 and s.writhe(2) == 0

    @pytest.mark.parametrize(
        "comp, at, message",
        [
            (0, 0, "component 0 out of range"),
            (3, 0, "component 3 out of range"),
            (1, -1, "kink position -1 out of range"),
            (1, 3, "kink position 3 out of range"),
            # integers only, as the range checks assume
            (1.0, 0, "component 1.0 is not an integer"),
            (True, 0, "component True is not an integer"),
            (1, 1.5, "kink position 1.5 is not an integer"),
        ],
    )
    def test_rejects_bad_place(self, comp, at, message):
        hopf = closure(from_braid(2, [1, 1]))
        with pytest.raises(DiagramError, match=message):
            with_kink(hopf, comp, 1, at)

    def test_kink_at_either_end(self):
        hopf = closure(from_braid(2, [1, 1]))
        assert with_kink(hopf, 2, 1, 2).events[1][2:] == ((2, "o"), (2, "u"))
        assert with_kink(hopf, 2, 1, 0).events[1][:2] == ((2, "o"), (2, "u"))

    def test_invariants_unchanged(self):
        base = tree_tangle(3, (1, 2, 3))
        pert = with_kink(with_kink(base, 1, 1, at=2), 3, -1, at=0)
        for index in [(1, 2), (1, 3), (2, 3), (1, 2, 3), (2, 1, 3), (1, 3, 2)]:
            assert invariants.mu(base, index) == invariants.mu(pert, index)


class TestCable:
    def test_trivial(self):
        c = cable(trivial_link(2), (2, 2))
        assert c.n == 4 and c.crossing_count == 0
        assert cable_map(trivial_link(2), (2, 2)) == (1, 1, 2, 2)

    def test_component_counts(self):
        h = closure(from_braid(2, [1, 1]))
        c = cable(h, (2, 1))
        assert c.n == 3
        assert c.crossing_count == 4  # no kinks: writhes are zero

    def test_hopf_parallel_values(self):
        h = closure(from_braid(2, [1, 1]))
        c = cable(h, (2, 1))
        # copies of component 1 both link component 2's copy once
        assert invariants.mu_bar(c, (1, 3)).value == 1
        assert invariants.mu_bar(c, (2, 3)).value == 1
        assert invariants.mu_bar(c, (1, 2)).value == 0

    def test_framing_correction(self):
        h = closure(from_braid(2, [1, 1]))
        kinked = with_kink(h, 1, 1)
        c = cable(kinked, (2, 2))
        # zero framing: parallel copies of one component stay unlinked
        assert oracle_linking(c, 1, 2) == 0
        assert oracle_linking(c, 3, 4) == 0
        assert oracle_linking(c, 1, 3) == 1

    @pytest.mark.parametrize("mult", [2, 3])
    def test_framing_twists_planar(self, mult):
        # links with nonzero self-writhe get full twists between the copies
        hopf = closure(from_braid(2, [1, 1]))
        for l in [
            with_kink(hopf, 1, 1),
            with_kink(with_kink(hopf, 2, -1, at=1), 1, 1),
            with_kink(whitehead_link(), 2, -1, at=3),
            from_braid(3, [1, 1, 1, 2, 2], closed=True),
        ]:
            c = cable(l, [mult] * l.n)
            source = cable_map(l, [mult] * l.n)
            assert canonical_form(parse_pd(to_pd_json(c))) == canonical_form(c)
            for i, j in itertools.combinations(range(1, c.n + 1), 2):
                if source[i - 1] == source[j - 1]:
                    assert oracle_linking(c, i, j) == 0

    def test_kinked_cable_values(self):
        # a kink is an isotopy, so the zero-framed cables agree
        for l in [closure(from_braid(2, [1, 1])), whitehead_link()]:
            kinked = with_kink(with_kink(l, 1, 1), 2, -1, at=1)
            want = invariants.table(cable(l, (2, 2)), 4, 2)
            assert invariants.table(cable(kinked, (2, 2)), 4, 2) == want

    def test_multiplicity_validation(self):
        with pytest.raises(DiagramError):
            cable(trivial_link(2), (2,))
        with pytest.raises(DiagramError):
            cable(trivial_link(2), (0, 2))
        with pytest.raises(DiagramError):
            cable(trivial_string_link(2), (2, 2))


class TestCommutatorTangle:
    def test_empty_word(self):
        t = commutator_tangle(Word(3), 3, 3)
        assert canonical_form(t) == canonical_form(trivial_string_link(3))

    def test_single_letter(self):
        t = commutator_tangle(Word(2, (1,)), 2, 2)
        assert invariants.mu(t, (1, 2)) == 1

    def test_single_inverse_letter(self):
        t = commutator_tangle(Word(2, (1,)).inverse(), 2, 2)
        assert invariants.mu(t, (1, 2)) == -1

    def test_commutator_word(self):
        w = commutator(Word(3, (1,)), Word(3, (2,)))
        t = commutator_tangle(w, 3, 3)
        assert invariants.mu(t, (1, 2)) == 0
        assert invariants.mu(t, (1, 3)) == 0
        assert invariants.mu(t, (2, 3)) == 0
        assert invariants.mu(t, (1, 2, 3)) == 1

    def test_longitude_matches_word_away_from_target(self):
        # expansion coefficients dodging the target variable equal the word's
        from milnor.magnus import dense, expand

        w = Word(4, (1, 2, -1, 3, -2, -3))
        t = commutator_tangle(w, 4, 4)
        series = wirtinger.longitude_series(t, {4}, dense(4, 2))[4]
        ref = expand(w, 2)
        for mono in itertools.product((1, 2, 3), repeat=2):
            assert series.coefficient(mono) == ref.coefficient(mono)
        # target 1 travels right to the far strands and home leftward
        w = Word(4, (3, 4, -3, -4))
        series = wirtinger.longitude_series(commutator_tangle(w, 1, 4), {1}, dense(4, 2))[1]
        ref = expand(w, 2)
        for mono in itertools.product((2, 3, 4), repeat=2):
            assert series.coefficient(mono) == ref.coefficient(mono)
        assert series.coefficient((3, 4)) == 1

    def test_rejects_target_mention(self):
        with pytest.raises(DiagramError):
            commutator_tangle(Word(2, (2,)), 2, 2)

    def test_rejects_bad_target(self):
        with pytest.raises(DiagramError):
            commutator_tangle(Word(2), 3, 2)

    def test_rejects_a_word_of_another_rank(self):
        with pytest.raises(DiagramError, match="word rank must equal the component count"):
            commutator_tangle(Word(2, (1,)), 3, 3)


class TestTreeTangle:
    def test_clasp(self):
        t = tree_tangle(2, (1, 2))
        assert invariants.mu(t, (1, 2)) == 1

    def test_validation(self):
        with pytest.raises(DiagramError):
            tree_tangle(2, (1,))
        with pytest.raises(DiagramError):
            tree_tangle(2, (1, 3))
        with pytest.raises(DiagramError):
            tree_tangle(2, (1, 1, 1, 2))

    def test_all_strands_exit_home(self):
        for leaves in [(1, 2, 3), (2, 3, 1, 1), (1, 2, 2), (1, 1, 2, 2)]:
            t = tree_tangle(3, leaves)
            assert not t.closed and t.n == 3

    def test_inverse_kills_values(self):
        v = tree_tangle(3, (1, 2, 3))
        z = stack(v, invert(v))
        for index in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]:
            assert invariants.mu(z, index) == 0


class TestSlices:
    def test_strand_must_exit_at_own_column(self):
        with pytest.raises(DiagramError):
            run_slices(2, [("x", 0, "L")])

    def test_min_needs_opposite_directions(self):
        with pytest.raises(DiagramError):
            run_slices(2, [("min", 0)])

    def test_crossing_bounds(self):
        with pytest.raises(DiagramError):
            run_slices(2, [("x", 1, "L")])

    @pytest.mark.parametrize(
        "n, ops, message",
        [
            (1, [("max", 2, "L")], "birth position 2 out of range"),
            (1, [("max", -1, "L")], "birth position -1 out of range"),
            (2, [("min", 1)], "join position 1 out of range"),
            (1, [("y", 0)], r"unknown op \('y', 0\)"),
            (1, [("max", 1, "L")], "program ends with wrong point count"),
        ],
        ids=["birth-right", "birth-left", "join", "unknown-op", "point-count"],
    )
    def test_rejects_bad_programs(self, n, ops, message):
        with pytest.raises(DiagramError, match=message):
            run_slices(n, ops)

    @pytest.mark.parametrize("closed", [False, True])
    def test_crossing_free_loop_rejected(self, closed):
        # a loop born and killed inside the program meets no strand
        with pytest.raises(DiagramError, match="closed loop meets no strand"):
            run_slices(1, [("max", 1, "L"), ("min", 1)], closed=closed)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(
            st.one_of(
                st.tuples(st.just("x"), st.integers(-1, 5), st.sampled_from("LR")),
                st.tuples(st.just("max"), st.integers(-1, 5), st.sampled_from("LR")),
                st.tuples(st.just("min"), st.integers(-1, 5)),
            ),
            max_size=10,
        ),
        st.booleans(),
    )
    def test_every_program_gives_a_diagram_or_a_diagram_error(self, n, ops, closed):
        # the executor needs no check for a strand that exits flowing up or
        # runs off the diagram: no program reaches either
        try:
            d = run_slices(n, ops, closed=closed)
        except DiagramError:
            return
        assert isinstance(d, Diagram)

    def test_family_digest(self):
        # every diagram the executor draws for a fixed family, crossing for
        # crossing; recorded from a tree whose diagrams are known good, and
        # re-recorded only by a change that means to draw them differently
        digest = hashlib.sha256()
        count = 0
        for d in slice_family():
            digest.update(repr((d.n, d.events, d.signs, d.closed)).encode())
            count += 1
        assert count == 866
        assert digest.hexdigest() == SLICE_FAMILY_SHA256


SLICE_FAMILY_SHA256 = "a1b6e93d98e5c2f9a8dbcc55c3b70508e3741d289e5f78d58448a81b563e427e"


def slice_family():
    """Diagrams drawn by ``run_slices``: 100 seeded closed braids on each of
    2-6 strands; every tree tangle on at most 3 strands with 2-6 leaves,
    none grasped more than twice; both signs of every injection generator
    for n <= 4; and the closure of every corpus surjection generator with
    its cables (2, ..., 2) and (3, 1, ..., 1), whose framing twists are
    braids."""
    rng = random.Random(0)
    for strands in range(2, 7):
        for _ in range(100):
            size = rng.randint(0, 12)
            word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(size)]
            yield from_braid(strands, word, closed=True)
    for n in range(1, 4):
        for m in range(2, 7):
            for leaves in itertools.product(range(1, n + 1), repeat=m):
                if all(leaves.count(c) <= 2 for c in leaves):
                    yield tree_tangle(n, leaves)
    for n in range(1, 5):
        for pi in all_injections(n):
            for e in (1, -1):
                yield injection_generator(pi, e)
    for name, l in corpus().items():
        if name.startswith("vtau"):
            yield from (l, cable(l, [2] * l.n), cable(l, [3] + [1] * (l.n - 1)))


class TestPDFiles:
    def test_roundtrip_stringlink(self):
        s = tree_tangle(2, (1, 2, 2))
        again = parse_pd(json.dumps(to_pd_json(s)))
        assert canonical_form(again) == canonical_form(s)

    def test_roundtrip_closed(self):
        for d in [
            closure(from_braid(2, [1, 1])),
            closure(tree_tangle(3, (1, 2, 3))),
            trivial_link(3),
            with_kink(closure(from_braid(2, [1, 1])), 1, -1),
        ]:
            again = parse_pd(to_pd_json(d))
            assert canonical_form(again) == canonical_form(d)

    def test_hopf_signs(self):
        h = parse_pd(to_pd_json(closure(from_braid(2, [1, 1]))))
        assert h.n == 2 and h.signs == (1, 1)

    def test_trivial_components(self):
        t = parse_pd(to_pd_json(trivial_link(3)))
        assert t.n == 3 and t.crossing_count == 0

    def test_arc_used_three_times(self):
        data = to_pd_json(closure(from_braid(2, [1, 1])))
        data["pd"][0][1] = data["pd"][0][0]
        with pytest.raises(DiagramError):
            parse_pd(data)

    def test_broken_cycle(self):
        data = to_pd_json(closure(from_braid(2, [1, 1])))
        del data["orientation"][next(iter(data["orientation"]))]
        with pytest.raises(DiagramError):
            parse_pd(data)

    def test_missing_fields(self):
        with pytest.raises(DiagramError):
            parse_pd({"components": 2})

    @pytest.mark.parametrize("name", [5, ["x"]])
    def test_name_is_a_string(self, name):
        # both readers enter through one check of the object and its name
        data = {**to_pd_json(closure(from_braid(2, [1, 1]))), "name": name}
        for read in (parse_pd, load_diagram):
            with pytest.raises(DiagramError, match="a diagram name is a string"):
                read(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h, s: {**h, "endpoints": s["endpoints"]}, "links do not carry endpoints"),
            (
                lambda h, s: {**h, "component_of_arc": {e: 3 for e in h["component_of_arc"]}},
                r"component labels must be 1\.\.n",
            ),
            (
                lambda h, s: {**s, "endpoints": {"top": [1, 2], "bottom": [3, 6]}},
                "top endpoints must cover all components",
            ),
            (
                lambda h, s: {**s, "endpoints": {**s["endpoints"], "top": [1]}},
                "need one top endpoint per component",
            ),
            (lambda h, s: {"strands": 2, "word": [1, 1], "kind": "knot"}, "unknown braid kind"),
            (lambda h, s: {"name": "x"}, "neither a PD diagram nor a braid"),
        ],
        ids=["link-endpoints", "labels", "top-misses", "top-length", "braid-kind", "name-only"],
    )
    def test_rejects(self, edit, message):
        hopf = to_pd_json(closure(from_braid(2, [1, 1])))
        clasp = to_pd_json(from_braid(2, [1, 1]))
        with pytest.raises(DiagramError, match=message):
            load_diagram(edit(hopf, clasp))

    def test_unknown_kind(self):
        # a missing kind is a link; any other kind than the two is refused,
        # endpoints or not
        hopf = to_pd_json(closure(from_braid(2, [1, 1])))
        del hopf["kind"]
        assert parse_pd(hopf).closed
        clasp = to_pd_json(from_braid(2, [1, 1]))
        assert not parse_pd(clasp).closed
        for data, kind in [(hopf, "Link"), (clasp, "string"), (clasp, "StringLink")]:
            with pytest.raises(DiagramError, match=f"unknown diagram kind '{kind}'"):
                parse_pd({**data, "kind": kind})

    def test_virtual_hopf_rejected(self):
        # one crossing shared by two single-passage circles: a virtual link
        data = {
            "kind": "link",
            "components": 2,
            "pd": [[1, 2, 1, 2]],
            "component_of_arc": {"1": 1, "2": 2},
            "orientation": {"1": 1, "2": 2},
        }
        with pytest.raises(DiagramError, match="not planar"):
            parse_pd(data)

    def test_virtual_trefoil_rejected(self):
        # Gauss code O1 U2 U1 O2 has no planar realization
        virtual = Diagram(1, [[(0, "o"), (1, "u"), (0, "u"), (1, "o")]], [1, 1], True)
        with pytest.raises(DiagramError, match="not planar"):
            parse_pd(to_pd_json(virtual))

    def test_planar_constructions_accepted(self):
        for d in [
            from_braid(3, [1, 2, -1, 2, 1], closed=True),
            from_braid(4, [1, 1, 3, 3], closed=True),  # two connected pieces
            cable(closure(tree_tangle(2, (1, 2, 2))), [2, 1]),
            stack(tree_tangle(3, (1, 2, 3)), invert(tree_tangle(3, (2, 1, 3)))),
            with_kink(trivial_link(2), 2, 1),
        ]:
            assert canonical_form(parse_pd(to_pd_json(d))) == canonical_form(d)

    def test_renamed_edges_and_permuted_rows(self):
        # edges renamed (increasingly on a link, which keeps each base point
        # at its component's least edge) and pd rows shuffled: same diagram
        rng = random.Random(16)
        for d in pd_samples():
            data = to_pd_json(d)
            for _ in range(3):
                again = parse_pd(renamed(data, rng))
                assert canonical_form(again) == canonical_form(d)

    def test_layout_changes_rejected(self):
        # each change keeps every edge and crossing in place: only the
        # walks or the endpoint lists stop agreeing with the rows
        rng = random.Random(16)
        for d in pd_samples():
            data = to_pd_json(d)
            edges = [int(e) for e in data["component_of_arc"]]
            mutants = []
            key = rng.choice(sorted(data["orientation"]))
            flow = copy.deepcopy(data)
            flow["orientation"][key] = rng.choice(
                [e for e in edges if e != data["orientation"][key]]
            )
            mutants.append((None, flow))  # caught wherever the walk strays
            if not d.closed:
                bottom = copy.deepcopy(data)
                i = rng.randrange(d.n)
                bottom["endpoints"]["bottom"][i] = rng.choice(
                    [e for e in edges if e != data["endpoints"]["bottom"][i]]
                )
                mutants.append(("endpoints", bottom))
                top = copy.deepcopy(data)
                top["endpoints"]["top"].reverse()
                mutants.append(("endpoints", top))
            for message, mutant in mutants:
                with pytest.raises(DiagramError, match=message):
                    parse_pd(mutant)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_reader_matches_roundtrip_oracle(self, data):
        # the integer reader accepts and rejects exactly as the reader that
        # compared renumbered copies with a second to_pd_json, with the same
        # message, on small diagrams' files and on single mutations of them
        file = mutated(to_pd_json(data.draw(small_diagrams())), data.draw)

        def outcome(read):
            try:
                d = read(file)
            except DiagramError as exc:
                return str(exc)
            return d.events, d.signs, d.closed, d.name

        assert outcome(parse_pd) == outcome(roundtrip_parse_pd)

    def test_load_peak_is_bounded_by_the_text(self):
        # compact JSON as the corpus script writes it; on this file the
        # round-trip reader peaked at 39 times the text, the integer one at
        # 14 while it held the decoded tables through the layout, and at
        # 9.7 once it drops them for their walk positions (CPython 3.11)
        d = products(5, (2, 2, 2, 1), 1)
        assert d.crossing_count >= 500 and not d.closed
        text = json.dumps(to_pd_json(d), sort_keys=True)
        again, peak = traced_load(text)
        assert canonical_form(again) == canonical_form(d)
        assert peak <= 13 * len(text), f"{peak / len(text):.1f} times the text"

    def test_callers_dict_is_left_alone(self):
        # the reader takes the tables out of a dict of its own: a caller's
        # file is read, never changed, whether it is accepted or refused
        rng = random.Random(16)
        for d in pd_samples():
            data = to_pd_json(d)
            flow = copy.deepcopy(data)
            key = rng.choice(sorted(flow["orientation"]))
            flow["orientation"][key] = flow["orientation"][key] + 1
            for file in (data, renamed(data, rng), flow):
                before = copy.deepcopy(file)
                for read in (parse_pd, load_diagram):
                    try:
                        read(file)
                    except DiagramError:
                        assert file is flow
                    assert file == before

    def test_labels_are_names_not_sizes(self):
        # edges renamed to values from 10**12 upward with gaps: the same
        # diagram, read with about the memory of the file numbered from 1
        rng = random.Random(25)
        for d in [corpus()["milnor4"], products(4, (3, 2, 2), 0)]:
            data = to_pd_json(d)
            edges = sorted(int(e) for e in data["component_of_arc"])
            huge = itertools.accumulate(rng.randrange(1, 10**9) for _ in edges)
            big = relabeled(data, dict(zip(edges, (10**12 + g for g in huge))))
            again, peak = traced_load(json.dumps(big))
            assert again.events == d.events and again.signs == d.signs
            assert peak <= 2 * traced_load(json.dumps(data))[1]

    def test_braid_file(self):
        d = load_diagram({"strands": 2, "word": [1, 1], "kind": "closure"})
        assert d.closed and d.n == 2
        s = load_diagram({"strands": 2, "word": [1, 1], "kind": "stringlink"})
        assert not s.closed
        with pytest.raises(DiagramError):
            load_diagram({"strands": 2, "word": [1], "kind": "stringlink"})


def pd_samples():
    """Corpus links, string links and kinked closures for the file tests."""
    items = corpus()
    return [
        items["hopf"],
        items["whitehead"],
        items["milnor3"],
        items["trivial2"],
        from_braid(3, [1, 2, 2, 1, -2, -2]),
        tree_tangle(3, (1, 2, 3)),
        stack(tree_tangle(2, (1, 2, 2)), from_braid(2, [-1, -1])),
        with_kink(with_kink(from_braid(2, [1, 1]), 2, -1, 1), 1, 1),
        with_kink(from_braid(3, [1, 2, -1, 2], closed=True), 1, -1, 2),
        with_kink(closure(tree_tangle(2, (1, 2))), 2, 1),
    ]


def renamed(data, rng):
    """The PD file with its edges renamed and its pd rows shuffled; a link's
    edges are renamed increasingly."""
    old = sorted(int(e) for e in data["component_of_arc"])
    new = rng.sample(range(1, 10 * len(old) + 1), len(old))
    if data["kind"] == "link":
        new.sort()
    out = relabeled(data, dict(zip(old, new)))
    rng.shuffle(out["pd"])
    return out


def relabeled(data, name):
    """The PD file with each edge e renamed name[e]."""
    out = dict(data)
    out["pd"] = [[name[e] for e in row] for row in data["pd"]]
    out["component_of_arc"] = {
        str(name[int(e)]): c for e, c in data["component_of_arc"].items()
    }
    out["orientation"] = {
        str(name[int(e)]): name[f] for e, f in data["orientation"].items()
    }
    if "endpoints" in data:
        out["endpoints"] = {
            k: [name[e] for e in es] for k, es in data["endpoints"].items()
        }
    return out


def traced_load(text):
    """load_diagram(text) and its tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        return load_diagram(text), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def small_diagrams(draw):
    """A closed braid, a string link or a 2-cable of either, on n <= 3
    components, kinked now and then; or random walks, which may be virtual."""
    n = draw(st.integers(1, 3))
    closed = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        m = draw(st.integers(1, 4))
        ends = draw(st.permutations([(c, role) for c in range(m) for role in "ou"]))
        cut = st.lists(st.integers(0, 2 * m), min_size=n - 1, max_size=n - 1)
        cuts = sorted(draw(cut))
        events = [ends[a:b] for a, b in zip([0, *cuts], [*cuts, 2 * m])]
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
        return Diagram(n, events, signs, closed)
    letters = [g for i in range(1, n) for g in (i, -i)] or [0]
    words = st.lists(st.sampled_from(letters), max_size=4)
    word, core = draw(words.map(lambda w: [g for g in w if g])), draw(words)
    if not closed:  # a pure braid: squares, conjugated by the word
        word += [g for g in core if g for _ in (0, 1)] + [-g for g in reversed(word)]
    d = from_braid(n, word, closed=closed)
    if draw(st.booleans()):
        comp = draw(st.integers(1, d.n))
        at = draw(st.integers(0, len(d.events[comp - 1])))
        d = with_kink(d, comp, draw(st.sampled_from([1, -1])), at)
    if draw(st.booleans()):
        d = cable(d if d.closed else closure(d), [2] * d.n)
        d = d if closed else cut_open(d)
    d.name = draw(st.sampled_from([None, "x"]))
    return d


def mutated(data, draw):
    """The PD file unchanged, or with one change drawn: edges renamed, rows
    shuffled, a pd entry, a successor or an endpoint changed, a key dropped,
    added or written with a leading zero, a number made true or 1.0, or a
    list made an empty string or object."""
    data = copy.deepcopy(data)
    edges = [int(e) for e in data["component_of_arc"]]
    other = st.sampled_from(edges + [0, -1, max(edges, default=0) + 1])
    maps = [data["component_of_arc"], data["orientation"]]
    objects = [*maps, *([data["endpoints"]] if "endpoints" in data else [])]
    numbers = [(data, "components")]  # (container, key or index) of each number
    numbers += [(row, i) for row in data["pd"] for i in range(4)]
    numbers += [(m, k) for m in maps for k in m]
    for es in data.get("endpoints", {}).values():
        numbers += [(es, i) for i in range(len(es))]
    change = draw(st.sampled_from(
        ["none", "rename", "shuffle", "pd", "successor", "endpoint", "drop", "add",
         "field", "zero", "true", "float", "empty"]
    ))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if change == "rename":
        data = renamed(data, rng)
    elif change == "shuffle":
        rng.shuffle(data["pd"])
    elif change == "pd" and data["pd"]:
        draw(st.sampled_from(data["pd"]))[draw(st.integers(0, 3))] = draw(other)
    elif change == "successor" and data["orientation"]:
        key = draw(st.sampled_from(sorted(data["orientation"])))
        data["orientation"][key] = draw(other)
    elif change == "endpoint" and "endpoints" in data:
        ends = data["endpoints"][draw(st.sampled_from(["top", "bottom"]))]
        ends[draw(st.integers(0, len(ends) - 1))] = draw(other)
    elif change == "drop":
        target = draw(st.sampled_from([data, *objects]))
        if target:
            del target[draw(st.sampled_from(sorted(target)))]
    elif change == "add":
        fresh = str(max(edges, default=0) + 1)
        key = draw(st.sampled_from(["0", "-3", fresh, "top"]))
        draw(st.sampled_from(objects))[key] = draw(other)
    elif change == "field":
        key = draw(st.sampled_from(["endpoints", "extra"]))
        data[key] = {"top": edges[:1], "bottom": edges[-1:]}
    elif change == "zero":
        target = draw(st.sampled_from(maps))
        if target:
            key = draw(st.sampled_from(sorted(target)))
            target["0" + key] = target.pop(key)
    elif change == "empty":
        lists = [(data["pd"], i) for i in range(len(data["pd"]))]
        lists += [(data["endpoints"], k) for k in data.get("endpoints", ())]
        if lists:
            where, key = draw(st.sampled_from(lists))
            where[key] = draw(st.sampled_from(["", {}]))
    elif change in ("true", "float"):
        where, key = draw(st.sampled_from(numbers))
        where[key] = True if change == "true" else float(where[key])
    return data


def products(n, shape, seed):
    """A product of generators shaped like the homotopy benchmark's: per
    arity 2..n, ``shape`` nonzero exponents of random sign."""
    rng = random.Random(seed)
    exponents = {pi: 0 for pi in all_injections(n)}
    for k, count in zip(range(2, n + 1), shape):
        for pi in rng.sample([pi for pi in all_injections(n) if pi.k == k], count):
            exponents[pi] = rng.choice((-1, 1))
    return HomotopyNormalForm(n, exponents).realize()


class TestReduced:
    def test_r1_kinks(self):
        s = from_braid(2, [1, 1])
        for comp, sign, at in [(1, 1, 0), (1, -1, 1), (2, 1, 2), (2, -1, 1)]:
            kinked = with_kink(with_kink(s, comp, sign, at), 3 - comp, -sign)
            assert canonical_form(reduced(kinked)) == canonical_form(s)

    def test_r2_bigons(self):
        assert reduced(from_braid(3, [2, 1, -1, -2])).crossing_count == 0
        assert reduced(from_braid(2, [1, 1, 1, -1], closed=True)).crossing_count == 2
        # same signs: a clasp, not a bigon
        assert reduced(from_braid(2, [1, 1])).crossing_count == 2

    def test_wraps_only_on_closed_components(self):
        w = whitehead_link()
        assert reduced(w).crossing_count == 9
        assert reduced(cut_open(w)).crossing_count == 17

    def test_keeps_name_and_caches(self):
        w = whitehead_link()
        w.name = "whitehead"
        r = reduced(w)
        assert r.name == "whitehead" and r.closed and r.n == 2
        assert reduced(w) is r and reduced(r) is r
        t = trivial_link(2)
        assert reduced(t) is t

    def test_reductions_die_with_their_last_name(self):
        # with the cyclic collector off, only reference counting frees a
        # diagram: neither a reduction nor a diagram that is its own
        # reduction may hold itself in its memo
        enabled = gc.isenabled()
        gc.disable()
        try:
            w = whitehead_link()
            r = reduced(w)
            assert r is not w and reduced(r) is r
            refs = [weakref.ref(w), weakref.ref(r)]
            del w, r
            t = trivial_link(2)
            assert reduced(t) is t and reduced(t) is t  # computed, then memoized
            refs.append(weakref.ref(t))
            del t
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_crossing_counts(self):
        items = corpus()
        counts = {
            name: (items[name].crossing_count, reduced(items[name]).crossing_count)
            for name in ("whitehead", "milnor4", "vtau_n3_121_k3")
        }
        assert counts == {
            "whitehead": (38, 9),
            "milnor4": (92, 20),
            "vtau_n3_121_k3": (478, 211),
        }

    def test_reduced_walks_are_diagrams(self):
        diagrams = []
        for d in corpus().values():
            diagrams += [d, cable(d, [2] * d.n)]
        for seed in range(3):
            diagrams += [products(4, (3, 2, 2), seed), products(5, (2, 2, 2, 1), seed)]
        for d in diagrams:
            r = reduced(d)
            # parse_pd rejects walk data that no planar diagram realizes
            assert canonical_form(parse_pd(to_pd_json(r))) == canonical_form(r)
            assert reduced(r) is r
            assert r.crossing_count <= d.crossing_count
