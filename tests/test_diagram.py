import itertools
import json
import random

import pytest

from milnor.diagram import (
    Diagram,
    DiagramError,
    braid_permutation,
    cable,
    cable_map,
    closure,
    commutator_tangle,
    cut_open,
    from_braid,
    invert,
    load_diagram,
    parse_pd,
    power,
    reduced,
    run_slices,
    stack,
    to_pd_json,
    tree_tangle,
    trivial_link,
    trivial_string_link,
    with_kink,
)
from milnor.classify import (
    HomotopyNormalForm,
    milnor_link,
    surjection_generator,
    whitehead_link,
)
from milnor.freegroup import Word, commutator, generator
from milnor.multiindex import all_injections, selfdelta_generator_indices
from milnor import invariants, wirtinger


def oracle_linking(d, i, j):
    """Half the signed count of crossings between two components."""
    total = 0
    for c in d.crossings:
        if {c.over[0], c.under[0]} == {i, j}:
            total += c.sign
    assert total % 2 == 0
    return total // 2


class TestBraids:
    def test_empty_is_trivial(self):
        assert from_braid(3, []).canonical_form() == trivial_string_link(
            3
        ).canonical_form()

    def test_clasp_signs(self):
        s = from_braid(2, [1, 1])
        assert s.signs == (1, 1)
        assert s.linking_number(1, 2) == 1 == oracle_linking(s, 1, 2)

    def test_negative_clasp(self):
        s = from_braid(2, [-1, -1])
        assert s.signs == (-1, -1)
        assert s.linking_number(1, 2) == -1

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

    def test_closure_keeps_name(self):
        assert from_braid(2, [1, 1], closed=True, name="hopf").name == "hopf"


class TestStack:
    def test_unit(self):
        s = from_braid(2, [1, 1])
        assert stack(s, trivial_string_link(2)).canonical_form() == s.canonical_form()
        assert stack(trivial_string_link(2), s).canonical_form() == s.canonical_form()

    def test_additive_linking(self):
        s = from_braid(2, [1, 1])
        assert stack(s, s).linking_number(1, 2) == 2

    def test_associative(self):
        a = from_braid(3, [1, 1])
        b = from_braid(3, [2, 2])
        c = tree_tangle(3, (1, 2, 3))
        lhs = stack(stack(a, b), c)
        rhs = stack(a, stack(b, c))
        assert lhs.canonical_form() == rhs.canonical_form()

    def test_mismatch(self):
        with pytest.raises(DiagramError):
            stack(trivial_string_link(2), trivial_string_link(3))

    def test_power_inverse(self):
        s = from_braid(2, [1, 1])
        assert power(s, -1).canonical_form() == invert(s).canonical_form()
        assert power(s, 0).canonical_form() == trivial_string_link(2).canonical_form()
        z = stack(s, invert(s))
        assert invariants.mu(z, (1, 2)) == 0


class TestClosure:
    def test_trivial(self):
        c = closure(trivial_string_link(3))
        assert c.closed and c.n == 3 and c.crossing_count == 0

    def test_hopf(self):
        h = closure(from_braid(2, [1, 1]))
        assert invariants.mu_bar(h, (1, 2)) == invariants.Residue(1, 0)

    def test_isomorphic_to_rebased(self):
        h = closure(from_braid(2, [1, 1]))
        rolled = Diagram(
            2,
            [list(h.events[0][1:]) + list(h.events[0][:1]), list(h.events[1])],
            h.signs,
            closed=True,
        )
        assert h.is_isomorphic(rolled)
        assert not h.is_isomorphic(closure(from_braid(2, [-1, -1])))

    def test_cut_open_roundtrip(self):
        s = tree_tangle(2, (1, 2, 2))
        assert cut_open(closure(s)).canonical_form() == s.canonical_form()


class TestKinks:
    def test_writhe(self):
        s = with_kink(trivial_string_link(2), 1, 1)
        assert s.writhe(1) == 1 and s.writhe(2) == 0

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
        assert c.linking_number(1, 2) == 0
        assert c.linking_number(3, 4) == 0
        assert c.linking_number(1, 3) == 1

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
            assert parse_pd(to_pd_json(c)).canonical_form() == c.canonical_form()
            for i, j in itertools.combinations(range(1, c.n + 1), 2):
                if c.source_component[i - 1] == c.source_component[j - 1]:
                    assert c.linking_number(i, j) == 0

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
        assert t.canonical_form() == trivial_string_link(3).canonical_form()

    def test_single_letter(self):
        t = commutator_tangle(generator(2, 1), 2, 2)
        assert invariants.mu(t, (1, 2)) == 1

    def test_single_inverse_letter(self):
        t = commutator_tangle(generator(2, 1).inverse(), 2, 2)
        assert invariants.mu(t, (1, 2)) == -1

    def test_commutator_word(self):
        w = commutator(generator(3, 1), generator(3, 2))
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
        series = wirtinger.longitude_series(t, 4, dense(4, 2))
        ref = expand(w, 2)
        for mono in itertools.product((1, 2, 3), repeat=2):
            assert series.coefficient(mono) == ref.coefficient(mono)

    def test_rejects_target_mention(self):
        with pytest.raises(DiagramError):
            commutator_tangle(generator(2, 2), 2, 2)

    def test_rejects_bad_target(self):
        with pytest.raises(DiagramError):
            commutator_tangle(Word(2), 3, 2)


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


class TestPDFiles:
    def test_roundtrip_stringlink(self):
        s = tree_tangle(2, (1, 2, 2))
        again = parse_pd(json.dumps(to_pd_json(s)))
        assert again.canonical_form() == s.canonical_form()

    def test_roundtrip_closed(self):
        for d in [
            closure(from_braid(2, [1, 1])),
            closure(tree_tangle(3, (1, 2, 3))),
            trivial_link(3),
            with_kink(closure(from_braid(2, [1, 1])), 1, -1),
        ]:
            again = parse_pd(to_pd_json(d))
            assert again.canonical_form() == d.canonical_form()

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
            assert parse_pd(to_pd_json(d)).canonical_form() == d.canonical_form()

    def test_braid_file(self):
        d = load_diagram({"strands": 2, "word": [1, 1], "kind": "closure"})
        assert d.closed and d.n == 2
        s = load_diagram({"strands": 2, "word": [1, 1], "kind": "stringlink"})
        assert not s.closed
        with pytest.raises(DiagramError):
            load_diagram({"strands": 2, "word": [1], "kind": "stringlink"})


def corpus():
    """The links ``scripts/generate_corpus.py`` writes, by name."""
    items = {
        "trivial2": trivial_link(2),
        "trivial3": trivial_link(3),
        "hopf": closure(from_braid(2, [1, 1])),
        "whitehead": whitehead_link(),
        "milnor3": milnor_link(3),
        "milnor4": milnor_link(4),
    }
    for n in (2, 3):
        for m in range(n + 1, 2 * n + 1):
            for tau in selfdelta_generator_indices(n, m):
                name = f"vtau_n{n}_{''.join(map(str, tau.values))}_k{tau.k}"
                items[name] = closure(surjection_generator(tau))
    return items


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
            assert reduced(kinked).canonical_form() == s.canonical_form()

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
            assert parse_pd(to_pd_json(r)).canonical_form() == r.canonical_form()
            assert reduced(r) is r
            assert r.crossing_count <= d.crossing_count
