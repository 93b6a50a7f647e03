import itertools

import pytest

from milnor.classify import injection_generator
from milnor.diagram import (
    closure,
    from_braid,
    stack,
    stack_all,
    tree_tangle,
    trivial_link,
    trivial_string_link,
    with_kink,
)
from milnor.freegroup import Word
from milnor.invariants import evaluate, indices_up_to
from milnor.magnus import dense, expand
from milnor.multiindex import Injection
from milnor.wirtinger import (
    longitude_series,
    longitude_word,
    meridian_words,
    presentation,
)


def corpus():
    return [
        from_braid(2, [1, 1]),
        closure(from_braid(2, [1, 1])),
        tree_tangle(3, (1, 2, 3)),
        closure(tree_tangle(3, (1, 2, 3))),
        tree_tangle(2, (1, 2, 2)),
        closure(tree_tangle(2, (1, 2, 2))),
    ]


class TestPresentation:
    def test_trivial(self):
        p = presentation(trivial_link(3))
        assert len(p.arcs) == 3 and len(p.relations) == 0

    def test_hopf(self):
        h = closure(from_braid(2, [1, 1]))
        p = presentation(h)
        assert len(p.arcs) == 4 and len(p.relations) == 2

    def test_counts_match_crossings(self):
        d = tree_tangle(3, (1, 2, 3))
        p = presentation(d)
        assert len(p.relations) == d.crossing_count
        assert "x" in p.dump()


class TestMeridians:
    def test_depth_one_is_base(self):
        d = tree_tangle(3, (1, 2, 3))
        for (comp, arc), w in meridian_words(d, 1).items():
            assert w == Word(3, (comp,))

    def test_split_component_stays_base(self):
        d = stack(from_braid(3, [1, 1]), trivial_string_link(3))
        for depth in (1, 2, 3):
            words = meridian_words(d, depth)
            assert words[(3, 0)] == Word(3, (3,))

    def test_hopf_depth_two(self):
        h = closure(from_braid(2, [1, 1]))
        words = meridian_words(h, 2)
        # each component has a single arc here, the base meridian
        assert words[(1, 0)] == Word(2, (1,))
        # the string-link form shows the conjugated arc
        s = from_braid(2, [1, 1])
        words = meridian_words(s, 2)
        assert words[(2, 1)] in (
            Word(2, (1, 2, -1)),
            Word(2, (-1, 2, 1)),
        )

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            meridian_words(trivial_link(2), 0)


class TestLongitude:
    def test_trivial(self):
        assert longitude_word(trivial_link(3), 1, 3) == Word(3)

    def test_hopf_words(self):
        s = from_braid(2, [1, 1])
        assert longitude_word(s, 2, 2) == Word(2, (1,))
        # the other longitude is a conjugate of the opposite meridian
        w = longitude_word(s, 1, 2)
        assert w.exponent_sum(2) == 1 and w.exponent_sum(1) == 0
        assert expand(w, 1).coefficient((2,)) == 1

    def test_zero_framing_word_level(self):
        for d in corpus():
            for comp in range(1, d.n + 1):
                w = longitude_word(d, comp, 2)
                assert w.exponent_sum(comp) == 0

    def test_zero_framing_with_kinks(self):
        d = with_kink(with_kink(from_braid(2, [1, 1]), 1, 1), 1, 1, at=1)
        w = longitude_word(d, 1, 2)
        assert w.exponent_sum(1) == 0

    def test_kinks_keep_string_link_values(self):
        # a kink's longitude factor is x_i^(+-1) moved to the left of the
        # partial longitude, which a string link's longitude need not commute
        # with, so the framing correction must multiply on the left
        s = stack_all(
            [
                injection_generator(Injection(3, (2, 3)), -1),
                injection_generator(Injection(3, (1, 2, 3)), 1),
                injection_generator(Injection(3, (1, 2, 3)), -1),
            ],
            3,
        )
        indices = list(indices_up_to(3, 4, 2))
        basis = dense(3, 3)
        want = evaluate(s, indices)
        assert want[(2, 3)] == -1 and want[(2, 3, 3)] == 1
        for comp in (1, 2, 3):
            length = len(s.events[comp - 1])
            for at, sign in [(0, 1), (length // 2, -1), (length, 1), (1, -1)]:
                kinked = with_kink(s, comp, sign, at)
                assert evaluate(kinked, indices) == want, (comp, sign, at)
                raw = {
                    i: longitude_series(kinked, i[-1], 4, basis).coefficient(i[:-1])
                    for i in indices
                }
                assert raw == want, (comp, sign, at)

    def test_series_matches_word(self):
        for d in corpus():
            for comp in range(1, d.n + 1):
                for depth, q in [(2, 1), (3, 2)]:
                    s = longitude_series(d, comp, depth, dense(d.n, q))
                    assert s == expand(longitude_word(d, comp, depth), q)

    def test_depth_stability(self):
        for d in corpus():
            for comp in range(1, d.n + 1):
                q = 3
                lo = longitude_series(d, comp, 4, dense(d.n, q))
                hi = longitude_series(d, comp, 5, dense(d.n, q))
                for deg in range(q):
                    for mono in itertools.product(range(1, d.n + 1), repeat=deg):
                        assert lo.coefficient(mono) == hi.coefficient(mono)

    def test_component_range(self):
        with pytest.raises(ValueError):
            longitude_word(trivial_link(2), 3, 2)

    def test_commutator_tangle_contract(self):
        # the target longitude's expansion agrees with the word's on
        # monomials avoiding the target variable
        from milnor.diagram import commutator_tangle
        from milnor.freegroup import commutator, generator

        w = commutator(generator(3, 1), generator(3, 2))
        t = commutator_tangle(w, 3, 3)
        series = longitude_series(t, 3, 3, dense(3, 2))
        ref = expand(w, 2)
        for mono in itertools.product((1, 2), repeat=2):
            assert series.coefficient(mono) == ref.coefficient(mono)
