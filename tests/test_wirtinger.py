import itertools

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from milnor import magnus, wirtinger
from milnor.classify import injection_generator, surjection_generator, whitehead_link
from milnor.diagram import (
    cable,
    closure,
    reduced,
    stack,
    stack_all,
    trivial_link,
    trivial_string_link,
    with_kink,
)
from milnor.freegroup import Word
from milnor.invariants import evaluate, indices_up_to
from milnor.magnus import NUMPY_SPLITS, Basis, dense, expand
from milnor.multiindex import Injection, selfdelta_generator_indices
from milnor.tangles import commutator_tangle, from_braid, tree_tangle
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
        # one Wirtinger arc per component, each closing on itself
        assert len(p.arcs) == 2 and len(p.relations) == 2

    def test_counts_match_crossings(self):
        d = tree_tangle(3, (1, 2, 3))
        p = presentation(d)
        assert len(p.relations) == d.crossing_count


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
                series = longitude_series(kinked, {1, 2, 3}, basis)
                raw = {i: series[i[-1]].coefficient(i[:-1]) for i in indices}
                assert raw == want, (comp, sign, at)

    def test_series_matches_word(self):
        for d in corpus():
            comps = range(1, d.n + 1)
            for depth, q in [(2, 1), (3, 2)]:
                series = longitude_series(d, set(comps), dense(d.n, q))
                for comp in comps:
                    want = expand(longitude_word(d, comp, depth), q)
                    assert series[comp] == want

    def test_depth_stability(self):
        # the depth-by-depth oracle is stable below its depth, and the graded
        # walk equals it at depth q + 1
        for d in corpus():
            q = 3
            graded = longitude_series(d, set(range(1, d.n + 1)), dense(d.n, q))
            for comp in range(1, d.n + 1):
                lo = oracles.longitude_series(d, comp, 4, dense(d.n, q))
                hi = oracles.longitude_series(d, comp, 5, dense(d.n, q))
                assert graded[comp] == lo
                for deg in range(q):
                    for mono in itertools.product(range(1, d.n + 1), repeat=deg):
                        assert lo.coefficient(mono) == hi.coefficient(mono)

    def test_component_range(self):
        with pytest.raises(ValueError):
            longitude_word(trivial_link(2), 3, 2)
        with pytest.raises(ValueError):
            longitude_series(trivial_link(2), {1, 3}, dense(2, 1))

    def test_commutator_tangle_contract(self):
        # the target longitude's expansion agrees with the word's on
        # monomials avoiding the target variable
        w = oracles.commutator(Word(3, (1,)), Word(3, (2,)))
        t = commutator_tangle(w, 3, 3)
        series = longitude_series(t, {3}, dense(3, 2))[3]
        ref = expand(w, 2)
        for mono in itertools.product((1, 2), repeat=2):
            assert series.coefficient(mono) == ref.coefficient(mono)


# -- the graded walk against the depth-by-depth oracle ------------------------


@st.composite
def kinked_pure_braids(draw):
    """An open or closed pure braid on 2-3 strands, a product of conjugated
    squares of generators, with R2 bigons spliced into its word and R1 kinks
    drawn on its walk.  Nothing is reduced: ``longitude_series`` reads the
    walk it is given."""
    n = draw(st.integers(2, 3))
    letter = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    word = []
    for _ in range(draw(st.integers(0, 3))):
        conj, g = draw(st.lists(letter, max_size=2)), draw(letter)
        word += conj + [g, g] + [-x for x in reversed(conj)]
    for _ in range(draw(st.integers(0, 2))):
        g, at = draw(letter), draw(st.integers(0, len(word)))
        word[at:at] = [g, -g]
    d = from_braid(n, word, closed=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        comp = draw(st.integers(1, n))
        at = draw(st.integers(0, len(d.events[comp - 1])))
        d = with_kink(d, comp, draw(st.sampled_from([1, -1])), at)
    return d


def numpy_basis(n):
    """A dense basis on n = 2..4 variables large enough for the numpy kernel."""
    basis = dense(n, {2: 7, 3: 5, 4: 4}[n])
    assert basis.splits >= NUMPY_SPLITS
    return basis


@st.composite
def query_bases(draw, n):
    """A factor-closed basis on either side of NUMPY_SPLITS: injective,
    repetition at most 2, dense, the closure of random words, or large."""
    kind = draw(st.sampled_from(["injective", "r2", "dense", "random", "numpy"]))
    if kind == "numpy":
        return numpy_basis(n)
    q = draw(st.integers(1, 4))
    if kind == "random":
        word = st.lists(st.integers(1, n), min_size=1, max_size=q).map(tuple)
        return magnus.closure(n, draw(st.lists(word, min_size=1, max_size=6)))
    bound = {"injective": 1, "r2": 2, "dense": q}[kind]
    words = [w for w in dense(n, q).words if oracles.repeat_max(w) <= bound]
    return magnus.closure(n, words)


def graded(walk, basis):
    """The meridian rows of the graded walk of a walk table on basis."""
    return magnus.meridian_walk(basis, [comp for comp, _ in walk.arcs], walk.passages)


def assert_matches_oracle(d, basis):
    """Every meridian row and longitude on basis equals the oracle's at depth
    q + 1, and every row's degree-1 part is its component's X_comp: no
    passage changes degree 1."""
    walk = wirtinger._walk(d)
    rows = graded(walk, basis)
    assert rows == oracles.meridian_series(d, basis.q + 1, basis), (d, basis)
    for (comp, _), row in zip(walk.arcs, rows):
        linear = {w: c for w, c in row.monomials() if len(w) == 1}
        assert linear == ({(comp,): 1} if (comp,) in basis.pos else {})
    series = longitude_series(d, set(range(1, d.n + 1)), basis)
    for comp, got in series.items():
        want = oracles.longitude_series(d, comp, basis.q + 1, basis)
        assert got == want, (d, comp, basis)
        # the Python kernel holds Python integers
        assert not basis.small or all(type(c) is int for c in got.x)


@settings(max_examples=40, deadline=None)
@given(kinked_pure_braids(), st.data())
def test_graded_longitudes_match_the_depth_oracle(d, data):
    assert_matches_oracle(d, data.draw(query_bases(d.n)))


def presented_diagrams():
    """Pure braids (open or closed, kinked), tree tangles and closed braids
    on 2-3 strands."""
    trees = st.integers(2, 3).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=2, max_size=4)
        .filter(lambda leaves: oracles.repeat_max(leaves) <= 2)
        .map(lambda leaves: tree_tangle(n, leaves))
    )
    closed = st.integers(2, 3).flatmap(
        lambda n: st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=8).map(
            lambda word: from_braid(n, word, closed=True)
        )
    )
    return st.one_of(kinked_pure_braids(), trees, closed)


@settings(max_examples=40, deadline=None)
@given(presented_diagrams())
def test_presentation_relations_hold_on_the_graded_rows(d):
    # the graded walk solves each relation through degree 3, except a closed
    # component's closing one, which holds only in the nilpotent quotient
    p = presentation(d)
    walk = wirtinger._walk(d)
    m = graded(walk, dense(d.n, 3))
    assert p.arcs == walk.arcs and len(p.relations) == d.crossing_count
    for r in p.relations:
        if d.closed and p.arcs[r.out_arc][1] == 0:
            continue
        x, y, o = m[r.in_arc], m[r.out_arc], m[r.over_arc]
        if r.sign == 1:
            assert o * y == x * o, (d, r)
        else:
            assert y * o == o * x, (d, r)


def test_corpus_string_links_match_the_depth_oracle():
    # the r <= 2 query of each n = 2 string link; on the (1,2,3) injection
    # generator, queries on both kernels, read one after another so that
    # each replaces the state of the one before
    for d in [
        tree_tangle(2, (1, 2, 2)),
        *(surjection_generator(tau) for m in (3, 4) for tau in selfdelta_generator_indices(2, m)),
    ]:
        assert_matches_oracle(d, magnus.closure(2, [i[:-1] for i in indices_up_to(2, 4, 2)]))
    d = injection_generator(Injection(3, (1, 2, 3)))
    injective = magnus.closure(3, list(itertools.permutations((1, 2, 3), 2)))
    assert_matches_oracle(d, injective)
    assert_matches_oracle(d, numpy_basis(3))
    assert_matches_oracle(d, dense(3, 2))
    assert_matches_oracle(d, magnus.closure(3, [(1, 2, 3), (3, 1)]))


def test_cable_matches_the_depth_oracle():
    # the doubled Whitehead link on its injective query and on a numpy basis
    d = reduced(cable(whitehead_link(), [2, 2]))
    injective = magnus.closure(4, list(itertools.permutations(range(1, 5), 3)))
    assert_matches_oracle(d, injective)
    assert_matches_oracle(d, numpy_basis(4))


def graded_longitude(walk, rows, comp):
    """comp's longitude multiplied from the graded rows of a walk."""
    return wirtinger._longitude(walk, comp, rows, magnus.unit(rows[0].basis))


def values(rows):
    """The coefficients of graded rows, as lists of Python integers."""
    return [row.x if isinstance(row.x, list) else row.x.tolist() for row in rows]


class TestGradedOverflowGuard:
    """The int64 walk's guard bounds each degree's inner-split sums and the
    running sums along a walk.  The degree-1 parts of a positive braid's
    meridian rows, which every arc of a component starts with, are scaled
    to c times the component's generator, and degree 2 is walked on a
    numpy-kernel basis; the values must equal the same walk on the Python
    kernel exactly."""

    def walk(self, word, c, monkeypatch):
        # twenty variables make degree 2 alone a numpy-kernel split table;
        # X_3..X_20 stay zero
        walk = wirtinger._walk(from_braid(2, word))
        generator_series = magnus.generator_series

        def scaled(j, basis):
            # the walk's starting rows: every arc of component j starts as
            # 1 + c X_j
            s = generator_series(j, basis)
            s.x[basis.pos[(j,)]] = c
            return s

        monkeypatch.setattr(magnus, "generator_series", scaled)
        words = dense(20, 2).words
        fast = graded(walk, Basis(20, words))
        monkeypatch.setattr(magnus, "NUMPY_SPLITS", fast[0].basis.splits + 1)
        exact = graded(walk, Basis(20, words))
        assert not fast[0].basis.small and exact[0].basis.small
        assert values(fast) == values(exact)
        for comp in (1, 2):
            mine = dict(graded_longitude(walk, fast, comp).monomials())
            assert mine == dict(graded_longitude(walk, exact, comp).monomials())
        return fast[0].x.dtype, max(abs(v) for row in values(exact) for v in row)

    def test_near_bound_stays_int64(self, monkeypatch):
        # two passages add c**2 = 2**56 twice each: the bound is 2**58 + 1
        dtype, peak = self.walk([1, 1], 2**28, monkeypatch)
        assert dtype == magnus.np.int64 and peak == 2**56

    def test_segment_sums_cross(self, monkeypatch):
        # one inner-split product is 2**62, and two passages take a
        # coefficient past int64
        dtype, peak = self.walk([1, 1, 1, 1, -1, -1], 2**31, monkeypatch)
        assert dtype == object and peak >= 2**63

    def test_running_sum_crosses(self, monkeypatch):
        # each inner-split product is c**2 = 2**56, below the guard, but 256
        # passages of one sign add them up past int64
        dtype, peak = self.walk([1] * 512, 2**28, monkeypatch)
        assert dtype == object and peak >= 2**63


class TestOneExactnessRule:
    """The product, the quotient and the graded walk all ask ``magnus.fits``
    before an int64 step.  When it always refuses, each runs on Python
    integers (object dtype) and gives the Python kernel's values."""

    def test_every_int64_step_asks_the_rule(self, monkeypatch):
        import numpy as np

        walk = wirtinger._walk(from_braid(3, [1, 1, 2, 2, -1, -1]))
        words = numpy_basis(3).words
        fast = graded(walk, Basis(3, words))
        monkeypatch.setattr(magnus, "NUMPY_SPLITS", fast[0].basis.splits + 1)
        exact = graded(walk, Basis(3, words))
        monkeypatch.undo()
        assert not fast[0].basis.small and exact[0].basis.small
        # int64 rows of a meridian and the inverse of another as operands
        x, y = exact[1], exact[4].inverse()
        a, b = (magnus.Series(fast[0].basis, np.array(s.x, dtype=np.int64)) for s in (x, y))
        assert (a * b).x.dtype == (a / b).x.dtype == np.int64
        assert fast[0].x.dtype == np.int64
        monkeypatch.setattr(magnus, "fits", lambda start, l1, peak: False)
        for got, want in [(a * b, x * y), (a / b, x / y), (b / a, y / x)]:
            assert got.x.dtype == object and got.x.tolist() == want.x
        fast = graded(walk, Basis(3, words))
        assert fast[0].x.dtype == object and values(fast) == values(exact)
        for comp in (1, 2, 3):
            got = graded_longitude(walk, fast, comp)
            want = graded_longitude(walk, exact, comp)
            assert got.x.dtype == object and got.x.tolist() == want.x
