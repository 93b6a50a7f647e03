import itertools
import json
import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import repeat_max, shuffles

from milnor.classify import (
    injection_generator,
    milnor_link,
    surjection_generator,
    whitehead_link,
)
from milnor.diagram import (
    cable,
    cable_map,
    closure,
    reduced,
    stack,
    trivial_link,
    trivial_string_link,
    with_kink,
)
from milnor.invariants import (
    Residue,
    evaluate,
    indeterminacy,
    indices_up_to,
    invariant,
    mu,
    mu_bar,
    residues,
    table,
)
from milnor.magnus import dense
from milnor.multiindex import Injection, selfdelta_generator_indices
from milnor.tangles import braid_permutation, from_braid, tree_tangle
from milnor.wirtinger import longitude_series


def hopf():
    return closure(from_braid(2, [1, 1]))


def borromean():
    return closure(tree_tangle(3, (1, 2, 3)))


def whitehead():
    return closure(tree_tangle(2, (1, 2, 2)))


def stacked_clasps():
    # linking number 2, so the length-3 values are residues mod 2
    return closure(stack(from_braid(2, [1, 1]), from_braid(2, [1, 1])))


@st.composite
def pure_braid_words(draw):
    strands = draw(st.integers(2, 3))
    letter = st.integers(1, strands - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    word = draw(st.lists(letter, max_size=4))
    assume(braid_permutation(strands, word) == list(range(1, strands + 1)))
    return strands, word


class TestResidue:
    def test_normalization(self):
        assert Residue(7, 5) == Residue(2, 5)
        assert Residue(-1, 5).value == 4
        assert Residue(3, 1) == Residue(0, 1)
        assert Residue(-2, 0).value == -2

    def test_zero(self):
        assert Residue(0, 0).is_zero()
        assert Residue(5, 5).is_zero()
        assert not Residue(1, 0).is_zero()

    def test_str(self):
        assert str(Residue(1, 0)) == "1 (mod 0)"

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Residue(1, -2)


class TestMuString:
    def test_trivial(self):
        t = trivial_string_link(3)
        for index in [(1, 2), (1, 2, 3), (1, 1, 2)]:
            assert mu(t, index) == 0

    def test_clasp(self):
        assert mu(from_braid(2, [1, 1]), (1, 2)) == 1

    def test_generator_diagonal(self):
        assert mu(tree_tangle(3, (1, 2, 3)), (1, 2, 3)) == 1

    def test_index_validation(self):
        with pytest.raises(ValueError):
            mu(trivial_string_link(2), (1,))
        with pytest.raises(ValueError):
            mu(trivial_string_link(2), (1, 3))
        with pytest.raises(ValueError):
            mu(hopf(), (1, 2))


@pytest.mark.parametrize(
    "query, link",
    [
        (evaluate, from_braid(2, [1, 1])),
        (mu, from_braid(2, [1, 1])),
        (invariant, from_braid(2, [1, 1])),
        (residues, hopf()),
        (mu_bar, hopf()),
        (indeterminacy, hopf()),
    ],
)
@pytest.mark.parametrize("entry", [1.9, True, "1", 1.0], ids=repr)
def test_index_entries_are_integers(query, link, entry):
    index = (entry, 2)
    args = (link, [index]) if query in (evaluate, residues) else (link, index)
    with pytest.raises(ValueError, match="is not an integer"):
        query(*args)


class TestIndeterminacy:
    def test_borromean(self):
        assert indeterminacy(borromean(), (1, 2, 3)) == 0

    def test_hopf_length3(self):
        # deletions of (1,2,2) give linking-number subindices with value 1
        assert indeterminacy(hopf(), (1, 2, 2)) == 1

    def test_trivial(self):
        assert indeterminacy(trivial_link(2), (1, 2, 2)) == 0


class TestMuBar:
    def test_hopf(self):
        assert mu_bar(hopf(), (1, 2)) == Residue(1, 0)

    def test_borromean_table(self):
        b = borromean()
        assert mu_bar(b, (1, 2, 3)) == Residue(1, 0)
        assert mu_bar(b, (2, 1, 3)) == Residue(-1, 0)
        for i, j in itertools.permutations((1, 2, 3), 2):
            assert mu_bar(b, (i, j)).is_zero()

    def test_residue_wraps(self):
        r = mu_bar(stacked_clasps(), (1, 2, 2))
        assert r.modulus == 2

    def test_uniform_access(self):
        assert invariant(hopf(), (1, 2)) == Residue(1, 0)
        assert invariant(from_braid(2, [1, 1]), (1, 2)) == Residue(1, 0)

    def test_residues_need_a_closed_link(self):
        with pytest.raises(ValueError, match="residue invariants are defined for closed links"):
            residues(from_braid(2, [1, 1]), [(1, 2)])


class TestTable:
    def test_trivial_all_zero(self):
        t = table(closure(trivial_string_link(3)), 4, 2)
        assert all(r.is_zero() for r in t.entries.values())

    def test_borromean_nonzero_rows(self):
        t = table(borromean(), 3, 1)
        nz = t.nonzero()
        assert set(nz) == set(itertools.permutations((1, 2, 3)))
        assert nz[(1, 2, 3)] == Residue(1, 0)

    def test_filters_and_order(self):
        t = table(hopf(), 3, 2)
        indices = [i for i, _ in t.entries.items()]
        assert indices == sorted(indices, key=lambda i: (len(i), i))
        assert all(len(i) <= 3 for i in indices)
        t1 = table(hopf(), 3, 1)
        assert all(len(set(i)) == len(i) for i in t1.entries)

    def test_matches_single_queries(self):
        b = borromean()
        t = table(b, 3, 2)
        for index, r in t.entries.items():
            assert r == mu_bar(b, index)

    def test_json_shape(self):
        t = table(hopf(), 2, 1)
        data = t.to_json()
        assert data["invariants"] == [
            {"index": "12", "value": 1, "modulus": 0},
            {"index": "21", "value": 1, "modulus": 0},
        ]
        json.dumps(data)

    def test_text(self):
        text = table(hopf(), 2, 1).to_text()
        assert "12: 1 (mod 0)" in text

    @pytest.mark.parametrize("make", [lambda: milnor_link(4), stacked_clasps])
    def test_assembles_as_residues(self, make):
        # table hands its index set to the gcd assembly without closing it
        link = make()
        t = table(link, 2 * link.n, 2)
        assert list(t.entries) == list(indices_up_to(link.n, 2 * link.n, 2))
        assert t.entries == residues(link, t.entries)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([
            (n, max_len, max_r)
            for n in range(1, 6) for max_len in range(2, 2 * n + 1) for max_r in range(1, 4)
            # a bound on the words enumerated: every n <= 4, and n = 5 to length 7
            if n ** min(max_len, n * max_r) <= 10**5
        ])
    )
    def test_indices_are_closed_under_deletion(self, query):
        indices = list(indices_up_to(*query))
        have = set(indices)
        assert len(have) == len(indices)
        for index in indices:
            if len(index) > 2:
                assert all(index[:k] + index[k + 1 :] in have for k in range(len(index)))

    def test_validation(self):
        with pytest.raises(ValueError):
            table(hopf(), 1, 1)
        with pytest.raises(ValueError):
            table(hopf(), 2, 0)


def reference_value(d, index):
    """The coefficient read at the index's own depth."""
    comp = index[-1]
    series = longitude_series(d, {comp}, dense(d.n, len(index) - 1))[comp]
    return series.coefficient(index[:-1])


def reference_residue(l, index, cyclic):
    """Delta by brute force over every deletion mask, with Milnor's cyclic
    rotations of each deletion when ``cyclic`` is set."""
    m = len(index)
    subs = set()
    for mask in range(1, 2**m - 1):
        sub = tuple(index[i] for i in range(m) if mask >> i & 1)
        if len(sub) >= 2:
            subs.update(sub[r:] + sub[:r] for r in range(len(sub) if cyclic else 1))
    g = 0
    for sub in subs:
        g = math.gcd(g, reference_value(l, sub))
    return Residue(reference_value(l, index), g)


class TestAgainstReference:
    # deletions alone give Milnor's gcd over deletions and their rotations
    @pytest.mark.parametrize("cyclic", [True, False])
    @pytest.mark.parametrize("make", [hopf, whitehead, borromean, stacked_clasps])
    def test_residues(self, make, cyclic):
        indices = list(indices_up_to(make().n, 4, 2))
        got = residues(make(), indices)
        ref = make()
        assert got == {i: reference_residue(ref, i, cyclic) for i in indices}

    @settings(max_examples=25, deadline=None)
    @given(pure_braid_words())
    def test_residues_closed_pure_braids(self, braid):
        strands, word = braid
        indices = list(indices_up_to(strands, 4, 2))
        got = residues(closure(from_braid(strands, word)), indices)
        ref = closure(from_braid(strands, word))
        assert got == {i: reference_residue(ref, i, True) for i in indices}

    def test_evaluate_mixed_lengths(self):
        def make():
            return stack(from_braid(3, [1, 1, 2, 2]), tree_tangle(3, (1, 2, 3)))

        indices = list(indices_up_to(3, 4, 2))[::-1]
        got = evaluate(make(), indices)
        ref = make()
        assert got == {i: reference_value(ref, i) for i in indices}
        assert {len(i) for i, v in got.items() if v} == {2, 3, 4}


# string links of the corpus: Whitehead's, the n=2 self-delta generators
# and the (1,2,3) injection generator
STRING_LINKS = [
    tree_tangle(2, (1, 2, 2)),
    *(
        surjection_generator(tau)
        for m in (3, 4)
        for tau in selfdelta_generator_indices(2, m)
    ),
    injection_generator(Injection(3, (1, 2, 3))),
]


@st.composite
def reidemeister_moves(draw, n):
    """One to three moves: ("kink", component, sign, place) inserts an R1
    curl, ("bigon", generator, sign, place) an R2 bigon between strands
    ``generator`` and ``generator + 1``; ``place`` picks the position."""
    place = st.integers(0, 500)
    sign = st.sampled_from([1, -1])
    kink = st.tuples(st.just("kink"), st.integers(1, n), sign, place)
    bigon = st.tuples(st.just("bigon"), st.integers(1, n - 1), sign, place)
    return draw(st.lists(st.one_of(kink, bigon), min_size=1, max_size=3))


def with_kinks(d, moves):
    for kind, comp, sign, place in moves:
        if kind == "kink":
            d = with_kink(d, comp, sign, place % (len(d.events[comp - 1]) + 1))
    return d


def assert_reidemeister_invariant(original, moved):
    """(a) the table is unchanged, (b) the moves reduce away, (c) evaluation
    on the reduced walk agrees with the unreduced longitudes: exactly on a
    string link, modulo the indeterminacy on a closed link."""
    assert table(moved, 4, 2) == table(original, 4, 2)
    assert reduced(moved).crossing_count <= reduced(original).crossing_count
    indices = list(indices_up_to(moved.n, 4, 2))
    if moved.closed:
        ref = {i: reference_residue(moved, i, False) for i in indices}
        assert residues(moved, indices) == ref
    else:
        ref = {i: reference_value(moved, i) for i in indices}
        assert evaluate(moved, indices) == ref


class TestReidemeister:
    @settings(max_examples=30, deadline=None)
    @given(pure_braid_words(), st.data())
    def test_closed_pure_braids(self, braid, data):
        strands, word = braid
        moves = data.draw(reidemeister_moves(strands))
        moved = list(word)
        for kind, gen, sign, place in moves:
            if kind == "bigon":
                at = place % (len(moved) + 1)
                moved[at:at] = [sign * gen, -sign * gen]
        original = closure(from_braid(strands, word))
        moved = with_kinks(closure(from_braid(strands, moved)), moves)
        assert_reidemeister_invariant(original, moved)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(STRING_LINKS), st.data())
    def test_corpus_string_links(self, original, data):
        moves = data.draw(reidemeister_moves(original.n))
        moved = original
        for kind, gen, sign, place in moves:
            if kind == "bigon":
                bigon = from_braid(original.n, [sign * gen, -sign * gen])
                moved = stack(bigon, moved) if place % 2 else stack(moved, bigon)
        moved = with_kinks(moved, moves)
        assert_reidemeister_invariant(original, moved)


@st.composite
def r3_pairs(draw, pure):
    """Two braid words on 3-4 strands that differ by one R3 move: random
    letters, then s_i s_(i+1) s_i or s_(i+1) s_i s_(i+1) with one sign, then
    random letters; for ``pure`` the words end with letters that undo their
    permutation."""
    strands = draw(st.integers(3, 4))
    letter = st.integers(1, strands - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    before, after = draw(st.lists(letter, max_size=3)), draw(st.lists(letter, max_size=3))
    i, s = draw(st.integers(1, strands - 2)), draw(st.sampled_from([1, -1]))
    left = before + [s * i, s * (i + 1), s * i]
    right = before + [s * (i + 1), s * i, s * (i + 1)]
    perm = braid_permutation(strands, left + after)
    while pure and perm != sorted(perm):
        p = next(p for p in range(strands - 1) if perm[p] > perm[p + 1])
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
        after.append(draw(st.sampled_from([1, -1])) * (p + 1))
    return strands, left + after, right + after


class TestR3:
    @settings(max_examples=75, deadline=None)
    @given(r3_pairs(pure=True))
    def test_pure_braids_exact(self, pair):
        strands, left, right = pair
        indices = list(indices_up_to(strands, 5, 2))
        assert evaluate(from_braid(strands, left), indices) == evaluate(
            from_braid(strands, right), indices
        )

    @settings(max_examples=75, deadline=None)
    @given(r3_pairs(pure=False))
    def test_closures_residues(self, pair):
        strands, left, right = pair
        a = from_braid(strands, left, closed=True)
        b = from_braid(strands, right, closed=True)
        indices = list(indices_up_to(a.n, 4, 2))
        assert a.n == b.n and residues(a, indices) == residues(b, indices)


def assert_matches_dense(d, indices):
    """``evaluate`` on the query's factor closure equals the coefficients of
    the dense expansion at (depth, depth - 1) on the same reduced walk."""
    depth = max(len(i) for i in indices)
    comps = {i[-1] for i in indices}
    series = longitude_series(reduced(d), comps, dense(d.n, depth - 1))
    want = {i: series[i[-1]].coefficient(i[:-1]) for i in indices}
    assert evaluate(d, indices) == want


def index_batches(n, max_len):
    index = st.lists(st.integers(1, n), min_size=2, max_size=max_len).map(tuple)
    return st.lists(index, min_size=1, max_size=8)


class TestAgainstDense:
    @settings(max_examples=30, deadline=None)
    @given(pure_braid_words(), st.data())
    def test_closed_pure_braids(self, braid, data):
        strands, word = braid
        indices = data.draw(index_batches(strands, 5))
        assert_matches_dense(closure(from_braid(strands, word)), indices)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(STRING_LINKS), st.data())
    def test_corpus_string_links(self, d, data):
        assert_matches_dense(d, data.draw(index_batches(d.n, 5)))

    def test_repetition_bounded_tables(self):
        # the two index sets the classifications read: r = 1 and r <= 2
        for d in STRING_LINKS:
            for max_r in (1, 2):
                assert_matches_dense(d, list(indices_up_to(d.n, 2 * d.n, max_r)))


class TestIndicesUpTo:
    def test_counts(self):
        idx = list(indices_up_to(2, 3, 1))
        assert idx == [(1, 2), (2, 1)]
        idx2 = list(indices_up_to(2, 2, 2))
        assert idx2 == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_matches_the_filter_over_all_words(self):
        for n in range(1, 5):
            for max_r in (1, 2, 3):
                want = [
                    index
                    for ln in range(2, 9)
                    for index in itertools.product(range(1, n + 1), repeat=ln)
                    if repeat_max(index) <= max_r
                ]
                for max_len in range(2, 9):
                    got = list(indices_up_to(n, max_len, max_r))
                    assert got == [i for i in want if len(i) <= max_len]


@lru_cache(maxsize=None)
def infiltration(u, v):
    """The infiltration product u ^ v of two words as {word: multiplicity}:
    u ^ () = u, () ^ v = v and, for letters a and b, ua ^ vb =
    (u ^ vb)a + (ua ^ v)b + [a = b](u ^ v)a (Chen, Fox and Lyndon, Free
    differential calculus IV, 1958).  Its top-degree part is the shuffle."""
    if not u or not v:
        return {u + v: 1}
    out = Counter()
    for w, c in infiltration(u[:-1], v).items():
        out[w + u[-1:]] += c
    for w, c in infiltration(u, v[:-1]).items():
        out[w + v[-1:]] += c
    if u[-1] == v[-1]:
        for w, c in infiltration(u[:-1], v[:-1]).items():
            out[w + u[-1:]] += c
    return dict(out)


@st.composite
def string_links(draw):
    """A pure braid on 2-4 strands, a product of conjugated squares of
    generators, sometimes stacked with a tree tangle."""
    n = draw(st.integers(2, 4))
    letter = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    word = []
    for _ in range(draw(st.integers(1, 3))):
        conj, g = draw(st.lists(letter, max_size=2)), draw(letter)
        word += conj + [g, g] + [-x for x in reversed(conj)]
    d = from_braid(n, word)
    if draw(st.booleans()):
        leaves = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(2, n))]
        d = stack(d, tree_tangle(n, leaves))
    return d


def lifts(index):
    """The two indices on the 2-parallel that the cable map sends to
    ``index``: the first occurrence of i goes to copy 2i - 1 and the second
    to copy 2i, or the other way round."""
    seen = Counter()
    one, other = [], []
    for i in index:
        seen[i] += 1
        one.append(2 * i - 2 + seen[i])
        other.append(2 * i + 1 - seen[i])
    return tuple(one), tuple(other)


def assert_parallel_copies(l):
    """Milnor, Isotopy of links (1957), Thm. 7: each lift of an index with
    r <= 2 to the zero-framed 2-parallel has the index's residue class."""
    indices = list(indices_up_to(l.n, min(2 * l.n, 5), 2))
    want = residues(l, indices)
    lifted = {index: lifts(index) for index in indices}
    got = residues(cable(l, [2] * l.n), [j for js in lifted.values() for j in js])
    for index, js in lifted.items():
        assert [got[j] for j in js] == [want[index]] * 2, index


# closed corpus links on at most 3 components and under 100 crossings
SMALL_CLOSED = {
    "hopf": hopf(),
    "whitehead": whitehead_link(),
    "milnor3": milnor_link(3),
    "trivial2": trivial_link(2),
    "trivial3": trivial_link(3),
    **{
        f"vtau_n{n}_{''.join(map(str, tau.values))}_k{tau.k}": closure(
            surjection_generator(tau)
        )
        for n in (2, 3)
        for m in range(n + 1, 2 * n + 1)
        for tau in selfdelta_generator_indices(n, m)
    },
}
SMALL_CLOSED = {name: l for name, l in SMALL_CLOSED.items() if l.crossing_count < 100}


@st.composite
def kinked_closed_braids(draw, strands=(2, 3), kinks=(1, 3)):
    """The closure of a braid word on the given range of strands with the
    given range of kinks."""
    strands = draw(st.integers(*strands))
    letter = st.integers(1, strands - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    l = from_braid(strands, draw(st.lists(letter, max_size=6)), closed=True)
    for _ in range(draw(st.integers(*kinks))):
        comp = draw(st.integers(1, l.n))
        at = draw(st.integers(0, len(l.events[comp - 1])))
        l = with_kink(l, comp, draw(st.sampled_from([1, -1])), at)
    return l


class TestTheorems:
    @settings(max_examples=60, deadline=None)
    @given(string_links(), st.data())
    def test_infiltration_product(self, d, data):
        # the Magnus expansion of a longitude is group-like, so its
        # coefficients multiply by the infiltration product:
        # sum over H of (I ^ J)_H mu(Hk) = mu(Ik) mu(Jk)
        entry = st.integers(1, d.n)
        i = tuple(data.draw(st.lists(entry, min_size=1, max_size=3)))
        j = tuple(data.draw(st.lists(entry, min_size=1, max_size=2)))
        k = data.draw(entry)
        product = infiltration(i, j)
        values = evaluate(d, [i + (k,), j + (k,)] + [h + (k,) for h in product])
        lhs = sum(c * values[h + (k,)] for h, c in product.items())
        assert lhs == values[i + (k,)] * values[j + (k,)]

    def test_additivity_on_generators(self):
        # both factors have vanishing invariants below their own level, so
        # stacking adds values through the sum of the windows
        a = tree_tangle(3, (1, 2, 3))
        b = stack(a, a)
        for index in itertools.permutations((1, 2, 3)):
            assert mu(b, index) == 2 * mu(a, index)

    def test_additivity_mixed_levels(self):
        clasp = from_braid(3, [1, 1])  # linking 12 only, vanishing below 2
        gen = tree_tangle(3, (1, 2, 3))  # vanishing below 3
        s = stack(clasp, gen)
        for index in [(1, 2), (1, 3), (2, 3)]:
            assert mu(s, index) == mu(clasp, index) + mu(gen, index)
        assert mu(s, (1, 2, 3)) == mu(clasp, (1, 2, 3)) + mu(gen, (1, 2, 3))

    def test_cabling_pullback(self):
        h = hopf()
        c = cable(h, (2, 1))
        hmap = cable_map(h, (2, 1))
        for index in indices_up_to(3, 3, 2):
            pulled = tuple(hmap[i - 1] for i in index)
            assert mu_bar(c, index) == mu_bar(h, pulled)

    @pytest.mark.parametrize("name", sorted(SMALL_CLOSED))
    def test_parallel_copies_corpus(self, name):
        assert_parallel_copies(SMALL_CLOSED[name])

    @settings(max_examples=60, deadline=None)
    @given(kinked_closed_braids())
    def test_parallel_copies_kinked_braids(self, l):
        assert_parallel_copies(l)

    @settings(max_examples=60, deadline=None)
    @given(kinked_closed_braids(kinks=(0, 2)), st.data())
    def test_mixed_cables_kinked_braids(self, l, data):
        # Milnor, Isotopy of links (1957), Thm. 7: on the zero-framed cable
        # each r = 1 index has the residue of its image under the cable map;
        # two copies of one source have linking number 0
        mult = data.draw(st.lists(st.integers(1, 3), min_size=l.n, max_size=l.n))
        c, h = cable(l, mult), cable_map(l, mult)
        pairs = list(itertools.combinations(range(1, c.n + 1), 2))
        triples = list(itertools.permutations(range(1, c.n + 1), 3))
        image = {index: tuple(h[i - 1] for i in index) for index in pairs + triples}
        got = residues(c, pairs + triples)
        want = residues(l, sorted({image[index] for index in triples} | {
            image[index] for index in pairs if len(set(image[index])) == 2
        }))
        for index in pairs:
            source = image[index]
            assert got[index] == (Residue(0, 0) if source[0] == source[1] else want[source])
        for index in triples:
            assert got[index] == want[image[index]], index

    def test_cyclic_symmetry(self):
        for l in [hopf(), borromean(), whitehead()]:
            for index in indices_up_to(l.n, 4, 3):
                rot = index[1:] + index[:1]
                assert mu_bar(l, index) == mu_bar(l, rot)

    @settings(max_examples=40, deadline=None)
    @given(kinked_closed_braids(strands=(2, 4), kinks=(0, 2)))
    def test_cyclic_symmetry_kinked_braids(self, l):
        # Milnor, Isotopy of links (1957), Thm. 6: mu-bar is invariant under
        # cyclic permutation of its index
        indices = list(indices_up_to(l.n, 4, 2))
        got = residues(l, indices)
        for index in indices:
            assert got[index] == got[index[1:] + index[:1]], index

    @settings(max_examples=40, deadline=None)
    @given(kinked_closed_braids(strands=(2, 4), kinks=(0, 2)), st.data())
    def test_shuffle_relation_kinked_braids(self, l, data):
        # Milnor, Isotopy of links (1957), Thm. 6: the sum over the shuffles
        # H of I and J of mu-bar(Hk) vanishes modulo the gcd of Delta(Hk)
        entry = st.integers(1, l.n)
        i = tuple(data.draw(st.lists(entry, min_size=1, max_size=2)))
        j = tuple(data.draw(st.lists(entry, min_size=1, max_size=2)))
        k = data.draw(entry)
        terms = [h + (k,) for h in shuffles(i, j)]
        got = residues(l, terms)
        g = math.gcd(*(got[h].modulus for h in terms))
        total = sum(got[h].value for h in terms)
        assert (total % g if g else total) == 0

    def test_closure_compatibility(self):
        # string-link values with vanishing lower lengths survive closure
        v = tree_tangle(3, (1, 2, 3))
        c = closure(v)
        for index in itertools.permutations((1, 2, 3)):
            assert mu_bar(c, index) == Residue(mu(v, index), 0)

    def test_first_nonvanishing_representative_independence(self):
        v = tree_tangle(3, (1, 2, 3))
        w = stack(stack(trivial_string_link(3), v), trivial_string_link(3))
        for index in itertools.permutations((1, 2, 3)):
            assert mu_bar(closure(v), index) == mu_bar(closure(w), index)

    def test_sato_levine_relation(self):
        # for 2-component links with vanishing linking number the alternating
        # length-4 value is minus twice the doubled one
        w = whitehead()
        assert mu_bar(w, (1, 2, 1, 2)).value == -2 * mu_bar(w, (1, 1, 2, 2)).value
