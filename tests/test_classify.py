import ast
import gc
import itertools
import random
import sys
import weakref
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from milnor import invariants
from milnor.classify import (
    SelfDeltaVector,
    Verdict,
    brunnian_representative,
    cabling_cross_check,
    homotopy_classes_agree,
    homotopy_normal_form,
    injection_generator,
    link_homotopic,
    link_homotopy_trivial,
    milnor_link,
    selfdelta_equivalent,
    selfdelta_trivial,
    selfdelta_vector,
    surjection_generator,
    whitehead_link,
)
from milnor.diagram import (
    cable,
    closure,
    power,
    reduced,
    stack_all,
    trivial_link,
    trivial_string_link,
    with_kink,
)
from milnor.invariants import Residue, evaluate, mu
from milnor.multiindex import (
    Injection,
    Surjection,
    all_injections,
    ascending_surjections,
    injections,
    palindromic_surjections,
    selfdelta_generator_indices,
    surjections,
)
from milnor.tangles import from_braid, tree_tangle


def hopf():
    return closure(from_braid(2, [1, 1]))


def clasp_word(i, j, sign):
    """sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^-1 ... sigma_{j-1}^-1,
    the pure braid clasping strands i < j, or its inverse when sign < 0."""
    conj = list(range(j - 1, i, -1))
    word = conj + [i, i] + [-g for g in reversed(conj)]
    return word if sign > 0 else [-g for g in reversed(word)]


@st.composite
def clasp_braid_pairs(draw):
    """Two pure braids on n = 2..4 strands: a product of clasps, and the same
    clasps reordered, optionally with a clasp and its inverse spliced in.
    The linking numbers agree; the longer invariants may or may not."""
    n = draw(st.integers(2, 4))
    pair = st.integers(1, n - 1).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, n)))
    clasps = draw(st.lists(st.tuples(pair, st.sampled_from([1, -1])), max_size=4))
    shuffled = draw(st.permutations(clasps))
    if draw(st.booleans()):
        spliced = draw(st.tuples(pair, st.sampled_from([1, -1])))
        at = draw(st.integers(0, len(shuffled)))
        shuffled = shuffled[:at] + [spliced, (spliced[0], -spliced[1])] + shuffled[at:]

    def braid(factors):
        return from_braid(n, [g for (i, j), s in factors for g in clasp_word(i, j, s)])

    return braid(clasps), braid(shuffled)


@st.composite
def closed_links(draw):
    """A closed link on n = 2..4 components: a closed product of clasps, or
    a closed stack of tree tangles, each grasping at least min(3, n)
    distinct components in any order, so that values land on indices that
    are not ordered injections; sometimes followed by the inverse of its
    first tree."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        pair = st.integers(1, n - 1).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(i + 1, n))
        )
        clasps = draw(st.lists(st.tuples(pair, st.sampled_from([1, -1])), max_size=4))
        word = [g for (i, j), s in clasps for g in clasp_word(i, j, s)]
        return closure(from_braid(n, word))
    leaves = st.integers(min(3, n), n).flatmap(
        lambda k: st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:k]))
    )
    trees = draw(st.lists(st.tuples(leaves, st.sampled_from([1, -1])), min_size=1, max_size=3))
    if draw(st.booleans()):
        trees.append((trees[0][0], -trees[0][1]))
    return closure(stack_all([power(tree_tangle(n, v), e) for v, e in trees], n))


@st.composite
def normal_form_pairs(draw):
    """A product of commutator generators in normal-form order on n = 2..4
    strands, and either the same product with a generator and its inverse
    spliced in (homotopic) or the product with one exponent changed (not)."""
    n = draw(st.integers(2, 4))
    pis = all_injections(n)
    chosen = draw(st.lists(st.sampled_from(pis), max_size=3, unique=True))
    exps = {pi: draw(st.sampled_from([1, -1, 2])) for pi in chosen}
    parts = [injection_generator(pi, exps[pi]) for pi in pis if pi in exps]
    if draw(st.booleans()):
        pi, e = draw(st.sampled_from(pis)), draw(st.sampled_from([1, -1]))
        at = draw(st.integers(0, len(parts)))
        other = parts[:at] + [injection_generator(pi, e), injection_generator(pi, -e)] + parts[at:]
        homotopic = True
    else:
        pi = draw(st.sampled_from(pis))
        exps[pi] = exps.get(pi, 0) + draw(st.sampled_from([1, -1]))
        other = [injection_generator(q, exps[q]) for q in pis if exps.get(q)]
        homotopic = False
    return stack_all(parts, n), stack_all(other, n), homotopic


@st.composite
def reducible_braids(draw):
    """A closed braid on 2 or 3 strands, or a pure braid on 2 to 4 (squares
    conjugated by a word), with a cancelling pair of letters spliced in and a
    kink added now and then, so that reduction has crossings to remove."""
    closed = draw(st.booleans())
    strands = draw(st.integers(2, 3 if closed else 4))
    letters = [g for i in range(1, strands) for g in (i, -i)]
    words = st.lists(st.sampled_from(letters), max_size=4)
    word, core = draw(words), draw(words)
    if closed:
        word += core
    else:
        word += [g for g in core for _ in (0, 1)] + [-g for g in reversed(word)]
    if draw(st.booleans()):
        g, at = draw(st.sampled_from(letters)), draw(st.integers(0, len(word)))
        word[at:at] = [g, -g]
    d = from_braid(strands, word, closed=closed)
    if draw(st.booleans()):
        comp = draw(st.integers(1, d.n))
        at = draw(st.integers(0, len(d.events[comp - 1])))
        d = with_kink(d, comp, draw(st.sampled_from([1, -1])), at)
    return d


class TestGenerators:
    def test_injection_diagonal(self):
        for n, k in [(2, 2), (3, 2), (3, 3)]:
            for pi in all_injections(n):
                if pi.k != k:
                    continue
                v = injection_generator(pi)
                assert mu(v, pi.values) == 1

    def test_injection_inverse(self):
        pi = Injection(3, (1, 2, 3))
        assert mu(injection_generator(pi, -1), pi.values) == -1

    def test_milnor_link_values(self):
        m3 = milnor_link(3)
        from milnor.invariants import mu_bar

        assert mu_bar(m3, (1, 2, 3)) == Residue(1, 0)
        assert mu_bar(m3, (1, 2)).is_zero()

    def test_whitehead_values(self):
        from milnor.invariants import mu_bar, table

        w = whitehead_link()
        low = table(w, 3, 2)
        assert all(r.is_zero() for r in low.entries.values())
        assert mu_bar(w, (1, 1, 2, 2)).value % 2 == 1

    def test_surjection_generator_values(self):
        tau = Surjection(3, 3, (1, 2, 2))
        v = surjection_generator(tau)
        assert mu(v, (1, 2, 2, 3, 3)) == 1

    def test_injection_closure_is_reindexed_chain(self):
        from milnor.invariants import mu_bar, table

        pi = Injection(4, (2, 3, 4))
        c = closure(injection_generator(pi))
        low = table(c, 2, 2)
        assert all(r.is_zero() for r in low.entries.values())
        assert mu_bar(c, (2, 3, 4)) == Residue(1, 0)
        # antisymmetry in the first two entries, and silence off the image
        assert mu_bar(c, (3, 2, 4)) == Residue(-1, 0)
        assert mu_bar(c, (1, 2, 3)).is_zero()
        assert mu_bar(c, (1, 2, 4)).is_zero()

    def test_palindromic_table_entry(self):
        from milnor.invariants import table

        tau = Surjection(2, 2, (1, 1))
        t = table(surjection_generator(tau), 4, 2)
        assert t.entries[(1, 1, 2, 2)] == Residue(2, 0)

    def test_odd_palindromic_cross_values(self):
        # the odd-length palindromic generators are invisible at their own
        # length, meet their even-length partner up to sign, and vanish on
        # the rest of the even-length family
        from milnor.multiindex import palindromic_partner

        for n in (2, 3):
            even = palindromic_surjections(2 * n, n, n) + ascending_surjections(
                2 * n, n, n
            )
            for phi in palindromic_surjections(2 * n - 1, n, n):
                v = surjection_generator(phi)
                assert mu(v, phi.index()) == 0
                partner = palindromic_partner(phi)
                for tau in even:
                    val = mu(v, tau.index())
                    if tau == partner:
                        assert abs(val) == 1
                    else:
                        assert val == 0, (phi, tau, val)


class TestNormalForm:
    def test_trivial(self):
        nf = homotopy_normal_form(trivial_string_link(3))
        assert all(e == 0 for e in nf.exponents.values())

    def test_clasp(self):
        nf = homotopy_normal_form(from_braid(2, [1, 1]))
        assert nf.exponents[Injection(2, (1, 2))] == 1

    def test_roundtrip_small(self):
        random.seed(7)
        pis = all_injections(3)
        for _ in range(6):
            exps = {pi: random.randint(-2, 2) for pi in pis}
            parts = [injection_generator(pi, e) for pi, e in exps.items() if e]
            l = stack_all(parts, 3)
            nf = homotopy_normal_form(l)
            assert nf.exponents == exps

    def test_realize_matches(self):
        pis = all_injections(3)
        exps = {pi: e for pi, e in zip(pis, (1, -1, 0, 2))}
        parts = [injection_generator(pi, e) for pi, e in exps.items() if e]
        l = stack_all(parts, 3)
        nf = homotopy_normal_form(l)
        rebuilt = nf.realize()
        assert link_homotopic(l, rebuilt)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacks_only_the_levels_it_reads(self, monkeypatch, n):
        # levels 2..n-1 each rebuild a partial product that the next level
        # reads; the product of all n-1 levels is never read
        from milnor import classify

        exps = {pi: (-1) ** i for i, pi in enumerate(all_injections(n))}
        l = stack_all([injection_generator(pi, e) for pi, e in exps.items()], n)
        calls = []

        def spy_stack_all(parts, size):
            calls.append(len(parts))
            return stack_all(parts, size)

        monkeypatch.setattr(classify, "stack_all", spy_stack_all)
        assert homotopy_normal_form(l).exponents == exps
        assert len(calls) == n - 2

    def test_rejects_closed(self):
        with pytest.raises(ValueError):
            homotopy_normal_form(hopf())


class TestLinkHomotopic:
    def test_reflexive(self):
        t = trivial_string_link(2)
        assert link_homotopic(t, t)

    def test_clasp_vs_trivial(self):
        assert not link_homotopic(from_braid(2, [1, 1]), trivial_string_link(2))

    def test_whitehead_string_is_homotopically_trivial(self):
        from milnor.tangles import tree_tangle

        w = tree_tangle(2, (1, 2, 2))
        assert link_homotopic(w, trivial_string_link(2))

    def test_truncated_agreement(self):
        v = injection_generator(Injection(3, (1, 2, 3)))
        t = trivial_string_link(3)
        assert homotopy_classes_agree(v, t, 2)
        assert not homotopy_classes_agree(v, t, 3)

    def test_truncation_monotone(self):
        a = injection_generator(Injection(3, (1, 3)))
        b = trivial_string_link(3)
        for k in (3, 2):
            if homotopy_classes_agree(a, b, k):
                assert homotopy_classes_agree(a, b, k - 1)

    def test_equivalence_relation(self):
        a = from_braid(2, [1, 1])
        b = from_braid(2, [1, 1, -1, 1])
        c = trivial_string_link(2)
        assert link_homotopic(a, b) and link_homotopic(b, a)
        assert not link_homotopic(a, c)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            link_homotopic(trivial_string_link(2), trivial_string_link(3))

    # the normal form is a complete link-homotopy invariant (Habegger-Lin):
    # comparing forms decides what comparing every repetition-free invariant
    # decides
    @settings(max_examples=25, deadline=None)
    @given(clasp_braid_pairs())
    def test_normal_forms_decide_clasp_braids(self, pair):
        a, b = pair
        assert link_homotopic(a, b) == homotopy_classes_agree(a, b, a.n)

    @settings(max_examples=25, deadline=None)
    @given(normal_form_pairs())
    def test_normal_forms_decide_generator_products(self, pair):
        a, b, homotopic = pair
        assert link_homotopic(a, b) == homotopy_classes_agree(a, b, a.n) == homotopic

    def test_classes_agree_count_mismatch(self):
        with pytest.raises(ValueError, match="component counts differ"):
            homotopy_classes_agree(from_braid(2, [1, 1]), from_braid(3, [1, 1]), 2)


class TestSelfDelta:
    def test_trivial_vector(self):
        v = selfdelta_vector(trivial_link(2))
        assert v.hypothesis_ok
        assert all(r.is_zero() for r in v.entries.values())

    def test_whitehead_vector(self):
        v = selfdelta_vector(whitehead_link())
        assert v.hypothesis_ok
        assert not v.entries[(1, 1, 2, 2)].is_zero()

    def test_hopf_fails_hypothesis(self):
        v = selfdelta_vector(hopf())
        assert not v.hypothesis_ok
        assert (1, 2) in v.failures

    def test_equivalence_verdicts(self):
        assert selfdelta_equivalent(trivial_link(2), trivial_link(2)) is Verdict.YES
        assert (
            selfdelta_equivalent(whitehead_link(), trivial_link(2)) is Verdict.NO
        )
        assert selfdelta_equivalent(hopf(), trivial_link(2)) is Verdict.NO

    def test_self_comparison(self):
        w = whitehead_link()
        assert selfdelta_equivalent(w, w) is Verdict.YES

    def test_undecided(self):
        # same nonvanishing low-order data on both sides: theorem silent
        h = hopf()
        assert selfdelta_equivalent(h, h) is Verdict.UNDECIDED

    def test_trivially_decided(self):
        assert selfdelta_trivial(trivial_link(3))
        assert not selfdelta_trivial(whitehead_link())
        assert not selfdelta_trivial(milnor_link(3))
        assert not selfdelta_trivial(hopf())

    def test_homotopy_triviality(self):
        assert link_homotopy_trivial(whitehead_link())
        assert not link_homotopy_trivial(hopf())
        assert not link_homotopy_trivial(milnor_link(3))

    def test_homotopy_triviality_without_resource(self, monkeypatch):
        # where there is no resource module there is no limit to refuse
        # against, and the decision runs as it does without a limit
        monkeypatch.setitem(sys.modules, "resource", None)
        assert link_homotopy_trivial(whitehead_link())
        assert not link_homotopy_trivial(milnor_link(3))

    # when every shorter value vanishes, the ordered injections of length k
    # vanish iff every repetition-free value of length k does (Habegger-Lin)
    @settings(max_examples=60, deadline=None)
    @given(closed_links())
    def test_homotopy_triviality_reads_the_ordered_injections(self, l):
        assert link_homotopy_trivial(l) == oracles.link_homotopy_trivial(l)


@st.composite
def generator_closures(draw):
    """The closure of a product of one to three doubled generators on n = 2
    or 3 components, each to a nonzero exponent.  Half the factors have the
    full length 2n, whose products meet the self-delta hypothesis; shorter
    ones mostly break it."""
    n = draw(st.sampled_from([2, 3]))
    every = [t for m in range(n + 1, 2 * n + 1) for k in range(1, n + 1) for t in surjections(m, k, n)]
    tau = st.one_of(st.sampled_from([t for t in every if t.m == 2 * n]), st.sampled_from(every))
    factors = draw(st.lists(st.tuples(tau, st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=3))
    return closure(stack_all([surjection_generator(t, e) for t, e in factors]))


@st.composite
def full_length_products(draw):
    """The closure of a product of one to three distinct classifying
    length-2n doubled generators on n = 2 or 3 components, each to a nonzero
    exponent: every such product meets the self-delta hypothesis, and has
    a nonzero length-2n value."""
    n = draw(st.sampled_from([2, 3]))
    factor = st.tuples(
        st.sampled_from(selfdelta_generator_indices(n, 2 * n)), st.sampled_from([-2, -1, 1, 2])
    )
    factors = draw(st.lists(factor, min_size=1, max_size=3, unique_by=lambda f: f[0]))
    return closure(stack_all([surjection_generator(t, e) for t, e in factors], n))


def selfdelta_product(n, factors):
    """The closed product of clasps ``(i, j)`` and doubled generators, each
    to its exponent."""
    parts = [
        surjection_generator(f, e)
        if isinstance(f, Surjection)
        else power(from_braid(n, clasp_word(*f, 1)), e)
        for f, e in factors
    ]
    return closure(stack_all(parts, n))


@st.composite
def selfdelta_pairs(draw):
    """Factors of two closed products on n = 2 or 3 components: clasps and
    doubled generators to exponents +-1 and +-2, and either the same factors
    reordered, the factors with one exponent changed, or other factors."""
    n = draw(st.sampled_from([2, 3]))
    every = [t for m in range(n + 1, 2 * n + 1) for k in range(1, n + 1) for t in surjections(m, k, n)]
    pair = st.integers(1, n - 1).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, n)))
    factor = st.tuples(st.one_of(pair, st.sampled_from(every)), st.sampled_from([-2, -1, 1, 2]))
    factors = draw(st.lists(factor, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["reordered", "changed", "other"]))
    if kind == "reordered":
        others = draw(st.permutations(factors))
    elif kind == "changed":
        at = draw(st.integers(0, len(factors) - 1))
        e = draw(st.sampled_from([e for e in (-2, -1, 1, 2) if e != factors[at][1]]))
        others = factors[:at] + [(factors[at][0], e)] + factors[at + 1 :]
    else:
        others = draw(st.lists(factor, min_size=1, max_size=3))
    return n, factors, others


# a linking number of 2: the length-3 residues of both links have modulus 2
MODULUS_TWO = (2, [((1, 2), 2)], [((1, 2), 2), (Surjection(2, 2, (1, 1)), 1)])


class TestSelfDeltaVerdicts:
    @settings(max_examples=50, deadline=None)
    @example(MODULUS_TWO)
    @given(selfdelta_pairs())
    def test_equivalent_matches_the_table_comparison(self, pairs):
        n, factors, others = pairs
        a, b = (invariants.table(selfdelta_product(n, f), 2 * n, 2) for f in (factors, others))
        verdict = SelfDeltaVector(a).equivalent(SelfDeltaVector(b))
        assert verdict is oracles.selfdelta_equivalent(a, b)

    def test_the_example_reaches_modulus_two(self):
        n, factors, others = MODULUS_TWO
        for l in (selfdelta_product(n, factors), selfdelta_product(n, others)):
            moduli = {r.modulus for r in invariants.table(l, 2 * n, 2).entries.values()}
            assert max(moduli) == 2, moduli


class TestBrunnian:
    # Under the hypothesis every value shorter than 2n is 0 with modulus 0.
    # Every one-entry deletion of an index with repetition at most 2 has
    # repetition at most 2, so the residue assembly gives each index through
    # length 2n modulus 0, and the representative reads exact values.
    @settings(max_examples=30, deadline=None)
    @given(generator_closures())
    def test_no_indeterminacy_under_the_hypothesis(self, l):
        table = invariants.table(l, 2 * l.n, 2)
        vec = SelfDeltaVector(table)  # what selfdelta_vector(l) holds
        if vec.hypothesis_ok:
            assert all(r.modulus == 0 for r in table.entries.values())
            assert all(r.modulus == 0 for r in vec.entries.values())

    @settings(max_examples=15, deadline=None)
    @example(whitehead_link())
    @given(full_length_products())
    def test_top_layer_is_lie_under_the_hypothesis(self, l):
        # a longitude's expansion is group-like: for nonempty u and v the
        # sum of its coefficients over the shuffles of u and v is the
        # product of those at u and at v.  When uvk is a length-2n index,
        # uk and vk are shorter ones, whose values vanish under the
        # hypothesis; so the length-2n values satisfy the shuffle relations
        # exactly, with no modulus
        n = l.n
        table = invariants.table(l, 2 * n, 2)
        assert SelfDeltaVector(table).hypothesis_ok
        entries = table.entries
        relations = {
            (min(index[:p], index[p:-1]), max(index[:p], index[p:-1]), index[-1])
            for index in entries
            if len(index) == 2 * n
            for p in range(1, 2 * n - 1)
        }
        for u, v, k in relations:
            terms = [entries[w + (k,)] for w in oracles.shuffles(u, v)]
            assert all(r.modulus == 0 for r in terms)
            assert sum(r.value for r in terms) == 0, (u, v, k)
        assert any(entries[index].value for index in entries if len(index) == 2 * n)

    def test_trivial(self):
        form = brunnian_representative(trivial_link(2))
        assert all(e == 0 for e in form.parity.values())
        assert all(e == 0 for e in form.doubled.values())
        assert all(e == 0 for e in form.single.values())

    def test_whitehead_parity(self):
        form = brunnian_representative(whitehead_link())
        assert list(form.parity.values()) == [1]
        assert all(e == 0 for e in form.doubled.values())

    def test_palindromic_generator(self):
        n = 2
        tau = palindromic_surjections(2 * n, n, n)[0]
        l = closure(surjection_generator(tau))
        form = brunnian_representative(l)
        assert form.parity[palindromic_surjections(2 * n - 1, n, n)[0]] == 0
        assert form.doubled[tau] == 1

    def test_ascending_generator(self):
        n = 3
        eta = ascending_surjections(2 * n, n, n)[0]
        l = closure(surjection_generator(eta))
        form = brunnian_representative(l)
        assert form.single[eta] == 1
        assert all(e == 0 for k, e in form.single.items() if k != eta)
        assert all(e == 0 for e in form.doubled.values())
        assert all(e == 0 for e in form.parity.values())

    def test_roundtrip_vector(self):
        # the representative rebuilt from the form classifies like the input
        w = whitehead_link()
        form = brunnian_representative(w)
        rep = closure(form.realize())
        assert selfdelta_equivalent(w, rep) is Verdict.YES

    def test_roundtrip_with_parity_part(self):
        phi = Surjection(3, 3, (1, 2, 1))
        l = closure(surjection_generator(phi))
        form = brunnian_representative(l)
        assert form.parity[phi] == 1
        assert all(e == 0 for e in form.doubled.values())
        assert all(e == 0 for e in form.single.values())
        rep = closure(form.realize())
        assert selfdelta_equivalent(l, rep) is Verdict.YES

    def test_roundtrip_random_products(self):
        random.seed(11)
        n = 3
        odd = palindromic_surjections(2 * n - 1, n, n)
        even = palindromic_surjections(2 * n, n, n) + ascending_surjections(
            2 * n, n, n
        )
        for _ in range(3):
            parts = []
            for tau in even:
                e = random.randint(-1, 1)
                if e:
                    parts.append(surjection_generator(tau, e))
            for phi in odd:
                if random.randint(0, 1):
                    parts.append(surjection_generator(phi))
            l = closure(stack_all(parts, n))
            form = brunnian_representative(l)
            rep = closure(form.realize())
            assert selfdelta_equivalent(l, rep) is Verdict.YES

    def test_roundtrip_four_components(self):
        # the classification theorem at n = 4: three length-8 doubled
        # generators and one odd palindromic one, each with a random sign
        rng = random.Random(4)
        even = ascending_surjections(8, 4, 4) + palindromic_surjections(8, 4, 4)
        picks = rng.sample(even, 3) + [rng.choice(palindromic_surjections(7, 4, 4))]
        l = closure(stack_all([surjection_generator(t, rng.choice((1, -1))) for t in picks], 4))
        rep = closure(brunnian_representative(l).realize())
        assert selfdelta_equivalent(l, rep) is Verdict.YES

    def test_hypothesis_required(self):
        with pytest.raises(ValueError):
            brunnian_representative(hopf())

    def test_reads_the_rebuilt_parity_part_once(self, monkeypatch):
        # the length-2n palindromic values of the rebuilt parity part come
        # from one batch, so its meridians are built once
        from milnor import classify
        from milnor.diagram import reduced

        phis = palindromic_surjections(5, 3, 3)
        l = closure(stack_all([surjection_generator(phi) for phi in phis], 3))
        stacked, builds = [], []

        def spy_stack_all(parts, n):
            stacked.append(stack_all(parts, n))
            return stacked[-1]

        monkeypatch.setattr(classify, "stack_all", spy_stack_all)
        oracles.spy_graded(monkeypatch, lambda d, basis: builds.append(d))
        form = brunnian_representative(l)
        assert form.parity == {phi: 1 for phi in phis}
        base = reduced(stacked[-1])
        assert len(palindromic_surjections(6, 3, 3)) > 1
        assert sum(d is base for d in builds) == 1


class TestReadAsReduced:
    # the CLI reads each input as its reduction, and classify holds partial
    # products and 2-cables reduced: every result must be the one of the
    # diagram as given
    @settings(max_examples=60, deadline=None)
    @given(reducible_braids())
    def test_every_result_is_the_unreduced_diagrams(self, d):
        r = reduced(d)
        if d.closed:
            assert link_homotopy_trivial(r) == link_homotopy_trivial(d)
            assert selfdelta_vector(r).to_json() == selfdelta_vector(d).to_json()
            assert cabling_cross_check(r) == cabling_cross_check(d)
        else:
            assert homotopy_normal_form(r) == homotopy_normal_form(d)
            assert link_homotopy_trivial(closure(r)) == link_homotopy_trivial(closure(d))


class TestMemos:
    """A diagram memoizes only its own reduction (``reduced``) and its one
    classification object; nothing else, its walk table included, outlives
    the call that built it."""

    def test_generators_and_dense_bases_die_with_their_callers(self, monkeypatch):
        from milnor import classify, magnus
        from milnor.freegroup import Word

        refs = []

        def spy_tree(n, leaves):
            d = tree_tangle(n, leaves)
            refs.append(weakref.ref(d))
            return d

        class Spied(magnus.Basis):
            __slots__ = ("__weakref__",)

            def __init__(self, n, words):
                super().__init__(n, words)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(classify, "tree_tangle", spy_tree)
        monkeypatch.setattr(magnus, "Basis", Spied)
        injection_generator(Injection(3, (1, 2, 3)), 2)
        surjection_generator(Surjection(3, 3, (1, 2, 1)), -1)
        magnus.expand(Word(2, (1, 2, -1, -2)), 3)
        gc.collect()
        # two tree tangles, the normalizing query's basis, the dense basis
        assert len(refs) >= 4
        assert all(ref() is None for ref in refs)

    def test_no_process_lifetime_memo(self):
        # functools.cache and lru_cache keep their arguments and results for
        # the life of the process
        src = Path(__file__).resolve().parent.parent / "src" / "milnor"
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            aliases = {"functools"}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = {a.name: a.asname or a.name for a in node.names}
                    aliases.add(names.get("functools", "functools"))
                elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                    names = {a.name for a in node.names}
                    assert not names & {"cache", "lru_cache"}, path.name
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    memo = node.value.id in aliases and node.attr in ("cache", "lru_cache")
                    assert not memo, f"{path.name}:{node.lineno}"


class TestOneKernel:
    def test_only_magnus_touches_numpy(self):
        # the int64 kernel and its one exactness rule live in magnus: no
        # other module imports numpy or reads magnus.np or magnus._GUARD
        src = Path(__file__).resolve().parent.parent / "src" / "milnor"
        kernel = {"np", "_GUARD"}
        for path in sorted(src.glob("*.py")):
            if path.name == "magnus.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            aliases = {"magnus"}
            for node in ast.walk(tree):
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Import):
                    assert not any(a.name.split(".")[0] == "numpy" for a in node.names), where
                elif isinstance(node, ast.ImportFrom):
                    module = (node.module or "").split(".")
                    assert module[0] != "numpy", where
                    names = {a.name for a in node.names}
                    assert module[-1] != "magnus" or not names & kernel, where
                    aliases |= {a.asname or a.name for a in node.names if a.name == "magnus"}
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert not (node.value.id in aliases and node.attr in kernel), where

    def test_only_diagram_and_classify_touch_the_memo(self):
        # a diagram's memo holds its reduction and its classification
        # object: no other module reads or writes a ``_cache``
        src = Path(__file__).resolve().parent.parent / "src" / "milnor"
        for path in sorted(src.glob("*.py")):
            if path.name in ("diagram.py", "classify.py"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    assert node.attr != "_cache", f"{path.name}:{node.lineno}"


class TestCablingCrossCheck:
    def test_corpus(self):
        for l in [trivial_link(2), trivial_link(3), hopf(), whitehead_link()]:
            assert cabling_cross_check(l)

    def test_no_basis_sized_state_outlives_its_query(self, monkeypatch):
        # every basis a graded walk reads, and so its rows, dies with its
        # query; a diagram keeps only what is sized by the diagram or by
        # results
        from milnor import magnus
        from milnor.diagram import reduced

        walked = []

        class Spied(magnus.Basis):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(magnus, "Basis", Spied)
        oracles.spy_graded(
            monkeypatch, lambda d, basis: walked.append(weakref.ref(basis))
        )
        l = closure(surjection_generator(Surjection(3, 1, (2, 3))))
        assert not selfdelta_vector(l).trivial
        assert cabling_cross_check(l)
        gc.collect()
        assert walked and all(ref() is None for ref in walked)
        keys = {"reduced", "selfdelta_vector", "normal_form"}
        assert set(l._cache) <= keys
        assert set(reduced(l)._cache) <= keys

    def test_stops_at_the_first_nonzero_length(self, monkeypatch):
        # vtau_n3_23_k1: the doubled link's first nonzero repetition-free
        # value has length 4, so the check builds no cable basis beyond it
        def link():
            return closure(surjection_generator(Surjection(3, 1, (2, 3))))

        doubled = cable(link(), [2, 2, 2])
        nonzero = [
            any(evaluate(doubled, itertools.permutations(range(1, 7), k)).values())
            for k in range(2, 5)
        ]
        assert nonzero == [False, False, True]
        degrees = []

        def record(d, basis):
            if d.n == 6:
                degrees.append(basis.q)

        oracles.spy_graded(monkeypatch, record)
        assert cabling_cross_check(link())
        assert max(degrees) == 3

    def test_scan_reads_the_ordered_injections(self, monkeypatch):
        # Surjection(3, 3, (1, 1, 2, 2)): the doubled link has no nonzero
        # repetition-free value below length 6, so the check reads every
        # length k on the closure of its ordered injections' monomials; each
        # basis is built once, and every degree from 2 of every arc's
        # meridian once on it, one kernel step per passage
        from milnor import magnus, wirtinger
        from milnor.diagram import reduced

        l = closure(surjection_generator(Surjection(3, 3, (1, 1, 2, 2))))
        doubled = cable(l, [2, 2, 2])
        built, degrees, open_walks = [], [], []
        graded, inner = magnus.meridian_walk, magnus.Basis.inner

        def spy_graded(basis, comps, passages):
            # the degree of each kernel step while the walk is open
            open_walks.append([])
            rows = graded(basis, comps, passages)
            sums = open_walks.pop()
            if basis.n == 6:
                built.append(basis)
                # degree by degree, each in one stretch of sums
                assert sums == sorted(sums)
                degrees.extend((basis, d, sums.count(d)) for d in sorted(set(sums)))
            return rows

        def spy_inner(basis, d, *args):
            if open_walks:
                open_walks[-1].append(d)
            return inner(basis, d, *args)

        monkeypatch.setattr(magnus, "meridian_walk", spy_graded)
        monkeypatch.setattr(magnus.Basis, "inner", spy_inner)
        assert not link_homotopy_trivial(doubled)
        want = [
            magnus.closure(6, [pi.values[:-1] for pi in injections(k, 6)])
            for k in range(2, 7)
        ]
        assert built == want
        assert [len(b) for b in built] == [6, 16, 42, 88, 130]
        passages = len(wirtinger._walk(reduced(doubled)).passages)
        assert degrees == [
            (b, d, passages) for b in want for d in range(2, b.q + 1)
        ]


def test_deterministic_costs(monkeypatch):
    # braid letters, crossings and walk sizes that no timing noise moves:
    # a change that draws the generators or walks the arcs differently
    # shows here first
    from milnor import magnus
    from milnor.tangles import _bracket_braid

    sizes = []
    for m in range(2, 8):
        t = tree_tangle(m, tuple(range(1, m + 1)))
        sizes.append((len(_bracket_braid(m)), t.crossing_count,
                      reduced(closure(t)).crossing_count))
    assert sizes == [(2, 14, 2), (12, 42, 8), (36, 92, 20), (88, 178, 44),
                     (196, 328, 92), (416, 598, 188)]
    for n, m, crossings in ((3, 6, (310, 101)), (4, 8, (1068, 394))):
        link = closure(surjection_generator(selfdelta_generator_indices(n, m)[0]))
        assert (link.crossing_count, reduced(link).crossing_count) == crossings

    walks, graded = [], magnus.meridian_walk

    def spy(basis, comps, passages):
        walks.append((len(basis), basis.splits, basis.small, len(passages)))
        return graded(basis, comps, passages)

    monkeypatch.setattr(magnus, "meridian_walk", spy)
    invariants.table(milnor_link(4), 8, 2)
    assert walks == [(4845, 35157, False, 16)]  # the numpy kernel
    walks.clear()
    selfdelta_vector(closure(surjection_generator(Surjection(3, 1, (2, 3)))))
    assert walks == [(181, 940, True, 20)]  # the Python kernel
    walks.clear()
    g = lambda values, e: injection_generator(Injection(5, values), e)
    homotopy_normal_form(reduced(stack_all(
        [g((1, 2), 1), g((1, 2, 3), -1), g((2, 1, 3, 4), 1)], 5)))
    assert [size for size, *_ in walks] == [32, 5, 11, 22, 32]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: milnor_link(1), "need at least 2 components"),
        (lambda: homotopy_classes_agree(*[from_braid(2, [1, 1])] * 2, 0), "k=0 out of range"),
        (lambda: homotopy_classes_agree(hopf(), hopf(), 2), "defined for string links"),
        (lambda: selfdelta_equivalent(trivial_link(2), trivial_link(3)), "counts differ"),
        (lambda: link_homotopy_trivial(from_braid(2, [1, 1])), "applies to closed links"),
        # a check that its callee owns, with the callee's message
        (lambda: link_homotopic(hopf(), hopf()), "normal forms are defined for string"),
        (lambda: brunnian_representative(from_braid(2, [1, 1])), "applies to closed links"),
    ],
    ids=[
        "milnor_link-1", "classes_agree-k0", "classes_agree-closed", "selfdelta-counts",
        "homotopy_trivial-stringlink", "link_homotopic-closed", "brunnian-stringlink",
    ],
)
def test_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()
