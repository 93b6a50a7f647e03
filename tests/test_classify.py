import gc
import itertools
import random
import weakref

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from milnor.classify import (
    BrunnianForm,
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
    from_braid,
    power,
    stack_all,
    tree_tangle,
    trivial_link,
    trivial_string_link,
)
from milnor.invariants import Residue, evaluate, mu
from milnor.multiindex import (
    Injection,
    Surjection,
    all_injections,
    ascending_surjections,
    injections,
    palindromic_surjections,
)


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
        from milnor.diagram import tree_tangle

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

    # when every shorter value vanishes, the ordered injections of length k
    # vanish iff every repetition-free value of length k does (Habegger-Lin)
    @settings(max_examples=60, deadline=None)
    @given(closed_links())
    def test_homotopy_triviality_reads_the_ordered_injections(self, l):
        assert link_homotopy_trivial(l) == oracles.link_homotopy_trivial(l)


class TestBrunnian:
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

    def test_hypothesis_required(self):
        with pytest.raises(ValueError):
            brunnian_representative(hopf())

    def test_reads_the_rebuilt_parity_part_once(self, monkeypatch):
        # the length-2n palindromic values of the rebuilt parity part come
        # from one batch, so its meridians are built once
        from milnor import classify, wirtinger
        from milnor.diagram import reduced

        phis = palindromic_surjections(5, 3, 3)
        l = closure(stack_all([surjection_generator(phi) for phi in phis], 3))
        stacked, builds = [], []
        graded = wirtinger._Graded.__init__

        def spy_stack_all(parts, n):
            stacked.append(stack_all(parts, n))
            return stacked[-1]

        def spy_graded(state, d, basis):
            builds.append(d)
            graded(state, d, basis)

        monkeypatch.setattr(classify, "stack_all", spy_stack_all)
        monkeypatch.setattr(wirtinger._Graded, "__init__", spy_graded)
        form = brunnian_representative(l)
        assert form.parity == {phi: 1 for phi in phis}
        base = reduced(stacked[-1])
        assert len(palindromic_surjections(6, 3, 3)) > 1
        assert sum(d is base for d in builds) == 1


class TestCablingCrossCheck:
    def test_corpus(self):
        for l in [trivial_link(2), trivial_link(3), hopf(), whitehead_link()]:
            assert cabling_cross_check(l)

    def test_no_basis_sized_state_outlives_its_query(self, monkeypatch):
        # every graded state dies with its query; a diagram keeps only what
        # is sized by the diagram or by results
        from milnor import wirtinger
        from milnor.diagram import reduced

        states = []
        graded = wirtinger._Graded.__init__

        def spy_graded(state, d, basis):
            states.append(weakref.ref(state))
            graded(state, d, basis)

        monkeypatch.setattr(wirtinger._Graded, "__init__", spy_graded)
        l = closure(surjection_generator(Surjection(3, 1, (2, 3))))
        assert not selfdelta_vector(l).trivial
        assert cabling_cross_check(l)
        gc.collect()
        assert states and all(ref() is None for ref in states)
        keys = {"reduced", "walk", "residues", "selfdelta_vector", "normal_form"}
        assert set(l._cache) <= keys
        assert set(reduced(l)._cache) <= keys

    def test_stops_at_the_first_nonzero_length(self, monkeypatch):
        # vtau_n3_23_k1: the doubled link's first nonzero repetition-free
        # value has length 4, so the check builds no cable basis beyond it
        from milnor import wirtinger

        def link():
            return closure(surjection_generator(Surjection(3, 1, (2, 3))))

        doubled = cable(link(), [2, 2, 2])
        nonzero = [
            any(evaluate(doubled, itertools.permutations(range(1, 7), k)).values())
            for k in range(2, 5)
        ]
        assert nonzero == [False, False, True]
        degrees = []
        graded = wirtinger._Graded.__init__

        def spy_graded(state, d, basis):
            if d.n == 6:
                degrees.append(basis.q)
            graded(state, d, basis)

        monkeypatch.setattr(wirtinger._Graded, "__init__", spy_graded)
        assert cabling_cross_check(link())
        assert max(degrees) == 3

    def test_scan_reads_the_ordered_injections(self, monkeypatch):
        # Surjection(3, 3, (1, 1, 2, 2)): the doubled link has no nonzero
        # repetition-free value below length 6, so the check reads every
        # length k on the closure of its ordered injections' monomials; each
        # basis is built once, and every degree of every arc's meridian once
        # on it, two inner-split sums per passage
        from milnor import magnus, wirtinger
        from milnor.diagram import reduced

        l = closure(surjection_generator(Surjection(3, 3, (1, 1, 2, 2))))
        doubled = cable(l, [2, 2, 2])
        built, degrees, open_counts = [], [], []
        graded, degree = wirtinger._Graded.__init__, wirtinger._Graded._degree
        inner = magnus.Basis.inner

        def spy_graded(state, d, basis):
            if d.n == 6:
                built.append(basis)
            graded(state, d, basis)

        def spy_degree(state, deg):
            open_counts.append(0)
            degree(state, deg)
            degrees.append((state.basis, deg, open_counts.pop()))

        def spy_inner(basis, d, *args):
            if open_counts:
                open_counts[-1] += 1
            return inner(basis, d, *args)

        monkeypatch.setattr(wirtinger._Graded, "__init__", spy_graded)
        monkeypatch.setattr(wirtinger._Graded, "_degree", spy_degree)
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
            (b, d, 2 * passages) for b in want for d in range(1, b.q + 1)
        ]
