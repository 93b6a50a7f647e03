import itertools
import random

import pytest

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
from milnor.diagram import closure, from_braid, stack_all, trivial_link, trivial_string_link
from milnor.invariants import Residue, mu
from milnor.multiindex import (
    Injection,
    Surjection,
    all_injections,
    ascending_surjections,
    palindromic_surjections,
)


def hopf():
    return closure(from_braid(2, [1, 1]))


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


class TestCablingCrossCheck:
    def test_corpus(self):
        for l in [trivial_link(2), trivial_link(3), hopf(), whitehead_link()]:
            assert cabling_cross_check(l)
