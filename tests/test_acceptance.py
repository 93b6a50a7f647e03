"""Acceptance criteria.

Each test prints one PASS/FAIL line; every comparison is exact integer or
exact residue equality.  Stated runtime bounds are asserted where given.
"""

import itertools
import random
import runpy
import time
from pathlib import Path

import oracles

from milnor import invariants, wirtinger
from milnor.classify import (
    cabling_cross_check,
    homotopy_normal_form,
    injection_generator,
    link_homotopy_trivial,
    milnor_link,
    selfdelta_trivial,
    surjection_generator,
    whitehead_link,
)
from milnor.diagram import (
    cable,
    cable_map,
    closure,
    stack,
    stack_all,
    trivial_link,
)
from milnor.freegroup import Word
from milnor.invariants import Residue, mu, mu_bar, table
from milnor.magnus import dense, expand
from milnor.multiindex import (
    all_injections,
    ascending_surjections,
    injections,
    palindromic_surjections,
    selfdelta_generator_indices,
)
from milnor.tangles import from_braid


def report(num, label):
    def deco(fn):
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


def corpus_links():
    """The reference corpus of scripts/generate_corpus.py on at most 3
    components, as (name, link) pairs."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "generate_corpus.py"
    corpus = runpy.run_path(str(script))["corpus"]()
    return [(name, l) for name, l in corpus.items() if l.n <= 3]


@report(1, "milnor link table")
def test_criterion_1_milnor_links():
    start = time.monotonic()
    for n in range(2, 6):
        l = milnor_link(n)
        for ln in range(2, n):
            for index in itertools.product(range(1, n + 1), repeat=ln):
                assert mu_bar(l, index).is_zero(), (n, index)
        for prefix in itertools.permutations(range(1, n - 1)):
            index = prefix + (n - 1, n)
            expected = 1 if prefix == tuple(range(1, n - 1)) else 0
            assert mu_bar(l, index) == Residue(expected, 0), (n, index)
    assert time.monotonic() - start < 10.0


@report(2, "duality matrix")
def test_criterion_2_duality_matrix():
    start = time.monotonic()
    n = 3
    for k in (2, 3):
        family = injections(k, n)
        gens = {pi: injection_generator(pi) for pi in family}
        for pi_col in family:
            v = gens[pi_col]
            for pi_row in family:
                expected = 1 if pi_row == pi_col else 0
                assert mu(v, pi_row.values) == expected, (pi_row, pi_col)
            for ln in range(2, k):
                for index in itertools.product(range(1, n + 1), repeat=ln):
                    assert mu(v, index) == 0, (pi_col, index)
    assert time.monotonic() - start < 10.0


@report(3, "doubled generator values")
def test_criterion_3_generator_values():
    start = time.monotonic()
    for n in (2, 3):
        for m in range(n + 1, 2 * n + 1):
            gens = selfdelta_generator_indices(n, m)
            diagrams = {phi: surjection_generator(phi) for phi in gens}
            for phi in gens:
                pal = phi in palindromic_surjections(phi.m, phi.k, phi.n)
                for tau in gens:
                    got = mu(diagrams[phi], tau.index())
                    if tau != phi:
                        assert got == 0, (phi, tau, got)
                    elif pal and m == 2 * n:
                        assert got == 2, (phi, got)
                    elif not pal:
                        assert got == 1, (phi, got)
    assert time.monotonic() - start < 120.0


@report(4, "normal form round trip")
def test_criterion_4_normal_form_roundtrip():
    random.seed(20260809)
    pis = all_injections(3)
    for _ in range(50):
        exponents = {pi: random.randint(-2, 2) for pi in pis}
        parts = [injection_generator(pi, e) for pi, e in exponents.items() if e]
        l = stack_all(parts, 3)
        nf = homotopy_normal_form(l)
        assert nf.exponents == exponents


def vanishing_range(l, cap):
    for m in range(2, cap + 1):
        for index in itertools.product(range(1, l.n + 1), repeat=m):
            if mu(l, index) != 0:
                return m - 1
    return cap


@report(5, "stacking additivity")
def test_criterion_5_additivity():
    random.seed(5)
    pool = [injection_generator(pi, e) for pi in all_injections(3) for e in (1, -1)]
    for _ in range(50):
        a = stack_all(random.sample(pool, random.randint(1, 2)), 3)
        b = stack_all(random.sample(pool, random.randint(1, 2)), 3)
        ma, mb = vanishing_range(a, 3), vanishing_range(b, 3)
        window = min(ma + mb, 4)
        s = stack(a, b)
        for ln in range(2, window + 1):
            for index in itertools.product((1, 2, 3), repeat=ln):
                assert mu(s, index) == mu(a, index) + mu(b, index), (index,)


@report(6, "cabling pullback")
def test_criterion_6_cabling():
    cases = [
        (closure(from_braid(2, [1, 1])), 4),
        (whitehead_link(), 4),
        (milnor_link(3), 6),
    ]
    for l, max_len in cases:
        doubled = cable(l, [2] * l.n)
        h = cable_map(l, [2] * l.n)
        big = table(doubled, max_len, max_len)
        small = table(l, max_len, max_len)
        for index, got in big.entries.items():
            pulled = tuple(h[i - 1] for i in index)
            assert got == small.entries[pulled], (index, got)


@report(7, "self-delta verdicts")
def test_criterion_7_verdicts():
    w = whitehead_link()
    assert link_homotopy_trivial(w)
    assert not selfdelta_trivial(w)
    assert not mu_bar(w, (1, 1, 2, 2)).is_zero()
    h = closure(from_braid(2, [1, 1]))
    assert not link_homotopy_trivial(h)
    assert not selfdelta_trivial(h)
    for n in (2, 3):
        t = trivial_link(n)
        assert link_homotopy_trivial(t)
        assert selfdelta_trivial(t)


@report(8, "doubling consistency")
def test_criterion_8_cor2_consistency():
    for name, l in corpus_links():
        assert cabling_cross_check(l), name


@report(9, "engine invariant suites")
def test_criterion_9_engine_suites():
    rng = random.Random(99)
    for _ in range(200):
        letters = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randint(0, 8))]
        a = Word(3, tuple(letters))
        letters = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randint(0, 8))]
        b = Word(3, tuple(letters))
        q = rng.randint(1, 5)
        assert expand(a * b, q) == expand(a, q) * expand(b, q)
    diagrams = corpus_links()
    diagrams += [
        ("clasp", from_braid(2, [1, 1])),
        ("vpi123", injection_generator(all_injections(3)[-1])),
    ]
    for name, d in diagrams:
        for comp in range(1, d.n + 1):
            w = wirtinger.longitude_word(d, comp, 2)
            assert w.exponent_sum(comp) == 0, (name, comp)
    for name, d in diagrams:
        t = 3
        comps = range(1, d.n + 1)
        graded = wirtinger.longitude_series(d, set(comps), dense(d.n, t - 1))
        for comp in comps:
            lo = oracles.longitude_series(d, comp, t, dense(d.n, t - 1))
            hi = oracles.longitude_series(d, comp, t + 1, dense(d.n, t - 1))
            assert graded[comp] == lo, (name, comp)
            for deg in range(t - 1):
                for mono in itertools.product(range(1, d.n + 1), repeat=deg):
                    assert lo.coefficient(mono) == hi.coefficient(mono), (name, comp)
    for name, l in corpus_links():
        # one batch per link: a query keeps nothing on the link
        indices = list(invariants.indices_up_to(l.n, 4, 4))
        values = invariants.residues(l, indices)
        for index in indices:
            rot = index[1:] + index[:1]
            assert values[index] == values[rot], (name, index)


@report(10, "example family value")
def test_criterion_10_example_core():
    from milnor.multiindex import Surjection

    tau = Surjection(3, 3, (1, 2, 2))
    assert tau in ascending_surjections(5, 3, 3)
    v = surjection_generator(tau)
    assert mu(v, (1, 2, 2, 3, 3)) == 1
    l = closure(v)
    low = table(l, 4, 4)
    assert all(r.is_zero() for r in low.entries.values())
    assert mu_bar(l, (1, 2, 2, 3, 3)) == Residue(1, 0)
