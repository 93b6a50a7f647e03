import itertools
import math

import pytest
from oracles import repeat_max

from milnor.multiindex import (
    Injection,
    Surjection,
    all_injections,
    ascending_surjections,
    format_index,
    injections,
    palindromic_partner,
    palindromic_surjections,
    selfdelta_generator_indices,
    surjections,
)


def reverse(t):
    """t precomposed with i -> m-1-i: its value sequence reversed."""
    return Surjection(t.n, t.k, t.values[::-1])


def brute_injections(k, n):
    """Oracle: filter all injections by the ordering constraint."""
    out = []
    for vals in itertools.permutations(range(1, n + 1), k):
        if vals[k - 2] < vals[k - 1] and all(v < vals[k - 2] for v in vals[: k - 2]):
            out.append(vals)
    return sorted(out)


def brute_surjections(m, k, n):
    """Oracle: filter all tuples over {1..n}\\{k} by the multiplicity and
    image conditions."""
    out = []
    pool = [v for v in range(1, n + 1) if v != k]
    for vals in itertools.product(pool, repeat=m - 2):
        if set(vals) != set(pool):
            continue
        if any(vals.count(v) > 2 for v in set(vals)):
            continue
        if any(vals.count(v) != 1 for v in set(vals) if v > k):
            continue
        out.append(vals)
    return sorted(out)


def mobius(d):
    """The Moebius function of a positive integer."""
    out, p = 1, 2
    while d > 1:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return out


def witt(alpha):
    """Witt's dimension of the multidegree-alpha part of the free Lie algebra
    (Witt, 1937): the sum over d dividing every alpha_i of mu(d) times the
    multinomial (N/d)! / prod (alpha_i/d)!, divided by N = sum alpha_i."""
    total = sum(alpha)
    terms = 0
    for d in range(1, math.gcd(*alpha) + 1):
        if all(a % d == 0 for a in alpha):
            multinomial = math.factorial(total // d)
            for a in alpha:
                multinomial //= math.factorial(a // d)
            terms += mobius(d) * multinomial
    assert terms % total == 0
    return terms // total


class TestRepeatMax:
    def test_examples(self):
        assert repeat_max((1, 1, 2, 3)) == 2
        assert repeat_max((1, 2, 3, 1, 2, 2, 3)) == 3
        assert repeat_max(()) == 0

    def test_single(self):
        assert repeat_max((5,)) == 1


class TestIndexText:
    def test_format(self):
        assert format_index((1, 2, 2, 3, 3), 3) == "12233"
        assert format_index((1, 10), 12) == "1,10"


class TestInjections:
    def test_k2_n3(self):
        assert [p.values for p in injections(2, 3)] == [(1, 2), (1, 3), (2, 3)]

    def test_k3_n3(self):
        assert [p.values for p in injections(3, 3)] == [(1, 2, 3)]

    def test_against_brute_force(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                family = injections(k, n)
                assert [p.values for p in family] == brute_injections(k, n)
                # built without the constructor's check, each member passes it
                assert all(Injection(*p) == p for p in family)

    def test_top_arity_count(self):
        import math

        for n in range(2, 7):
            assert len(injections(n, n)) == math.factorial(n - 2)

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            injections(1, 3)
        with pytest.raises(ValueError):
            injections(4, 3)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            Injection(3, (2, 1, 3))  # early value above the top pair
        with pytest.raises(ValueError):
            Injection(3, (3, 2))
        with pytest.raises(ValueError):
            Injection(3, (1, 1, 2))

    @pytest.mark.parametrize("n, values", [(3, (1.0, 2.0)), (3, (True, 2)), (3.0, (1, 2))])
    def test_fields_are_integers(self, n, values):
        with pytest.raises(ValueError, match="must be integers"):
            Injection(n, values)

    def test_all_injections_order(self):
        seq = all_injections(3)
        assert [p.values for p in seq] == [(1, 2), (1, 3), (2, 3), (1, 2, 3)]
        assert seq[0].values[-1] == 2 and seq[-1].values[-1] == 3


class TestSurjections:
    def test_m4_k2_n2(self):
        assert [t.values for t in surjections(4, 2, 2)] == [(1, 1)]

    def test_m4_k1_n2_empty(self):
        assert surjections(4, 1, 2) == []

    def test_contains_example(self):
        assert (1, 2, 2) in [t.values for t in surjections(5, 3, 3)]

    def test_against_brute_force(self):
        # every family through n = 4, and the two n = 5 families at k = n
        # that the Brunnian representative lists
        cases = [
            (m, k, n)
            for n in range(2, 5)
            for m in range(n + 1, 2 * n + 1)
            for k in range(1, n + 1)
        ]
        for m, k, n in cases + [(9, 5, 5), (10, 5, 5)]:
            family = surjections(m, k, n)
            assert [t.values for t in family] == brute_surjections(m, k, n)
            # built without the constructor's check, each member passes it
            assert all(Surjection(*t) == t for t in family)

    def test_builds_only_members(self, monkeypatch):
        # listing constructs each member once and no rejected candidate:
        # a filter over all 4^8 sequences of the pool would make 65,536
        seen = []
        make, new = Surjection._make, Surjection.__new__

        def spy_make(cls, iterable):
            t = make(iterable)
            seen.append(t.values)
            return t

        def spy_new(cls, n, k, values):
            seen.append(values)
            return new(cls, n, k, values)

        monkeypatch.setattr(Surjection, "_make", classmethod(spy_make))
        monkeypatch.setattr(Surjection, "__new__", spy_new)
        family = surjections(10, 5, 5)
        monkeypatch.undo()
        assert len(family) == 2520
        assert sorted(seen) == [t.values for t in family]

    def test_empty_below_threshold(self):
        for n in range(2, 5):
            for m in range(n + 1, 2 * n + 1):
                for k in range(1, n + 1):
                    if k < m - n:
                        assert surjections(m, k, n) == []

    def test_range_errors(self):
        with pytest.raises(ValueError):
            surjections(2, 1, 2)
        with pytest.raises(ValueError):
            surjections(5, 1, 2)
        with pytest.raises(ValueError):
            surjections(4, 3, 2)

    @pytest.mark.parametrize(
        "n, k, values",
        [(3, 3, (1.0, 2, 1, 2)), (3, 3, (1, 2, True, 2)), (3, 3.0, (1, 2, 1, 2))],
    )
    def test_fields_are_integers(self, n, k, values):
        with pytest.raises(ValueError, match="must be integers"):
            Surjection(n, k, values)

    def test_index_of(self):
        t = Surjection(3, 3, (1, 2, 2))
        assert t.index() == (1, 2, 2, 3, 3)
        assert t.m == 5


class TestFamilies:
    def test_m4_k2_n2(self):
        assert [t.values for t in palindromic_surjections(4, 2, 2)] == [(1, 1)]
        assert ascending_surjections(4, 2, 2) == []

    def test_m5_k3_n3_membership(self):
        asc = [t.values for t in ascending_surjections(5, 3, 3)]
        assert (1, 2, 2) in asc
        assert [t.values for t in palindromic_surjections(5, 3, 3)] == [
            (1, 2, 1),
            (2, 1, 2),
        ]

    def test_palindromic_empty_at_low_m(self):
        assert palindromic_surjections(4, 1, 3) == []

    def test_reversal(self):
        t = Surjection(3, 3, (1, 2, 2))
        assert reverse(t).values == (2, 2, 1)
        assert reverse(reverse(t)) == t
        for r in palindromic_surjections(6, 3, 3):
            assert reverse(r) == r

    def test_partition(self):
        # every surjection is palindromic, ascending, or the reversal of an
        # ascending one, exclusively
        for n in range(2, 5):
            for m in range(n + 1, 2 * n + 1):
                for k in range(1, n + 1):
                    full = set(surjections(m, k, n))
                    pal = set(palindromic_surjections(m, k, n))
                    asc = set(ascending_surjections(m, k, n))
                    desc = {reverse(t) for t in asc}
                    assert pal | asc | desc == full
                    assert not pal & asc
                    assert not pal & desc
                    assert not asc & desc

    def test_ascending_reversal_leaves_family(self):
        for t in ascending_surjections(5, 3, 3) + ascending_surjections(6, 3, 3):
            assert reverse(t) not in ascending_surjections(t.m, t.k, t.n)

    def test_odd_palindromic_center(self):
        # the palindromic family at k = n-1 pins the center value to n
        for n in range(2, 6):
            for t in palindromic_surjections(2 * n - 1, n - 1, n):
                assert t.values[n - 2] == n

    def test_partner_bijection(self):
        for n in range(2, 6):
            odd = palindromic_surjections(2 * n - 1, n, n)
            even = palindromic_surjections(2 * n, n, n)
            partners = [palindromic_partner(t) for t in odd]
            assert sorted(p.values for p in partners) == sorted(
                t.values for t in even
            )
            assert len(set(partners)) == len(odd)

    def test_even_palindromic_count(self):
        for n in range(2, 6):
            assert len(palindromic_surjections(2 * n, n, n)) == math.factorial(n - 1)

    def test_generator_count_is_the_lie_rank(self):
        # the classifying families have one member per independent
        # length-2n invariant: the multidegree-(2, ..., 2) count of
        # Habegger-Lin's rank, sum_k W(alpha - e_k) - W(alpha) over Witt's
        # dimensions W, with alpha = (2, ..., 2)
        ranks = []
        for n in range(2, 6):
            alpha = (2,) * n
            rank = sum(witt(alpha[:k] + (1,) + alpha[k + 1 :]) for k in range(n))
            ranks.append(rank - witt(alpha))
            assert len(selfdelta_generator_indices(n, 2 * n)) == ranks[-1], n
        assert ranks == [1, 4, 48, 1272]
        # the multilinear part of the free Lie algebra on n letters has
        # (n - 1)! dimensions, and x^3 spans no Lie element
        assert [witt((1,) * n) for n in range(1, 6)] == [1, 1, 2, 6, 24]
        assert witt((3,)) == 0

    def test_generator_listing(self):
        gens = selfdelta_generator_indices(3, 6)
        assert [(g.k, g.values) for g in gens] == [
            (3, (1, 1, 2, 2)),
            (3, (1, 2, 1, 2)),
            (3, (1, 2, 2, 1)),
            (3, (2, 1, 1, 2)),
        ]

    def test_generator_listing_is_the_union_of_both_families(self):
        # one pass per (m, k) keeps each sequence no larger than its
        # reversal: the ascending and the palindromic family, in one order
        for n in range(1, 5):
            for m in range(n + 1, 2 * n + 1):
                union = []
                for k in range(1, n + 1):
                    union += ascending_surjections(m, k, n)
                    union += palindromic_surjections(m, k, n)
                union.sort(key=lambda t: (t.k, t.values))
                assert selfdelta_generator_indices(n, m) == union, (n, m)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Injection(3, (0, 2)), r"value 0 out of range 1\.\.3"),
        (lambda: Surjection(3, 3, (1,)), r"m=3 out of range \(3, 6\]"),
        (lambda: palindromic_partner(Surjection(2, 2, (1, 1))), "m = 2n-1, k = n"),
    ],
    ids=["injection-value-0", "surjection-too-short", "partner-of-length-2n"],
)
def test_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()
