import itertools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import commutator, nested_commutator, repeat_max

from milnor import magnus
from milnor.freegroup import Word
from milnor.invariants import indices_up_to
from milnor.magnus import (
    NUMPY_SPLITS,
    Basis,
    Series,
    closure,
    dense,
    expand,
    generator_series,
    unit,
)

# -- independent oracle: dict-based truncated polynomials ---------------------


def poly_mul(a, b, q):
    by_degree = {}
    for mb, cb in b.items():
        by_degree.setdefault(len(mb), []).append((mb, cb))
    out = {}
    for ma, ca in a.items():
        for db in range(q - len(ma) + 1):
            for mb, cb in by_degree.get(db, ()):
                key = ma + mb
                out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def poly_expand(word, q):
    out = {(): 1}
    for x in word.letters:
        j = abs(x)
        if x > 0:
            g = {(): 1, (j,): 1}
        else:
            g = {(j,) * d: (-1) ** d for d in range(q + 1)}
        out = poly_mul(out, g, q)
    return out


def poly_inverse(a, q):
    """(1 + N)^-1 = sum_k (-N)^k, truncated beyond degree q."""
    assert a[()] == 1
    step = {m: -c for m, c in a.items() if m}
    out, term = {(): 1}, {(): 1}
    for _ in range(q):
        term = poly_mul(term, step, q)
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def as_dict(series):
    return dict(series.monomials())


def on_basis(basis, coeffs):
    """The series on basis with the given coefficients, zero elsewhere."""
    x = [coeffs.get(w, 0) for w in basis.words]
    return Series(basis, x if basis.small else np.array(x, dtype=np.int64))


words3 = st.builds(
    lambda letters: Word(3, tuple(letters)),
    st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=10),
)


class TestGeneratorSeries:
    def test_positive(self):
        s = generator_series(1, dense(2, 3))
        assert as_dict(s) == {(): 1, (1,): 1}

    def test_negative(self):
        b = dense(2, 3)
        s = unit(b) / generator_series(1, b)
        assert as_dict(s) == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}

    def test_geometric_identity(self):
        b = dense(2, 3)
        s = generator_series(1, b) * (unit(b) / generator_series(1, b))
        assert s == unit(b)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            generator_series(3, dense(2, 3))


class TestMultiply:
    def test_distributes(self):
        a = generator_series(1, dense(2, 2))
        b = generator_series(2, dense(2, 2))
        assert as_dict(a * b) == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}

    def test_truncates(self):
        a = generator_series(1, dense(2, 1))
        assert as_dict(a * a) == {(): 1, (1,): 2}

    def test_identity(self):
        a = expand(Word(2, (1, 2, -1)), 3)
        assert a * unit(dense(2, 3)) == a

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            unit(dense(2, 3)) * unit(dense(3, 3))
        with pytest.raises(ValueError):
            unit(dense(2, 3)) * unit(dense(2, 2))
        with pytest.raises(ValueError, match="series bases differ"):
            unit(dense(2, 3)) / unit(dense(2, 2))
        # series are Magnus-group elements: on both kernels, either operand
        # of a product or quotient with another constant term is refused
        for basis in (dense(2, 2), large_basis(2, 2)):
            one = unit(basis)
            for c in (-1, 2):
                other = on_basis(basis, {(): c, (1,): 1})
                for op in (operator.mul, operator.truediv):
                    for pair in ((one, other), (other, one)):
                        with pytest.raises(ValueError, match="constant term 1"):
                            op(*pair)


class TestExpand:
    def test_empty(self):
        assert expand(Word(3), 2) == unit(dense(3, 2))

    def test_commutator(self):
        w = commutator(Word(2, (1,)), Word(2, (2,)))
        assert as_dict(expand(w, 2)) == {(): 1, (1, 2): 1, (2, 1): -1}

    def test_nested_lowest_terms(self):
        # the right-normed bracket has coefficient +1 on its own ordered
        # monomial and nothing else ending in the last letter, in its degree
        for r in range(2, 5):
            w = nested_commutator([Word(4, (j,)) for j in range(1, r + 1)])
            s = expand(w, r - 0)
            for mono in itertools.product(range(1, 5), repeat=r):
                if mono[-1] != r:
                    continue
                expected = 1 if mono == tuple(range(1, r + 1)) else 0
                assert s.coefficient(mono) == expected
            # everything below the bracket degree vanishes
            for d in range(1, r):
                for mono in itertools.product(range(1, 5), repeat=d):
                    assert s.coefficient(mono) == 0

    def test_against_oracle(self):
        # q = 5 on rank 3 has 2,005 splits: the numpy kernel, whose inverse
        # letters divide int64 vectors
        assert dense(3, 4).small and dense(3, 5).splits == 2005 >= NUMPY_SPLITS
        w = Word(3, (1, 2, -1, 3, 3, -2, -3))
        for q in (4, 5):
            assert as_dict(expand(w, q)) == poly_expand(w, q)


class TestCoefficient:
    def test_basic(self):
        w = commutator(Word(2, (1,)), Word(2, (2,)))
        s = expand(w, 2)
        assert s.coefficient((1, 2)) == 1
        assert s.coefficient((2, 1)) == -1
        assert s.coefficient(()) == 1

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            unit(dense(2, 2)).coefficient((1, 1, 1))


class TestSeriesOps:
    def test_inverse(self):
        s = expand(Word(3, (1, 2, 3, -1)), 3)
        assert s * s.inverse() == unit(dense(3, 3))
        assert s.inverse() * s == unit(dense(3, 3))

    def test_inverse_needs_unit(self):
        with pytest.raises(ValueError):
            Series(dense(2, 2)).inverse()
        for c in (-1, 2):
            with pytest.raises(ValueError, match="constant term 1"):
                on_basis(dense(2, 2), {(): c, (1,): 1}).inverse()

    def test_str(self):
        w = commutator(Word(2, (1,)), Word(2, (2,)))
        assert str(expand(w, 2)) == "1 + X1X2 - X2X1"
        assert str(Series(dense(2, 2))) == "0"

    def test_str_coefficients(self):
        s = on_basis(dense(2, 2), {(): -3, (1, 2): 2})
        assert str(s) == "- 3 + 2X1X2"

    def test_object_fallback_exactness(self):
        # huge coefficients leave int64 range but stay exact
        s = on_basis(dense(1, 2), {(): 1, (1,): 2**40})
        p = s * s
        assert p.coefficient((1, 1)) == 2**80


def large_basis(n, q):
    """dense(n, q)'s monomials padded with powers of one more variable
    X_{n+1} until the basis takes the numpy kernel; no product or inverse of
    series in X_1..X_n has a nonzero coefficient on the padding."""
    for k in range(1, 100):
        basis = closure(n + 1, list(dense(n, q).words) + [(n + 1,) * k])
        if not basis.small:
            return basis
    raise AssertionError("no padded basis reaches NUMPY_SPLITS")


class TestOverflowGuard:
    """The int64 kernel's guard, on bases of at least NUMPY_SPLITS splits."""

    def test_l1_sum_does_not_wrap(self):
        # L1(a) = 1 + 2**63 wraps to a negative int64; the guard of b a,
        # which reads L1(a), must still see that it leaves int64 range
        a = on_basis(large_basis(2, 2), {(): 1, (1,): 2**62, (2,): 2**62})
        b = on_basis(large_basis(2, 2), {(): 1, (1,): 3})
        p = b * a
        assert p.coefficient((1, 1)) == 3 * 2**62
        assert p.coefficient((1, 2)) == 3 * 2**62
        assert p.coefficient((1,)) == 2**62 + 3

    @pytest.mark.parametrize(
        "op, p, o, o_over, want, want_over",
        [
            # a product: peak(p) + (L1(o) - 1) peak(p) = 2**30 + (2**30 - 1)
            # 2**30
            pytest.param(
                operator.mul,
                {(1,): 2**30},
                {(2,): 2**30 - 1},
                {(2,): 2**30},
                {(1,): 2**30, (2,): 2**30 - 1, (1, 2): 2**60 - 2**30},
                {(1,): 2**30, (2,): 2**30, (1, 2): 2**60},
                id="product",
            ),
            # a quotient of (1 + 2**30 X1)(1 + 2**29 X2) by 1 + 2**29 X2:
            # from degree 2 on, peak(p) + (L1(o) - 1) peak(q) = 2**59 +
            # 2**29 2**30; one more unit of o[X2] adds 2**31
            pytest.param(
                operator.truediv,
                {(1,): 2**30, (2,): 2**29, (1, 2): 2**59},
                {(2,): 2**29},
                {(2,): 2**29 + 1},
                {(1,): 2**30},
                {(1,): 2**30, (2,): -1, (1, 2): -(2**30), (2, 2): 2**29 + 1},
                id="quotient",
            ),
        ],
    )
    def test_near_boundary_stays_int64(self, op, p, o, o_over, want, want_over):
        # the one rule, peak(p) + (L1(o) - 1) max(1, peak(l)) <= 2**60: at
        # 2**60 exactly the result stays int64, one unit more of L1(o) falls
        # back to Python integers; every bound is exact in float64
        basis = large_basis(2, 2)
        p = on_basis(basis, {(): 1, **p})
        out = op(p, on_basis(basis, {(): 1, **o}))
        assert out.x.dtype == np.int64
        assert as_dict(out) == {(): 1, **want}
        out = op(p, on_basis(basis, {(): 1, **o_over}))
        assert out.x.dtype == object
        assert as_dict(out) == {(): 1, **want_over}

    def test_inverse_leaves_int64_exactly(self):
        s = on_basis(large_basis(1, 3), {(): 1, (1,): 2**40})
        want = {(): 1, (1,): -(2**40), (1, 1): 2**80, (1, 1, 1): -(2**120)}
        assert as_dict(s.inverse()) == want
        assert s * s.inverse() == unit(large_basis(1, 3))

    def test_division_leaves_int64_exactly(self):
        # (1 + cX) / (1 - cX) = 1 + 2cX + 2c^2 X^2 + 2c^3 X^3: the ends fit,
        # degree 2 crosses the guard, and the rest is solved on Python
        # integers
        c = 2**40
        p = on_basis(large_basis(1, 3), {(): 1, (1,): c})
        o = on_basis(large_basis(1, 3), {(): 1, (1,): -c})
        q = p / o
        assert q.x.dtype == object
        assert as_dict(q) == {(): 1, (1,): 2 * c, (1, 1): 2 * c**2, (1, 1, 1): 2 * c**3}
        assert q * o == p

    def test_quotient_ends_leave_int64_exactly(self):
        # q[X1] = p[X1] - o[X1] = 3 * 2**62 wraps in int64, so the ends are
        # refused before they are written
        c = 2**62 + 2**61
        p = on_basis(large_basis(1, 2), {(): 1, (1,): c})
        o = on_basis(large_basis(1, 2), {(): 1, (1,): -c})
        q = p / o
        assert q.coefficient((1,)) == 2 * c
        assert q * o == p

    def test_object_dividend_widens_the_divisor(self):
        # p is a product that left int64, o is int64: q[X1X1] subtracts
        # q[X1] o[X1], about 2**80, which must not be taken in int64
        basis = large_basis(1, 3)
        s = on_basis(basis, {(): 1, (1,): 2**35})
        p, o = s * s, on_basis(basis, {(): 1, (1,): 2**40})
        assert p.x.dtype == object and o.x.dtype == np.int64
        q = p / o
        assert q.coefficient((1,)) == 2**36 - 2**40
        assert q.coefficient((1, 1)) == 2**70 - (2**36 - 2**40) * 2**40
        assert q * o == p

    @pytest.mark.parametrize("lo, hi", [(0, None), (3, 17), (10, 10), (49, 50)])
    def test_norms_read_a_block_in_chunks(self, monkeypatch, lo, hi):
        # norms reads a block of rows NORM_ENTRIES entries at a time; its
        # figures are bit for bit those of one float64 copy of the block
        def one_shot(a):
            a = np.abs(a[..., lo:hi], dtype=np.float64)
            return float(np.max(a.sum(axis=-1), initial=0.0)), float(np.max(a, initial=0.0))

        large_basis(1, 1)  # loads numpy into magnus
        block = np.random.default_rng(0).integers(-(2**62), 2**62, (37, 50), np.int64)
        block[30] = 2**62 - 1  # the largest row and entry, in a late chunk
        monkeypatch.setattr(magnus, "NORM_ENTRIES", 120)  # two rows a chunk
        assert magnus.norms(block, lo, hi) == one_shot(block)
        assert magnus.norms(block[:1], lo, hi) == one_shot(block[:1])
        assert magnus.norms(block[5], lo, hi) == one_shot(block[5])


class TestPythonKernelExactness:
    """The same values on bases below NUMPY_SPLITS, held as Python integers."""

    def test_small_bases_hold_python_integers(self):
        assert dense(2, 2).small and dense(1, 3).small
        assert not large_basis(2, 2).small
        assert large_basis(2, 2).splits >= NUMPY_SPLITS
        assert isinstance(unit(dense(2, 2)).x, list)

    def test_l1_sum_does_not_wrap(self):
        a = on_basis(dense(2, 2), {(): 1, (1,): 2**62, (2,): 2**62})
        b = on_basis(dense(2, 2), {(): 1, (1,): 3})
        p = a * b
        assert p.coefficient((1, 1)) == 3 * 2**62
        assert p.coefficient((2, 1)) == 3 * 2**62
        assert p.coefficient((1,)) == 2**62 + 3

    def test_near_boundary(self):
        a = on_basis(dense(2, 2), {(): 1, (1,): 2**30 - 1})
        b = on_basis(dense(2, 2), {(): 1, (2,): 2**30})
        p = a * b
        assert p.coefficient((1, 2)) == (2**30 - 1) * 2**30
        a = on_basis(dense(2, 2), {(): 1, (1,): 2**30})
        p = a * b
        assert p.coefficient((1, 2)) == 2**60
        # coeffs reports int64 while values fit, object dtype once one leaves
        assert p.coeffs[2].dtype == np.int64
        a = on_basis(dense(2, 2), {(): 1, (1,): 2**40})
        assert (a * b).coeffs[2].dtype == object

    def test_inverse_leaves_int64_exactly(self):
        s = on_basis(dense(1, 3), {(): 1, (1,): 2**40})
        want = {(): 1, (1,): -(2**40), (1, 1): 2**80, (1, 1, 1): -(2**120)}
        assert as_dict(s.inverse()) == want
        assert s * s.inverse() == unit(dense(1, 3))


class TestBasis:
    def test_dense_is_degree_truncation(self):
        b = dense(2, 2)
        assert b.words == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
        assert b.q == 2 and b.splits == 1 + 2 * 2 + 4 * 3

    def test_closure_is_factor_closed_and_minimal(self):
        b = closure(3, [(1, 2, 3), (2, 2)])
        assert set(b.words) == {(), (1,), (2,), (3,), (1, 2), (2, 3), (2, 2), (1, 2, 3)}
        assert b == closure(3, [(2, 2), (1, 2, 3)])
        assert b != dense(3, 3) and b.q == 3

    def test_split_count_picks_the_kernel(self):
        # every split w = uv counts, len(w) + 1 per monomial
        b = closure(3, [(1, 2, 3), (2, 2), (3, 1)])
        assert b.splits == sum(len(w) + 1 for w in b.words) == 23
        assert dense(2, 2).splits == 17
        # the three bases measured at NUMPY_SPLITS: the r <= 2 query through
        # length 6 at n = 3, and the n = 6 injective queries through lengths
        # 4 and 5
        r2 = closure(3, [index[:-1] for index in indices_up_to(3, 6, 2)])
        inj4, inj5 = (
            closure(6, [p[:-1] for p in itertools.permutations(range(1, 7), k)])
            for k in (4, 5)
        )
        assert (r2.splits, r2.small) == (940, True)
        assert (inj4.splits, inj4.small) == (583, True)
        assert (inj5.splits, inj5.small) == (2383, False)

    def test_rejects_open_sets(self):
        with pytest.raises(ValueError):
            Basis(2, [(), (1,), (1, 2)])
        with pytest.raises(ValueError):
            closure(2, [(1, 3)])

    def test_rejects_non_integers_and_repeats(self):
        cases = [(2, [(), (1.0,)]), (2, [(), (True,)]), (2, [(), (1,), ("a",)]), (2.5, [(), (1,)])]
        for n, words in cases:
            with pytest.raises(ValueError, match="must be integers"):
                Basis(n, words)
        with pytest.raises(ValueError, match="repeated"):
            Basis(2, [(), (1,), (1,)])

    def test_rejects_a_set_without_the_empty_monomial(self):
        with pytest.raises(ValueError, match="the empty monomial"):
            Basis(2, [(1,)])

    def test_dense_takes_integers(self):
        for n, q in [(2, True), (2, 2.0), (2.0, 2), (True, 1)]:
            with pytest.raises(ValueError, match="integers"):
                dense(n, q)

    def test_generator_series_takes_an_integer_index(self):
        for j in (True, 1.0):
            with pytest.raises(ValueError, match="variable index"):
                generator_series(j, dense(2, 2))

    def test_outside_the_basis(self):
        s = Series(closure(2, [(1, 2)]))
        assert s.coefficient((1, 2)) == 0
        with pytest.raises(ValueError):
            s.coefficient((2, 1))
        with pytest.raises(ValueError):
            s * unit(dense(2, 2))

    def test_inner_has_no_degree_one_table(self):
        # degree 1 has no inner split, so no operation steps there; on both
        # kernels the step at degree 2 is acc + s(x, y) - s(u, v), and a
        # call at degree 1, or outside 2..q, finds no table
        for b in (dense(2, 3), large_basis(2, 3)):
            x, u = generator_series(1, b).x, generator_series(2, b).x
            lo, hi = b.bounds[2], b.bounds[3]
            got = list(b.inner(2, x[lo:hi], x, x, u, u))
            assert got == [(w == (1, 1)) - (w == (2, 2)) for w in b.words[lo:hi]]
            for d in (0, 1, b.q + 1):
                with pytest.raises(KeyError):
                    b.inner(d, x[b.bounds[1] : b.bounds[2]], x, x, u, u)

    def test_every_operation_is_one_step_per_degree(self, monkeypatch):
        # a product, a quotient and an inverse each solve one identity
        # x y = u v, so each takes one step per degree 2..q, on both kernels
        step = Basis.inner
        degrees = []

        def spy(basis, d, *args):
            degrees.append(d)
            return step(basis, d, *args)

        monkeypatch.setattr(Basis, "inner", spy)
        for b in (dense(2, 3), large_basis(2, 3)):
            g, h = generator_series(1, b), generator_series(2, b)
            for op in (lambda: g * h, lambda: g / h, g.inverse):
                degrees.clear()
                op()
                assert degrees == list(range(2, b.q + 1))

    def test_generator_series_stops_at_the_basis(self):
        b = closure(2, [(1, 1, 2)])
        assert as_dict(unit(b) / generator_series(1, b)) == {(): 1, (1,): -1, (1, 1): 1}
        assert as_dict(generator_series(2, b)) == {(): 1, (2,): 1}


@st.composite
def basis_series(draw):
    """A factor-closed basis (injective words, repetition at most 2, every
    word, or the closure of random words) on either side of NUMPY_SPLITS,
    with two random series on it, both with constant term 1; coefficients
    sometimes leave int64 range."""
    if draw(st.booleans()):
        # the numpy kernel: 1,317, 1,529 and 1,593 splits
        n, q, kind = draw(
            st.sampled_from([(4, 4, "r2"), (8, 3, "injective"), (4, 4, "dense")])
        )
    else:
        n = draw(st.integers(1, 3))
        q = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["injective", "r2", "dense", "random"]))
    if kind == "random":
        word = st.lists(st.integers(1, n), max_size=q).map(tuple)
        basis = closure(n, draw(st.lists(word, min_size=1, max_size=6)))
    else:
        bound = {"injective": 1, "r2": 2, "dense": q}[kind]
        basis = closure(
            n, [w for w in dense(n, q).words if repeat_max(w) <= bound]
        )
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**62), 2**62))
    size = len(basis.words)
    if basis.small:
        values = [draw(st.lists(coeff, min_size=size, max_size=size)) for _ in range(2)]
    else:
        # hundreds of coefficients come from one seeded generator, not one
        # draw each, which would cost seconds per example
        rnd = draw(st.randoms(use_true_random=False))
        values = [
            [rnd.choice((rnd.randint(-9, 9), rnd.randint(-(2**62), 2**62))) for _ in range(size)]
            for _ in range(2)
        ]
    a, b = (dict(zip(basis.words, v)) for v in values)
    a[()] = b[()] = 1
    return basis, a, b


def near_2_62(basis):
    """Two series with constant term 1 and every other coefficient within
    2**11 of +-2**62 (bases of at most 682 monomials)."""
    a = {w: (-1) ** i * (2**62 - i) for i, w in enumerate(basis.words)}
    b = {w: (-1) ** i * (2**62 - 3 * i) for i, w in enumerate(basis.words)}
    a[()] = b[()] = 1
    return basis, a, b


@settings(max_examples=150, deadline=None)
@given(basis_series())
@example(near_2_62(dense(1, 0)))  # one split: a one-item gather
@example(near_2_62(dense(2, 3)))  # the Python kernel, 49 splits
@example(near_2_62(dense(3, 5)))  # the numpy kernel, 2,005 splits
def test_basis_product_and_inverse_match_oracle(drawn):
    basis, a, b = drawn
    inside = set(basis.words)
    want = {m: c for m, c in poly_mul(a, b, basis.q).items() if m in inside}
    assert as_dict(on_basis(basis, a) * on_basis(basis, b)) == want
    inv = {m: c for m, c in poly_inverse(b, basis.q).items() if m in inside}
    assert as_dict(on_basis(basis, b).inverse()) == inv
    # the right quotient p / o, the q with q o = p
    p, o = on_basis(basis, a), on_basis(basis, b)
    quotient = poly_mul(a, poly_inverse(b, basis.q), basis.q)
    assert as_dict(p / o) == {m: c for m, c in quotient.items() if m in inside}
    assert (p / o) * o == p


@settings(max_examples=200)
@given(words3, words3)
def test_expand_is_multiplicative(a, b):
    q = 4
    assert expand(a * b, q) == expand(a, q) * expand(b, q)


@given(words3)
def test_group_like(w):
    s = expand(w, 3)
    assert s.constant == 1
    assert s * expand(w.inverse(), 3) == unit(dense(3, 3))


@given(words3, words3)
def test_commutator_expansion_no_linear_terms(a, b):
    s = expand(commutator(a, b), 3)
    for j in (1, 2, 3):
        assert s.coefficient((j,)) == 0
