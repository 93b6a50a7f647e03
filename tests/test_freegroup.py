import pytest
from hypothesis import given, strategies as st

from oracles import commutator, nested_commutator

from milnor.freegroup import Word

words = st.builds(
    lambda letters: Word(4, tuple(letters)),
    st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4]), max_size=12),
)


def test_reduction():
    assert Word(2, (1, -1)).letters == ()
    assert Word(2, (1, 2, -2, -1, 1)).letters == (1,)
    assert (Word(2, (1,)) * Word(2, (1,)).inverse()) == Word(2)


def test_products():
    m1, m2 = Word(2, (1,)), Word(2, (2,))
    assert (m1 * m2).letters == (1, 2)
    w = Word(3, (1, 2)) * Word(3, (-2, 3))
    assert w.letters == (1, 3)
    assert str(Word(3, (1, 2, -1, -2))) == "1 2 -1 -2"


def test_rank_mismatch():
    with pytest.raises(ValueError):
        Word(2, (1,)) * Word(3, (1,))


def test_letter_range():
    with pytest.raises(ValueError):
        Word(2, (3,))
    with pytest.raises(ValueError):
        Word(2, (0,))


def test_rank_and_letters_are_integers():
    for rank, letters in [(2, (1.0,)), (2, (True,)), (2.0, (1,)), (True, ())]:
        with pytest.raises(ValueError, match="must be integers"):
            Word(rank, letters)


def test_inverse():
    assert Word(2, (1, 2)).inverse().letters == (-2, -1)
    # division multiplies by the inverse on the right
    assert (Word(2, (1, 2)) / Word(2, (1, 2))).letters == ()
    assert (Word(2, (1, 2)) / Word(2, (2,))).letters == (1,)
    assert (Word(2, (1,)) / Word(2, (2,))).letters == (1, -2)


def test_commutator():
    m1, m2 = Word(2, (1,)), Word(2, (2,))
    assert commutator(m1, m1) == Word(2)
    assert commutator(m1, m2).letters == (1, 2, -1, -2)


def test_nested_commutator():
    m = [Word(3, (j,)) for j in (1, 2, 3)]
    assert nested_commutator([m[0]]) == m[0]
    assert nested_commutator(m[:2]) == commutator(m[0], m[1])
    inner = commutator(m[1], m[2])
    expect = m[0] * inner * m[0].inverse() * inner.inverse()
    assert nested_commutator(m) == expect
    with pytest.raises(ValueError):
        nested_commutator([])


@given(words, words, words)
def test_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words)
def test_inverse_laws(w):
    assert w.inverse().inverse() == w
    assert w * w.inverse() == Word(4)


@given(words, words)
def test_commutator_exponent_sums(a, b):
    c = commutator(a, b)
    for j in range(1, 5):
        assert c.exponent_sum(j) == 0

