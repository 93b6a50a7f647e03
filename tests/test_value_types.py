"""The value types behave as immutable records: each validates its fields,
refuses assignment, hashes and compares by its fields in order, and prints
as ``Name(field=value, ...)``."""

import pytest

from milnor.freegroup import Word
from milnor.invariants import Residue
from milnor.multiindex import Injection, Surjection

# (type, field names, valid fields, another valid value, bad fields, error
# message, repr)
CASES = [
    (
        Injection,
        ("n", "values"),
        (3, (1, 2, 3)),
        (2, (1, 2)),
        (3, (1, 1)),
        "values (1, 1) are not pairwise distinct",
        "Injection(n=3, values=(1, 2, 3))",
    ),
    (
        Surjection,
        ("n", "k", "values"),
        (2, 2, (1,)),
        (2, 1, (2,)),
        (3, 1, (2, 2, 2, 3)),
        "value 2 hit 3 > 2 times",
        "Surjection(n=2, k=2, values=(1,))",
    ),
    (
        Residue,
        ("value", "modulus"),
        (7, 5),
        (-1, 0),
        (1, -2),
        "modulus must be nonnegative",
        "Residue(value=2, modulus=5)",
    ),
    (
        Word,
        ("rank", "letters"),
        (2, (1, 2, -2)),
        (3, (2,)),
        (2, (3,)),
        "letter 3 out of range for rank 2",
        "Word(rank=2, letters=(1,))",
    ),
]
CASE = pytest.mark.parametrize(
    "cls, names, fields, other, bad, message, text",
    CASES,
    ids=[case[0].__name__ for case in CASES],
)


@CASE
def test_validates(cls, names, fields, other, bad, message, text):
    with pytest.raises(ValueError) as exc:
        cls(*bad)
    assert str(exc.value) == message


@CASE
def test_is_immutable(cls, names, fields, other, bad, message, text):
    value = cls(*fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@CASE
def test_equal_values_hash_equal(cls, names, fields, other, bad, message, text):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, cls(*other)}) == 2


@CASE
def test_sorts_by_field_order(cls, names, fields, other, bad, message, text):
    values = [cls(*fields), cls(*other)]
    key = [tuple(getattr(v, name) for name in names) for v in values]
    assert sorted(values) == [v for _, v in sorted(zip(key, values))]
    assert sorted(values, reverse=True) == sorted(values)[::-1]


@CASE
def test_repr(cls, names, fields, other, bad, message, text):
    assert repr(cls(*fields)) == text


def test_normalises_on_construction():
    assert Residue(7, 5) == Residue(2, 5)
    assert Residue(7, 5).value == 2
    assert Word(2, [1, 2, -2]).letters == (1,)
    assert len(Word(2, (1, 2, -2))) == 1 and not Word(2, (1, -1))
    assert Word(2, (1,)) * Word(2, (2,)) == Word(2, (1, 2))
