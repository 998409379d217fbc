import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from algdeform.scalar import I, MINUS_ONE, ONE, ZERO, Scalar, ScalarError, as_scalar, parse_scalar


def test_grammar_round_trip():
    for text in ["3/2", "-1", "2i", "1/2-3i", "-1/2+3/4i", "0", "-7/3i", "5+1i"]:
        assert str(parse_scalar(text)) == text


def test_parse_values():
    assert parse_scalar("3/2") == Scalar(Fraction(3, 2))
    assert parse_scalar("-1") == Scalar(-1)
    assert parse_scalar("2i") == Scalar(0, 2)
    assert parse_scalar("1/2-3i") == Scalar(Fraction(1, 2), -3)
    assert parse_scalar("+3") == Scalar(3)


@pytest.mark.parametrize(
    "bad",
    ["", "i", "-i", "1 + 2i", " 1", "1/0", "3/", "/2", "1.5", "2j", "1+i", "i3", "1//2"],
)
def test_parse_rejects(bad):
    with pytest.raises(ScalarError):
        parse_scalar(bad)


def test_no_whitespace_inside_token():
    with pytest.raises(ScalarError):
        parse_scalar("1/2 -3i")


def test_arithmetic():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert a * b == Scalar(5, 5)
    assert I * I == MINUS_ONE
    assert (a / b) * b == a
    assert -a == Scalar(-1, -2)
    assert a.conjugate() == Scalar(1, -2)


def test_inverse():
    assert I.inverse() == -I
    s = Scalar(Fraction(3, 2), Fraction(-5, 7))
    assert s * s.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_int_coercion_in_ops():
    assert 2 * Scalar(3) == Scalar(6)
    assert Scalar(3) - 1 == Scalar(2)
    assert 1 - Scalar(3) == Scalar(-2)
    assert Scalar(4) / 2 == Scalar(2)


def test_equality_and_hash_are_structural():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert hash(Scalar(1, 2)) == hash(Scalar(1, 2))
    assert Scalar(1) == 1 and Scalar(1) != Scalar(1, 1)


def test_as_scalar():
    assert as_scalar("2i") == Scalar(0, 2)
    assert as_scalar(Fraction(1, 3)) == Scalar(Fraction(1, 3))
    assert as_scalar(Scalar(5)) is not None
    with pytest.raises(ScalarError):
        as_scalar(1.5)
    with pytest.raises(ScalarError):
        as_scalar(True)


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_field_inverses(a):
    assert a + (-a) == ZERO
    if a:
        assert a * a.inverse() == ONE


@given(scalars)
def test_format_parse_round_trip(a):
    assert parse_scalar(str(a)) == a


def test_hash_agrees_with_equality_for_real_values():
    for q in [0, 1, -7, 2 ** 70, Fraction(3, 2), Fraction(-5, 9), Fraction(4, 2)]:
        assert Scalar(q) == q
        assert hash(Scalar(q)) == hash(q)
    assert len({Scalar(1), 1}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({Scalar(1, 1), Scalar(1, -1), Scalar(1)}) == 3
