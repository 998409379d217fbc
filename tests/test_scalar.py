import pytest
from decimal import Decimal
from fractions import Fraction
from math import gcd

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


@pytest.mark.parametrize("text", ["2\n", "1/2\n", "2i\n", "1/2-3i\n"])
def test_parse_refuses_a_trailing_newline(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)


def test_constructor_refuses_a_trailing_newline():
    with pytest.raises(ScalarError):
        Scalar("1/2\n")


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


@pytest.mark.parametrize(
    "parts", [(0.1,), (1, 0.5), (True,), (1, False), (float("nan"),), (Fraction(1, 2), 2.0)]
)
def test_constructor_refuses_floats_and_bools(parts):
    with pytest.raises(ScalarError):
        Scalar(*parts)


@pytest.mark.parametrize(
    "parts", [("1.5",), (" 2 ",), ("1e-3",), ("2i",), (1, "1/2+i"), (Decimal("1.5"),), (0, Decimal(2))]
)
def test_constructor_refuses_text_outside_the_grammar_and_decimals(parts):
    with pytest.raises(ScalarError):
        Scalar(*parts)


def test_constructor_parses_real_scalar_strings():
    assert Scalar("1/2", 0) == Scalar(Fraction(1, 2))
    assert Scalar("-3", "2/4") == Scalar(-3, Fraction(1, 2))


def test_constructor_keeps_ints_and_fractions():
    s = Scalar(Fraction(6, 4), -3)
    assert (s.a, s.b, s.d) == (3, -6, 2)
    assert Scalar(Fraction(1, 3), Fraction(1, 6)) == Scalar(Fraction(2, 6), Fraction(1, 6))
    assert str(Scalar(7)) == "7"


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


# -- differential: the (a, b, d) core against pairs of Fractions --------------------

integers = st.one_of(st.integers(-12, 12), st.integers(-(2 ** 80), 2 ** 80))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70))
rationals = st.builds(Fraction, integers, denominators)
parts = st.one_of(st.just(Fraction(0)), rationals)
pairs = st.tuples(parts, parts)  # (re, im), the reference representation


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def ref_text(x):
    """The text of ``re + im*i`` written from the two Fractions."""
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def assert_is(s, x):
    """``s`` is the canonical Scalar of the reference pair ``x``."""
    assert type(s) is Scalar
    assert type(s.a) is int and type(s.b) is int and type(s.d) is int
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    if not (s.a or s.b):
        assert (s.a, s.b, s.d) == (0, 0, 1)
    assert (s.re, s.im) == x
    assert str(s) == ref_text(x)


@given(pairs, pairs)
def test_operations_match_fraction_pairs(x, y):
    s, t = Scalar(*x), Scalar(*y)
    assert_is(s, x)
    assert_is(s + t, (x[0] + y[0], x[1] + y[1]))
    assert_is(s - t, (x[0] - y[0], x[1] - y[1]))
    assert_is(s * t, ref_mul(x, y))
    assert_is(-s, (-x[0], -x[1]))
    assert_is(s.conjugate(), (x[0], -x[1]))
    if any(y):
        assert_is(t.inverse(), ref_inverse(y))
        assert_is(s / t, ref_mul(x, ref_inverse(y)))
    else:
        with pytest.raises(ZeroDivisionError):
            t.inverse()


@given(pairs, st.one_of(integers, rationals))
def test_mixed_operands_match_fraction_pairs(x, q):
    s, r = Scalar(*x), (Fraction(q), Fraction(0))
    assert_is(s + q, (x[0] + q, x[1]))
    assert_is(q + s, (x[0] + q, x[1]))
    assert_is(s - q, (x[0] - q, x[1]))
    assert_is(q - s, (q - x[0], -x[1]))
    assert_is(s * q, ref_mul(x, r))
    assert_is(q * s, ref_mul(x, r))
    if q:
        assert_is(s / q, ref_mul(x, ref_inverse(r)))
    if any(x):
        assert_is(q / s, ref_mul(r, ref_inverse(x)))
    assert (s == q) == (x == r)


@given(st.one_of(integers, rationals))
def test_real_scalars_hash_like_their_value(q):
    assert Scalar(q) == q and hash(Scalar(q)) == hash(q)
    assert as_scalar(q) == q and hash(as_scalar(q)) == hash(q)


@given(pairs)
def test_text_round_trip_and_hash(x):
    s = Scalar(*x)
    back = parse_scalar(str(s))
    assert_is(back, x)
    assert back == s and hash(back) == hash(s)


@pytest.mark.parametrize("text", ["١/٢", "３", "1/٢", "٣i", "1+２i", "-１"])
def test_parse_refuses_digits_outside_ascii(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)


@given(pairs.filter(lambda x: x[1] != 0), st.one_of(integers, rationals))
def test_gaussian_scalars_hash_by_their_value(x, q):
    s = Scalar(*x)
    for same in (parse_scalar(str(s)), s + 1 - 1, s * 2 / 2, Scalar(x[0], x[1])):
        assert same == s and hash(same) == hash(s)
    assert hash(Scalar(q)) == hash(q)
