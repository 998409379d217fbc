"""Exact scalars: Gaussian rationals (rational real and imaginary parts).

Every computation in this package happens in the field Q(i); there is no
floating point anywhere. A :class:`Scalar` is three Python ints ``a, b, d``
meaning ``(a + b*i) / d``, kept canonical:

    d > 0,    gcd(a, b, d) == 1,    zero is (0, 0, 1).

Canonical triples make equality structural. Every operation restores the
invariant through one constructor, ``_canonical``, which divides by the
three-argument ``math.gcd``; a result with denominator 1 needs no division.

Text grammar (used by all JSON documents and CLI flags)::

    RAT    := INT | INT "/" POSINT
    SCALAR := RAT | RAT "i" | RAT ("+"|"-") UNSIGNED-RAT "i"

Examples: ``3/2``, ``-1``, ``2i``, ``1/2-3i``. Digits are ASCII ``0-9``;
whitespace inside a scalar token is forbidden.
"""

from __future__ import annotations

import re as _re
import sys as _sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Scalar",
    "ScalarError",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "I",
    "as_scalar",
    "parse_scalar",
]


class ScalarError(ValueError):
    """Raised for text that does not match the scalar grammar, and for a
    scalar too long to convert between int and text."""


_SCALAR_RE = _re.compile(
    r"(?P<n1>[+-]?[0-9]+)(?:/(?P<d1>[0-9]+))?"
    r"(?:(?:(?P<n2>[+-][0-9]+)(?:/(?P<d2>[0-9]+))?)?(?P<imag>i))?"
)


class Scalar:
    """An immutable Gaussian rational ``(a + b*i) / d`` in canonical form."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        """``re + im*i`` from ints, Fractions or real scalar strings.

        A string part goes through :func:`parse_scalar`. Floats, Decimals and
        bools are refused with :class:`ScalarError`.
        """
        if type(re) is not int:
            re = _exact_part(re)
        if type(im) is not int:
            im = _exact_part(im)
        # Both parts are in lowest terms, so over their lcm gcd(a, b, d) == 1.
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    # -- parts --------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- ring/field operations ----------------------------------------------
    #
    # A result with denominator 1, behind most products, is built in place
    # (``_new`` plus three slot stores); every other one through _canonical.

    def __add__(self, other):
        if type(other) is Scalar:
            c, e, f = other.a, other.b, other.d
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        d = self.d
        if d != f:
            return _canonical(self.a * f + c * d, self.b * f + e * d, d * f)
        if d != 1:
            return _canonical(self.a + c, self.b + e, d)
        s = _new(Scalar)
        s.a = self.a + c
        s.b = self.b + e
        s.d = 1
        return s

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if type(other) is Scalar or _triple(other) else NotImplemented

    def __rsub__(self, other):
        return -self + other if _triple(other) else NotImplemented

    def __mul__(self, other):
        if type(other) is Scalar:
            c, e, f = other.a, other.b, other.d
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            c, e, f = t
        a1, b1, d = self.a, self.b, self.d * f
        if d != 1:
            return _canonical(a1 * c - b1 * e, a1 * e + b1 * c, d)
        s = _new(Scalar)
        s.a = a1 * c - b1 * e
        s.b = a1 * e + b1 * c
        s.d = 1
        return s

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            t = _triple(other)
            if t is None:
                return NotImplemented
            other = _scalar(*t)
        return self * other.inverse()

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _scalar(*t) * self.inverse()

    def __neg__(self) -> "Scalar":
        return _scalar(-self.a, -self.b, self.d)

    def __pos__(self) -> "Scalar":
        return self

    def conjugate(self) -> "Scalar":
        return _scalar(self.a, -self.b, self.d)

    def inverse(self) -> "Scalar":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero")
        # d / (a + b*i) = d * (a - b*i) / (a^2 + b^2)
        return _canonical(d * a, -d * b, n)

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is Scalar:
            return self.a == other.a and self.b == other.b and self.d == other.d
        t = _triple(other)
        if t is None:
            return NotImplemented
        return (self.a, self.b, self.d) == t

    def __hash__(self) -> int:
        # A real scalar equals its int or Fraction, so it must hash like it; a
        # Gaussian one equals only a Scalar, whose canonical triple is unique.
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_text(a, d)
        if not a:
            return f"{_ratio_text(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}i"

    def __repr__(self) -> str:
        return f"Scalar({self})"


_new = object.__new__


def _scalar(a: int, b: int, d: int) -> Scalar:
    """The Scalar ``(a + b*i) / d`` from a triple already in canonical form."""
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _canonical(a: int, b: int, d: int) -> Scalar:
    """The Scalar ``(a + b*i) / d`` for ``d > 0``: the one place a triple is
    divided by ``gcd(a, b, d)`` into canonical form."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _scalar(a, b, d)


def _triple(value):
    """``(a, 0, d)`` of an int or Fraction operand, else None."""
    if isinstance(value, int) or type(value) is Fraction:
        return value.numerator, 0, value.denominator
    return None


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, as ``str(Fraction(n, d))`` writes it."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    try:
        return f"{n}/{d}" if d != 1 else str(n)
    except ValueError:  # past Python's limit on int/str conversion
        raise ScalarError(f"exact result with a part of {_digit_count(max(abs(n), d))} digits "
                          f"is over the {_sys.get_int_max_str_digits()}-digit limit") from None


def _digit_count(m: int) -> int:
    """The number of decimal digits of ``m`` > 0, without writing it out."""
    k = (m.bit_length() - 1) * 30102 // 100000  # log10(2) > 0.30102, so at most digits - 1
    while 10 ** (k + 1) <= m:
        k += 1
    return k + 1


ZERO = _scalar(0, 0, 1)
ONE = _scalar(1, 0, 1)
MINUS_ONE = _scalar(-1, 0, 1)
I = _scalar(0, 1, 1)


def _exact_part(value) -> Fraction:
    if isinstance(value, str):
        s = parse_scalar(value)
        if s.b:
            raise ScalarError(f"not a real scalar part: {value!r}")
        return Fraction(s.a, s.d)
    if isinstance(value, (bool, float, Decimal)):
        raise ScalarError(f"not an exact scalar part: {value!r}")
    return Fraction(value)


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction, Scalar, or grammar string to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, bool):
        raise ScalarError(f"not a scalar: {value!r}")
    if isinstance(value, int) or type(value) is Fraction:
        return _scalar(value.numerator, 0, value.denominator)
    raise ScalarError(f"not a scalar: {value!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar token such as ``3/2``, ``-1``, ``2i`` or ``1/2-3i``."""
    if not isinstance(text, str):
        raise ScalarError(f"expected a scalar string, got {text!r}")
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        raise ScalarError(f"bad scalar syntax: {text!r}")
    parts = m.group("n1", "d1", "n2", "d2")
    try:
        p, q, r, s = [int(part) if part else 1 for part in parts]
    except ValueError:  # past Python's limit on int/str conversion
        digits = max(len(part.lstrip("+-")) for part in parts if part)
        raise ScalarError(f"scalar part of {digits} digits is over the "
                          f"{_sys.get_int_max_str_digits()}-digit limit") from None
    if m["imag"] is None:
        r, s = 0, 1
    elif parts[2] is None:
        p, q, r, s = 0, 1, p, q
    if not q or not s:
        raise ScalarError(f"zero denominator in scalar: {text!r}")
    # p/q + (r/s) i = (p*s + r*q i) / (q*s)
    return _canonical(p, r, q) if q == s else _canonical(p * s, r * q, q * s)
