"""Exact scalars: Gaussian rationals (rational real and imaginary parts).

Every computation in this package happens in the field Q(i); there is no
floating point anywhere. ``Fraction`` keeps numerators coprime with positive
denominators, so scalars are canonical and equality/hashing are structural.

Text grammar (used by all JSON documents and CLI flags)::

    RAT    := INT | INT "/" POSINT
    SCALAR := RAT | RAT "i" | RAT ("+"|"-") UNSIGNED-RAT "i"

Examples: ``3/2``, ``-1``, ``2i``, ``1/2-3i``. Whitespace inside a scalar
token is forbidden.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

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
    """Raised for text that does not match the scalar grammar."""


_F0 = Fraction(0)
_F1 = Fraction(1)

_SCALAR_RE = _re.compile(
    r"^(?P<first>[+-]?\d+(?:/\d+)?)"
    r"(?:(?P<second>[+-]\d+(?:/\d+)?)?(?P<imag>i))?$"
)


class Scalar:
    """An immutable Gaussian rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s.re = re
        s.im = im
        return s

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_rational(self) -> bool:
        return not self.im

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._make(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Rational-only fast path; dominant in practice.
        if not self.im and not other.im:
            return Scalar._make(self.re * other.re, _F0)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self) -> "Scalar":
        return Scalar._make(-self.re, -self.im)

    def __pos__(self) -> "Scalar":
        return self

    def conjugate(self) -> "Scalar":
        return Scalar._make(self.re, -self.im)

    def inverse(self) -> "Scalar":
        if not self.im:
            return Scalar._make(_F1 / self.re, _F0)
        norm = self.re * self.re + self.im * self.im
        return Scalar._make(self.re / norm, -self.im / norm)

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # A real scalar equals its Fraction, so it must hash like it.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)


def _coerce(value):
    if type(value) is Scalar:
        return value
    if isinstance(value, int) or type(value) is Fraction:
        return Scalar._make(Fraction(value), _F0)
    if isinstance(value, Scalar):
        return value
    return NotImplemented


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction, Scalar, or grammar string to a Scalar."""
    if type(value) is Scalar or isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, bool):
        raise ScalarError(f"not a scalar: {value!r}")
    if isinstance(value, int) or type(value) is Fraction:
        return Scalar._make(Fraction(value), _F0)
    raise ScalarError(f"not a scalar: {value!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar token such as ``3/2``, ``-1``, ``2i`` or ``1/2-3i``."""
    if not isinstance(text, str):
        raise ScalarError(f"expected a scalar string, got {text!r}")
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ScalarError(f"bad scalar syntax: {text!r}")
    first, second, imag = m.group("first"), m.group("second"), m.group("imag")
    try:
        if imag is None:
            return Scalar._make(Fraction(first), _F0)
        if second is None:
            return Scalar._make(_F0, Fraction(first))
        return Scalar._make(Fraction(first), Fraction(second))
    except ZeroDivisionError:
        raise ScalarError(f"zero denominator in scalar: {text!r}") from None
