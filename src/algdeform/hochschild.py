"""Cochains on an algebra with coefficients in itself, the coboundary
operator, cohomology dimensions, and the graded bracket of multilinear maps.

A :class:`Cochain` of arity n is an n-linear map A x ... x A -> A stored as a
sparse table over basis tuples. Supported arities are 0..3: arity 0 wraps a
single element, arity 1 an operator, arity 2 a candidate product, and arity 3
only ever appears as the image of the coboundary or as an associator.

The coboundary follows the classical alternating-sum convention

    (d f)(a_1, ..., a_{n+1}) = a_1 f(a_2, ..., a_{n+1})
        + sum_{i=1..n} (-1)^i f(a_1, ..., a_i a_{i+1}, ..., a_{n+1})
        + (-1)^{n+1} f(a_1, ..., a_n) a_{n+1}

so that for an operator N the coboundary is exactly the deformed product
N(A)B + AN(B) - N(AB), with no sign juggling left to the caller.

The graded bracket uses the standard insertion composition

    (P o Q)(...) = sum_i (-1)^{i (q-1)} P(..., Q(slot i ...), ...)
    [P, Q] = P o Q - (-1)^{(p-1)(q-1)} Q o P

whose two calibration identities ([product, N] = deformed product and
[product, product] = 0) are pinned by the regression tests.

Cohomology dimensions need the exact rank of the coboundary on arity-n
cochains, a d^(n+1) x d^(n+2) matrix. Its rows are never built as cochains:

* the structure constants are multiplied once by D, the common denominator
  of their real and imaginary parts. The coboundary is linear in them, so
  D * d has the same rank, and its entries are Gaussian integers;
* the row of each basis cochain e_t -> e_k is emitted straight from those
  scaled constants, term by term of the alternating sum above;
* with a nonzero imaginary part A + iB is realified: the rational rank of
  [[A, -B], [B, A]] is twice the rank over Q(i);
* the integer rows stream one at a time into ``linalg.integer_rank``, a
  fraction-free echelon elimination (after Bareiss 1968) that divides each
  new pivot row by the gcd of its entries and never back-substitutes.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Optional

from .algebra import Algebra, Element, Operator
from .errors import PreconditionError, SizeGuardError
from .linalg import common_denominator, integer_rank, realified, scaled_parts
from .scalar import MINUS_ONE, ONE, Scalar, as_scalar
from .tables import (
    Table,
    Vec,
    first_witness,
    table_add_into,
    table_insert_into,
    table_scaled,
    table_sub,
    table_tidy,
    vec_add_into,
)

__all__ = [
    "Cochain",
    "coboundary",
    "is_cocycle",
    "cohomology_dimension",
    "gerstenhaber_bracket",
    "MAX_ARITY",
    "COHOMOLOGY_SIZE_GUARD",
]

MAX_ARITY = 3
COHOMOLOGY_SIZE_GUARD = 10 ** 6


class Cochain:
    """A sparse n-linear map from basis tuples to coefficient vectors."""

    __slots__ = ("algebra", "arity", "table")

    def __init__(self, algebra: Algebra, arity: int, table: Table, copy: bool = True):
        if not 0 <= arity <= MAX_ARITY:
            raise PreconditionError(f"unsupported cochain arity {arity}")
        self.algebra = algebra
        self.arity = arity
        if copy:
            table = {t: dict(vec) for t, vec in table.items()}
        table_tidy(table)
        for t in table:
            if len(t) != arity:
                raise PreconditionError(f"table key {t} does not have arity {arity}")
        self.table = table

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_element(cls, x: Element) -> "Cochain":
        return cls(x.algebra, 0, {(): dict(x.coords)}, copy=False)

    @classmethod
    def from_operator(cls, op: Operator) -> "Cochain":
        table = {(j,): dict(col) for j, col in enumerate(op.columns) if col}
        return cls(op.algebra, 1, table, copy=False)

    @classmethod
    def product_cochain(cls, algebra: Algebra) -> "Cochain":
        """The multiplication of the algebra itself, as a 2-cochain."""
        return cls(algebra, 2, algebra.structure, copy=True)

    @classmethod
    def from_function(cls, algebra: Algebra, arity: int, fn) -> "Cochain":
        table: Table = {}
        for t in iter_product(range(algebra.dim), repeat=arity):
            img = fn(*t)
            vec = img.coords if isinstance(img, Element) else img
            if vec:
                table[t] = dict(vec)
        return cls(algebra, arity, table, copy=False)

    # -- evaluation -----------------------------------------------------------

    def value(self, *indices: int) -> Vec:
        """Coefficient vector at a basis tuple (do not mutate the result)."""
        if len(indices) != self.arity:
            raise PreconditionError(f"expected {self.arity} indices")
        return self.table.get(tuple(indices), {})

    def element(self, *indices: int) -> Element:
        return Element(self.algebra, dict(self.value(*indices)))

    def __call__(self, *args: Element) -> Element:
        if len(args) != self.arity:
            raise PreconditionError(f"expected {self.arity} arguments")
        acc: Vec = {}
        for t, vec in self.table.items():
            coef = ONE
            dead = False
            for slot, idx in enumerate(t):
                c = args[slot].coords.get(idx)
                if c is None:
                    dead = True
                    break
                coef = coef * c
            if not dead and coef:
                vec_add_into(acc, coef, vec)
        return Element(self.algebra, {k: v for k, v in acc.items() if v})

    # -- views ---------------------------------------------------------------

    def as_element(self) -> Element:
        if self.arity != 0:
            raise PreconditionError("only arity-0 cochains are elements")
        return Element(self.algebra, dict(self.table.get((), {})))

    def as_operator(self) -> Operator:
        if self.arity != 1:
            raise PreconditionError("only arity-1 cochains are operators")
        cols = [dict(self.table.get((j,), {})) for j in range(self.algebra.dim)]
        return Operator(self.algebra, cols)

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        acc = {t: dict(v) for t, v in self.table.items()}
        table_add_into(acc, ONE, other.table)
        return Cochain(self.algebra, self.arity, acc, copy=False)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.algebra, self.arity, table_sub(self.table, other.table), copy=False)

    def __rmul__(self, coef) -> "Cochain":
        s = as_scalar(coef)
        return Cochain(self.algebra, self.arity, table_scaled(s, self.table), copy=False)

    def __neg__(self) -> "Cochain":
        return MINUS_ONE * self

    def _compatible(self, other: "Cochain") -> None:
        if self.algebra is not other.algebra or self.arity != other.arity:
            raise PreconditionError("cochain mismatch (algebra or arity)")

    @property
    def is_zero(self) -> bool:
        return not table_tidy(self.table)

    def witness(self) -> Optional[tuple[tuple[int, ...], Vec]]:
        return first_witness(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.arity == other.arity
            and not table_sub(self.table, other.table)
        )

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, on {self.algebra.name}, {len(self.table)} rows)"


def coboundary(c: Cochain) -> Cochain:
    """The Hochschild coboundary, with the algebra product acting on both sides."""
    if c.arity >= MAX_ARITY:
        raise PreconditionError("coboundary output would exceed the supported arity")
    alg = c.algebra
    n = c.arity
    d = alg.dim
    out: Table = {}
    structure = alg.structure
    pairs_by = alg.pairs_by_product()
    right_sign = ONE if (n + 1) % 2 == 0 else MINUS_ONE
    for t, vec in c.table.items():
        # a_1 * f(...)
        for a in range(d):
            acc = out.setdefault((a,) + t, {})
            for m, coef in vec.items():
                cell = structure.get((a, m))
                if cell:
                    vec_add_into(acc, coef, cell)
        # f(..., a_i a_{i+1}, ...)
        for i in range(1, n + 1):
            sign = MINUS_ONE if i % 2 else ONE
            m = t[i - 1]
            for (x, y), coef in pairs_by.get(m, ()):  # e_x e_y contains e_m
                key = t[: i - 1] + (x, y) + t[i:]
                acc = out.setdefault(key, {})
                vec_add_into(acc, sign * coef, vec)
        # f(...) * a_{n+1}
        for b in range(d):
            acc = out.setdefault(t + (b,), {})
            for m, coef in vec.items():
                cell = structure.get((m, b))
                if cell:
                    vec_add_into(acc, right_sign * coef, cell)
    return Cochain(alg, n + 1, table_tidy(out), copy=False)


def is_cocycle(c: Cochain) -> bool:
    """True iff the coboundary of ``c`` vanishes identically."""
    return coboundary(c).is_zero


def _integer_tables(alg: Algebra) -> list[dict[tuple[int, int], dict[int, int]]]:
    """D times the structure constants as integer tables, D their common
    denominator: the real part, then the imaginary part if it is not zero."""
    structure = alg.structure
    den = common_denominator(s for vec in structure.values() for s in vec.values())
    parts = {pair: scaled_parts(vec, den) for pair, vec in structure.items()}
    tables = [{pair: re for pair, (re, _) in parts.items() if re}]
    im_table = {pair: im for pair, (_, im) in parts.items() if im}
    if im_table:
        tables.append(im_table)
    return tables


def _basis_rows(table: dict[tuple[int, int], dict[int, int]], d: int, n: int):
    """Row of the coboundary of each basis cochain e_t -> e_k, in the order
    (t, k), with the multiplication ``table`` in place of the product.

    Columns flatten (a_1, ..., a_{n+1}, output coordinate) in mixed radix
    base d, and the three terms of the alternating sum follow ``coboundary``.
    """
    left: dict[int, list[tuple[int, int, int]]] = {}  # k -> (a, m, e_a e_k at m)
    right: dict[int, list[tuple[int, int, int]]] = {}  # k -> (b, m, e_k e_b at m)
    pairs: dict[int, list[tuple[int, int, int]]] = {}  # m -> (x, y, e_x e_y at m)
    for (x, y), vec in table.items():
        for m, c in vec.items():
            left.setdefault(y, []).append((x, m, c))
            right.setdefault(x, []).append((y, m, c))
            pairs.setdefault(m, []).append((x, y, c))

    def flat(digits: tuple[int, ...]) -> int:
        acc = 0
        for idx in digits:
            acc = acc * d + idx
        return acc

    right_sign = 1 if (n + 1) % 2 == 0 else -1
    top = d ** (n + 1)
    for t in iter_product(range(d), repeat=n):
        tflat = flat(t)
        # f(..., a_i a_{i+1}, ...) puts x and y at digits i-1 and i, of
        # weights wx and wy: column = hi + x * wx + y * wy + lo + k.
        middle = []
        for i in range(1, n + 1):
            wy = d ** (n + 1 - i)
            hi = flat(t[: i - 1]) * wy * d * d
            lo = flat(t[i:]) * d
            sign = -1 if i % 2 else 1
            middle.append((hi, wy * d, wy, lo, sign, pairs.get(t[i - 1], ())))
        for k in range(d):
            row: dict[int, int] = {}
            for a, m, c in left.get(k, ()):  # a_1 * f(...)
                col = a * top + tflat * d + m
                row[col] = row.get(col, 0) + c
            for hi, wx, wy, lo, sign, hits in middle:
                base = hi + lo + k
                for x, y, c in hits:
                    col = base + x * wx + y * wy
                    row[col] = row.get(col, 0) + sign * c
            for b, m, c in right.get(k, ()):  # f(...) * a_{n+1}
                col = (tflat * d + b) * d + m
                row[col] = row.get(col, 0) + right_sign * c
            yield row


def _coboundary_rank(alg: Algebra, n: int) -> int:
    """Exact rank of the coboundary on arity-n cochains.

    The rows are those of D * d over the integer tables of
    :func:`_integer_tables`, streamed into :func:`integer_rank`; with Gaussian
    constants each row A + iB is realified and the rank halved.
    """
    tables = _integer_tables(alg)
    rows = [_basis_rows(table, alg.dim, n) for table in tables]
    if len(rows) == 1:
        return integer_rank(rows[0])
    return integer_rank(r for re, im in zip(*rows) for r in realified(re, im)) // 2


def cohomology_dimension(alg: Algebra, n: int) -> int:
    """dim H^n with coefficients in the algebra itself, for n in {0, 1, 2}."""
    if n not in (0, 1, 2):
        raise PreconditionError("cohomology is implemented for degrees 0, 1, 2 only")
    if alg.dim ** (n + 2) > COHOMOLOGY_SIZE_GUARD:
        raise SizeGuardError(
            f"dim^{n + 2} = {alg.dim ** (n + 2)} exceeds the size guard "
            f"{COHOMOLOGY_SIZE_GUARD}"
        )
    rank_n = _coboundary_rank(alg, n)
    cocycles = alg.dim ** (n + 1) - rank_n
    if n == 0:
        return cocycles
    rank_prev = _coboundary_rank(alg, n - 1)
    return cocycles - rank_prev


def _circle_into(acc: Table, coef: Scalar, p: Cochain, q: Cochain) -> None:
    """In place: acc += coef * (P o Q), q inserted into every slot of p with
    graded signs."""
    for i in range(p.arity):
        sign = -coef if i * (q.arity - 1) % 2 else coef
        table_insert_into(acc, sign, p.table, p.arity, q.table, q.arity, i)


def gerstenhaber_bracket(p: Cochain, q: Cochain) -> Cochain:
    """The graded bracket [P, Q] on multilinear maps (output arity p+q-1)."""
    if p.algebra is not q.algebra:
        raise PreconditionError("cochain mismatch (algebra)")
    if p.arity + q.arity > MAX_ARITY + 1:
        raise PreconditionError("arity overflow in bracket")
    if p.arity + q.arity == 0:
        raise PreconditionError("bracket of two arity-0 cochains is not defined")
    acc: Table = {}
    _circle_into(acc, ONE, p, q)
    exponent = (p.arity - 1) * (q.arity - 1)
    _circle_into(acc, MINUS_ONE if exponent % 2 == 0 else ONE, q, p)
    return Cochain(p.algebra, p.arity + q.arity - 1, table_tidy(acc), copy=False)
