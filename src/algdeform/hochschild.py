"""Cochains on an algebra with coefficients in itself, the coboundary
operator, cohomology dimensions, and the graded bracket of multilinear maps.

A :class:`Cochain` of arity n is an n-linear map A x ... x A -> A stored as a
sparse table over basis tuples. Supported arities are 0..3: arity 0 holds a
single element, arity 1 an operator, arity 2 a candidate product, and arity 3
only ever appears as the image of the coboundary or as an associator. Like
:class:`Element` and :class:`Operator`, it takes its linear arithmetic from
their shared base, ``algebra.Multilinear``.

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
[product, product] = 0) are pinned by the regression tests. Each P o Q is
a sum of ``tables.table_insert_into`` terms, and so is the coboundary:
d f = (-1)^(n+1) [mu, f] for f of arity n (Gerstenhaber 1963).

Cohomology dimensions need the exact rank of the coboundary on arity-n
cochains, at most a d^(n+1) x d^(n+2) matrix. Its rows are never built as
cochains:

* the structure constants are multiplied once by D, the common denominator
  of their real and imaginary parts. The coboundary is linear in them, so
  D * d has the same rank, and its entries are Gaussian integers;
* the basis is relabeled sparsest first: an index that touches fewer
  nonzero constants (as either factor or as output) comes earlier. A basis
  permutation does not change H^n, and this one lowers the elimination's
  fill-in on dense bases;
* where a basis vector e_u is the unit (e_u e_k = e_k = e_k e_u for every
  k, read off the constants), only the normalized cochains are enumerated:
  those that vanish when an argument is e_u, (d - 1)^n * d basis cochains
  of arity n. Their coboundaries vanish there too, so the terms whose
  argument is e_u are dropped, and the normalized complex has the same
  cohomology (Loday, Cyclic Homology, 1.5.7). With no unit basis vector the
  excluded set is empty and every cochain is enumerated;
* the row of each basis cochain e_t -> e_k comes from those scaled,
  relabeled constants, term by term of the alternating sum above. Kept in
  column order, the terms give its leading column without building it.
  The term lists and their heads depend only on the algebra and n, so each
  degree's are built on first use and kept with the algebra; what a
  reduction finds (pivots, stored rows, ranks) is never kept;
* the integer rows, with their imaginary parts when the constants have any,
  are offered by leading column to a ``linalg.RowReducer``, the package's one
  fraction-free echelon elimination (after Bareiss 1968), which builds a row
  only to read it: 183 of the 4111 rows H^2 of M4 offers. Only the rank is
  asked for, so it never back-substitutes;
* for n >= 1 the rows of d^(n-1) are reduced first, as their rank is needed
  anyway. Their stored rows lead in distinct columns S, so C^n is the direct
  sum of im d^(n-1) and span{e_c : c not in S}, and d^n kills im d^(n-1)
  (d o d = 0): only the basis cochains off S feed the rank of d^n. Realified,
  the pivots come in pairs 2c, 2c + 1, as the row space is closed under
  multiplication by i, which keeps each pair of columns; S is {p // 2}.
"""

from __future__ import annotations

from itertools import product as iter_product, repeat
from math import inf, lcm
from typing import Container

from .algebra import Algebra, Element, Multilinear, Operator
from .errors import SIZE_GUARD, PreconditionError, check_size
from .linalg import RowReducer
from .scalar import MINUS_ONE, ONE, Scalar
from .tables import (
    Table,
    Vec,
    table_insert_into,
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
COHOMOLOGY_SIZE_GUARD = SIZE_GUARD


class Cochain(Multilinear):
    """A sparse n-linear map from basis tuples to coefficient vectors."""

    __slots__ = ("arity", "table")
    error = PreconditionError

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

    def _table(self) -> Table:
        return self.table

    def _of(self, table: Table) -> "Cochain":
        return Cochain(self.algebra, self.arity, table, copy=False)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_element(cls, x: Element) -> "Cochain":
        return cls(x.algebra, x.arity, x._table())

    @classmethod
    def from_operator(cls, op: Operator) -> "Cochain":
        return cls(op.algebra, op.arity, op._table())

    @classmethod
    def product_cochain(cls, algebra: Algebra) -> "Cochain":
        """The multiplication of the algebra itself, as a 2-cochain."""
        return cls(algebra, 2, algebra.structure, copy=True)

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

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, on {self.algebra.name}, {len(self.table)} rows)"


def coboundary(c: Cochain) -> Cochain:
    """The Hochschild coboundary, with the algebra product acting on both sides.

    d f = (-1)^(n+1) [mu, f] for f of arity n, that is
    (-1)^(n+1) mu o f - f o mu.
    """
    if c.arity >= MAX_ARITY:
        raise PreconditionError("coboundary output would exceed the supported arity")
    alg = c.algebra
    mu = Cochain(alg, 2, alg.structure, copy=False)
    acc: Table = {}
    _circle_into(acc, MINUS_ONE if c.arity % 2 == 0 else ONE, mu, c)
    _circle_into(acc, MINUS_ONE, c, mu)
    return Cochain(alg, c.arity + 1, table_tidy(acc), copy=False)


def is_cocycle(c: Cochain) -> bool:
    """True iff the coboundary of ``c`` vanishes identically."""
    return coboundary(c).is_zero


def _integer_indexes(alg: Algebra) -> tuple[list[tuple[dict, dict, dict]], frozenset, dict]:
    """D times the structure constants, D their common denominator, on the
    sparsest-first basis: the index that touches the fewest nonzero constants
    (as left factor, right factor or output) becomes e_0, ties kept in order.

    Each integer part, the real one and then the imaginary one if it is not
    zero, is indexed three ways for :func:`_coboundary_rows`, in sorted lists:
    ``left[k]`` of (a, m, e_a e_k at m), ``right[k]`` of (b, m, e_k e_b at m)
    and ``pairs[m]`` of (x, y, e_x e_y at m). The parts come with ``units``,
    the label of e_u if that basis vector is the unit (e_u e_k = e_k = e_k e_u
    for every k) and empty otherwise, and with an empty dict in which
    :func:`_reduced_coboundary` keeps each degree's rows. Only the normalized
    cochains are enumerated, those that vanish when an argument is in
    ``units``; their coboundaries vanish there too, so no entry whose argument
    a, b, x or y is in ``units`` is indexed. Kept on the algebra by
    :func:`cohomology_dimension`, as the structure constants do not change.
    """
    structure = alg.structure
    den = lcm(1, *{s.d for vec in structure.values() for s in vec.values()})
    touches = [0] * alg.dim
    for (x, y), vec in structure.items():
        touches[x] += len(vec)
        touches[y] += len(vec)
        for m in vec:
            touches[m] += 1
    label = [0] * alg.dim
    for new, old in enumerate(sorted(range(alg.dim), key=touches.__getitem__)):
        label[old] = new
    units = frozenset(label[u] for u in range(alg.dim) if all(
        structure.get((u, k)) == {k: ONE} == structure.get((k, u)) for k in range(alg.dim)))
    real, imag = ({}, {}, {}), ({}, {}, {})
    for (x, y), vec in structure.items():
        x, y = label[x], label[y]
        for m, s in vec.items():
            m, scale = label[m], den // s.d
            for c, (left, right, pairs) in zip((s.a * scale, s.b * scale), (real, imag)):
                if not c:
                    continue
                if x not in units:
                    left.setdefault(y, []).append((x, m, c))
                if y not in units:
                    right.setdefault(x, []).append((y, m, c))
                if units.isdisjoint((x, y)):
                    pairs.setdefault(m, []).append((x, y, c))
    for terms in (terms for lists in (*real, *imag) for terms in lists.values()):
        terms.sort()
    return ([real, imag] if any(imag) else [real]), units, {}


def _coboundary_rows(index: tuple[dict, dict, dict], d: int, n: int, units: frozenset):
    """The rows of the coboundary on the normalized arity-n cochains, one
    integer part of :func:`_integer_indexes` in place of the product, as two
    functions of the flat index t * d + k of the basis cochain e_t -> e_k, t
    free of ``units``: its row's leading column (inf for a zero row) and its
    row. :func:`_reduced_coboundary` keeps them, one pair per degree and part.

    Columns flatten (a_1, ..., a_{n+1}, output coordinate) in mixed radix
    base d. The three terms of the alternating sum follow ``coboundary``, in
    column order with one entry per column: ``left[k]`` and ``right[k]``
    shifted by t, and the middle terms listed once per t and shifted by k.
    A row leads at the smallest of the three heads unless they cancel there.
    """
    left, right, pairs = index
    right_sign = 1 if (n + 1) % 2 == 0 else -1
    top = d ** (n + 1)
    middles = {}  # f(..., a_i a_{i+1}, ...) by t, shifted by k
    for tflat, t in enumerate(iter_product(range(d), repeat=n)):
        if not units.isdisjoint(t):
            continue
        terms: dict[int, int] = {}
        for i in range(1, n + 1):
            # x and y go to digits i-1 and i, of weights wy * d and wy.
            wy = d ** (n + 1 - i)
            base = tflat // wy * wy * d * d + tflat % (wy // d) * d
            sign = -1 if i % 2 else 1
            for x, y, c in pairs.get(t[i - 1], ()):
                col = base + x * wy * d + y * wy
                terms[col] = terms.get(col, 0) + sign * c
        middles[tflat] = sorted([term for term in terms.items() if term[1]])

    def row(flat: int) -> dict[int, int]:
        t, k = divmod(flat, d)
        out = {a * top + t * d + m: c for a, m, c in left.get(k, ())}  # a_1 * f(...)
        for b, m, c in right.get(k, ()):  # f(...) * a_{n+1}
            col = (t * d + b) * d + m
            out[col] = out.get(col, 0) + right_sign * c
        for col, c in middles[t]:
            out[col + k] = out.get(col + k, 0) + c
        return out

    lheads = [(terms[0][0] * top + terms[0][1], terms[0][2]) if terms else (inf, 0)
              for terms in map(left.get, range(d))]
    rheads = [(terms[0][0] * d + terms[0][1], right_sign * terms[0][2]) if terms else (inf, 0)
              for terms in map(right.get, range(d))]
    mheads = {t: terms[0] if terms else (inf, 0) for t, terms in middles.items()}

    def lead(flat: int) -> float:
        t, k = divmod(flat, d)
        (lc, lv), (mc, mv), (rc, rv) = lheads[k], mheads[t], rheads[k]
        lc, mc, rc = lc + t * d, mc + k, rc + t * d * d
        col = min(lc, mc, rc)
        if (lv if lc == col else 0) + (mv if mc == col else 0) + (rv if rc == col else 0):
            return col
        return min(filter((out := row(flat)).get, out), default=inf)  # its first nonzero

    return lead, row


def _reduced_coboundary(indexes: tuple, d: int, n: int, skip: Container[int]) -> RowReducer:
    """The coboundary on normalized arity-n cochains reduced to echelon form,
    rows in ``skip`` left out: the rows of D * d over the integer parts of
    :func:`_integer_indexes`, Gaussian integer rows when the constants have
    an imaginary part. Each part's rows are built on the first call for the
    degree and kept with the indexes; a row is built only when the reducer
    reads it. With an imaginary part the reducer is realified before the
    first row, so every row is fed as two halves and no stored row is
    realified; otherwise every row is fed whole."""
    parts, units, kept = indexes
    sources = kept.get(n)
    if sources is None:  # d^n depends only on the algebra: keep it
        sources = kept[n] = [_coboundary_rows(index, d, n, units) for index in parts]
    pad = 2 - len(sources)  # a real row's imaginary part is zero
    flats = [flat for tflat, t in enumerate(iter_product(range(d), repeat=n)) if units.isdisjoint(t)
             for flat in range(tflat * d, tflat * d + d) if flat not in skip]
    red = RowReducer()
    if not pad:  # feed every row as halves, never realifying stored rows
        red._realify()
    red.add_deferred_rows(zip(flats, *(map(lead, flats) for lead, _ in sources), *[repeat(inf)] * pad),
                          lambda flat: [row(flat) for _, row in sources] + [{}] * pad)
    return red


def cohomology_dimension(alg: Algebra, n: int) -> int:
    """dim H^n with coefficients in the algebra itself, for n in {0, 1, 2}."""
    if n not in (0, 1, 2):
        raise PreconditionError("cohomology is implemented for degrees 0, 1, 2 only")
    check_size(f"dim^{n + 2}", alg.dim ** (n + 2))
    indexes = getattr(alg, "_integer_indexes", None)  # one build per algebra
    if indexes is None:  # a basis permutation: H^n does not change
        indexes = alg._integer_indexes = _integer_indexes(alg)
    skip, boundaries = (), 0
    if n:  # d^n kills im d^(n-1): only the cochains off its pivots matter
        low = _reduced_coboundary(indexes, alg.dim, n - 1, ())
        skip, boundaries = low.pivots, low.rank
        if low.realified:  # pivots come in pairs 2c, 2c + 1
            skip = {p // 2 for p in skip}
    cochains = (alg.dim - len(indexes[1])) ** n * alg.dim  # dim of normalized C^n
    return cochains - _reduced_coboundary(indexes, alg.dim, n, skip).rank - boundaries


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
