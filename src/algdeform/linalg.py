"""Exact linear algebra over the Gaussian rationals.

Dense :class:`Matrix` plus rank, kernel, affine solve and inverse, all on one
exact elimination, :class:`RowReducer`, fed sparse rows one at a time:

* each row is scaled by its own common denominator, so only integers are
  eliminated; a right-hand side rides along after every other column;
* from the first imaginary part on, every row A + iB, stored or new, is
  realified into ``[A, -B]`` and ``[B, A]``: x_c = u_c + i v_c becomes the
  real unknowns 2c and 2c + 1, and the rank doubles;
* elimination is fraction-free, after Bareiss (1968): a new row is reduced
  by its leading column only, ``work := a * work - b * pivot_row`` with
  ``a/b`` the ratio of the leading entries in lowest terms, until no pivot
  row leads there; divided by its content it becomes that column's pivot row;
* the sparser row keeps the pivot, as in Markowitz (1957): a working row
  with fewer nonzeros than the pivot row of its leading column replaces it,
  and the old pivot row is eliminated in its place. The pivot columns are
  still the lowest ones, so the rank, the pivot set and the order of the
  pivot keys do not change; only the fill-in does.

A row may also be offered by its leading column alone. If no pivot row leads
there it is stored unbuilt, and built when first read: by an elimination, the
realification, the back-substitution or ``rows``. So the pivots and each row
built are those of the rows fed built, and a row nothing reads is never built.

The stored rows are an echelon basis, which gives the rank. Solutions are
read from the reduced echelon form, made by one back-substitution when first
asked for, and again after a row is added or a pivot row replaced. That form
is unique, so particular solutions (free variables zero) and kernel bases
(one per free column) do not depend on row order or on which rows were kept.
Rows are stored without zero entries: a row built late drops any it has.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, inf, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .records import Record
from .scalar import ONE, ZERO, Scalar, _canonical, as_scalar

__all__ = [
    "Matrix", "RowReducer", "AffineSolution", "rank", "scaled_parts", "kernel_basis",
    "solve_affine", "solve_sparse_system", "inverse_columns", "invert",
]

# The right-hand side's column: after every other column, so it holds a
# pivot only once the system is inconsistent.
_RHS = inf


class Matrix:
    """A dense rows x cols grid of scalars (row-major, immutable by convention)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        grid = []
        for r in entries:
            if len(r) != cols:
                raise ValueError(f"expected {cols} columns, got {len(r)}")
            grid.append([as_scalar(x) for x in r])
        self.rows = rows
        self.cols = cols
        self.entries = grid

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "Matrix":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        return cls(nrows, ncols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.entries[i][i] = ONE
        return m

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = Matrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            row = self.entries[i]
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    v = row[k]
                    if v:
                        acc = acc + v * other.entries[k][j]
                out.entries[i][j] = acc
        return out

    def times_vector(self, v: Sequence[Scalar]) -> list[Scalar]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = ZERO
            row = self.entries[i]
            for k in range(self.cols):
                if row[k] and v[k]:
                    acc = acc + row[k] * v[k]
            out.append(acc)
        return out

    def sparse_rows(self) -> Iterable[dict[int, Scalar]]:
        for r in self.entries:
            yield {j: v for j, v in enumerate(r) if v}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


class RowReducer:
    """Incremental exact row reduction over Q(i) on sparse rows.

    Rows are dicts ``{column: scalar}`` with an optional right-hand side.
    :attr:`inconsistent` holds from the moment a row reduces to a nonzero
    right-hand side alone; :attr:`pivots` maps pivot columns to stored rows,
    or to the ``(build, key, half)`` of a row not built yet.
    """

    def __init__(self) -> None:
        self.pivots: dict[float, dict | tuple] = {}
        self.realified = False
        self._reduced = 0  # pivots when last back-substituted; -1 after a swap

    @property
    def rows(self) -> list[dict]:
        return [self._stored(p) for p in self.pivots]

    def _stored(self, p: float) -> dict:
        """The stored row of pivot ``p``, built first if it was deferred."""
        row = self.pivots[p]
        if type(row) is tuple:
            row = self.pivots[p] = _primitive(_built(row), p)
        return row

    @property
    def inconsistent(self) -> bool:
        return _RHS in self.pivots

    @property
    def rank(self) -> int:
        real_rank = len(self.pivots) - (_RHS in self.pivots)
        return real_rank // 2 if self.realified else real_rank

    def add_row(self, row: Mapping[int, Scalar], rhs: Scalar = ZERO) -> bool:
        """Reduce ``row`` with right-hand side ``rhs``; True if the rank grew."""
        den = lcm(rhs.d, *{s.d for s in row.values()})
        re, im = scaled_parts(row, den)
        scale = den // rhs.d
        return self._add_parts(re, im, rhs.a * scale, rhs.b * scale)

    def add_deferred_rows(self, rows: Iterable[tuple], build: Callable) -> None:
        """Reduce the Gaussian integer rows ``re + i*im``, right-hand side
        zero, fed as ``(key, leading column of re, of im)``, ``inf`` for a zero
        part, and built as new dicts ``(re, im) = build(key)`` when read. A real
        row costs one dict operation unless a pivot row leads where it does.
        From the first imaginary part on, the reducer is realified and each row
        is fed as two halves, leading at 2c or 2c + 1, c its leading column:
        realify the empty reducer first, and no stored row is realified."""
        rows, pivots = iter(rows), self.pivots
        if not self.realified:
            for key, lead, im_lead in rows:
                if im_lead != inf:  # realify, then feed this row and the rest as halves
                    self._realify()
                    rows, pivots = chain(((key, lead, im_lead),), rows), self.pivots
                    break
                if lead != inf and pivots.setdefault(lead, deferred := (build, key, None)) is not deferred:
                    self._insert((_built(deferred),))
            else:
                return
        for key, re_lead, im_lead in rows:
            c = min(re_lead, im_lead)
            if c == inf:
                continue
            for lead, half in ((2 * c + (re_lead != c), 0), (2 * c + (im_lead != c), 1)):
                if pivots.setdefault(lead, deferred := (build, key, half)) is not deferred:
                    self._insert((_built(deferred),))

    def _add_parts(self, re: Mapping, im: Mapping, rhs_re: int, rhs_im: int) -> bool:
        """Reduce the Gaussian integer row ``re + i*im`` with right-hand side
        ``rhs_re + i*rhs_im``; True if the rank grew."""
        if not (im or rhs_im or self.realified):
            return self._insert(({**re, _RHS: rhs_re} if rhs_re else re,))
        if not self.realified:
            self._realify()
        top, bottom = _half(re, im, 0), _half(re, im, 1)
        if rhs_re:
            top[_RHS] = rhs_re
        if rhs_im:
            bottom[_RHS] = rhs_im
        return self._insert((top, bottom))

    def _insert(self, rows: Iterable[Mapping]) -> bool:
        """Eliminate each row (which may change) against the stored rows and
        store what is left; True if a row was stored in a column other than
        the right-hand side's."""
        pivots = self.pivots
        grew = False
        for work in rows:
            while work:
                p = min(work)
                prow = pivots.get(p)
                if prow is None:
                    pivots[p] = _primitive(work, p)
                    grew = grew or p != _RHS
                    break
                if type(prow) is tuple:
                    prow = self._stored(p)
                if len(work) < len(prow):  # the sparser row keeps the pivot
                    pivots[p], work = _primitive(work, p), prow
                    prow = pivots[p]
                    self._reduced = -1
                work = _cleared(work, prow, p)
        return grew

    def _realify(self) -> None:
        """Realify the stored rows: a real row R becomes [R, 0] and [0, R]."""
        pivots = {}
        for p, row in zip(self.pivots, self.rows):
            pivots[2 * p] = {2 * c: v for c, v in row.items()}
            if p != _RHS:
                pivots[2 * p + 1] = {2 * c + 1: v for c, v in row.items() if c != _RHS}
        self.pivots = pivots
        self.realified = True

    def _reduce(self) -> None:
        """Back-substitute the stored rows into the reduced echelon form."""
        pivots = self.pivots
        if self._reduced == len(pivots):
            return
        # Rows below are reduced first, so clearing one pivot column touches
        # only non-pivot columns and the other pivot entries stay as found.
        for p in sorted(pivots, reverse=True):
            work = self._stored(p)
            hits = [q for q in work if q != p and q in pivots]
            if hits:
                for q in hits:
                    work = _cleared(work, pivots[q], q)
                pivots[p] = _primitive(work, p)
        self._reduced = len(pivots)

    def _is_pivot(self, c: int) -> bool:
        return (2 * c if self.realified else c) in self.pivots

    def _column(self, c: float, sign: int = 1) -> dict[int, Scalar]:
        """``sign`` times column ``c`` of the reduced echelon form over Q(i),
        as ``{pivot column: entry}`` without zeros."""
        self._reduce()
        key = 2 * c if self.realified else c  # 2 * _RHS == _RHS
        out = {}
        for p, top in self.pivots.items():
            if p == _RHS:
                continue
            if not self.realified:
                a = top.get(key)
                if a:
                    out[p] = _entry(sign * a, 0, top[p], top[p])
            elif not p % 2:
                bottom = self.pivots[p + 1]
                a, b = top.get(key, 0), bottom.get(key, 0)
                if a or b:
                    out[p // 2] = _entry(sign * a, sign * b, top[p], bottom[p + 1])
        return out

    def kernel_basis_sparse(self, ncols: int) -> list[dict[int, Scalar]]:
        """Basis of the right null space, one vector per free column."""
        basis = []
        for f in range(ncols):
            if not self._is_pivot(f):
                vec = {f: ONE}
                vec.update(self._column(f, -1))
                basis.append(vec)
        return basis

    def particular_sparse(self) -> Optional[dict[int, Scalar]]:
        """A particular solution (free variables zero), or None if inconsistent."""
        return None if self.inconsistent else self._column(_RHS)


def _cleared(work: dict, prow: Mapping, c: float) -> dict:
    """``a * work - b * prow``, ``a/b = prow[c]/work[c]`` in lowest terms and
    ``a > 0``: column ``c`` cleared without fractions (``work`` may change)."""
    a, b = prow[c], work[c]
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    if a != 1:
        work = {k: a * v for k, v in work.items()}
    for k, v in prow.items():
        nv = work.get(k, 0) - b * v
        if nv:
            work[k] = nv
        else:
            del work[k]
    return work


def _half(re: Mapping, im: Mapping, half: int) -> dict:
    """Half 0, ``[re, -im]``, or half 1, ``[im, re]``, of ``re + i*im`` realified."""
    row = {2 * c + half: v for c, v in re.items()}
    row.update({2 * c + 1 - half: v if half else -v for c, v in im.items()})
    return row


def _built(deferred: tuple) -> dict:
    """The row, without zeros, of a deferred ``(build, key, half)``: ``re`` of
    ``build(key)``, or its realified half 0 (top) or 1 (bottom)."""
    build, key, half = deferred
    re, im = build(key)
    row = re if half is None else _half(re, im, half)
    return {c: v for c, v in row.items() if v} if 0 in row.values() else row


def _primitive(work: dict, lead: float) -> dict:
    """``work`` divided by the gcd of its entries, with ``work[lead] > 0``."""
    g = 0
    for v in work.values():  # most rows are primitive: stop at the first gcd 1
        g = gcd(g, v)
        if g == 1:
            break
    if work[lead] < 0:
        g = -g
    return work if g == 1 else {k: v // g for k, v in work.items()}


def _entry(a: int, b: int, d1: int, d2: int) -> Scalar:
    """The Scalar ``a/d1 + (b/d2) i`` for positive ``d1``, ``d2``."""
    if d1 != d2:
        a, b, d1 = a * d2, b * d1, d1 * d2
    return _canonical(a, b, d1)


def _reduced(rows: Iterable[Mapping[int, Scalar]]) -> RowReducer:
    red = RowReducer()
    for row in rows:
        red.add_row(row)
    return red


def scaled_parts(vec: Mapping, den: int) -> tuple[dict, dict]:
    """``den`` times the real and the imaginary parts of a sparse scalar vector,
    as integer vectors without zeros (``den`` must clear every denominator)."""
    re = {k: s.a * (den // s.d) for k, s in vec.items() if s.a}
    im = {k: s.b * (den // s.d) for k, s in vec.items() if s.b}
    return re, im


def rank(m: Matrix) -> int:
    """Exact rank over Q(i)."""
    return _reduced(m.sparse_rows()).rank


def _densify(vec: Mapping[int, Scalar], n: int) -> list[Scalar]:
    return [vec.get(c, ZERO) for c in range(n)]


def kernel_basis(m: Matrix) -> list[list[Scalar]]:
    """Basis of the right null space; dimension = cols - rank."""
    red = _reduced(m.sparse_rows())
    return [_densify(v, m.cols) for v in red.kernel_basis_sparse(m.cols)]


class AffineSolution(Record):
    """A particular solution plus a basis of the kernel."""

    __slots__ = ("particular", "kernel")

    def __init__(self, particular: list[Scalar], kernel: list[list[Scalar]]):
        self.particular, self.kernel = particular, kernel


def solve_affine(m: Matrix, b: Sequence) -> Optional[AffineSolution]:
    """Exact solution set of ``m x = b``: particular + kernel, or None."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    solved = solve_sparse_system(zip(m.sparse_rows(), map(as_scalar, b)), m.cols)
    if solved is None:
        return None
    part, kernel = solved
    return AffineSolution(_densify(part, m.cols), [_densify(v, m.cols) for v in kernel])


def solve_sparse_system(
    rows: Iterable[tuple[Mapping[int, Scalar], Scalar]], ncols: int
) -> Optional[tuple[dict[int, Scalar], list[dict[int, Scalar]]]]:
    """``(particular, kernel_basis)`` in sparse form of a (possibly huge)
    system of (row, rhs) pairs, or None when it is inconsistent. A pair equal
    to one fed before is skipped, and the first inconsistent row ends the
    reduction, so rows with a right-hand side are best fed first."""
    red = RowReducer()
    fed = set()  # equal (row, rhs) pairs are fed once, keyed by integer triples
    for row, rhs in rows:
        pair = (frozenset((k, v.a, v.b, v.d) for k, v in row.items()), rhs.a, rhs.b, rhs.d)
        if pair in fed:
            continue
        fed.add(pair)
        red.add_row(row, rhs)
        if red.inconsistent:
            return None
    return red.particular_sparse(), red.kernel_basis_sparse(ncols)


def inverse_columns(rows: Sequence[Mapping[int, Scalar]]) -> Optional[list[dict[int, Scalar]]]:
    """Sparse columns of the inverse of the square matrix with these sparse
    rows, or None if it is singular: the reduced form of [M | I] is
    [I | M^-1] exactly when M is invertible."""
    n = len(rows)
    red = _reduced({**row, n + i: ONE} for i, row in enumerate(rows))
    if not all(red._is_pivot(c) for c in range(n)):
        return None
    return [red._column(n + t) for t in range(n)]


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    cols = inverse_columns(list(m.sparse_rows()))
    if cols is None:
        return None
    return Matrix.from_rows([[col.get(s, ZERO) for col in cols] for s in range(m.rows)])
