"""Exact linear algebra over the Gaussian rationals.

Dense :class:`Matrix` plus rank / kernel / affine-solve, all via exact
Gaussian elimination. The workhorse is :class:`RowReducer`, an incremental
Gauss-Jordan on sparse rows: callers feed equation rows one at a time (there
may be vastly more rows than columns) and the reducer keeps a fully reduced
echelon basis, which makes rank, kernels and particular solutions cheap to
read off. Everything is deterministic: pivots are always the smallest
eligible column.

Rank alone goes another way. :func:`rank` and the cohomology rank scale the
entries by their common denominator, realify Gaussian rows, and feed the
integer rows to :func:`integer_rank`, a fraction-free echelon elimination
that never back-substitutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .scalar import ONE, ZERO, Scalar, as_scalar

__all__ = [
    "Matrix",
    "RowReducer",
    "AffineSolution",
    "rank",
    "integer_rank",
    "common_denominator",
    "scaled_parts",
    "realified",
    "kernel_basis",
    "solve_affine",
    "solve_sparse_system",
    "invert",
]


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

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

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
    """Incremental reduced row echelon form over Q(i) on sparse rows.

    Rows are dicts ``{column: scalar}``. Each accepted pivot row is normalized
    to leading coefficient 1 and eliminated from all other rows, so the stored
    rows are always a reduced echelon basis. An optional right-hand-side
    scalar per row is carried through the elimination, which turns the reducer
    into an exact affine solver; an inconsistent system is detected the moment
    a row reduces to zero with a nonzero right-hand side.
    """

    def __init__(self) -> None:
        self.rows: list[dict[int, Scalar]] = []
        self.rhs: list[Scalar] = []
        self.pivots: dict[int, int] = {}  # column -> row index
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, row: Mapping[int, Scalar], rhs: Scalar = ZERO) -> bool:
        """Reduce ``row`` against the basis; returns True if the rank grew."""
        work = {c: v for c, v in row.items() if v}
        # Eliminating a pivot column only introduces entries in non-pivot
        # columns (the basis is fully reduced), so one pass over the pivot
        # columns present at entry suffices.
        for c in sorted(c for c in work if c in self.pivots):
            coef = work.get(c)
            if not coef:
                continue
            idx = self.pivots[c]
            prow = self.rows[idx]
            for cc, v in prow.items():
                cur = work.get(cc, ZERO) - coef * v
                if cur:
                    work[cc] = cur
                elif cc in work:
                    del work[cc]
            if self.rhs[idx]:
                rhs = rhs - coef * self.rhs[idx]
        if not work:
            if rhs:
                self.inconsistent = True
            return False
        p = min(work)
        lead = work[p]
        if lead != ONE:
            inv = lead.inverse()
            work = {c: v * inv for c, v in work.items()}
            rhs = rhs * inv
        # Inter-reduce: clear the new pivot column from every stored row.
        for i, other in enumerate(self.rows):
            factor = other.get(p)
            if factor is None or not factor:
                continue
            for cc, v in work.items():
                cur = other.get(cc, ZERO) - factor * v
                if cur:
                    other[cc] = cur
                elif cc in other:
                    del other[cc]
            if rhs:
                self.rhs[i] = self.rhs[i] - factor * rhs
        self.pivots[p] = len(self.rows)
        self.rows.append(work)
        self.rhs.append(rhs)
        return True

    def kernel_basis_sparse(self, ncols: int) -> list[dict[int, Scalar]]:
        """Basis of the right null space, one vector per free column."""
        basis = []
        for f in range(ncols):
            if f in self.pivots:
                continue
            vec = {f: ONE}
            for p, idx in self.pivots.items():
                v = self.rows[idx].get(f)
                if v:
                    vec[p] = -v
            basis.append(vec)
        return basis

    def particular_sparse(self) -> Optional[dict[int, Scalar]]:
        """A particular solution (free variables zero), or None if inconsistent."""
        if self.inconsistent:
            return None
        sol: dict[int, Scalar] = {}
        for p, idx in self.pivots.items():
            v = self.rhs[idx]
            if v:
                sol[p] = v
        return sol


def _reduced(rows: Iterable[Mapping[int, Scalar]]) -> RowReducer:
    red = RowReducer()
    for row in rows:
        red.add_row(row)
    return red


def integer_rank(rows: Iterable[Mapping[int, int]]) -> int:
    """Exact rank over Q of integer rows ``{column: int}``, fed one at a time.

    Fraction-free echelon elimination: a new row is reduced by its leading
    column only, ``work := a * work - b * pivot_row`` with ``a/b`` the ratio
    of the two leading entries in lowest terms, until its leading column has
    no pivot; it is then divided by the gcd of its entries and becomes that
    column's pivot row (leading entry positive). Stored rows are never
    touched again, so no rationals and no back-substitution occur.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        work = {c: v for c, v in row.items() if v}
        while work:
            p = min(work)
            prow = pivots.get(p)
            if prow is None:
                g = 0
                for v in work.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if work[p] < 0:
                    g = -g
                if g != 1:
                    work = {c: v // g for c, v in work.items()}
                pivots[p] = work
                break
            a, b = prow[p], work[p]
            g = gcd(a, b)
            if g != 1:
                a, b = a // g, b // g
            if a != 1:
                work = {c: a * v for c, v in work.items()}
            for c, v in prow.items():
                nv = work.get(c, 0) - b * v
                if nv:
                    work[c] = nv
                else:
                    del work[c]
    return len(pivots)


def common_denominator(values: Iterable[Scalar]) -> int:
    """The lcm of the denominators of the real and imaginary parts."""
    den = 1
    for s in values:
        den = lcm(den, s.re.denominator, s.im.denominator)
    return den


def scaled_parts(vec: Mapping, den: int) -> tuple[dict, dict]:
    """``den`` times the real and the imaginary parts of a sparse scalar
    vector, as integer vectors without zeros (``den`` must clear every
    denominator)."""
    re = {k: s.re.numerator * (den // s.re.denominator) for k, s in vec.items() if s.re}
    im = {k: s.im.numerator * (den // s.im.denominator) for k, s in vec.items() if s.im}
    return re, im


def realified(re_row: Mapping[int, int], im_row: Mapping[int, int]) -> tuple[dict, dict]:
    """The two real rows ``[A, -B]`` and ``[B, A]`` of the Gaussian row A + iB.

    Column c of the Gaussian row becomes columns 2c and 2c + 1. Over the
    rationals the realified matrix has exactly twice the rank over Q(i).
    """
    top = {2 * c: v for c, v in re_row.items()}
    bottom = {2 * c + 1: v for c, v in re_row.items()}
    for c, v in im_row.items():
        top[2 * c + 1] = -v
        bottom[2 * c] = v
    return top, bottom


def rank(m: Matrix) -> int:
    """Exact rank over Q(i), on the integer rows of ``D * m``."""
    den = common_denominator(v for row in m.entries for v in row)
    split = [scaled_parts(row, den) for row in m.sparse_rows()]
    if not any(im for _, im in split):
        return integer_rank(re for re, _ in split)
    return integer_rank(r for re, im in split for r in realified(re, im)) // 2


def _densify(vec: Mapping[int, Scalar], n: int) -> list[Scalar]:
    out = [ZERO] * n
    for c, v in vec.items():
        out[c] = v
    return out


def kernel_basis(m: Matrix) -> list[list[Scalar]]:
    """Basis of the right null space; dimension = cols - rank."""
    red = _reduced(m.sparse_rows())
    return [_densify(v, m.cols) for v in red.kernel_basis_sparse(m.cols)]


@dataclass(frozen=True)
class AffineSolution:
    particular: list[Scalar]
    kernel: list[list[Scalar]]


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
    """Solve a (possibly huge) sparse system given as (row, rhs) pairs.

    Returns ``(particular, kernel_basis)`` in sparse form, or None when the
    system is inconsistent.
    """
    red = RowReducer()
    for row, rhs in rows:
        red.add_row(row, rhs)
    if red.inconsistent:
        return None
    part = red.particular_sparse()
    assert part is not None
    return part, red.kernel_basis_sparse(ncols)


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    # The reduced form of [M | I] is [I | M^-1] exactly when M is
    # invertible; otherwise some pivot lands right of column n.
    n = m.rows
    red = _reduced({**row, n + i: ONE} for i, row in enumerate(m.sparse_rows()))
    if any(p >= n for p in red.pivots):
        return None
    out = Matrix.zeros(n, n)
    for p, idx in red.pivots.items():
        for c, v in red.rows[idx].items():
            if c >= n:
                out.entries[p][c - n] = v
    return out
