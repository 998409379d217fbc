"""Finite-dimensional associative algebras given by structure constants.

An :class:`Algebra` owns a sparse multiplication table ``e_i e_j = sum_k
c[i][j][k] e_k`` over the Gaussian rationals, validates associativity of the
table at construction time, and knows its unit (declared, or discovered by
solving the unit equations). :class:`Element` (arity 0) and :class:`Operator`
(arity 1) are multilinear maps on the algebra, as is the arity-n cochain of
``hochschild``: all three share the base :class:`Multilinear`, which holds
their algebra and does their linear arithmetic once, on tables over basis
tuples. Basis-aligned :class:`Decomposition` objects split the basis in two.

Builders for the concrete algebras used throughout the test corpus live here
as well: full matrix algebras, upper-triangular algebras, dual numbers, a
truncated oscillator algebra with unnormalized ladder operators, and the
2x2 matrix algebra rewritten in its reflection/rotation basis.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import AlgebraError, check_size
from .linalg import solve_sparse_system
from .scalar import MINUS_ONE, ONE, ZERO, Scalar, as_scalar
from .tables import (
    Sweep,
    Table,
    Vec,
    associator_terms,
    slot_rows,
    table_add_into,
    table_scaled,
    table_sub,
    table_tidy,
    vec_add_into,
    vec_eq,
    vec_mul,
)

__all__ = [
    "Algebra",
    "Element",
    "Operator",
    "Decomposition",
    "decompose",
    "full_matrix_algebra",
    "upper_triangular_algebra",
    "banded_oscillator_algebra",
    "dual_number_algebra",
    "split_quaternion_algebra",
    "matrix_unit_index",
    "transpose_operator",
    "triangular_split",
    "diagonal_split",
]

ScalarLike = Union[Scalar, int, str]


def _clean_vec(raw: Mapping[int, object]) -> Vec:
    out: Vec = {}
    for k, v in raw.items():
        s = as_scalar(v)
        if s:
            out[int(k)] = s
    return out


class Algebra:
    """An associative algebra with a fixed basis and exact structure constants.

    A table that is not associative is refused: ``deform.verify_hierarchy``
    decides its whole report from the torsion because mu is associative.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        basis: Sequence[str],
        structure: Mapping[tuple[int, int], Mapping[int, object]],
        unit: Optional[Mapping[int, object] | Sequence] = None,
        metadata: Optional[dict] = None,
        discover_unit: bool = False,
    ):
        if dim < 0:
            raise AlgebraError("dimension must be nonnegative")
        if len(basis) != dim:
            raise AlgebraError(f"expected {dim} basis labels, got {len(basis)}")
        self.name = name
        self.dim = dim
        self.basis = list(basis)
        table: Table = {}
        for (i, j), vec in structure.items():
            i, j = int(i), int(j)
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError(f"structure index ({i},{j}) out of range")
            cleaned = _clean_vec(vec)
            for k in cleaned:
                if not 0 <= k < dim:
                    raise AlgebraError(f"structure target {k} out of range")
            if cleaned:
                table[(i, j)] = cleaned
        self.structure = table
        self.metadata = dict(metadata or {})
        witness = self.associativity_witness()
        if witness is not None:
            (i, j, k), _ = witness
            raise AlgebraError(
                f"structure constants are not associative: "
                f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})"
            )
        self.unit: Optional[Element] = None
        if unit is not None:
            u = self.element(unit)
            if not table_is_unit(self.structure, dim, u.coords):
                raise AlgebraError("claimed unit is not a two-sided unit")
            self.unit = u
        elif discover_unit:
            found = table_unit(self.structure, dim)
            if found is not None:
                self.unit = self.element(found)

    # -- construction helpers -------------------------------------------------

    def element(self, coords) -> "Element":
        """Build an element from dense scalar list or sparse index->scalar map."""
        if isinstance(coords, Element):
            if coords.algebra is not self:
                raise AlgebraError("element belongs to a different algebra")
            return coords
        if isinstance(coords, Mapping):
            vec = _clean_vec(coords)
            for k in vec:
                if not 0 <= k < self.dim:
                    raise AlgebraError(f"coordinate index {k} out of range")
            return Element(self, vec)
        seq = list(coords)
        if len(seq) != self.dim:
            raise AlgebraError(f"expected {self.dim} coordinates, got {len(seq)}")
        return Element(self, {i: as_scalar(v) for i, v in enumerate(seq) if as_scalar(v)})

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise AlgebraError(f"basis index {i} out of range")
        return Element(self, {i: ONE})

    def zero(self) -> "Element":
        return Element(self, {})

    # -- the product ------------------------------------------------------------

    def mul_vec(self, x: Mapping[int, Scalar], y: Mapping[int, Scalar]) -> Vec:
        return vec_mul(self.structure, x, y)

    def multiply(self, x: "Element", y: "Element") -> "Element":
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraError("algebra mismatch in product")
        return Element(self, self.mul_vec(x.coords, y.coords))

    # -- validation ----------------------------------------------------------------

    def associativity_witness(self) -> Optional[tuple[tuple[int, ...], Vec]]:
        """Smallest basis triple where (e_i e_j) e_k != e_i (e_j e_k), if any."""
        return Sweep(self.dim).witness(associator_terms(self.structure))

    def decompose(self, part1: Iterable[int]) -> "Decomposition":
        return Decomposition(self, part1)

    def _renamed(self, name: str, metadata: dict) -> "Algebra":
        """This algebra under another name and metadata, sharing its checked table."""
        alg = object.__new__(Algebra)
        alg.name, alg.dim, alg.basis = name, self.dim, list(self.basis)
        alg.structure, alg.metadata = self.structure, dict(metadata)
        alg.unit = None if self.unit is None else Element(alg, self.unit.coords)
        return alg

    def __repr__(self) -> str:
        return f"Algebra({self.name!r}, dim={self.dim})"


def table_is_unit(table: Table, dim: int, u: Vec) -> bool:
    """Whether u is a two-sided unit of ``table``: one pass sums every u e_j and e_j u."""
    left: dict[int, Vec] = {}
    right: dict[int, Vec] = {}
    for (g, j), vec in table.items():
        if u.get(g):
            vec_add_into(left.setdefault(j, {}), u[g], vec)
        if u.get(j):
            vec_add_into(right.setdefault(g, {}), u[j], vec)
    return all(vec_eq(side.get(j, {}), {j: ONE}) for side in (left, right) for j in range(dim))


def table_unit(table: Table, dim: int) -> Optional[Vec]:
    """Solve u*e_j = e_j = e_j*u exactly; None when ``table`` has no unit.
    The rows are ``slot_rows`` with signs (1, none) and (none, 1), the
    rows (j, j), whose right-hand side is one, first."""
    sides = (slot_rows(table, (ONE, None)), slot_rows(table, (None, ONE)))
    system = [(rows.get((j, j), {}), ONE) for rows in sides for j in range(dim)]
    system += [(row, ZERO) for rows in sides for (j, c), row in rows.items() if j != c]
    solved = solve_sparse_system(system, dim)
    if solved is None or not table_is_unit(table, dim, solved[0]):
        return None
    return solved[0]


def decompose(alg: Algebra, part1: Iterable[int]) -> "Decomposition":
    """Basis-aligned split of ``alg`` into span(part1) + span(complement)."""
    return Decomposition(alg, part1)


class Multilinear:
    """A multilinear map on an algebra, seen as a table over basis tuples.

    Each kind has an ``arity`` and two hooks: ``_table()``, the map as a
    table (a row per basis tuple of its arity, possibly shared with the
    map), and ``_of(table)``, the map of the same kind, algebra and arity
    with that tidy table. The linear structure is written here once on
    them. Mixing kinds, algebras or arities raises the kind's ``error``.
    """

    __slots__ = ("algebra",)
    error = AlgebraError

    def _check(self, other) -> None:
        if (type(other) is not type(self) or other.algebra is not self.algebra
                or other.arity != self.arity):
            raise self.error(f"{type(self).__name__.lower()} mismatch (algebra or arity)")

    def __add__(self, other):
        self._check(other)
        acc = {t: dict(vec) for t, vec in self._table().items()}
        table_add_into(acc, ONE, other._table())
        return self._of(table_tidy(acc))

    def __sub__(self, other):
        self._check(other)
        return self._of(table_sub(self._table(), other._table()))

    def __rmul__(self, coef):
        return self._of(table_scaled(as_scalar(coef), self._table()))

    def __neg__(self):
        return self.__rmul__(MINUS_ONE)

    @property
    def is_zero(self) -> bool:
        return not any(v for vec in self._table().values() for v in vec.values())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.algebra is not other.algebra or self.arity != other.arity:
            return False
        a, b = self._table(), other._table()
        return all(vec_eq(a.get(t, {}), b.get(t, {})) for t in a.keys() | b.keys())

    __hash__ = None  # equality is by value, and operators and cochains are mutable


class Element(Multilinear):
    """An algebra element, stored as a sparse coordinate vector."""

    __slots__ = ("coords",)
    arity = 0

    def __init__(self, algebra: Algebra, coords: Vec):
        self.algebra = algebra
        self.coords = coords

    def _table(self) -> Table:
        return {(): self.coords}

    def _of(self, table: Table) -> "Element":
        return Element(self.algebra, table.get((), {}))

    def dense(self) -> list[Scalar]:
        out = [ZERO] * self.algebra.dim
        for k, v in self.coords.items():
            out[k] = v
        return out

    def coeff(self, i: int) -> Scalar:
        return self.coords.get(i, ZERO)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return self.__rmul__(other)

    def __hash__(self):
        return hash((id(self.algebra), frozenset((k, v) for k, v in self.coords.items() if v)))

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        parts = []
        for k in sorted(self.coords):
            v = self.coords[k]
            label = self.algebra.basis[k]
            parts.append(label if v == ONE else f"({v})*{label}")
        return " + ".join(parts)


class Operator(Multilinear):
    """A linear map on an algebra; column j is the image of basis vector j."""

    __slots__ = ("columns",)
    arity = 1

    def __init__(self, algebra: Algebra, columns: Sequence[Vec]):
        if len(columns) != algebra.dim:
            raise AlgebraError(f"expected {algebra.dim} columns")
        self.algebra = algebra
        self.columns = [{k: v for k, v in col.items() if v} for col in columns]

    def _table(self) -> Table:
        return {(j,): col for j, col in enumerate(self.columns) if col}

    def _of(self, table: Table) -> "Operator":
        """The operator of a tidy table whose rows it may keep."""
        return Operator._of_columns(self.algebra, [table.get((j,), {}) for j in range(self.algebra.dim)])

    @staticmethod
    def _of_columns(algebra: Algebra, columns: list[Vec]) -> "Operator":
        """The operator that keeps ``columns``, new dicts with no zero entry."""
        op = object.__new__(Operator)
        op.algebra, op.columns = algebra, columns
        return op

    # -- constructors -------------------------------------------------------------

    @classmethod
    def identity(cls, algebra: Algebra) -> "Operator":
        return cls(algebra, [{j: ONE} for j in range(algebra.dim)])

    @classmethod
    def zero(cls, algebra: Algebra) -> "Operator":
        return cls(algebra, [{} for _ in range(algebra.dim)])

    @classmethod
    def from_matrix_rows(cls, algebra: Algebra, rows: Sequence[Sequence]) -> "Operator":
        d = algebra.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise AlgebraError(f"operator matrix must be {d}x{d}")
        cols: list[Vec] = [{} for _ in range(d)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                s = as_scalar(v)
                if s:
                    cols[j][i] = s
        return cls._of_columns(algebra, cols)

    @classmethod
    def left_multiplication(cls, k: Element) -> "Operator":
        alg = k.algebra
        return cls(alg, [alg.mul_vec(k.coords, {j: ONE}) for j in range(alg.dim)])

    @classmethod
    def scalar(cls, algebra: Algebra, value) -> "Operator":
        s = as_scalar(value)
        return cls(algebra, [{j: s} for j in range(algebra.dim)])

    # -- action --------------------------------------------------------------------

    def apply_vec(self, vec: Mapping[int, Scalar]) -> Vec:
        acc: Vec = {}
        for j, c in vec.items():
            vec_add_into(acc, c, self.columns[j])
        return {k: v for k, v in acc.items() if v}

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise AlgebraError("algebra mismatch")
        return Element(self.algebra, self.apply_vec(x.coords))

    # -- algebra of operators ---------------------------------------------------------

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.algebra is not self.algebra:
            raise AlgebraError("algebra mismatch")
        return Operator._of_columns(self.algebra, [self.apply_vec(col) for col in other.columns])

    def power(self, k: int) -> "Operator":
        if k < 0:
            raise AlgebraError("negative operator power")
        out = Operator.identity(self.algebra)
        for _ in range(k):
            out = self @ out
        return out

    def to_matrix_rows(self) -> list[list[Scalar]]:
        d = self.algebra.dim
        rows = [[ZERO] * d for _ in range(d)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def __repr__(self) -> str:
        return f"Operator(on {self.algebra.name}, dim={self.algebra.dim})"


class Decomposition:
    """A basis-aligned splitting A = span(part1) + span(part2)."""

    __slots__ = ("algebra", "part1", "part2", "part1_closed", "part2_closed")

    def __init__(self, algebra: Algebra, part1: Iterable[int]):
        p1 = sorted(set(int(i) for i in part1))
        for i in p1:
            if not 0 <= i < algebra.dim:
                raise AlgebraError(f"part1 index {i} out of range")
        s1 = set(p1)
        self.algebra = algebra
        self.part1 = tuple(p1)
        self.part2 = tuple(i for i in range(algebra.dim) if i not in s1)
        self.part1_closed = self._closed(s1)
        self.part2_closed = self._closed(set(self.part2))

    def _closed(self, part: set[int]) -> bool:
        for (i, j), vec in self.algebra.structure.items():
            if i in part and j in part and any(k not in part for k in vec):
                return False
        return True

    def indices(self, part: int) -> tuple[int, ...]:
        if part == 1:
            return self.part1
        if part == 2:
            return self.part2
        raise AlgebraError("part must be 1 or 2")

    def project(self, x: Element, part: int) -> Element:
        return self.projector(part)(x)

    def projector(self, part: int) -> Operator:
        keep = set(self.indices(part))
        return Operator._of_columns(
            self.algebra,
            [({j: ONE} if j in keep else {}) for j in range(self.algebra.dim)],
        )

    def __repr__(self) -> str:
        return (
            f"Decomposition({self.algebra.name}, part1={list(self.part1)}, "
            f"closed=({self.part1_closed},{self.part2_closed}))"
        )


# -- concrete algebras ---------------------------------------------------------------


def matrix_unit_index(n: int, p: int, q: int) -> int:
    """Basis index of the matrix unit E_{p,q} (0-based) in row-major order."""
    return p * n + q


def _unit_label(n: int, p: int, q: int) -> str:
    if n <= 9:
        return f"E{p + 1}{q + 1}"
    return f"E{p + 1}_{q + 1}"


@lru_cache(maxsize=None)
def full_matrix_algebra(n: int) -> Algebra:
    """The algebra of n x n matrices in the matrix-unit basis E_pq.

    Its n^3 structure constants give n^4 nonzero basis triples in the
    associativity check, which must fit the size guard.
    """
    if n < 1:
        raise AlgebraError("matrix algebra needs n >= 1")
    check_size(f"n^4 for M{n}", n ** 4)
    dim = n * n
    basis = [_unit_label(n, p, q) for p in range(n) for q in range(n)]
    structure = {}
    for p in range(n):
        for q in range(n):
            for s in range(n):
                structure[(matrix_unit_index(n, p, q), matrix_unit_index(n, q, s))] = {
                    matrix_unit_index(n, p, s): ONE
                }
    unit = {matrix_unit_index(n, p, p): ONE for p in range(n)}
    return Algebra(f"M{n}", dim, basis, structure, unit=unit)


@lru_cache(maxsize=None)
def upper_triangular_algebra(n: int) -> Algebra:
    """The subalgebra of n x n upper-triangular matrices."""
    if n < 1:
        raise AlgebraError("triangular algebra needs n >= 1")
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: i for i, pq in enumerate(pairs)}
    basis = [_unit_label(n, p, q) for p, q in pairs]
    structure = {}
    for (p, q), i in index.items():
        for s in range(q, n):
            structure[(i, index[(q, s)])] = {index[(p, s)]: ONE}
    unit = {index[(p, p)]: ONE for p in range(n)}
    return Algebra(f"T{n}", len(pairs), basis, structure, unit=unit)


def banded_oscillator_algebra(
    dim: int, band: int = 1
) -> tuple[Algebra, Element, Element, Element]:
    """Finite truncation of the oscillator operator algebra.

    Returns ``(algebra, a, adag, h)`` where the ladder operators use the
    unnormalized convention ``a e_n = n e_{n-1}`` and ``adag e_n = e_{n+1}``
    (the image of the top vector truncates to zero), and ``h`` is the number
    operator diag(0, 1, ..., dim-1). With this convention ``adag * a == h``
    holds exactly on the truncation, while ``[a, adag]`` picks up the boundary
    term ``I - dim * E(dim-1, dim-1)``. The band width is metadata only: the
    carrier is the full matrix algebra.
    """
    if dim < 2:
        raise AlgebraError("oscillator truncation needs dim >= 2")
    if band < 1:
        raise AlgebraError("band must be >= 1")
    meta = {"band": band, "truncation_of": "oscillator"}
    alg = full_matrix_algebra(dim)._renamed(f"Osc{dim}", meta)
    idx = lambda p, q: matrix_unit_index(dim, p, q)
    a = alg.element({idx(m - 1, m): Scalar(m) for m in range(1, dim)})
    adag = alg.element({idx(m + 1, m): ONE for m in range(dim - 1)})
    h = alg.element({idx(m, m): Scalar(m) for m in range(1, dim)})
    return alg, a, adag, h


@lru_cache(maxsize=None)
def dual_number_algebra() -> Algebra:
    """The two-dimensional commutative algebra {1, eps} with eps^2 = 0."""
    structure = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    return Algebra("dual", 2, ["1", "eps"], structure, unit={0: ONE})


@lru_cache(maxsize=None)
def split_quaternion_algebra() -> Algebra:
    """M2 rewritten in the basis (I, A, B, C) of identity, two reflections,
    and the quarter-turn rotation: A^2 = B^2 = I, C^2 = -I, AB = C.

    span(I, C) is a subalgebra (a copy of the complex numbers); span(A, B)
    is only a complementary subspace since A*A = I.
    """
    M1 = ONE
    m1 = -ONE
    structure = {
        (0, 0): {0: M1}, (0, 1): {1: M1}, (0, 2): {2: M1}, (0, 3): {3: M1},
        (1, 0): {1: M1}, (2, 0): {2: M1}, (3, 0): {3: M1},
        (1, 1): {0: M1}, (1, 2): {3: M1}, (1, 3): {2: M1},
        (2, 1): {3: m1}, (2, 2): {0: M1}, (2, 3): {1: m1},
        (3, 1): {2: m1}, (3, 2): {1: M1}, (3, 3): {0: m1},
    }
    return Algebra("splitquat", 4, ["I", "A", "B", "C"], structure, unit={0: ONE})


def transpose_operator(alg: Algebra) -> Operator:
    """The transpose map E_pq -> E_qp on a full matrix algebra."""
    n = isqrt(alg.dim)
    if n * n != alg.dim:
        raise AlgebraError("transpose operator needs a full matrix algebra")
    cols: list[Vec] = []
    for p in range(n):
        for q in range(n):
            cols.append({matrix_unit_index(n, q, p): ONE})
    return Operator(alg, cols)


def triangular_split(alg: Algebra) -> Decomposition:
    """Upper-triangular (diagonal included) versus strictly lower split."""
    n = isqrt(alg.dim)
    if n * n != alg.dim:
        raise AlgebraError("triangular split needs a full matrix algebra")
    part1 = [matrix_unit_index(n, p, q) for p in range(n) for q in range(n) if p <= q]
    return Decomposition(alg, part1)


def diagonal_split(alg: Algebra) -> Decomposition:
    """Diagonal versus off-diagonal split of a full matrix algebra."""
    n = isqrt(alg.dim)
    if n * n != alg.dim:
        raise AlgebraError("diagonal split needs a full matrix algebra")
    return Decomposition(alg, [matrix_unit_index(n, p, p) for p in range(n)])
