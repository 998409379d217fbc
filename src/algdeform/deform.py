"""The deformation engine.

Everything here revolves around deforming an associative product by a linear
map N:

    A o_N B = N(A)B + A N(B) - N(AB)

and the torsion T_N(A, B) = N(A o_N B) - N(A)N(B) that obstructs N from being
a homomorphism onto the original product. Operators with vanishing torsion
("Nijenhuis" operators) produce associative deformed products compatible with
the original one, power hierarchies of further deformations, and projection /
extension / contraction constructions on basis-aligned splittings.

Identity checks are exhaustive over basis tuples (bilinearity makes that
sufficient) and exact; every predicate has a witness-producing variant so the
CLI can report the first failing tuple.

Every table here is a signed sum of ``tables`` terms, built by
``tables.table_of``. The deformed product mu o (N, 1) + mu o (1, N) - N o mu
is the Hochschild coboundary of N, that is [mu, N] (``deform_terms``); an
operator is a 1-cochain, so it is built by insertion, and so are the torsion
and the splitting products (the contraction, the conjugation by T_h = P1 +
h P2 and the two-part construction), each a list of compositions of mu with
operators. The Lie checks read only the commutator of mu
(``table_alternation``): that of mu_N is its deformation by N, so the
deformed bracket identity holds for every N. As Assoc(mu_N) = -dT_N, a zero
torsion needs no associator sweep either. Checks that only test a sum for
zero read it with ``tables.Sweep``. ``verify_hierarchy`` sweeps the torsion
alone and refuses a nonzero one: a zero one makes T_P(N) zero for every
polynomial P (Kosmann-Schwarzbach and Magri 1990), and with it every
composition law B(X, Y) = T_X + T_Y - T_{X+Y}, every power relation R(1, X)
= D_X T_N - N o B(N, X) and every mixed associator Q(X, Y) = dB(X, Y) of its
powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Algebra, Decomposition, Element, Operator, table_is_unit, table_unit
from .errors import PreconditionError
from .hochschild import Cochain
from .linalg import inverse_columns
from .records import Record
from .scalar import MINUS_ONE, ONE, ZERO, as_scalar
from .tables import (
    Compose,
    Insert,
    Sweep,
    Table,
    Vec,
    associator_table,
    associator_terms,
    deform_terms,
    mixed_associator_terms,
    table_alternation,
    table_of,
)

__all__ = [
    "Product",
    "mu_product",
    "deform",
    "deform_product",
    "torsion",
    "is_nijenhuis",
    "nijenhuis_witness",
    "CriterionResult",
    "associativity_criterion",
    "mixed_associator_witness",
    "mixed_associator_compatible",
    "power_product",
    "verify_hierarchy",
    "tensors_compatible",
    "projection_tensor",
    "contraction_product",
    "conjugated_product",
    "interpolated_contraction_limit",
    "theorem5_product",
    "ExtensionReport",
    "extend_tensor",
    "lie_bracket_of",
    "lie_nijenhuis_check",
    "total_skew_associator",
    "product_sum",
    "sum_bracket_satisfies_jacobi",
]

MAX_HIERARCHY_POWER = 6


class Product(Record):
    """A bilinear product on an algebra: an arity-2 cochain plus flags.

    ``associative`` is tri-state (None = not yet computed), ``unit`` holds the
    unit element when one is known. Flags describe the product, not the
    carrier algebra's own multiplication.
    """

    __slots__ = ("cochain", "associative", "unit")

    def __init__(self, cochain: Cochain, associative: Optional[bool] = None,
                 unit: Optional[Element] = None):
        self.cochain, self.associative, self.unit = cochain, associative, unit

    @property
    def algebra(self) -> Algebra:
        return self.cochain.algebra

    @property
    def table(self) -> Table:
        return self.cochain.table

    def eval_pair(self, i: int, j: int) -> Vec:
        return self.table.get((i, j), {})

    def __call__(self, x: Element, y: Element) -> Element:
        return self.cochain(x, y)

    def associativity_witness(self) -> Optional[tuple[tuple[int, ...], Vec]]:
        """Smallest basis triple with a nonzero associator, if any."""
        return Sweep(self.algebra.dim).witness(associator_terms(self.table))

    def ensure_associativity_flag(self) -> bool:
        if self.associative is None:
            self.associative = self.associativity_witness() is None
        return self.associative

    def is_unit(self, u: Element) -> bool:
        return table_is_unit(self.table, self.algebra.dim, u.coords)

    def find_unit(self) -> Optional[Element]:
        """Solve the unit equations for this product; None when no unit exists."""
        found = table_unit(self.table, self.algebra.dim)
        return Element(self.algebra, found) if found is not None else None


def mu_product(alg: Algebra) -> Product:
    """The algebra's own multiplication as a Product (always associative)."""
    return Product(Cochain.product_cochain(alg), associative=True, unit=alg.unit)


def _deform_table(base: Table, n: Operator) -> Table:
    """Table of (A, B) -> N(A)B + A N(B) - N(AB) over the given base product."""
    return table_of(deform_terms(ONE, base, n.columns))


def deform_product(base: Product, n: Operator) -> Product:
    """Deform an arbitrary product by an operator (no flags computed)."""
    if n.algebra is not base.algebra:
        raise PreconditionError("operator and product live on different algebras")
    table = _deform_table(base.table, n)
    return Product(Cochain(base.algebra, 2, table, copy=False))


def deform(n: Operator, compute_flags: bool = True) -> Product:
    """The deformed product of the algebra's own multiplication by ``n``.

    With ``compute_flags`` the associativity flag is decided by brute force
    over basis triples, and the unit flag is set exactly when the algebra is
    unital and N fixes the unit (then the deformed product has the same unit).
    """
    if compute_flags:
        return _deform_after_torsion(n, False)
    return Product(Cochain(n.algebra, 2, _deform_table(n.algebra.structure, n), copy=False))


def _deform_after_torsion(n: Operator, torsion_zero: bool) -> Product:
    """``deform(n)`` with its flags, for a caller that has just swept the
    torsion of ``n``. Assoc(mu_N) = -dT_N, so a zero torsion makes mu_N
    associative; only otherwise is its associator swept."""
    alg = n.algebra
    prod = Product(Cochain(alg, 2, _deform_table(alg.structure, n), copy=False), torsion_zero or None)
    prod.ensure_associativity_flag()
    if alg.unit is not None and n(alg.unit) == alg.unit:
        prod.unit = alg.unit
    return prod


def _torsion_table(n: Operator) -> Table:
    """N o mu_N - mu o (N, N) on the algebra's own product mu."""
    mu = n.algebra.structure
    return table_of([
        Compose(ONE, _deform_table(mu, n), outer=n.columns),
        Compose(MINUS_ONE, mu, inner=(n.columns, n.columns)),
    ])


def torsion(n: Operator) -> Cochain:
    """T_N(A, B) = N(A o_N B) - N(A) N(B) as an arity-2 cochain."""
    return Cochain(n.algebra, 2, _torsion_table(n), copy=False)


def _torsion_terms(table: Table, n: Operator) -> list[Compose]:
    """N o D_N T - T o (N, N) for T = ``table``, with N o D_N T expanded into
    compositions of T, so no deformed table is built."""
    cols = n.columns
    return [
        Compose(ONE, table, cols, (cols, None)),
        Compose(ONE, table, cols, (None, cols)),
        Compose(MINUS_ONE, table, (n @ n).columns),
        Compose(MINUS_ONE, table, inner=(cols, cols)),
    ]


def nijenhuis_witness(n: Operator) -> Optional[tuple[tuple[int, ...], Vec]]:
    """The torsion's witness, swept with N o mu_N expanded into compositions
    of mu: no table is built, the deformed product's included."""
    return Sweep(n.algebra.dim).witness(_torsion_terms(n.algebra.structure, n))


def is_nijenhuis(n: Operator) -> bool:
    """True iff the torsion of ``n`` vanishes identically."""
    return nijenhuis_witness(n) is None


class CriterionResult(Record):
    """Both sides of the associativity criterion, computed independently."""

    __slots__ = ("deformed_associative", "torsion_is_2cocycle", "associator_witness",
                 "cocycle_witness")

    def __init__(self, deformed_associative: bool, torsion_is_2cocycle: bool,
                 associator_witness: Optional[tuple] = None,
                 cocycle_witness: Optional[tuple] = None):
        self.deformed_associative = deformed_associative
        self.torsion_is_2cocycle = torsion_is_2cocycle
        self.associator_witness, self.cocycle_witness = associator_witness, cocycle_witness

    @property
    def agree(self) -> bool:
        return self.deformed_associative == self.torsion_is_2cocycle


def associativity_criterion(n: Operator) -> CriterionResult:
    """Deformed-product associativity versus the torsion being a 2-cocycle.

    The two booleans are computed along independent routes (the associator
    of mu_N; the coboundary dT_N = a T(b, c) - T(ab, c) + T(a, bc) - T(a, b) c
    of T_N = N o mu_N - mu o (N, N)), equal as Assoc(mu_N) = -dT_N; the test
    suite asserts it. One sweep keeps mu_N and T_N as integer forms
    (``Sweep.kept_sum``), so no table is built.
    """
    mu, cols, sweep = n.algebra.structure, n.columns, Sweep(n.algebra.dim)
    mu_n = sweep.kept_sum(deform_terms(ONE, mu, cols))
    t_n = sweep.kept_sum([Compose(ONE, mu_n, outer=cols), Compose(MINUS_ONE, mu, inner=(cols, cols))])
    assoc_w = sweep.witness(associator_terms(mu_n))
    cocycle_w = sweep.witness([Insert(ONE, mu, t_n, 1), Insert(MINUS_ONE, t_n, mu, 0),
                               Insert(ONE, t_n, mu, 1), Insert(MINUS_ONE, mu, t_n, 0)])
    return CriterionResult(
        deformed_associative=assoc_w is None,
        torsion_is_2cocycle=cocycle_w is None,
        associator_witness=assoc_w,
        cocycle_witness=cocycle_w,
    )


def mixed_associator_witness(
    p1: Product, p2: Product
) -> Optional[tuple[tuple[int, ...], Vec]]:
    if p1.algebra is not p2.algebra:
        raise PreconditionError("products live on different algebras")
    return Sweep(p1.algebra.dim).witness(mixed_associator_terms(p1.table, p2.table))


def mixed_associator_compatible(p1: Product, p2: Product) -> bool:
    """True iff the mixed associators of the two products cancel identically.

    Over an exact characteristic-zero field this is equivalent, for two
    associative products, to every pencil p1 + t*p2 being associative.
    """
    return mixed_associator_witness(p1, p2) is None


def power_product(n: Operator, k: int) -> Product:
    """The deformation by the k-th operator power (k = 0 gives the original)."""
    if k < 0:
        raise PreconditionError("power must be nonnegative")
    return deform(n.power(k))


def verify_hierarchy(n: Operator, maxk: int) -> dict:
    """Check the whole power hierarchy of a torsion-free operator.

    For all r, k, i with r + k <= maxk and i + k <= maxk, on every basis pair:
    the intertwining relation N^r(A o_{N^{k+r}} B) = N^r(A) o_{N^k} N^r(B),
    the composition law (deforming the k-th product by N^i lands on the
    (k+i)-th), associativity of every power product, and pairwise mixed
    associator compatibility. Requires ``n`` to be torsion-free.

    One sweep of the torsion T_N is the gate: an operator with torsion is
    refused, and for a torsion-free one every section passes. With mu_X =
    [mu, X] the product deformed by X, D_Y the deformation by Y
    (``deform_terms``) and T_X = X o mu_X - mu o (X, X), a zero T_N gives,
    in turn (Kosmann-Schwarzbach and Magri 1990, Poisson-Nijenhuis
    structures; Gerstenhaber's composition calculus):

    - T_P(N) = 0 for every polynomial P: T_{a+bN} = b^2 T_N, T_{N^2} =
      T_N o (N, N) + N o T_N o (N, 1) + N o T_N o (1, N) + N^2 o T_N, and the
      polar form 2Q(X, Y) = T_{X+Y} - T_X - T_Y has Q(N, N^2) = N o T_N +
      T_N o (N, 1)/2 + T_N o (1, N)/2;
    - the composition law: B(X, Y) = D_Y mu_X - mu_{XY} = -(T_{X+Y} - T_X -
      T_Y) for commuting X and Y, so every B(N^i, N^k) is zero;
    - the power relation: R(1, X) = N o mu_{NX} - mu_X o (N, N) = D_X T_N -
      N o B(N, X) for X commuting with N, and R(r, k) = N^(r-1) o
      R(1, k+r-1) + R(r-1, k) o (N, N), so every R(r, k) is zero;
    - associativity and compatibility: the mixed associator of mu_X and mu_Y
      is Q(X, Y) = dB(X, Y), d the Hochschild coboundary of mu (graded Jacobi
      and d o d = 0), and twice the associator on its diagonal; mu itself is
      associative (every ``Algebra`` is validated at construction).

    So the report is built with no power and no sweep beyond the gate.
    """
    if maxk < 0 or maxk > MAX_HIERARCHY_POWER:
        raise PreconditionError(f"maxk must be between 0 and {MAX_HIERARCHY_POWER}")
    if not is_nijenhuis(n):
        raise PreconditionError("operator has nonzero torsion; hierarchy undefined")
    report: dict = {"max_power": maxk, "nijenhuis": True}
    for name in ("power_relation", "composition_law", "associativity", "pairwise_compatibility"):
        report[name] = {"pass": True, "witness": None}
    report["pass"] = True
    return report


def tensors_compatible(n1: Operator, n2: Operator) -> bool:
    """Compatibility of two torsion-free operators.

    Decides N1(A o_{N2} B) + N2(A o_{N1} B) = N1(A)N2(B) + N2(A)N1(B) on all
    basis pairs. The difference of the two sides is the cross sum C(N1, N2),
    and T_{N1+N2} = T_{N1} + T_{N2} + C(N1, N2): with both torsions zero, C
    is the torsion of N1 + N2, so this is the sum being torsion-free.
    """
    if n1.algebra is not n2.algebra:
        raise PreconditionError("operators live on different algebras")
    if not is_nijenhuis(n1):
        raise PreconditionError("first operator has nonzero torsion")
    if not is_nijenhuis(n2):
        raise PreconditionError("second operator has nonzero torsion")
    return is_nijenhuis(n1 + n2)


def projection_tensor(dec: Decomposition, l1, l2) -> Operator:
    """The combination l1*P1 + l2*P2 of the projectors of a split into two
    subalgebras.

    Guaranteed torsion-free; refuses decompositions where either part fails
    to be closed under multiplication.
    """
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    if not dec.part2_closed:
        raise PreconditionError("part2 is not a subalgebra")
    return as_scalar(l1) * dec.projector(1) + as_scalar(l2) * dec.projector(2)


def contraction_product(dec: Decomposition) -> Product:
    """A o B = A1 B1 + P2(A1 B2 + A2 B1) for a split whose part1 is a subalgebra.

    part2 may be any complementary subspace; the result is associative either
    way and is the h -> 0 limit of conjugating the product by the scaling
    T_h = P1 + h P2.
    """
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    alg, mu = dec.algebra, dec.algebra.structure
    p1, p2 = dec.projector(1).columns, dec.projector(2).columns
    out = table_of([
        Compose(ONE, mu, inner=(p1, p1)),
        Compose(ONE, mu, p2, (p1, p2)),
        Compose(ONE, mu, p2, (p2, p1)),
    ])
    prod = Product(Cochain(alg, 2, out, copy=False), associative=True)
    if alg.unit is not None and prod.is_unit(alg.unit):
        prod.unit = alg.unit
    return prod


def _conjugation(dec: Decomposition, coef, h) -> Compose:
    """coef * T_h^{-1} o mu o (T_h, T_h), h != 0, with the scaling T_h =
    P1 + h P2 and its inverse P1 + h^{-1} P2 combinations of the projectors."""
    if not h:
        raise PreconditionError("conjugation scale must be nonzero")
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    p1, p2 = dec.projector(1), dec.projector(2)
    t_h = (p1 + h * p2).columns
    return Compose(coef, dec.algebra.structure, (p1 + h.inverse() * p2).columns, (t_h, t_h))


def conjugated_product(dec: Decomposition, h) -> Product:
    """The conjugation T_h^{-1}(T_h(A) T_h(B)), h != 0, by the scaling T_h =
    P1 + h P2 of the projectors; its unit is T_h^{-1} of the algebra's."""
    s = as_scalar(h)
    alg = dec.algebra
    out = table_of([_conjugation(dec, ONE, s)])
    prod = Product(Cochain(alg, 2, out, copy=False), associative=True)
    if alg.unit is not None:
        prod.unit = (dec.projector(1) + s.inverse() * dec.projector(2))(alg.unit)
    return prod


def interpolated_contraction_limit(dec: Decomposition, points: Sequence = None) -> Product:
    """The h -> 0 limit of the conjugated product via exact interpolation.

    The conjugated product is polynomial of degree <= 2 in h once part1 is a
    subalgebra, so three sample points determine it; the constant term is the
    value at h = 0. Defaults to h in {1, 1/2, 1/3}.
    """
    if points is None:
        points = [ONE, as_scalar(Fraction(1, 2)), as_scalar(Fraction(1, 3))]
    pts = [as_scalar(p) for p in points]
    if len(pts) != 3:
        raise PreconditionError("interpolation needs exactly three sample points")
    if len(set(pts)) != 3:
        raise PreconditionError("interpolation sample points must be distinct")
    terms = []
    for idx, h in enumerate(pts):
        weight = ONE
        for jdx, other in enumerate(pts):
            if jdx == idx:
                continue
            weight = weight * (ZERO - other) / (h - other)
        terms.append(_conjugation(dec, weight, h))
    return Product(Cochain(dec.algebra, 2, table_of(terms), copy=False))


def _check_part_operator(op: Operator, part: Sequence[int], name: str) -> None:
    inside = set(part)
    for j, col in enumerate(op.columns):
        if j in inside:
            if any(i not in inside for i in col):
                raise PreconditionError(f"{name} does not map its part into itself")
        elif col:
            raise PreconditionError(f"{name} must vanish outside its part")


def _part_inverse(op: Operator, part: Sequence[int], name: str) -> Operator:
    """Inverse of an operator on the span of ``part`` (zero elsewhere)."""
    idx = list(part)
    pos = {j: t for t, j in enumerate(idx)}
    rows: list[Vec] = [{} for _ in idx]
    for t, j in enumerate(idx):
        for i, v in op.columns[j].items():
            rows[pos[i]][t] = v
    inv = inverse_columns(rows)
    if inv is None:
        raise PreconditionError(f"{name} is not invertible on its part")
    cols: list[Vec] = [{} for _ in range(op.algebra.dim)]
    for t, col in enumerate(inv):
        cols[idx[t]] = {idx[s]: v for s, v in sorted(col.items())}
    return Operator(op.algebra, cols)


def theorem5_product(
    dec: Decomposition,
    circ1: Product,
    n1: Operator,
    n1p: Operator,
    n2: Operator,
) -> Product:
    """A o B = A1 o1 B1 + N2^{-1}((N1(A1) N2(B2) + N2(A2) N1'(B1))_2).

    Requires: part1 a subalgebra; ``circ1`` an associative product supported
    on part1; ``n1`` and ``n1p`` maps of part1 into itself that send ``circ1``
    to the original product (N(X o1 Y) = N(X) N(Y)); ``n2`` invertible on
    part2. All preconditions are verified exactly; the result is asserted
    associative by brute force.
    """
    alg = dec.algebra
    if circ1.algebra is not alg or n1.algebra is not alg or n1p.algebra is not alg or n2.algebra is not alg:
        raise PreconditionError("all ingredients must live on the split algebra")
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    part1 = set(dec.part1)
    for (i, j), vec in circ1.table.items():
        if i not in part1 or j not in part1 or any(k not in part1 for k in vec):
            raise PreconditionError("circ1 is not supported on part1")
    sweep = Sweep(alg.dim)
    if sweep.witness(associator_terms(circ1.table)) is not None:
        raise PreconditionError("circ1 is not associative on part1")
    _check_part_operator(n1, dec.part1, "n1")
    _check_part_operator(n1p, dec.part1, "n1p")
    _check_part_operator(n2, dec.part2, "n2")
    for op, label in ((n1, "n1"), (n1p, "n1p")):
        # N o circ1 - mu o (N, N); both vanish off part1 x part1.
        terms = [
            Compose(ONE, circ1.table, outer=op.columns),
            Compose(MINUS_ONE, alg.structure, inner=(op.columns, op.columns)),
        ]
        if sweep.witness(terms) is not None:
            raise PreconditionError(
                f"{label} is not a homomorphism from circ1 to the original product"
            )
    n2inv = _part_inverse(n2, dec.part2, "n2")

    # N2^-1 vanishes off part2, so it also projects onto part2; n1 and n1p
    # vanish off part1 and n2 off part2, so each term fills one mixed block.
    mu, inv = alg.structure, n2inv.columns
    out = table_of([
        Compose(ONE, circ1.table),
        Compose(ONE, mu, inv, (n1.columns, n2.columns)),
        Compose(ONE, mu, inv, (n2.columns, n1p.columns)),
    ])
    prod = Product(Cochain(alg, 2, out, copy=False))
    prod.ensure_associativity_flag()
    if alg.unit is not None and prod.is_unit(alg.unit):
        prod.unit = alg.unit
    return prod


class ExtensionReport(Record):
    """Result of extending a part1 operator by zero to the whole algebra.

    ``witnesses`` is a new empty dict when not given.
    """

    __slots__ = ("operator", "is_nijenhuis", "conditions", "witnesses")

    def __init__(self, operator: Operator, is_nijenhuis: bool,
                 conditions: tuple[bool, bool, bool], witnesses: Optional[dict] = None):
        self.operator, self.is_nijenhuis, self.conditions = operator, is_nijenhuis, conditions
        self.witnesses = {} if witnesses is None else witnesses

    @property
    def conditions_conjunction(self) -> bool:
        return all(self.conditions)


def extend_tensor(dec: Decomposition, n1: Operator) -> ExtensionReport:
    """Extend N1 on part1 by N(A) = N1(A1) and test the three obstructions.

    The three conditions (N1^2((A2 B2)_1) = 0 and the two mixed ones) are each
    evaluated on all relevant basis pairs; their conjunction provably equals
    the extension being torsion-free, and both sides are computed here.
    Requires part1 to be a subalgebra and ``n1`` torsion-free on it.
    """
    alg = dec.algebra
    if n1.algebra is not alg:
        raise PreconditionError("operator must live on the split algebra")
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    _check_part_operator(n1, dec.part1, "n1")
    # n1 vanishes off part1, so it is its own extension by zero, and its
    # torsion on part1 x part1 is the torsion of n1 on the subalgebra: T_N1 o
    # (P1, P1), with P1 in each inner slot that N1 = N1 P1 leaves empty.
    mu, sweep = alg.structure, Sweep(alg.dim)
    p1, p2 = dec.projector(1).columns, dec.projector(2).columns
    torsion = _torsion_terms(mu, n1)
    torsion_free = sweep.witness(torsion) is None
    on_part1 = [Compose(t.coef, t.table, t.outer,
                        tuple(p1 if s is None else s for s in t.inner or (None, None))) for t in torsion]
    if not torsion_free and sweep.witness(on_part1) is not None:
        raise PreconditionError("n1 has nonzero torsion on part1")

    n1c, n1sq = n1.columns, (n1 @ n1).columns
    # Each condition is a sum of coef * outer o mu o inner. N1 vanishes off
    # part1, so N1 P1 = N1, and the projectors confine each sum to its block.
    terms = {
        "square_zero": [Compose(ONE, mu, n1sq, (p2, p2))],
        "left_mixed": [Compose(ONE, mu, n1c, (n1c, p2)), Compose(MINUS_ONE, mu, n1sq, (p1, p2))],
        "right_mixed": [Compose(ONE, mu, n1c, (p2, n1c)), Compose(MINUS_ONE, mu, n1sq, (p2, p1))],
    }
    witnesses: dict = {}
    for name, parts in terms.items():
        w = sweep.witness(parts)
        if w is not None:
            witnesses[name] = w[0]
    return ExtensionReport(
        operator=Operator(alg, n1.columns),
        is_nijenhuis=torsion_free,
        conditions=tuple(name not in witnesses for name in terms),
        witnesses=witnesses,
    )


def lie_bracket_of(p: Product) -> Cochain:
    """The commutator [A, B] = A o B - B o A of a product, as a 2-cochain."""
    return Cochain(p.algebra, 2, table_alternation(p.table), copy=False)


def lie_nijenhuis_check(n: Operator) -> bool:
    """True iff N([A,B]_N) = [N(A), N(B)] on all basis pairs.

    [.,.]_N is the commutator of the deformed product; the commutator on the
    right is the one of the original product. Implied by vanishing torsion
    but strictly weaker (it only sees skew-symmetrizations). As [.,.]_N =
    D_N [.,.], it is swept as the torsion is, over the commutator table of mu
    alone: the deformed product's table is never built.
    """
    bracket = table_alternation(n.algebra.structure)
    return Sweep(n.algebra.dim).witness(_torsion_terms(bracket, n)) is None


def total_skew_associator(p: Product) -> Cochain:
    """The alternating sum of the associator over all argument orders.

    Vanishes exactly when the commutator of the product satisfies the Jacobi
    identity (the two sides agree term by term after expansion).
    """
    return Cochain(p.algebra, 3, table_alternation(associator_table(p.table)), copy=False)


def product_sum(p1: Product, p2: Product) -> Product:
    """The pointwise sum of two bilinear products (flags not inferred)."""
    if p1.algebra is not p2.algebra:
        raise PreconditionError("products live on different algebras")
    table = table_of([Compose(ONE, p1.table), Compose(ONE, p2.table)])
    return Product(Cochain(p1.algebra, 2, table, copy=False))


def sum_bracket_satisfies_jacobi(p1: Product, p2: Product) -> bool:
    """Whether the sum of the two commutator brackets is again a Lie bracket."""
    return total_skew_associator(product_sum(p1, p2)).is_zero
