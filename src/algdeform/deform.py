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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Algebra, Decomposition, Element, Operator, table_is_unit, table_unit
from .errors import PreconditionError
from .hochschild import Cochain, coboundary
from .linalg import Matrix, invert
from .scalar import MINUS_ONE, ONE, ZERO, as_scalar
from .tables import (
    Table,
    Vec,
    associator_table,
    first_witness,
    mixed_associator_table,
    table_add_into,
    table_alternation,
    table_compose_into,
    table_sub,
    table_tidy,
    vec_add_into,
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
    "deformed_bracket_witness",
    "lie_nijenhuis_check",
    "total_skew_associator",
    "product_sum",
    "sum_bracket_satisfies_jacobi",
]

MAX_HIERARCHY_POWER = 6


@dataclass
class Product:
    """A bilinear product on an algebra: an arity-2 cochain plus flags.

    ``associative`` is tri-state (None = not yet computed), ``unit`` holds the
    unit element when one is known. Flags describe the product, not the
    carrier algebra's own multiplication.
    """

    cochain: Cochain
    associative: Optional[bool] = None
    unit: Optional[Element] = None

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
        return first_witness(associator_table(self.table))

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


def _table_by_first(table: Table) -> dict[int, list[tuple[int, Vec]]]:
    idx: dict[int, list[tuple[int, Vec]]] = {}
    for (a, b), vec in table.items():
        idx.setdefault(a, []).append((b, vec))
    return idx


def _table_by_second(table: Table) -> dict[int, list[tuple[int, Vec]]]:
    idx: dict[int, list[tuple[int, Vec]]] = {}
    for (a, b), vec in table.items():
        idx.setdefault(b, []).append((a, vec))
    return idx


def mu_product(alg: Algebra) -> Product:
    """The algebra's own multiplication as a Product (always associative)."""
    return Product(Cochain.product_cochain(alg), associative=True, unit=alg.unit)


def _deform_table(base: Table, n: Operator) -> Table:
    """Table of (A, B) -> N(A)B + A N(B) - N(AB) over the given base product."""
    d = n.algebra.dim
    cols = n.columns
    by_first = _table_by_first(base)
    by_second = _table_by_second(base)
    out: Table = {}
    for a in range(d):
        col = cols[a]
        if not col:
            continue
        for m, coef in col.items():
            for b, vec in by_first.get(m, ()):  # N(e_a) e_b
                acc = out.setdefault((a, b), {})
                vec_add_into(acc, coef, vec)
    for b in range(d):
        col = cols[b]
        if not col:
            continue
        for m, coef in col.items():
            for a, vec in by_second.get(m, ()):  # e_a N(e_b)
                acc = out.setdefault((a, b), {})
                vec_add_into(acc, coef, vec)
    for pair, vec in base.items():  # - N(e_a e_b)
        image = n.apply_vec(vec)
        if image:
            acc = out.setdefault(pair, {})
            vec_add_into(acc, MINUS_ONE, image)
    return table_tidy(out)


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
    alg = n.algebra
    table = _deform_table(alg.structure, n)
    prod = Product(Cochain(alg, 2, table, copy=False))
    if compute_flags:
        prod.ensure_associativity_flag()
        if alg.unit is not None and n(alg.unit) == alg.unit:
            prod.unit = alg.unit
    return prod


def _torsion_table(n: Operator) -> Table:
    """N o mu_N - mu o (N, N) on the algebra's own product mu."""
    mu = n.algebra.structure
    out: Table = {}
    table_compose_into(out, ONE, _deform_table(mu, n), outer=n.columns)
    table_compose_into(out, MINUS_ONE, mu, inner=(n.columns, n.columns))
    return table_tidy(out)


def torsion(n: Operator) -> Cochain:
    """T_N(A, B) = N(A o_N B) - N(A) N(B) as an arity-2 cochain."""
    return Cochain(n.algebra, 2, _torsion_table(n), copy=False)


def nijenhuis_witness(n: Operator) -> Optional[tuple[tuple[int, ...], Vec]]:
    return torsion(n).witness()


def is_nijenhuis(n: Operator) -> bool:
    """True iff the torsion of ``n`` vanishes identically."""
    return torsion(n).is_zero


@dataclass(frozen=True)
class CriterionResult:
    """Both sides of the associativity criterion, computed independently."""

    deformed_associative: bool
    torsion_is_2cocycle: bool
    associator_witness: Optional[tuple] = None
    cocycle_witness: Optional[tuple] = None

    @property
    def agree(self) -> bool:
        return self.deformed_associative == self.torsion_is_2cocycle


def associativity_criterion(n: Operator) -> CriterionResult:
    """Deformed-product associativity versus the torsion being a 2-cocycle.

    The two booleans are computed along independent routes (brute-force
    associator of the deformed product; coboundary of the torsion table) and
    are provably always equal; the contract is asserted by the test suite,
    not silently assumed here.
    """
    prod = deform(n, compute_flags=False)
    assoc_w = prod.associativity_witness()
    cocycle_w = coboundary(torsion(n)).witness()
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
    return first_witness(mixed_associator_table(p1.table, p2.table))


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
    """
    if maxk < 0 or maxk > MAX_HIERARCHY_POWER:
        raise PreconditionError(f"maxk must be between 0 and {MAX_HIERARCHY_POWER}")
    if not is_nijenhuis(n):
        raise PreconditionError("operator has nonzero torsion; hierarchy undefined")
    alg = n.algebra
    powers = [Operator.identity(alg)]
    for _ in range(maxk):
        powers.append(n @ powers[-1])
    prods = [deform(powers[k], compute_flags=False) for k in range(maxk + 1)]

    report: dict = {"max_power": maxk, "nijenhuis": True}

    lemma_witness = None
    for r in range(maxk + 1):
        nr = powers[r].columns if r else None
        for k in range(maxk + 1 - r):
            # N^r o mu_{N^(k+r)} - mu_{N^k} o (N^r, N^r)
            acc: Table = {}
            table_compose_into(acc, ONE, prods[k + r].table, outer=nr)
            table_compose_into(acc, MINUS_ONE, prods[k].table, inner=(nr, nr))
            w = first_witness(acc)
            if w is not None:
                lemma_witness = (r, k) + w[0]
                break
        if lemma_witness is not None:
            break
    lemma_ok = lemma_witness is None
    report["power_relation"] = {"pass": lemma_ok, "witness": lemma_witness}

    comp_ok, comp_witness = True, None
    for i in range(maxk + 1):
        for k in range(maxk + 1 - i):
            redo = _deform_table(prods[i].table, powers[k])
            if table_sub(redo, prods[i + k].table):
                comp_ok = False
                if comp_witness is None:
                    comp_witness = (i, k)
    report["composition_law"] = {"pass": comp_ok, "witness": comp_witness}

    assoc_ok, assoc_witness = True, None
    for k in range(maxk + 1):
        w = prods[k].associativity_witness()
        if w is not None:
            assoc_ok = False
            if assoc_witness is None:
                assoc_witness = (k, w[0])
    report["associativity"] = {"pass": assoc_ok, "witness": assoc_witness}

    compat_ok, compat_witness = True, None
    for k1 in range(maxk + 1):
        for k2 in range(k1 + 1, maxk + 1):
            w = first_witness(mixed_associator_table(prods[k1].table, prods[k2].table))
            if w is not None:
                compat_ok = False
                if compat_witness is None:
                    compat_witness = (k1, k2, w[0])
    report["pairwise_compatibility"] = {"pass": compat_ok, "witness": compat_witness}
    report["pass"] = lemma_ok and comp_ok and assoc_ok and compat_ok
    return report


def tensors_compatible(n1: Operator, n2: Operator) -> bool:
    """Compatibility of two torsion-free operators.

    Decides N1(A o_{N2} B) + N2(A o_{N1} B) = N1(A)N2(B) + N2(A)N1(B) on all
    basis pairs; equivalent to the sum N1 + N2 being torsion-free.
    """
    if n1.algebra is not n2.algebra:
        raise PreconditionError("operators live on different algebras")
    if not is_nijenhuis(n1):
        raise PreconditionError("first operator has nonzero torsion")
    if not is_nijenhuis(n2):
        raise PreconditionError("second operator has nonzero torsion")
    mu = n1.algebra.structure
    acc: Table = {}
    table_compose_into(acc, ONE, _deform_table(mu, n2), outer=n1.columns)
    table_compose_into(acc, ONE, _deform_table(mu, n1), outer=n2.columns)
    table_compose_into(acc, MINUS_ONE, mu, inner=(n1.columns, n2.columns))
    table_compose_into(acc, MINUS_ONE, mu, inner=(n2.columns, n1.columns))
    return first_witness(acc) is None


def projection_tensor(dec: Decomposition, l1, l2) -> Operator:
    """The operator l1*P1 + l2*P2 of a split into two subalgebras.

    Guaranteed torsion-free; refuses decompositions where either part fails
    to be closed under multiplication.
    """
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    if not dec.part2_closed:
        raise PreconditionError("part2 is not a subalgebra")
    s1, s2 = as_scalar(l1), as_scalar(l2)
    part1 = set(dec.part1)
    cols: list[Vec] = []
    for j in range(dec.algebra.dim):
        s = s1 if j in part1 else s2
        cols.append({j: s} if s else {})
    return Operator(dec.algebra, cols)


def contraction_product(dec: Decomposition) -> Product:
    """A o B = A1 B1 + P2(A1 B2 + A2 B1) for a split whose part1 is a subalgebra.

    part2 may be any complementary subspace; the result is associative either
    way and is the h -> 0 limit of conjugating the product by the scaling
    T_h = P1 + h P2.
    """
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    alg = dec.algebra
    part1 = set(dec.part1)
    out: Table = {}
    for (i, j), vec in alg.structure.items():
        in1_i, in1_j = i in part1, j in part1
        if in1_i and in1_j:
            cell = dict(vec)
        elif in1_i or in1_j:
            cell = {k: v for k, v in vec.items() if k not in part1}
        else:
            continue
        if cell:
            out[(i, j)] = cell
    prod = Product(Cochain(alg, 2, out, copy=False), associative=True)
    if alg.unit is not None and prod.is_unit(alg.unit):
        prod.unit = alg.unit
    return prod


def conjugated_product(dec: Decomposition, h) -> Product:
    """The conjugation T_h^{-1}(T_h(A) T_h(B)) with T_h = P1 + h P2, h != 0."""
    s = as_scalar(h)
    if not s:
        raise PreconditionError("conjugation scale must be nonzero")
    if not dec.part1_closed:
        raise PreconditionError("part1 is not a subalgebra")
    alg = dec.algebra
    part1 = set(dec.part1)
    weight = lambda x: 0 if x in part1 else 1
    out: Table = {}
    for (i, j), vec in alg.structure.items():
        w = weight(i) + weight(j)
        cell: Vec = {}
        for k, v in vec.items():
            exp = w - weight(k)
            factor = ONE
            if exp > 0:
                for _ in range(exp):
                    factor = factor * s
            elif exp < 0:
                inv = s.inverse()
                for _ in range(-exp):
                    factor = factor * inv
            cell[k] = v * factor
        out[(i, j)] = cell
    prod = Product(Cochain(alg, 2, out, copy=False), associative=True)
    if alg.unit is not None:
        scaled = {
            k: (v if k in part1 else v * s.inverse())
            for k, v in alg.unit.coords.items()
        }
        prod.unit = Element(alg, scaled)
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
    acc: Table = {}
    for idx, h in enumerate(pts):
        weight = ONE
        for jdx, other in enumerate(pts):
            if jdx == idx:
                continue
            weight = weight * (ZERO - other) / (h - other)
        sample = conjugated_product(dec, h)
        table_add_into(acc, weight, sample.table)
    return Product(Cochain(dec.algebra, 2, table_tidy(acc), copy=False))


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
    m = Matrix.zeros(len(idx), len(idx))
    for t, j in enumerate(idx):
        for i, v in op.columns[j].items():
            m.entries[pos[i]][t] = v
    minv = invert(m)
    if minv is None:
        raise PreconditionError(f"{name} is not invertible on its part")
    cols: list[Vec] = [{} for _ in range(op.algebra.dim)]
    for t, j in enumerate(idx):
        cols[j] = {
            idx[s]: minv.entries[s][t] for s in range(len(idx)) if minv.entries[s][t]
        }
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
    if first_witness(associator_table(circ1.table)) is not None:
        raise PreconditionError("circ1 is not associative on part1")
    _check_part_operator(n1, dec.part1, "n1")
    _check_part_operator(n1p, dec.part1, "n1p")
    _check_part_operator(n2, dec.part2, "n2")
    for op, label in ((n1, "n1"), (n1p, "n1p")):
        # N o circ1 - mu o (N, N); both vanish off part1 x part1.
        acc: Table = {}
        table_compose_into(acc, ONE, circ1.table, outer=op.columns)
        table_compose_into(acc, MINUS_ONE, alg.structure, inner=(op.columns, op.columns))
        if first_witness(acc) is not None:
            raise PreconditionError(
                f"{label} is not a homomorphism from circ1 to the original product"
            )
    n2inv = _part_inverse(n2, dec.part2, "n2")

    # N2^-1 vanishes off part2, so it also projects onto part2; n1 and n1p
    # vanish off part1 and n2 off part2, so each term fills one mixed block.
    out: Table = {t: dict(vec) for t, vec in circ1.table.items()}
    for inner in ((n1.columns, n2.columns), (n2.columns, n1p.columns)):
        table_compose_into(out, ONE, alg.structure, outer=n2inv.columns, inner=inner)
    prod = Product(Cochain(alg, 2, table_tidy(out), copy=False))
    prod.ensure_associativity_flag()
    if alg.unit is not None and prod.is_unit(alg.unit):
        prod.unit = alg.unit
    return prod


@dataclass
class ExtensionReport:
    """Result of extending a part1 operator by zero to the whole algebra."""

    operator: Operator
    is_nijenhuis: bool
    conditions: tuple[bool, bool, bool]
    witnesses: dict = field(default_factory=dict)

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
    # torsion on part1 x part1 is the torsion of n1 on the subalgebra.
    tors = _torsion_table(n1)
    part1 = set(dec.part1)
    if any(a in part1 and b in part1 for a, b in tors):
        raise PreconditionError("n1 has nonzero torsion on part1")

    mu = alg.structure
    p1, p2 = dec.projector(1).columns, dec.projector(2).columns
    n1c, n1sq = n1.columns, (n1 @ n1).columns
    # Each condition is a sum of coef * outer o mu o inner. N1 vanishes off
    # part1, so N1 P1 = N1, and the projectors confine each sum to its block.
    terms = {
        "square_zero": [(ONE, n1sq, (p2, p2))],
        "left_mixed": [(ONE, n1c, (n1c, p2)), (MINUS_ONE, n1sq, (p1, p2))],
        "right_mixed": [(ONE, n1c, (p2, n1c)), (MINUS_ONE, n1sq, (p2, p1))],
    }
    witnesses: dict = {}
    for name, parts in terms.items():
        acc: Table = {}
        for coef, outer, inner in parts:
            table_compose_into(acc, coef, mu, outer=outer, inner=inner)
        w = first_witness(acc)
        if w is not None:
            witnesses[name] = w[0]
    return ExtensionReport(
        operator=Operator(alg, n1.columns),
        is_nijenhuis=not tors,
        conditions=tuple(name not in witnesses for name in terms),
        witnesses=witnesses,
    )


def _commutator_table(table: Table) -> Table:
    out: Table = {}
    for (i, j), vec in table.items():
        acc = out.setdefault((i, j), {})
        vec_add_into(acc, ONE, vec)
        acc = out.setdefault((j, i), {})
        vec_add_into(acc, MINUS_ONE, vec)
    return table_tidy(out)


def lie_bracket_of(p: Product) -> Cochain:
    """The commutator [A, B] = A o B - B o A of a product, as a 2-cochain."""
    return Cochain(p.algebra, 2, _commutator_table(p.table), copy=False)


def deformed_bracket_witness(n: Operator) -> Optional[tuple[tuple[int, ...], Vec]]:
    """Smallest basis pair where [A, B]_N != [N A, B] + [A, N B] - N[A, B].

    [.,.]_N is the commutator of the deformed product and [.,.] that of the
    original one, so the right side is the commutator table deformed by N.
    """
    mu = n.algebra.structure
    bracket = _commutator_table(_deform_table(mu, n))
    return first_witness(table_sub(bracket, _deform_table(_commutator_table(mu), n)))


def lie_nijenhuis_check(n: Operator) -> bool:
    """True iff N([A,B]_N) = [N(A), N(B)] on all basis pairs.

    [.,.]_N is the commutator of the deformed product; the commutator on the
    right is the one of the original product. Implied by vanishing torsion
    but strictly weaker (it only sees skew-symmetrizations).
    """
    mu = n.algebra.structure
    acc: Table = {}
    table_compose_into(acc, ONE, _commutator_table(_deform_table(mu, n)), outer=n.columns)
    table_compose_into(acc, MINUS_ONE, _commutator_table(mu), inner=(n.columns, n.columns))
    return first_witness(acc) is None


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
    acc = {t: dict(v) for t, v in p1.table.items()}
    table_add_into(acc, ONE, p2.table)
    return Product(Cochain(p1.algebra, 2, table_tidy(acc), copy=False))


def sum_bracket_satisfies_jacobi(p1: Product, p2: Product) -> bool:
    """Whether the sum of the two commutator brackets is again a Lie bracket."""
    return total_skew_associator(product_sum(p1, p2)).is_zero
