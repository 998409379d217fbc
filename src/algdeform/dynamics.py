"""Derivations, inner generators, and (weak) bi-Hamiltonian detection.

A derivation of a product satisfies the Leibniz rule D(A o B) = D(A) o B +
A o D(B); an inner derivation is the commutator with a fixed generator. The
generator of an inner derivation is recovered by solving the exact linear
system ad_h = D, and is unique modulo the product's center, which is returned
alongside as the ambiguity space.

A pair of associative products together with a derivation is recorded as
weakly bi-Hamiltonian when the derivation is inner with respect to both and
the sum of the two commutator brackets still satisfies Jacobi; the strong
variant additionally demands the mixed associators of the two products to
cancel (pencil associativity).

``example_check`` reproduces the six worked scenarios end to end (projection
split of M2, the reflection/rotation basis, the diagonal rescaling product on
M3, the triangular ideal case on T3, and the two truncated-oscillator
deformations) and reports each asserted identity with a pass flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    Algebra,
    Element,
    Operator,
    banded_oscillator_algebra,
    diagonal_split,
    full_matrix_algebra,
    matrix_unit_index,
    split_quaternion_algebra,
    triangular_split,
    upper_triangular_algebra,
)
from .deform import (
    Product,
    contraction_product,
    deform,
    extend_tensor,
    is_nijenhuis,
    mixed_associator_compatible,
    mixed_associator_witness,
    mu_product,
    projection_tensor,
    theorem5_product,
)
from .errors import PreconditionError
from .hochschild import Cochain
from .linalg import RowReducer, solve_sparse_system
from .scalar import MINUS_ONE, ONE, Scalar, as_scalar
from .tables import (
    Table,
    Vec,
    first_witness,
    mixed_associator_table,
    table_alternation,
    table_compose_into,
    table_sub,
    vec_add_into,
    vec_eq,
    vec_sub,
)

__all__ = [
    "DerivationReport",
    "BiHamiltonianReport",
    "is_derivation",
    "commutator_derivation",
    "inner_generator",
    "in_span",
    "is_bi_hamiltonian",
    "example_check",
    "EXAMPLE_IDS",
]

EXAMPLE_IDS = (1, 2, 3, 4, 5, 6)


def is_derivation(d: Operator, p: Product) -> tuple[bool, Optional[tuple[int, int]]]:
    """Exact Leibniz check of ``d`` against ``p`` over all basis pairs."""
    if d.algebra is not p.algebra:
        raise PreconditionError("operator and product live on different algebras")
    # D o p - p o (D, 1) - p o (1, D)
    acc: Table = {}
    table_compose_into(acc, ONE, p.table, outer=d.columns)
    table_compose_into(acc, MINUS_ONE, p.table, inner=(d.columns, None))
    table_compose_into(acc, MINUS_ONE, p.table, inner=(None, d.columns))
    w = first_witness(acc)
    return (True, None) if w is None else (False, w[0])


def commutator_derivation(h: Element, p: Product) -> Operator:
    """The inner derivation B -> h o B - B o h of the product ``p``."""
    if h.algebra is not p.algebra:
        raise PreconditionError("element and product live on different algebras")
    alg = h.algebra
    table = p.table
    cols: list[Vec] = []
    for j in range(alg.dim):
        acc: Vec = {}
        for m, c in h.coords.items():
            cell = table.get((m, j))
            if cell:
                vec_add_into(acc, c, cell)
            cell = table.get((j, m))
            if cell:
                vec_add_into(acc, -c, cell)
        cols.append({k: v for k, v in acc.items() if v})
    return Operator(alg, cols)


@dataclass
class DerivationReport:
    """Outcome of the inner-generator solve for one derivation and product."""

    is_derivation: bool
    leibniz_witness: Optional[tuple[int, int]]
    inner: bool
    generator: Optional[Element]
    ambiguity: list[Element]


def inner_generator(d: Operator, p: Product) -> DerivationReport:
    """Solve h o e_j - e_j o h = d(e_j) exactly for a generator h.

    Returns the particular generator plus a basis of the product's center
    (the full ambiguity of the generator), or flags the derivation as
    non-inner when the system is inconsistent. Non-inner is a report state,
    not an error.
    """
    if d.algebra is not p.algebra:
        raise PreconditionError("operator and product live on different algebras")
    alg = d.algebra
    dim = alg.dim
    # Row (j, c): sum_g x_g (e_g o e_j - e_j o e_g)_c = d(e_j)_c.
    rows: dict[tuple[int, int], Vec] = {}
    for (x, y), vec in p.table.items():
        for c, s in vec.items():
            row = rows.setdefault((y, c), {})
            row[x] = row.get(x, as_scalar(0)) + s
            row = rows.setdefault((x, c), {})
            row[y] = row.get(y, as_scalar(0)) - s
    red = RowReducer()
    seen = set()
    for j in range(dim):
        for c, rhs in d.columns[j].items():
            key = (j, c)
            seen.add(key)
            red.add_row(rows.get(key, {}), rhs)
            if red.inconsistent:
                break
        if red.inconsistent:
            break
    if not red.inconsistent:
        for key, row in rows.items():
            if key not in seen:
                red.add_row(row)
    leibniz, lw = is_derivation(d, p)
    if red.inconsistent:
        return DerivationReport(leibniz, lw, False, None, [])
    particular = red.particular_sparse()
    kernel = red.kernel_basis_sparse(dim)
    return DerivationReport(
        leibniz,
        lw,
        True,
        Element(alg, particular or {}),
        [Element(alg, v) for v in kernel],
    )


def in_span(x: Element, basis: Sequence[Element]) -> bool:
    """Whether ``x`` is an exact linear combination of the given elements."""
    rows: dict[int, Vec] = {}
    for col, b in enumerate(basis):
        for k, v in b.coords.items():
            rows.setdefault(k, {})[col] = v
    keys = set(rows) | set(x.coords)
    system = ((rows.get(k, {}), x.coords.get(k, as_scalar(0))) for k in sorted(keys))
    return solve_sparse_system(system, len(basis)) is not None


@dataclass
class BiHamiltonianReport:
    """Inner-generator pair plus the weak/strong compatibility verdicts."""

    inner_first: bool
    inner_second: bool
    sum_bracket_jacobi: bool
    products_compatible: bool
    generators: tuple[Optional[Element], Optional[Element]]
    ambiguities: tuple[list[Element], list[Element]]

    @property
    def inner_pair(self) -> bool:
        return self.inner_first and self.inner_second

    @property
    def weak(self) -> bool:
        return self.inner_pair and self.sum_bracket_jacobi

    @property
    def strong(self) -> bool:
        return self.weak and self.products_compatible


def is_bi_hamiltonian(d: Operator, p1: Product, p2: Product) -> BiHamiltonianReport:
    """Classify a derivation against two associative products.

    Weak: inner with respect to both products and the sum of the two
    commutator brackets satisfies Jacobi. Strong: weak plus vanishing mixed
    associators (every pencil of the two products is associative). Both
    products must be associative.
    """
    for p in (p1, p2):
        if not p.ensure_associativity_flag():
            raise PreconditionError("bi-Hamiltonian check needs associative products")
    rep1 = inner_generator(d, p1)
    rep2 = inner_generator(d, p2)
    # Both products are associative, so the associator of p1 + p2 is their
    # mixed associator, and Jacobi for the sum bracket is its alternation.
    mixed = mixed_associator_table(p1.table, p2.table)
    return BiHamiltonianReport(
        inner_first=rep1.inner,
        inner_second=rep2.inner,
        sum_bracket_jacobi=not table_alternation(mixed),
        products_compatible=not mixed,
        generators=(rep1.generator, rep2.generator),
        ambiguities=(rep1.ambiguity, rep2.ambiguity),
    )


# -- worked examples -----------------------------------------------------------------


def _check(name: str, ok: bool, witness=None) -> dict:
    entry = {"name": name, "pass": bool(ok)}
    if not ok and witness is not None:
        entry["witness"] = witness
    return entry


def _labels(alg: Algebra, indices) -> list[str]:
    return [alg.basis[i] for i in indices]


def _match_on_basis(alg: Algebra, got, expected) -> tuple[bool, Optional[list[str]]]:
    """Whether got(x, y) == expected(x, y) on every basis pair; first failing pair."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.basis_element(i), alg.basis_element(j)
            if got(x, y) != expected(x, y):
                return False, _labels(alg, (i, j))
    return True, None


def _diag_element(alg: Algebra, n: int, values) -> Element:
    return alg.element(
        {matrix_unit_index(n, p, p): as_scalar(v) for p, v in enumerate(values)}
    )


def _restrict_left_multiplication(alg: Algebra, k: Element, part) -> Operator:
    inside = set(part)
    cols = []
    for j in range(alg.dim):
        cols.append(alg.mul_vec(k.coords, {j: ONE}) if j in inside else {})
    return Operator(alg, cols)


def _diagonal_rescaling_product(alg: Algebra, n: int, k: Element) -> Product:
    """The product K D(A) B + A K D(B) - K D(A) D(B) built via the two-part
    construction (diagonal part rescaled by K, identity on the off-diagonal)."""
    dec = diagonal_split(alg)
    n1 = _restrict_left_multiplication(alg, k, dec.part1)
    # circ1(X, Y) = K X Y on the diagonal, that is mu o (N1, P1).
    circ1: Table = {}
    table_compose_into(circ1, ONE, alg.structure, inner=(n1.columns, dec.projector(1).columns))
    n2 = dec.projector(2)
    return theorem5_product(dec, Product(Cochain(alg, 2, circ1, copy=False)), n1, n1, n2)


def _example_1() -> dict:
    alg = full_matrix_algebra(2)
    dec = triangular_split(alg)
    mu = mu_product(alg)
    p1 = projection_tensor(dec, 1, 0)
    prod = deform(p1)
    checks = [
        _check("projection_is_nijenhuis", is_nijenhuis(p1)),
        _check("deformed_associative", bool(prod.associative)),
        _check("unit_preserved", prod.unit == alg.unit),
    ]

    e = lambda p, q: alg.basis_element(matrix_unit_index(2, p, q))

    def displayed(x: Element, y: Element) -> Element:
        a, b = x.coeff(0), x.coeff(1)
        c, d = x.coeff(2), x.coeff(3)
        a2, b2 = y.coeff(0), y.coeff(1)
        c2, d2 = y.coeff(2), y.coeff(3)
        return (
            (a * a2) * e(0, 0)
            + (a * b2 + b * d2) * e(0, 1)
            + (c * a2 + d * c2) * e(1, 0)
            + (d * d2) * e(1, 1)
        )

    checks.append(_check("table_matches_displayed_form", *_match_on_basis(alg, prod, displayed)))

    comp = deform(projection_tensor(dec, 0, 1))
    checks.append(_check("complementary_associative", bool(comp.associative)))

    def displayed_comp(x: Element, y: Element) -> Element:
        b, c = x.coeff(1), x.coeff(2)
        b2, c2 = y.coeff(1), y.coeff(2)
        return (b * c2) * e(0, 0) + (c * b2) * e(1, 1)

    checks.append(
        _check("complementary_matches_diag_bc_cb", *_match_on_basis(alg, comp, displayed_comp))
    )
    checks.append(_check("complementary_has_no_unit", comp.find_unit() is None))

    ok = True
    wit = None
    for idx in dec.part1:
        label = alg.basis[idx]
        if label not in ("E11", "E22"):
            continue
        dE = alg.basis_element(idx)
        if commutator_derivation(dE, prod) != commutator_derivation(dE, mu):
            ok = False
            wit = label
    checks.append(_check("diagonal_inner_derivations_agree", ok, wit))
    return {"example": 1, "algebra": alg.name, "checks": checks}


def _example_2() -> dict:
    alg = split_quaternion_algebra()
    I, A, B, C = (alg.basis_element(i) for i in range(4))
    dec = alg.decompose([0, 3])  # span(I, C) versus span(A, B)
    mu = mu_product(alg)
    prod = contraction_product(dec)
    zero = alg.zero()
    relations = [
        ("AoB=0", prod(A, B), zero),
        ("BoA=0", prod(B, A), zero),
        ("AoA=0", prod(A, A), zero),
        ("BoB=0", prod(B, B), zero),
        ("AoC=B", prod(A, C), B),
        ("CoA=-B", prod(C, A), -B),
        ("BoC=-A", prod(B, C), -A),
        ("CoB=A", prod(C, B), A),
        ("CoC=-I", prod(C, C), -I),
    ]
    checks = [
        _check("part1_is_subalgebra", dec.part1_closed),
        _check("part2_not_subalgebra", not dec.part2_closed),
        _check("product_associative", prod.associativity_witness() is None),
    ]
    for name, got, expect in relations:
        checks.append(_check(name, got == expect, repr(got)))
    checks.append(_check("unit_preserved", prod.unit == alg.unit))
    checks.append(
        _check(
            "inner_derivation_of_C_same_for_both",
            commutator_derivation(C, prod) == commutator_derivation(C, mu),
        )
    )
    return {"example": 2, "algebra": alg.name, "checks": checks}


def _example_3(n: int = 3) -> dict:
    alg = full_matrix_algebra(n)
    dec = diagonal_split(alg)
    k = _diag_element(alg, n, range(1, n + 1))
    prod = _diagonal_rescaling_product(alg, n, k)
    mu = mu_product(alg)
    checks = [_check("construction_associative", bool(prod.associative))]

    def expected(x: Element, y: Element) -> Element:
        dx, dy = dec.project(x, 1), dec.project(y, 1)
        return k * dx * y + x * (k * dy) - k * dx * dy

    checks.append(_check("matches_displayed_formula", *_match_on_basis(alg, prod, expected)))

    plain = deform(
        Operator.left_multiplication(k) @ dec.projector(1), compute_flags=False
    )
    diff = table_sub(prod.table, plain.table)
    distinct = bool(diff)
    checks.append(_check("differs_from_deform_of_K_diag", distinct))
    if distinct:
        pair = min(diff)
        x, y = (alg.basis_element(pair[0]), alg.basis_element(pair[1]))
        dx, dy = dec.project(x, 1), dec.project(y, 1)
        checks.append(
            _check(
                "witness_breaks_diag_multiplicativity",
                dx * dy != dec.project(x * y, 1),
                _labels(alg, pair[:2]),
            )
        )
    checks.append(
        _check("not_compatible_with_original", not mixed_associator_compatible(mu, prod))
    )
    return {"example": 3, "algebra": alg.name, "checks": checks}


def _example_4(n: int = 3) -> dict:
    alg = upper_triangular_algebra(n)
    diag = [i for i, label in enumerate(alg.basis) if label[1] == label[2]]
    dec = alg.decompose(diag)
    k = alg.element({idx: Scalar(t + 1) for t, idx in enumerate(diag)})
    n1 = _restrict_left_multiplication(alg, k, dec.part1)
    rep = extend_tensor(dec, n1)
    ideal = True
    part2 = set(dec.part2)
    for (i, j), vec in alg.structure.items():
        if (i in part2 or j in part2) and any(t not in part2 for t in vec):
            ideal = False
    checks = [
        _check("part2_is_ideal", ideal),
        _check("three_conditions_hold", rep.conditions_conjunction, rep.witnesses),
        _check("extension_is_nijenhuis", rep.is_nijenhuis),
        _check("conditions_match_nijenhuis", rep.conditions_conjunction == rep.is_nijenhuis),
    ]
    prod = deform(rep.operator)
    checks.append(_check("deformed_associative", bool(prod.associative)))

    def expected(x: Element, y: Element) -> Element:
        return k * dec.project(x, 1) * y + x * (k * dec.project(y, 1)) - k * dec.project(x * y, 1)

    checks.append(_check("matches_displayed_formula", *_match_on_basis(alg, prod, expected)))
    return {"example": 4, "algebra": alg.name, "checks": checks}


def _example_5(
    dim: int,
    band: int,
    lambdas: Sequence,
    bihamiltonian_lambda,
) -> dict:
    alg, a, adag, h = banded_oscillator_algebra(dim, band)
    dec = triangular_split(alg)
    mu = mu_product(alg)
    ad_h = commutator_derivation(h, mu)
    bih_lam = as_scalar(bihamiltonian_lambda)
    checks = []
    diag_indices = [matrix_unit_index(dim, p, p) for p in range(dim)]
    for lam_raw in lambdas:
        lam = as_scalar(lam_raw)
        tag = f"[lambda={lam}]"
        n_lam = projection_tensor(dec, ONE, lam)
        checks.append(_check(f"nijenhuis{tag}", is_nijenhuis(n_lam)))
        prod = deform(n_lam)
        checks.append(_check(f"deformed_associative{tag}", bool(prod.associative)))
        checks.append(_check(f"unit_preserved{tag}", prod.unit == alg.unit))
        checks.append(
            _check(f"adag_circ_a_equals_lambda_H{tag}", prod(adag, a) == lam * h)
        )
        ok = True
        wit = None
        for g in diag_indices:
            for j in range(alg.dim):
                plain = alg.structure.get((g, j), {})
                if not vec_eq(prod.eval_pair(g, j), plain):
                    ok = False
                    wit = _labels(alg, (g, j))
                    break
                plain = alg.structure.get((j, g), {})
                if not vec_eq(prod.eval_pair(j, g), plain):
                    ok = False
                    wit = _labels(alg, (j, g))
                    break
            if not ok:
                break
        checks.append(_check(f"diagonal_factor_invariance{tag}", ok, wit))
        checks.append(
            _check(
                f"hamiltonian_motion_unchanged{tag}",
                commutator_derivation(h, prod) == ad_h,
            )
        )
        if lam == bih_lam:
            report = is_bi_hamiltonian(ad_h, mu, prod)
            checks.append(_check(f"inner_wrt_both{tag}", report.inner_pair))
            checks.append(_check(f"strong_bihamiltonian{tag}", report.strong))
    return {
        "example": 5,
        "algebra": alg.name,
        "dim": dim,
        "band": band,
        "lambdas": [str(as_scalar(l)) for l in lambdas],
        "checks": checks,
    }


def _example_6(dim: int, band: int) -> dict:
    alg, a, adag, h = banded_oscillator_algebra(dim, band)
    n = dim
    dec = diagonal_split(alg)
    mu = mu_product(alg)
    k = _diag_element(alg, n, range(1, n + 1))
    prod = _diagonal_rescaling_product(alg, n, k)
    checks = [
        _check("construction_associative", bool(prod.associative)),
        _check("adag_circ_a_is_zero", prod(adag, a).is_zero),
    ]
    ok = True
    wit = None
    for g in dec.part1:
        kg = alg.mul_vec(k.coords, {g: ONE})
        for j in range(alg.dim):
            bracket = vec_sub(prod.eval_pair(g, j), prod.eval_pair(j, g))
            expect = vec_sub(alg.mul_vec(kg, {j: ONE}), alg.mul_vec({j: ONE}, kg))
            if not vec_eq(bracket, expect):
                ok = False
                wit = _labels(alg, (g, j))
                break
        if not ok:
            break
    checks.append(_check("diagonal_bracket_is_KA_commutator", ok, wit))

    witness = mixed_associator_witness(mu, prod)
    checks.append(
        _check(
            "not_compatible_with_original",
            witness is not None,
        )
    )
    ad_h = commutator_derivation(h, mu)
    report = inner_generator(ad_h, prod)
    checks.append(_check("dynamics_inner_for_new_product", report.inner))
    k_inv_h = alg.element(
        {
            matrix_unit_index(n, p, p): Scalar(Fraction(p, p + 1))
            for p in range(1, n)
        }
    )
    if report.inner:
        diff = report.generator - k_inv_h
        checks.append(
            _check(
                "generator_is_KinvH_mod_center",
                in_span(diff, report.ambiguity),
                repr(report.generator),
            )
        )
        regenerated = commutator_derivation(report.generator, prod)
        checks.append(_check("generator_reproduces_dynamics", regenerated == ad_h))
    bih = is_bi_hamiltonian(ad_h, mu, prod)
    checks.append(_check("inner_wrt_both", bih.inner_pair))
    checks.append(_check("strong_is_false", not bih.strong))
    return {
        "example": 6,
        "algebra": alg.name,
        "dim": dim,
        "band": band,
        "sum_bracket_jacobi": bih.sum_bracket_jacobi,
        "checks": checks,
    }


def example_check(
    example_id: int,
    dim: int = 16,
    band: int = 1,
    lambdas: Optional[Sequence] = None,
    bihamiltonian_lambda=Fraction(1, 2),
) -> dict:
    """Reproduce one worked example and report every asserted identity.

    ``dim``, ``band`` and ``lambdas`` only affect the oscillator examples
    (5 and 6); ``lambdas`` defaults to (0, 1, 1/2, -2). The bi-Hamiltonian
    classification in example 5 runs for ``bihamiltonian_lambda`` only, since
    it is by far the most expensive step.
    """
    if example_id == 1:
        return _example_1()
    if example_id == 2:
        return _example_2()
    if example_id == 3:
        return _example_3()
    if example_id == 4:
        return _example_4()
    if lambdas is None:
        lambdas = (0, 1, Fraction(1, 2), -2)
    if example_id == 5:
        return _example_5(dim, band, lambdas, bihamiltonian_lambda)
    if example_id == 6:
        return _example_6(dim, band)
    raise PreconditionError(f"example id must be one of {EXAMPLE_IDS}")
