"""Derivations, inner generators, and (weak) bi-Hamiltonian detection.

A derivation of a product satisfies the Leibniz rule D(A o B) = D(A) o B +
A o D(B); an inner derivation is the commutator with a fixed generator. The
generator of an inner derivation is recovered by solving the exact linear
system ad_h = D, and is unique modulo the product's center, which is returned
alongside as the ambiguity space. Its rows are ``tables.slot_rows`` of the
product and its solver is ``linalg.solve_sparse_system``, the builder and the
solver of the unit equations in ``algebra``.

A pair of associative products together with a derivation is recorded as
weakly bi-Hamiltonian when the derivation is inner with respect to both and
the sum of the two commutator brackets still satisfies Jacobi; the strong
variant additionally demands the mixed associators of the two products to
cancel (pencil associativity).

``example_check`` reproduces the six worked scenarios end to end (projection
split of M2, the reflection/rotation basis, the diagonal rescaling product on
M3, the triangular ideal case on T3, and the two truncated-oscillator
deformations) and reports each asserted identity with a pass flag. Example 6
reads its innerness, generator, center and compatibility from one
``is_bi_hamiltonian`` report.
"""

from __future__ import annotations

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
    _deform_after_torsion,
    contraction_product,
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
from .linalg import solve_sparse_system
from .records import Record
from .scalar import MINUS_ONE, ONE, ZERO, Scalar, as_scalar
from .tables import (
    Compose,
    Sweep,
    Table,
    Vec,
    deform_terms,
    mixed_associator_table,
    slot_rows,
    table_alternation,
    table_insert_into,
    table_of,
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
    # D o p - p o (D, 1) - p o (1, D): the product deformed by D, negated
    w = Sweep(d.algebra.dim).witness(deform_terms(MINUS_ONE, p.table, d.columns))
    return (True, None) if w is None else (False, w[0])


def commutator_derivation(h: Element, p: Product) -> Operator:
    """The inner derivation B -> h o B - B o h of the product ``p``."""
    if h.algebra is not p.algebra:
        raise PreconditionError("element and product live on different algebras")
    # p(h, .) - p(., h): the arity-0 table of h inserted into each slot of p
    acc: Table = {}
    for pos, sign in ((0, ONE), (1, MINUS_ONE)):
        table_insert_into(acc, sign, p.table, 2, h._table(), 0, pos)
    return Operator(h.algebra, [acc.get((j,), {}) for j in range(h.algebra.dim)])


class DerivationReport(Record):
    """Outcome of the inner-generator solve for one derivation and product."""

    __slots__ = ("is_derivation", "leibniz_witness", "inner", "generator", "ambiguity")

    def __init__(self, is_derivation: bool, leibniz_witness: Optional[tuple[int, int]],
                 inner: bool, generator: Optional[Element], ambiguity: list[Element]):
        self.is_derivation, self.leibniz_witness = is_derivation, leibniz_witness
        self.inner, self.generator, self.ambiguity = inner, generator, ambiguity


def inner_generator(d: Operator, p: Product) -> DerivationReport:
    """Solve h o e_j - e_j o h = d(e_j) exactly for a generator h.

    Returns the particular generator plus a basis of the product's center
    (the full ambiguity of the generator), or flags the derivation as
    non-inner when the system is inconsistent, with the Leibniz verdict.
    Non-inner is a report state, not an error.
    """
    generator, ambiguity = _generator_solve(d, p)
    return DerivationReport(*is_derivation(d, p), generator is not None, generator, ambiguity)


def _generator_solve(d: Operator, p: Product) -> tuple[Optional[Element], list[Element]]:
    """``inner_generator``'s generator and center basis, ``(None, [])`` if not
    inner: ``slot_rows`` with signs (1, -1), right-hand sides first."""
    if d.algebra is not p.algebra:
        raise PreconditionError("operator and product live on different algebras")
    alg, cols = d.algebra, d.columns
    rows = slot_rows(p.table, (ONE, MINUS_ONE))
    system = [(rows.get((j, c), {}), rhs) for j in range(alg.dim) for c, rhs in cols[j].items()]
    system += [(row, ZERO) for (j, c), row in rows.items() if c not in cols[j]]
    solved = solve_sparse_system(system, alg.dim)
    if solved is None:
        return None, []
    return Element(alg, solved[0]), [Element(alg, v) for v in solved[1]]


def in_span(x: Element, basis: Sequence[Element]) -> bool:
    """Whether ``x`` is an exact linear combination of the given elements."""
    rows: dict[int, Vec] = {}
    for col, b in enumerate(basis):
        for k, v in b.coords.items():
            rows.setdefault(k, {})[col] = v
    keys = set(rows) | set(x.coords)
    system = ((rows.get(k, {}), x.coords.get(k, as_scalar(0))) for k in sorted(keys))
    return solve_sparse_system(system, len(basis)) is not None


class BiHamiltonianReport(Record):
    """Inner-generator pair plus the weak/strong compatibility verdicts."""

    __slots__ = ("inner_first", "inner_second", "sum_bracket_jacobi", "products_compatible",
                 "generators", "ambiguities")

    def __init__(self, inner_first: bool, inner_second: bool, sum_bracket_jacobi: bool,
                 products_compatible: bool,
                 generators: tuple[Optional[Element], Optional[Element]],
                 ambiguities: tuple[list[Element], list[Element]]):
        self.inner_first, self.inner_second = inner_first, inner_second
        self.sum_bracket_jacobi, self.products_compatible = sum_bracket_jacobi, products_compatible
        self.generators, self.ambiguities = generators, ambiguities

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
    (gen1, amb1), (gen2, amb2) = _generator_solve(d, p1), _generator_solve(d, p2)
    # Both products are associative, so the associator of p1 + p2 is their
    # mixed associator, and Jacobi for the sum bracket is its alternation;
    # the table is built only when the mixed associator does not vanish.
    compatible = mixed_associator_witness(p1, p2) is None
    return BiHamiltonianReport(
        inner_first=gen1 is not None,
        inner_second=gen2 is not None,
        sum_bracket_jacobi=compatible
        or not table_alternation(mixed_associator_table(p1.table, p2.table)),
        products_compatible=compatible,
        generators=(gen1, gen2),
        ambiguities=(amb1, amb2),
    )


# -- worked examples -----------------------------------------------------------------


def _check(name: str, ok: bool, witness=None) -> dict:
    entry = {"name": name, "pass": bool(ok)}
    if not ok and witness is not None:
        entry["witness"] = witness
    return entry


def _labels(alg: Algebra, indices) -> list[str]:
    return [alg.basis[i] for i in indices]


def _match_sum(alg: Algebra, terms: list[Compose]) -> tuple[bool, Optional[list[str]]]:
    """Whether the sum of ``terms`` vanishes on every basis pair; the
    lexicographically first failing pair."""
    w = Sweep(alg.dim).witness(terms)
    return (True, None) if w is None else (False, _labels(alg, w[0]))


def _diag_element(alg: Algebra, n: int, values) -> Element:
    return alg.element(
        {matrix_unit_index(n, p, p): as_scalar(v) for p, v in enumerate(values)}
    )


def _diagonal_rescaling_product(alg: Algebra, n: int, k: Element) -> Product:
    """The product K D(A) B + A K D(B) - K D(A) D(B) built via the two-part
    construction (diagonal part rescaled by K, identity on the off-diagonal)."""
    dec = diagonal_split(alg)
    n1 = Operator.left_multiplication(k) @ dec.projector(1)
    # circ1(X, Y) = K X Y on the diagonal, that is mu o (N1, P1).
    circ1 = table_of([Compose(ONE, alg.structure, inner=(n1.columns, dec.projector(1).columns))])
    n2 = dec.projector(2)
    return theorem5_product(dec, Product(Cochain(alg, 2, circ1, copy=False)), n1, n1, n2)


def _example_1() -> dict:
    alg = full_matrix_algebra(2)
    dec = triangular_split(alg)
    mu = mu_product(alg)
    p1 = projection_tensor(dec, 1, 0)
    torsion_free = is_nijenhuis(p1)
    prod = _deform_after_torsion(p1, torsion_free)
    checks = [
        _check("projection_is_nijenhuis", torsion_free),
        _check("deformed_associative", bool(prod.associative)),
        _check("unit_preserved", prod.unit == alg.unit),
    ]

    # With O the projector onto the off-diagonal, mu o (O, O) is bc E11 +
    # cb E22: the displayed product is mu minus it, the complementary one it.
    o = diagonal_split(alg).projector(2).columns
    displayed = [Compose(ONE, prod.table), Compose(MINUS_ONE, alg.structure),
                 Compose(ONE, alg.structure, inner=(o, o))]
    checks.append(_check("table_matches_displayed_form", *_match_sum(alg, displayed)))

    # 1 - P1 has the torsion of P1, as T_{a+bN} = b^2 T_N.
    comp = _deform_after_torsion(projection_tensor(dec, 0, 1), torsion_free)
    checks.append(_check("complementary_associative", bool(comp.associative)))
    displayed = [Compose(ONE, comp.table), Compose(MINUS_ONE, alg.structure, inner=(o, o))]
    checks.append(_check("complementary_matches_diag_bc_cb", *_match_sum(alg, displayed)))
    checks.append(_check("complementary_has_no_unit", comp.find_unit() is None))

    e = lambda p, q: alg.basis_element(matrix_unit_index(2, p, q))
    failing = next((alg.basis[matrix_unit_index(2, p, p)] for p in range(2)
                    if commutator_derivation(e(p, p), prod)
                    != commutator_derivation(e(p, p), mu)), None)
    checks.append(_check("diagonal_inner_derivations_agree", failing is None, failing))
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

    # L = K_diag = L_K P1: prod minus mu deformed by L is prod - mu o (L, 1) -
    # mu o (1, L) + L o mu, and the displayed K P1(x) y + x K P1(y) -
    # K P1(x) P1(y) has mu o (L, P1) in place of L o mu
    l = (Operator.left_multiplication(k) @ dec.projector(1)).columns
    terms = [Compose(ONE, prod.table)] + deform_terms(MINUS_ONE, alg.structure, l)
    displayed = terms[:3] + [Compose(ONE, alg.structure, inner=(l, dec.projector(1).columns))]
    checks.append(_check("matches_displayed_formula", *_match_sum(alg, displayed)))
    w = Sweep(alg.dim).witness(terms)
    checks.append(_check("differs_from_deform_of_K_diag", w is not None))
    if w is not None:
        pair = w[0]
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
    n1 = Operator.left_multiplication(k) @ dec.projector(1)
    rep = extend_tensor(dec, n1)
    # part2 is an ideal iff P1 kills every product with a factor in it: the
    # first term covers the pairs (part2, any), the second (part1, part2).
    p1, p2 = dec.projector(1).columns, dec.projector(2).columns
    ideal = Sweep(alg.dim).witness([Compose(ONE, alg.structure, p1, (p2, None)),
                                    Compose(ONE, alg.structure, p1, (p1, p2))]) is None
    checks = [
        _check("part2_is_ideal", ideal),
        _check("three_conditions_hold", rep.conditions_conjunction, rep.witnesses),
        _check("extension_is_nijenhuis", rep.is_nijenhuis),
        _check("conditions_match_nijenhuis", rep.conditions_conjunction == rep.is_nijenhuis),
    ]
    prod = _deform_after_torsion(rep.operator, rep.is_nijenhuis)
    checks.append(_check("deformed_associative", bool(prod.associative)))
    # K P1(x) y + x K P1(y) - K P1(xy) is mu deformed by L_K P1, which is n1
    terms = [Compose(ONE, prod.table)] + deform_terms(MINUS_ONE, alg.structure, n1.columns)
    checks.append(_check("matches_displayed_formula", *_match_sum(alg, terms)))
    return {"example": 4, "algebra": alg.name, "checks": checks}


def _example_5(dim: int, band: int, lambdas: Sequence) -> dict:
    alg, a, adag, h = banded_oscillator_algebra(dim, band)
    dec = triangular_split(alg)
    mu = mu_product(alg)
    ad_h = commutator_derivation(h, mu)
    checks = []
    diag_indices = [matrix_unit_index(dim, p, p) for p in range(dim)]
    for lam_raw in lambdas:
        lam = as_scalar(lam_raw)
        tag = f"[lambda={lam}]"
        n_lam = projection_tensor(dec, ONE, lam)
        torsion_zero = is_nijenhuis(n_lam)
        checks.append(_check(f"nijenhuis{tag}", torsion_zero))
        prod = _deform_after_torsion(n_lam, torsion_zero)
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
        if lam == Fraction(1, 2):
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

    ad_h = commutator_derivation(h, mu)
    bih = is_bi_hamiltonian(ad_h, mu, prod)
    checks.append(_check("not_compatible_with_original", not bih.products_compatible))
    checks.append(_check("dynamics_inner_for_new_product", bih.inner_second))
    k_inv_h = _diag_element(alg, n, [Fraction(p, p + 1) for p in range(n)])
    if bih.inner_second:
        generator = bih.generators[1]
        checks.append(
            _check(
                "generator_is_KinvH_mod_center",
                in_span(generator - k_inv_h, bih.ambiguities[1]),
                repr(generator),
            )
        )
        regenerated = commutator_derivation(generator, prod)
        checks.append(_check("generator_reproduces_dynamics", regenerated == ad_h))
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
) -> dict:
    """Reproduce one worked example and report every asserted identity.

    ``dim``, ``band`` and ``lambdas`` only affect the oscillator examples
    (5 and 6); ``lambdas`` defaults to (0, 1, 1/2, -2). The bi-Hamiltonian
    classification in example 5 runs for lambda = 1/2 only, since it is by
    far the most expensive step.
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
        return _example_5(dim, band, lambdas)
    if example_id == 6:
        return _example_6(dim, band)
    raise PreconditionError(f"example id must be one of {EXAMPLE_IDS}")
