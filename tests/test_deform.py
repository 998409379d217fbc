import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from algdeform.algebra import (
    Algebra,
    Operator,
    diagonal_split,
    dual_number_algebra,
    full_matrix_algebra,
    matrix_unit_index,
    split_quaternion_algebra,
    transpose_operator,
    triangular_split,
    upper_triangular_algebra,
)
from algdeform.deform import (
    Product,
    associativity_criterion,
    contraction_product,
    conjugated_product,
    deform,
    deform_product,
    extend_tensor,
    interpolated_contraction_limit,
    is_nijenhuis,
    lie_bracket_of,
    lie_nijenhuis_check,
    mixed_associator_compatible,
    mu_product,
    power_product,
    product_sum,
    projection_tensor,
    sum_bracket_satisfies_jacobi,
    tensors_compatible,
    theorem5_product,
    torsion,
    total_skew_associator,
    verify_hierarchy,
)
from algdeform.errors import PreconditionError
from algdeform.hochschild import Cochain, coboundary
from algdeform.scalar import ONE, Scalar
from algdeform.tables import Sweep, table_scaled, table_sub


def m2_with_units():
    alg = full_matrix_algebra(2)
    E = {
        (p, q): alg.basis_element(matrix_unit_index(2, p, q))
        for p in range(2)
        for q in range(2)
    }
    return alg, E


def random_operator(rng, alg, span=3):
    return Operator(
        alg,
        [{i: Scalar(rng.randint(-span, span)) for i in range(alg.dim)} for _ in range(alg.dim)],
    )


# -- deform ----------------------------------------------------------------------


def test_deform_by_identity_is_original_product():
    alg, _ = m2_with_units()
    prod = deform(Operator.identity(alg))
    assert not table_sub(prod.table, alg.structure)
    assert prod.associative and prod.unit == alg.unit


def test_deform_by_left_multiplication_sandwiches():
    alg, E = m2_with_units()
    K = alg.element({0: 1, 3: 2})
    prod = deform(Operator.left_multiplication(K))
    assert prod(E[(0, 1)], E[(1, 0)]) == 2 * E[(0, 0)]
    # A o B = A K B everywhere
    rng = random.Random(7)
    for _ in range(10):
        x = alg.element({i: Scalar(rng.randint(-3, 3)) for i in range(4)})
        y = alg.element({i: Scalar(rng.randint(-3, 3)) for i in range(4)})
        assert prod(x, y) == x * K * y
    # unit not preserved (N(1) = K != 1) so no unit flag, but K^{-1} is a unit
    assert prod.unit is None
    found = prod.find_unit()
    assert found is not None and prod.is_unit(found)


def test_deform_by_projection_gives_displayed_table():
    alg, E = m2_with_units()
    prod = deform(projection_tensor(triangular_split(alg), 1, 0))
    assert prod(E[(0, 1)], E[(1, 0)]).is_zero
    assert prod(E[(0, 0)], E[(0, 1)]) == E[(0, 1)]
    assert prod.associative and prod.unit == alg.unit


def test_deform_unit_iff_operator_fixes_unit():
    alg, _ = m2_with_units()
    rng = random.Random(8)
    for _ in range(20):
        n = random_operator(rng, alg)
        prod = deform(n)
        fixes = n(alg.unit) == alg.unit
        assert (prod.unit is not None) == fixes
        # 1 o_N B = N(1) B on all basis elements
        for j in range(4):
            ej = alg.basis_element(j)
            assert prod(alg.unit, ej) == n(alg.unit) * ej


# -- torsion and the torsion-free predicate ------------------------------------------


def test_torsion_examples():
    alg, E = m2_with_units()
    K = alg.element({0: 1, 3: 2})
    assert torsion(Operator.left_multiplication(K)).is_zero
    assert torsion(Operator.identity(alg)).is_zero
    T = transpose_operator(alg)
    t = torsion(T)
    assert t.element(0, 1) == E[(1, 0)] - E[(0, 1)]
    assert not is_nijenhuis(T)


def test_torsion_free_examples():
    alg, _ = m2_with_units()
    assert is_nijenhuis(projection_tensor(triangular_split(alg), 1, 0))
    assert is_nijenhuis(Operator.scalar(alg, Fraction(5, 3)))
    assert is_nijenhuis(Operator.scalar(alg, Scalar(0, 1)))


def test_torsion_free_operator_is_homomorphism():
    alg, _ = m2_with_units()
    K = alg.element({0: 2, 3: "1/3"})
    n = Operator.left_multiplication(K)
    assert is_nijenhuis(n)
    prod = deform(n)
    assert prod.associative
    for i in range(4):
        for j in range(4):
            x, y = alg.basis_element(i), alg.basis_element(j)
            assert n(prod(x, y)) == n(x) * n(y)


# -- associativity criterion ------------------------------------------------------------


def test_criterion_on_torsion_free_operator():
    alg, _ = m2_with_units()
    res = associativity_criterion(projection_tensor(triangular_split(alg), 1, 0))
    assert res.deformed_associative and res.torsion_is_2cocycle


def test_criterion_booleans_agree_on_randoms():
    rng = random.Random(9)
    for alg in (full_matrix_algebra(2), dual_number_algebra()):
        for _ in range(30):
            res = associativity_criterion(random_operator(rng, alg))
            assert res.agree


def test_criterion_on_transpose():
    alg, _ = m2_with_units()
    res = associativity_criterion(transpose_operator(alg))
    assert res.agree


def test_deformed_product_is_always_a_two_cocycle():
    rng = random.Random(10)
    alg, _ = m2_with_units()
    for _ in range(20):
        prod = deform(random_operator(rng, alg), compute_flags=False)
        assert coboundary(prod.cochain).is_zero


# -- mixed associators --------------------------------------------------------------------


def test_original_and_deformed_always_compatible():
    rng = random.Random(11)
    for alg in (full_matrix_algebra(2), dual_number_algebra()):
        mu = mu_product(alg)
        for _ in range(25):
            prod = deform(random_operator(rng, alg), compute_flags=False)
            assert mixed_associator_compatible(mu, prod)


def test_product_self_compatibility_is_associativity():
    alg, _ = m2_with_units()
    mu = mu_product(alg)
    assert mixed_associator_compatible(mu, mu)


def test_pencil_associativity_for_compatible_pairs():
    # for associative and compatible products every pencil p1 + t p2 is associative
    alg, _ = m2_with_units()
    mu = mu_product(alg)
    prod = deform(projection_tensor(triangular_split(alg), 1, 0))
    for t in (Scalar(1), Scalar(Fraction(-2, 3)), Scalar(0, 1)):
        pencil = Product(
            Cochain(alg, 2, {**{k: dict(v) for k, v in mu.table.items()}}, copy=False)
        )
        from algdeform.tables import table_add_into

        table_add_into(pencil.table, t, prod.table)
        assert pencil.associativity_witness() is None


# -- power hierarchy ----------------------------------------------------------------------


def test_power_product_examples():
    alg, E = m2_with_units()
    assert not table_sub(power_product(transpose_operator(alg), 0).table, alg.structure)
    K = alg.element({0: 1, 3: 2})
    nk = Operator.left_multiplication(K)
    p2 = power_product(nk, 2)
    assert p2(E[(0, 1)], E[(1, 0)]) == 4 * E[(0, 0)]
    proj = projection_tensor(triangular_split(alg), 1, 0)
    assert not table_sub(power_product(proj, 2).table, deform(proj).table)


def test_hierarchy_for_left_multiplication():
    alg, _ = m2_with_units()
    K = alg.element({0: 1, 3: 2})
    rep = verify_hierarchy(Operator.left_multiplication(K), 4)
    assert rep["pass"], rep


def test_hierarchy_for_projection():
    alg, _ = m2_with_units()
    rep = verify_hierarchy(projection_tensor(triangular_split(alg), 1, 0), 4)
    assert rep["pass"], rep


def test_hierarchy_scaling_operator():
    alg, _ = m2_with_units()
    lam = Scalar(Fraction(1, 3))
    n = Operator.scalar(alg, lam)
    rep = verify_hierarchy(n, 3)
    assert rep["pass"]
    mu = mu_product(alg)
    for k in range(4):
        factor = ONE
        for _ in range(k):
            factor = factor * lam
        assert not table_sub(power_product(n, k).table, table_scaled(factor, mu.table))


def test_hierarchy_requires_torsion_free():
    alg, _ = m2_with_units()
    for maxk in (0, 3, 6):
        with pytest.raises(PreconditionError, match="nonzero torsion"):
            verify_hierarchy(transpose_operator(alg), maxk)
    with pytest.raises(PreconditionError):
        verify_hierarchy(Operator.identity(alg), 9)


@pytest.mark.parametrize("maxk", [-1, 7])
def test_hierarchy_checks_the_power_range_before_the_torsion(maxk, monkeypatch):
    """A power out of 0..6 is refused before any sweep, with or without
    torsion."""
    alg, _ = m2_with_units()
    calls = []
    witness = Sweep.witness
    monkeypatch.setattr(Sweep, "witness", lambda self, terms: calls.append(1) or witness(self, terms))
    for op in (transpose_operator(alg), Operator.identity(alg)):
        with pytest.raises(PreconditionError, match="maxk must be between 0 and 6"):
            verify_hierarchy(op, maxk)
    assert calls == []


@pytest.mark.parametrize("maxk", [0, 6])
def test_hierarchy_report_of_a_torsion_free_operator(maxk):
    """At either end of the power range the report of a torsion-free
    operator is the all-pass one, its sections in a fixed order."""
    alg, _ = m2_with_units()
    rep = verify_hierarchy(Operator.left_multiplication(alg.element({0: 1, 3: 2})), maxk)
    section = {"pass": True, "witness": None}
    assert list(rep.items()) == [
        ("max_power", maxk), ("nijenhuis", True), ("power_relation", section),
        ("composition_law", section), ("associativity", section),
        ("pairwise_compatibility", section), ("pass", True),
    ]


def gaussian_left_multiplication():
    """L_K on M4 for an upper triangular K with four distinct Gaussian eigenvalues."""
    alg = full_matrix_algebra(4)
    entries = {(0, 0): Scalar(1), (1, 1): Scalar(0, 1), (2, 2): Scalar(2, -1), (3, 3): Scalar(-1),
               (0, 1): Scalar(1, 1), (1, 3): Scalar(Fraction(1, 2)), (0, 3): Scalar(-2)}
    k = alg.element({matrix_unit_index(4, p, q): v for (p, q), v in entries.items()})
    return Operator.left_multiplication(k)


def truncated_polynomial_multiplication(n):
    """L_x on Q[x]/(x^n): x^0, ..., x^(n-1) are independent, so are its powers."""
    alg = Algebra(f"Q[x]/x^{n}", n, [f"x{i}" for i in range(n)],
                  {(i, j): {i + j: 1} for i in range(n) for j in range(n - i)}, unit={0: 1})
    return Operator.left_multiplication(alg.basis_element(1))


@pytest.mark.parametrize("op", [
    gaussian_left_multiplication(),
    projection_tensor(triangular_split(full_matrix_algebra(4)), 1, Scalar(0, 2)),
    truncated_polynomial_multiplication(7),
], ids=["L_K", "projection", "independent"])
def test_hierarchy_sweeps_only_the_independent_powers(op, monkeypatch):
    """Sweeps of the power-6 hierarchy: the torsion T_N alone, whatever the
    number of independent powers (four, two and seven here). A zero T_N makes
    T_P(N) zero for every polynomial P, so every composition law, power
    relation and mixed associator of the powers is zero, and no power
    product is kept."""
    calls = []
    witness, kept_sum = Sweep.witness, Sweep.kept_sum
    monkeypatch.setattr(Sweep, "witness", lambda self, terms: calls.append(1) or witness(self, terms))
    monkeypatch.setattr(Sweep, "kept_sum", lambda self, terms: calls.append(0) or kept_sum(self, terms))
    assert verify_hierarchy(op, 6)["pass"]
    assert (calls.count(1), calls.count(0)) == (1, 0)


# -- compatibility of operator pairs ----------------------------------------------------------


def test_left_multiplications_always_compatible():
    alg, _ = m2_with_units()
    rng = random.Random(12)
    for _ in range(10):
        k1 = alg.element({0: rng.randint(-3, 3), 3: rng.randint(-3, 3)})
        k2 = alg.element({0: rng.randint(-3, 3), 3: rng.randint(-3, 3)})
        assert tensors_compatible(
            Operator.left_multiplication(k1), Operator.left_multiplication(k2)
        )


def test_powers_of_one_tensor_are_compatible():
    alg, _ = m2_with_units()
    K = alg.element({0: 1, 3: 2})
    n = Operator.left_multiplication(K)
    for k in range(4):
        for r in range(4):
            assert tensors_compatible(n.power(k), n.power(r))


def test_compatible_with_zero():
    alg, _ = m2_with_units()
    K = alg.element({0: 1, 3: 2})
    assert tensors_compatible(Operator.left_multiplication(K), Operator.zero(alg))


def test_compatibility_equals_sum_torsion_freeness():
    alg, _ = m2_with_units()
    rng = random.Random(13)
    for _ in range(25):
        d1 = alg.element({0: rng.randint(-3, 3), 3: rng.randint(-3, 3)})
        d2 = alg.element({0: rng.randint(-3, 3), 3: rng.randint(-3, 3)})
        n1 = Operator.left_multiplication(d1)
        n2 = Operator.left_multiplication(d2)
        assert tensors_compatible(n1, n2) == is_nijenhuis(n1 + n2)


def test_compatibility_rejects_torsion():
    alg, _ = m2_with_units()
    with pytest.raises(PreconditionError):
        tensors_compatible(transpose_operator(alg), Operator.identity(alg))


# -- projections, contraction, conjugation -------------------------------------------------------


def test_projection_tensor_requires_two_subalgebras():
    sq = split_quaternion_algebra()
    dec = sq.decompose([0, 3])
    with pytest.raises(PreconditionError):
        projection_tensor(dec, 1, 0)


def test_projection_combination_is_torsion_free():
    alg, _ = m2_with_units()
    dec = triangular_split(alg)
    rng = random.Random(14)
    for _ in range(10):
        l1 = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
        l2 = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        assert is_nijenhuis(projection_tensor(dec, l1, l2))


def test_complementary_projection_product():
    alg, E = m2_with_units()
    prod = deform(projection_tensor(triangular_split(alg), 0, 1))
    assert prod(E[(0, 1)], E[(1, 0)]) == E[(0, 0)]
    assert prod(E[(1, 0)], E[(0, 1)]) == E[(1, 1)]
    assert prod.associative
    assert prod.find_unit() is None


def test_contraction_equals_projection_deform_on_twilled_split():
    alg, _ = m2_with_units()
    dec = triangular_split(alg)
    assert not table_sub(
        contraction_product(dec).table,
        deform(projection_tensor(dec, 1, 0)).table,
    )


def test_contraction_with_empty_part2_is_original():
    alg, _ = m2_with_units()
    dec = alg.decompose(range(4))
    assert not table_sub(contraction_product(dec).table, alg.structure)


def test_contraction_limit_interpolation():
    alg, _ = m2_with_units()
    for dec in (triangular_split(alg), diagonal_split(alg)):
        cp = contraction_product(dec)
        il = interpolated_contraction_limit(dec)
        assert not table_sub(il.table, cp.table)
        assert cp.associativity_witness() is None


def test_interpolation_refuses_repeated_or_zero_sample_points():
    dec = diagonal_split(full_matrix_algebra(2))
    for points in ([1, 1, 2], [0, 0, 1], [Fraction(1, 2), 3, Scalar(Fraction(1, 2))]):
        with pytest.raises(PreconditionError, match="distinct"):
            interpolated_contraction_limit(dec, points)
    with pytest.raises(PreconditionError, match="nonzero"):
        interpolated_contraction_limit(dec, [1, 0, 2])
    limit = interpolated_contraction_limit(dec, [2, Fraction(-1, 3), Scalar(1, 1)])
    assert not table_sub(limit.table, contraction_product(dec).table)


def test_conjugated_product_is_associative_and_unital():
    alg, _ = m2_with_units()
    dec = diagonal_split(alg)
    for h in (Scalar(1), Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3)), Scalar(5)):
        ph = conjugated_product(dec, h)
        assert ph.associativity_witness() is None
        assert ph.unit is not None and ph.is_unit(ph.unit)
    with pytest.raises(PreconditionError):
        conjugated_product(dec, 0)


def test_contraction_requires_part1_closed():
    alg, _ = m2_with_units()
    dec = alg.decompose([1])  # span(E12) is a subalgebra, complement is not part1 here
    dec_bad = alg.decompose([1, 2])  # E12*E21 = E11 escapes
    assert not dec_bad.part1_closed
    with pytest.raises(PreconditionError):
        contraction_product(dec_bad)
    assert dec.part1_closed  # E12*E12 = 0
    contraction_product(dec)


# -- two-part construction and extension ------------------------------------------------------


def diagonal_rescaling_ingredients(alg, n):
    dec = diagonal_split(alg)
    k = alg.element(
        {matrix_unit_index(n, p, p): Scalar(p + 1) for p in range(n)}
    )
    n1 = Operator(
        alg,
        [
            (alg.mul_vec(k.coords, {j: ONE}) if j in set(dec.part1) else {})
            for j in range(alg.dim)
        ],
    )
    circ1_table = {}
    for i in dec.part1:
        for j in dec.part1:
            vec = alg.mul_vec(alg.mul_vec(k.coords, {i: ONE}), {j: ONE})
            if vec:
                circ1_table[(i, j)] = vec
    circ1 = Product(Cochain(alg, 2, circ1_table, copy=False))
    n2 = dec.projector(2)
    return dec, k, n1, circ1, n2


@pytest.mark.parametrize("n", [2, 3])
def test_two_part_product_matches_displayed_formula(n):
    alg = full_matrix_algebra(n)
    dec, k, n1, circ1, n2 = diagonal_rescaling_ingredients(alg, n)
    prod = theorem5_product(dec, circ1, n1, n1, n2)
    assert prod.associative
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.basis_element(i), alg.basis_element(j)
            dx, dy = dec.project(x, 1), dec.project(y, 1)
            assert prod(x, y) == k * dx * y + x * (k * dy) - k * dx * dy


def test_two_part_degenerate_case_is_contraction():
    alg, _ = m2_with_units()
    dec = diagonal_split(alg)
    part1 = set(dec.part1)
    mu_table = {}
    for i in dec.part1:
        for j in dec.part1:
            vec = alg.mul_vec({i: ONE}, {j: ONE})
            if vec:
                mu_table[(i, j)] = vec
    circ1 = Product(Cochain(alg, 2, mu_table, copy=False))
    id1 = Operator(alg, [({j: ONE} if j in part1 else {}) for j in range(4)])
    n2 = dec.projector(2)
    prod = theorem5_product(dec, circ1, id1, id1, n2)
    assert not table_sub(prod.table, contraction_product(dec).table)


def test_two_part_product_differs_from_plain_deform_with_witness():
    alg, _ = m2_with_units()
    dec, k, n1, circ1, n2 = diagonal_rescaling_ingredients(alg, 2)
    prod = theorem5_product(dec, circ1, n1, n1, n2)
    plain = deform(Operator.left_multiplication(k) @ dec.projector(1), compute_flags=False)
    diff = table_sub(prod.table, plain.table)
    assert diff
    i, j = min(diff)[:2]
    x, y = alg.basis_element(i), alg.basis_element(j)
    assert dec.project(x, 1) * dec.project(y, 1) != dec.project(x * y, 1)


def test_two_part_preconditions():
    alg, _ = m2_with_units()
    dec, k, n1, circ1, n2 = diagonal_rescaling_ingredients(alg, 2)
    with pytest.raises(PreconditionError):
        theorem5_product(dec, circ1, n1, n1, Operator.zero(alg))  # n2 singular
    bad_circ = Product(Cochain(alg, 2, {(0, 1): {0: ONE}}, copy=False))
    with pytest.raises(PreconditionError):
        theorem5_product(dec, bad_circ, n1, n1, n2)  # not supported on part1
    with pytest.raises(PreconditionError):
        theorem5_product(dec, circ1, transpose_operator(alg), n1, n2)  # support violation
    not_homo = Operator(alg, [{0: ONE}, {}, {}, {0: ONE, 3: ONE}])
    with pytest.raises(PreconditionError):
        theorem5_product(dec, circ1, not_homo, n1, n2)


def test_extension_on_triangular_ideal():
    alg = upper_triangular_algebra(3)
    diag = [i for i, label in enumerate(alg.basis) if label[1] == label[2]]
    dec = alg.decompose(diag)
    k = alg.element({idx: Scalar(t + 1) for t, idx in enumerate(diag)})
    n1 = Operator(
        alg,
        [
            (alg.mul_vec(k.coords, {j: ONE}) if j in set(diag) else {})
            for j in range(alg.dim)
        ],
    )
    rep = extend_tensor(dec, n1)
    assert rep.conditions == (True, True, True)
    assert rep.is_nijenhuis
    prod = deform(rep.operator)
    assert prod.associative
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.basis_element(i), alg.basis_element(j)
            expect = (
                k * dec.project(x, 1) * y
                + x * (k * dec.project(y, 1))
                - k * dec.project(x * y, 1)
            )
            assert prod(x, y) == expect


def test_extension_fails_on_non_ideal_split():
    alg, _ = m2_with_units()
    dec = diagonal_split(alg)
    n1 = Operator(alg, [{0: Scalar(1)}, {}, {}, {3: Scalar(2)}])
    rep = extend_tensor(dec, n1)
    assert rep.conditions[0] is False
    assert rep.witnesses["square_zero"] == (1, 2)  # (E12, E21)
    assert rep.is_nijenhuis is False
    assert rep.conditions_conjunction == rep.is_nijenhuis


def test_extension_equivalence_on_random_diagonals():
    rng = random.Random(15)
    m2 = full_matrix_algebra(2)
    t3 = upper_triangular_algebra(3)
    for alg in (m2, t3):
        diag = [i for i, label in enumerate(alg.basis) if label[1] == label[2]]
        dec = alg.decompose(diag)
        for _ in range(15):
            k = alg.element({i: Scalar(rng.randint(-3, 3)) for i in diag})
            n1 = Operator(
                alg,
                [
                    (alg.mul_vec(k.coords, {j: ONE}) if j in set(diag) else {})
                    for j in range(alg.dim)
                ],
            )
            rep = extend_tensor(dec, n1)
            assert rep.conditions_conjunction == rep.is_nijenhuis


def test_extension_preconditions():
    alg, _ = m2_with_units()
    dec = diagonal_split(alg)
    with pytest.raises(PreconditionError):
        extend_tensor(dec, transpose_operator(alg))  # not supported on part1
    sq = split_quaternion_algebra()
    bad = sq.decompose([1, 2])
    with pytest.raises(PreconditionError):
        extend_tensor(bad, Operator.zero(sq))  # part1 not closed


# -- commutators --------------------------------------------------------------------------------


def test_lie_bracket_of_original_product():
    alg, E = m2_with_units()
    bk = lie_bracket_of(mu_product(alg))
    assert bk.element(0, 1) == E[(0, 1)]  # [E11, E12] = E12


def test_lie_bracket_of_deformation_identity():
    rng = random.Random(16)
    alg, _ = m2_with_units()
    for _ in range(20):
        n = random_operator(rng, alg)
        bk = lie_bracket_of(deform(n, compute_flags=False))
        for i in range(4):
            for j in range(4):
                x, y = alg.basis_element(i), alg.basis_element(j)
                expect = (
                    n(x) * y - y * n(x) + x * n(y) - n(y) * x - n(x * y - y * x)
                )
                assert bk.element(i, j) == expect


def test_lie_torsion_examples():
    alg, _ = m2_with_units()
    K = alg.element({0: 1, 3: 2})
    assert lie_nijenhuis_check(Operator.left_multiplication(K))
    assert lie_nijenhuis_check(Operator.identity(alg))
    assert lie_nijenhuis_check(projection_tensor(triangular_split(alg), 1, 0))
    # the transpose reverses products; its commutator behaviour fails too
    assert lie_nijenhuis_check(transpose_operator(alg)) is False


def test_skew_associator_vanishes_for_associative_products():
    alg, _ = m2_with_units()
    assert total_skew_associator(mu_product(alg)).is_zero
    K = alg.element({0: 1, 3: 2})
    assert total_skew_associator(deform(Operator.left_multiplication(K))).is_zero


def jacobi_holds(prod):
    alg = prod.algebra
    def br(x, y):
        return prod(x, y) - prod(y, x)
    for i, j, k in iproduct(range(alg.dim), repeat=3):
        x, y, z = alg.basis_element(i), alg.basis_element(j), alg.basis_element(k)
        if not (br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)).is_zero:
            return False
    return True


def test_skew_associator_iff_jacobi_oracle():
    # brute-force Jacobi over all basis triples is the independent oracle
    rng = random.Random(17)
    alg, _ = m2_with_units()
    seen_nonzero = 0
    for _ in range(12):
        table = {}
        for t in iproduct(range(4), repeat=2):
            vec = {k: Scalar(rng.randint(-2, 2)) for k in range(4)}
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                table[t] = vec
        prod = Product(Cochain(alg, 2, table, copy=False))
        skew_zero = total_skew_associator(prod).is_zero
        assert skew_zero == jacobi_holds(prod)
        if not skew_zero:
            seen_nonzero += 1
    assert seen_nonzero  # the oracle comparison must exercise the failing branch


def test_skew_associator_of_transpose_deformation():
    # non-associative, yet its commutator satisfies Jacobi: the skew
    # symmetrization sees strictly less than the associator
    alg, _ = m2_with_units()
    prod = deform(transpose_operator(alg), compute_flags=False)
    assert prod.associativity_witness() is not None
    skew_zero = total_skew_associator(prod).is_zero
    assert skew_zero == jacobi_holds(prod)
    assert skew_zero


def test_alternating_maps_vanish_on_two_dimensional_algebras():
    # any commutator bracket on a 2-dimensional space satisfies Jacobi, so no
    # dual-number 2-cochain can have a nonzero skew associator
    rng = random.Random(18)
    dn = dual_number_algebra()
    for _ in range(30):
        table = {}
        for t in iproduct(range(2), repeat=2):
            vec = {k: Scalar(rng.randint(-3, 3)) for k in range(2)}
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                table[t] = vec
        prod = Product(Cochain(dn, 2, table, copy=False))
        assert total_skew_associator(prod).is_zero
        assert jacobi_holds(prod)


def test_sum_bracket_jacobi_for_compatible_pair():
    alg, _ = m2_with_units()
    mu = mu_product(alg)
    prod = deform(projection_tensor(triangular_split(alg), 1, 0))
    assert sum_bracket_satisfies_jacobi(mu, prod)


def test_deform_product_generalizes_deform():
    alg, _ = m2_with_units()
    rng = random.Random(19)
    n = random_operator(rng, alg)
    assert not table_sub(deform_product(mu_product(alg), n).table, deform(n, compute_flags=False).table)


def test_product_sum_table():
    alg, _ = m2_with_units()
    mu = mu_product(alg)
    doubled = product_sum(mu, mu)
    assert not table_sub(doubled.table, table_scaled(Scalar(2), mu.table))


def test_lie_torsion_does_not_imply_torsion_freeness():
    # on a commutative algebra every commutator vanishes, so the
    # commutator-side check passes for every operator; the swap of 1 and eps
    # has nonzero torsion nevertheless
    dn = dual_number_algebra()
    swap = Operator(dn, [{1: ONE}, {0: ONE}])
    assert lie_nijenhuis_check(swap)
    assert not is_nijenhuis(swap)
