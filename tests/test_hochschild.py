import random
from itertools import product as iproduct

import pytest

from algdeform.algebra import (
    Operator,
    banded_oscillator_algebra,
    dual_number_algebra,
    full_matrix_algebra,
    transpose_operator,
)
from algdeform.errors import PreconditionError, SizeGuardError
from algdeform.hochschild import (
    Cochain,
    coboundary,
    cohomology_dimension,
    gerstenhaber_bracket,
    is_cocycle,
)
from algdeform.linalg import Matrix, kernel_basis, rank
from algdeform.scalar import Scalar


def random_element(rng, alg, span=3):
    return alg.element({i: Scalar(rng.randint(-span, span)) for i in range(alg.dim)})


def random_operator(rng, alg, span=3):
    return Operator(
        alg,
        [{i: Scalar(rng.randint(-span, span)) for i in range(alg.dim)} for _ in range(alg.dim)],
    )


def test_coboundary_of_element_is_commutator():
    m2 = full_matrix_algebra(2)
    h = m2.element([1, 0, 0, 2])
    c = coboundary(Cochain.from_element(h))
    for j in range(4):
        ej = m2.basis_element(j)
        assert c.element(j) == ej * h - h * ej


def test_coboundary_of_operator_is_deformed_product():
    rng = random.Random(101)
    m2 = full_matrix_algebra(2)
    for _ in range(20):
        n = random_operator(rng, m2)
        c = coboundary(Cochain.from_operator(n))
        for i in range(4):
            for j in range(4):
                ei, ej = m2.basis_element(i), m2.basis_element(j)
                assert c.element(i, j) == n(ei) * ej + ei * n(ej) - n(ei * ej)


def test_coboundary_squares_to_zero():
    rng = random.Random(102)
    for alg in (full_matrix_algebra(2), dual_number_algebra()):
        for _ in range(10):
            e = Cochain.from_element(random_element(rng, alg))
            assert coboundary(coboundary(e)).is_zero
            o = Cochain.from_operator(random_operator(rng, alg))
            assert coboundary(coboundary(o)).is_zero


def test_product_is_a_two_cocycle():
    for alg in (full_matrix_algebra(2), dual_number_algebra()):
        assert is_cocycle(Cochain.product_cochain(alg))


def test_any_coboundary_is_a_cocycle():
    rng = random.Random(103)
    m2 = full_matrix_algebra(2)
    for _ in range(5):
        img = coboundary(Cochain.from_element(random_element(rng, m2)))
        assert is_cocycle(img)


def test_transpose_is_not_a_cocycle():
    m2 = full_matrix_algebra(2)
    c = coboundary(Cochain.from_operator(transpose_operator(m2)))
    assert c.element(0, 1) == m2.basis_element(1) - m2.basis_element(2)
    assert not is_cocycle(Cochain.from_operator(transpose_operator(m2)))


def test_arity_guard():
    m2 = full_matrix_algebra(2)
    arity3 = coboundary(Cochain.product_cochain(m2))
    assert arity3.arity == 3
    with pytest.raises(PreconditionError):
        coboundary(arity3)
    with pytest.raises(PreconditionError):
        Cochain(m2, 4, {})


# -- cohomology with independent oracles ---------------------------------------


def center_dimension_oracle(alg):
    """dim of {x : x a = a x for all a} by stacking commutator equations."""
    rows = []
    for j in range(alg.dim):
        for c in range(alg.dim):
            row = []
            for g in range(alg.dim):
                left = alg.structure.get((g, j), {}).get(c, Scalar(0))
                right = alg.structure.get((j, g), {}).get(c, Scalar(0))
                row.append(left - right)
            rows.append(row)
    return len(kernel_basis(Matrix.from_rows(rows)))


def derivation_cohomology_oracle(alg):
    """dim(derivations) - dim(inner derivations), built from scratch."""
    d = alg.dim
    # unknowns x[(m, g)] = coefficient of e_m in D(e_g), flattened m * d + g
    rows = []
    for i in range(d):
        for j in range(d):
            prod = alg.structure.get((i, j), {})
            for c in range(d):
                row = [Scalar(0)] * (d * d)
                for m, s in prod.items():
                    row[c * d + m] = row[c * d + m] + s
                for m in range(d):
                    s = alg.structure.get((m, j), {}).get(c)
                    if s:
                        row[m * d + i] = row[m * d + i] - s
                    s = alg.structure.get((i, m), {}).get(c)
                    if s:
                        row[m * d + j] = row[m * d + j] - s
                rows.append(row)
    derivations = len(kernel_basis(Matrix.from_rows(rows)))
    ad_cols = []
    for g in range(d):
        col = [Scalar(0)] * (d * d)
        for j in range(d):
            vec = alg.structure.get((g, j), {})
            for c, s in vec.items():
                col[c * d + j] = col[c * d + j] + s
            vec = alg.structure.get((j, g), {})
            for c, s in vec.items():
                col[c * d + j] = col[c * d + j] - s
        ad_cols.append(col)
    inner = rank(Matrix.from_rows(ad_cols))  # rank of the transpose
    return derivations - inner


def test_h0_matches_center_oracle():
    m2 = full_matrix_algebra(2)
    dn = dual_number_algebra()
    assert cohomology_dimension(m2, 0) == center_dimension_oracle(m2) == 1
    assert cohomology_dimension(dn, 0) == center_dimension_oracle(dn) == 2


def test_h1_matches_derivation_oracle():
    m2 = full_matrix_algebra(2)
    dn = dual_number_algebra()
    assert cohomology_dimension(m2, 1) == derivation_cohomology_oracle(m2) == 0
    assert cohomology_dimension(dn, 1) == derivation_cohomology_oracle(dn) == 1


def test_h2_of_matrix_algebra_vanishes():
    assert cohomology_dimension(full_matrix_algebra(2), 2) == 0


def test_h2_of_m5_completes_and_vanishes():
    # 25^4 = 390 625 columns and 15 625 rows: the largest matrix algebra the
    # size guard admits in degree 2.
    assert cohomology_dimension(full_matrix_algebra(5), 2) == 0


def test_cohomology_guards():
    big, _, _, _ = banded_oscillator_algebra(16)
    with pytest.raises(SizeGuardError):
        cohomology_dimension(big, 1)
    with pytest.raises(PreconditionError):
        cohomology_dimension(full_matrix_algebra(2), 3)


# -- graded bracket -------------------------------------------------------------


def test_bracket_of_product_with_operator_is_deformation():
    rng = random.Random(104)
    m2 = full_matrix_algebra(2)
    mu = Cochain.product_cochain(m2)
    for _ in range(20):
        n = random_operator(rng, m2)
        br = gerstenhaber_bracket(mu, Cochain.from_operator(n))
        assert br == coboundary(Cochain.from_operator(n))


def test_bracket_of_product_with_itself_vanishes():
    for alg in (full_matrix_algebra(2), dual_number_algebra()):
        mu = Cochain.product_cochain(alg)
        assert gerstenhaber_bracket(mu, mu).is_zero


def test_double_bracket_gives_twice_the_torsion():
    rng = random.Random(105)
    m2 = full_matrix_algebra(2)
    mu = Cochain.product_cochain(m2)
    for _ in range(15):
        n = random_operator(rng, m2)
        cn = Cochain.from_operator(n)
        combo = gerstenhaber_bracket(cn, gerstenhaber_bracket(mu, cn)) + gerstenhaber_bracket(
            mu, Cochain.from_operator(n @ n)
        )
        for i in range(4):
            for j in range(4):
                ei, ej = m2.basis_element(i), m2.basis_element(j)
                deformed = n(ei) * ej + ei * n(ej) - n(ei * ej)
                torsion = n(deformed) - n(ei) * n(ej)
                assert combo.element(i, j) == 2 * torsion


def test_bracket_graded_antisymmetry():
    rng = random.Random(106)
    m2 = full_matrix_algebra(2)
    mu = Cochain.product_cochain(m2)
    el = Cochain.from_element(random_element(rng, m2))
    op = Cochain.from_operator(random_operator(rng, m2))
    cases = [(mu, op), (mu, el), (op, el), (op, op), (mu, mu)]
    for p, q in cases:
        sign = -1 if ((p.arity - 1) * (q.arity - 1)) % 2 else 1
        lhs = gerstenhaber_bracket(p, q)
        rhs = (-sign) * gerstenhaber_bracket(q, p)
        assert lhs == rhs, (p.arity, q.arity)


def test_bracket_against_coboundary_sign_table():
    # [mu, .] equals the coboundary up to one global sign per arity:
    # -1 on arity 0, +1 on arity 1, -1 on arity 2.
    rng = random.Random(107)
    m2 = full_matrix_algebra(2)
    mu = Cochain.product_cochain(m2)
    signs = {}
    el = Cochain.from_element(random_element(rng, m2))
    signs[0] = gerstenhaber_bracket(mu, el) == (-1) * coboundary(el)
    op = Cochain.from_operator(random_operator(rng, m2))
    signs[1] = gerstenhaber_bracket(mu, op) == coboundary(op)
    table = {}
    for t in iproduct(range(4), repeat=2):
        vec = {k: Scalar(rng.randint(-2, 2)) for k in range(4)}
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            table[t] = vec
    c2 = Cochain(m2, 2, table)
    signs[2] = gerstenhaber_bracket(mu, c2) == (-1) * coboundary(c2)
    assert signs == {0: True, 1: True, 2: True}


def test_bracket_arity_guards():
    m2 = full_matrix_algebra(2)
    mu = Cochain.product_cochain(m2)
    arity3 = coboundary(mu)
    with pytest.raises(PreconditionError):
        gerstenhaber_bracket(mu, arity3)
    el = Cochain.from_element(m2.basis_element(0))
    with pytest.raises(PreconditionError):
        gerstenhaber_bracket(el, el)


def test_cochain_evaluation_is_multilinear():
    rng = random.Random(108)
    m2 = full_matrix_algebra(2)
    mu = Cochain.product_cochain(m2)
    x, y = random_element(rng, m2), random_element(rng, m2)
    z = random_element(rng, m2)
    assert mu(x + z, y) == mu(x, y) + mu(z, y)
    assert mu(x, y) == x * y


def test_cohomology_on_algebras_with_known_answers():
    # hereditary path algebra (2x2 upper triangular), a Morita twin of M2,
    # and the 3x3 matrix algebra: all have trivial cohomology above degree 0
    from algdeform.algebra import split_quaternion_algebra, upper_triangular_algebra

    for alg in (
        upper_triangular_algebra(2),
        split_quaternion_algebra(),
        full_matrix_algebra(3),
    ):
        assert cohomology_dimension(alg, 0) == 1
        assert cohomology_dimension(alg, 1) == 0
        assert cohomology_dimension(alg, 2) == 0
