import random
from fractions import Fraction
from itertools import product as iproduct
from math import inf

import pytest

from algdeform.algebra import (
    Algebra,
    Operator,
    banded_oscillator_algebra,
    dual_number_algebra,
    full_matrix_algebra,
    split_quaternion_algebra,
    transpose_operator,
    upper_triangular_algebra,
)
from algdeform import hochschild
from algdeform.errors import PreconditionError, SizeGuardError
from algdeform.hochschild import (
    Cochain,
    coboundary,
    cohomology_dimension,
    gerstenhaber_bracket,
    is_cocycle,
)
from algdeform import linalg
from algdeform.linalg import Matrix, RowReducer, kernel_basis, rank
from algdeform.scalar import Scalar, as_scalar
from algdeform.tables import vec_mul


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


def _twisted(alg, additions, order=None):
    """``alg`` in the basis f_j = P e_j, P the column additions col_x += c * col_y
    in turn (c an int or a Gaussian scalar), with basis index j then renamed
    ``order[j]``."""
    d = alg.dim
    order = order or range(d)
    p = [{i: Scalar(1)} for i in range(d)]  # column j of P
    p_inv = [{i: Scalar(1)} for i in range(d)]  # row i of P^-1
    for x, y, c in additions:
        c = as_scalar(c)
        for i, v in p[y].items():
            p[x][i] = p[x].get(i, Scalar(0)) + c * v
        for i, v in p_inv[x].items():
            p_inv[y][i] = p_inv[y].get(i, Scalar(0)) - c * v
    structure = {}
    for a, b in iproduct(range(d), repeat=2):
        prod = vec_mul(alg.structure, p[a], p[b])
        vec = {order[k]: sum((row.get(i, Scalar(0)) * v for i, v in prod.items()), Scalar(0))
               for k, row in enumerate(p_inv)}
        structure[(order[a], order[b])] = vec
    return Algebra(alg.name + "'", d, [f"f{j}" for j in range(d)], structure)


def _twisted_m3(additions, order=None):
    return _twisted(full_matrix_algebra(3), additions, order)


def test_cohomology_of_a_dense_basis_of_m3_is_that_of_m3():
    # A dense basis on which pivot-row fill-in was worst: H^n must not depend
    # on the basis, nor on the order of its indices.
    twist = ((3, 5, -2), (2, 3, 1), (1, 2, -1))
    plain = [cohomology_dimension(full_matrix_algebra(3), n) for n in (0, 1, 2)]
    assert plain == [1, 0, 0]
    for order in (range(9), (4, 7, 0, 8, 2, 6, 1, 5, 3)):
        alg = _twisted_m3(twist, order)
        assert [cohomology_dimension(alg, n) for n in (0, 1, 2)] == plain


def test_cohomology_builds_the_integer_indexes_once_per_algebra(monkeypatch):
    built = []
    build = hochschild._integer_indexes
    monkeypatch.setattr(hochschild, "_integer_indexes", lambda alg: built.append(alg) or build(alg))
    for shared, dims in ((full_matrix_algebra(3), [1, 0, 0]), (dual_number_algebra(), [2, 1, 1])):
        alg = Algebra(shared.name, shared.dim, shared.basis, shared.structure)  # not yet built
        assert [cohomology_dimension(alg, n) for n in (0, 1, 2)] == dims
        assert [cohomology_dimension(alg, n) for n in (2, 1, 0)] == dims[::-1]
        assert built.count(alg) == 1


def _truncated_polynomials():
    """k[x]/(x^3) on the basis 1, x, x^2: H^0, H^1, H^2 = 3, 2, 2."""
    structure = {(i, j): {i + j: Scalar(1)} for i in range(3) for j in range(3) if i + j < 3}
    return Algebra("k[x]/(x^3)", 3, ["1", "x", "x2"], structure)


def test_the_reducer_gets_only_the_cochains_off_the_lower_pivots(monkeypatch):
    # d^n kills im d^(n-1), so of the rows of d^n only those of the basis
    # cochains off the pivot columns of d^(n-1) are offered: on M4, 241 of the
    # 256 rows of d^1 and 3855 of the 4096 rows of d^2. Where a basis vector
    # is the unit, only the (d - 1)^n * d normalized cochains count: the split
    # quaternions offer 4, 9 and 27 rows for d^0, d^1 and d^2 (4, 13 and 51 in
    # the full complex), and the dual numbers, whose d^0 is zero, 2, 2 and 1.
    fed = []

    class Counted(RowReducer):
        def add_deferred_rows(self, rows, build):
            fed.append(0)

            def counted():
                for row in rows:
                    fed[-1] += 1
                    yield row
            super().add_deferred_rows(counted(), build)

    monkeypatch.setattr(hochschild, "RowReducer", Counted)
    for alg, pins in (
        (full_matrix_algebra(4), ((1, 0, [16, 241]), (2, 0, [256, 3855]))),
        (split_quaternion_algebra(), ((0, 1, [4]), (1, 0, [4, 9]), (2, 0, [12, 27]))),
        (dual_number_algebra(), ((0, 2, [2]), (1, 1, [2, 2]), (2, 1, [2, 1]))),
    ):
        for n, dim, counts in pins:
            fed.clear()
            assert cohomology_dimension(alg, n) == dim
            assert fed == counts


def test_each_degree_of_the_coboundary_is_built_once_per_algebra(monkeypatch):
    # d^n depends only on the algebra, so its rows are built on first use, one
    # source per integer part, and kept: H^0, H^1, H^2 and back again build
    # each degree once. Another Algebra on the same structure builds its own.
    built = []
    build = hochschild._coboundary_rows
    monkeypatch.setattr(hochschild, "_coboundary_rows", lambda *args: built.append(args[2]) or build(*args))
    gaussian = _twisted(_truncated_polynomials(), ((1, 2, Scalar(1, 1)), (2, 1, Scalar(0, -1))))
    for shared, parts, dims in ((full_matrix_algebra(3), 1, [1, 0, 0]), (gaussian, 2, [3, 2, 2])):
        for _ in range(2):
            alg = Algebra(shared.name, shared.dim, shared.basis, shared.structure)
            built.clear()
            assert [cohomology_dimension(alg, n) for n in (0, 1, 2, 2, 1, 0)] == dims + dims[::-1]
            assert sorted(built) == [0] * parts + [1] * parts + [2] * parts


@pytest.mark.parametrize("alg, built", [
    (full_matrix_algebra(4), 183),
    (_twisted_m3(((3, 5, -2), (2, 3, 1), (1, 2, -1))), 370),
], ids=["M4", "M3 dense"])
def test_h2_builds_only_the_rows_an_elimination_reads(alg, built, monkeypatch):
    # A row whose leading column holds no pivot is stored unbuilt, and most
    # are never read: H^2 of M4 builds 183 of the 4111 rows of d^1 and d^2
    # offered, and on the dense M3 fill-in makes more rows read.
    count = [0]
    build = linalg._built
    monkeypatch.setattr(linalg, "_built", lambda row: count.__setitem__(0, count[0] + 1) or build(row))
    assert cohomology_dimension(alg, 2) == 0
    assert count == [built]


@pytest.mark.parametrize("shared, dims, builds", [
    (_twisted(_truncated_polynomials(), ((1, 2, Scalar(1, 1)), (2, 1, Scalar(0, -1)))), [3, 2, 2], [0, 12, 26]),
    (_twisted(upper_triangular_algebra(3), ((0, 4, Scalar(1, 1)), (5, 1, Scalar(Fraction(1, 2), -1)),
                                            (3, 0, Scalar(0, 2)))), [1, 0, 0], [10, 50, 252]),
], ids=["k[x]/(x^3) Gaussian", "T3 Gaussian"])
def test_gaussian_constants_realify_each_reducer_before_its_first_row(shared, dims, builds, monkeypatch):
    # With an imaginary part in the constants, every reduction realifies its
    # reducer while it is empty, so no stored row is ever realified; the rows
    # built are those of a reducer realified at its first imaginary row.
    found, count = [], [0]
    realify, build = RowReducer._realify, linalg._built
    monkeypatch.setattr(RowReducer, "_realify", lambda self: found.append(len(self.pivots)) or realify(self))
    monkeypatch.setattr(linalg, "_built", lambda row: count.__setitem__(0, count[0] + 1) or build(row))
    for n in (0, 1, 2):
        alg = Algebra(shared.name, shared.dim, shared.basis, shared.structure)
        found.clear()
        count[0] = 0
        assert cohomology_dimension(alg, n) == dims[n]
        assert found == [0] * (1 + (n > 0))  # one per reduction: d^n, and d^(n-1) for n > 0
        assert count == [builds[n]]


KNOWN_DIMS = pytest.mark.parametrize("alg, dims", [
    (full_matrix_algebra(3), [1, 0, 0]),
    (upper_triangular_algebra(4), [1, 0, 0]),
    (_twisted_m3(((3, 5, -2), (2, 3, 1), (1, 2, -1))), [1, 0, 0]),
    (_truncated_polynomials(), [3, 2, 2]),
    (_twisted(_truncated_polynomials(), ((1, 2, Scalar(1, 1)), (2, 1, Scalar(0, -1)))), [3, 2, 2]),
    (_twisted(upper_triangular_algebra(3), ((0, 4, Scalar(1, 1)), (5, 1, Scalar(Fraction(1, 2), -1)),
                                            (3, 0, Scalar(0, 2)))), [1, 0, 0]),
], ids=["M3", "T4", "M3 dense", "k[x]/(x^3)", "k[x]/(x^3) Gaussian", "T3 Gaussian"])


@KNOWN_DIMS
def test_the_kept_rows_have_the_rank_of_all_rows(alg, dims, monkeypatch):
    # Differential guard: the rows fed to the reducer for d^n must have the
    # rank of all its rows, and d^(n-1) is fed in full. Where a basis vector
    # is the unit (k[x]/(x^3), both bases), the rows are the normalized
    # cochains', (d - 1)^n * d of them.
    indexes = hochschild._integer_indexes(alg)
    cochains = [(alg.dim - len(indexes[1])) ** n * alg.dim for n in (0, 1, 2)]
    reduce = hochschild._reduced_coboundary
    full = [reduce(indexes, alg.dim, n, ()).rank for n in (0, 1, 2)]
    ranks = {}

    def recorded(indexes, d, n, skip):
        red = reduce(indexes, d, n, skip)
        ranks[n] = red.rank
        return red

    monkeypatch.setattr(hochschild, "_reduced_coboundary", recorded)
    for n in (1, 2):
        ranks.clear()
        assert cohomology_dimension(alg, n) == dims[n]
        assert ranks == {n - 1: full[n - 1], n: full[n]}
    assert cohomology_dimension(alg, 0) == dims[0] == cochains[0] - full[0]
    assert dims[1:] == [cochains[n] - full[n] - full[n - 1] for n in (1, 2)]


def _normalized_cochains(d, n, units):
    """Flat indexes t * d + k of the basis cochains e_t -> e_k with no label of
    ``units`` in t, in order."""
    return [t * d + k for t, digits in enumerate(iproduct(range(d), repeat=n))
            if units.isdisjoint(digits) for k in range(d)]


@KNOWN_DIMS
def test_rows_stored_unbuilt_reduce_as_rows_built_up_front(alg, dims):
    # Each row's leading column is the first nonzero column of the row built
    # in full, so the reducer that builds rows only when it reads them has
    # the pivots and stored rows of one fed every row built, through add_row.
    # Where a basis vector is the unit, the rows are the normalized cochains'.
    indexes = parts, units, _ = hochschild._integer_indexes(alg)
    for n in (0, 1, 2):
        sources = [hochschild._coboundary_rows(index, alg.dim, n, units) for index in parts]
        eager = RowReducer()
        for flat in _normalized_cochains(alg.dim, n, units):
            re, im = [row(flat) for _, row in sources] + [{}] * (2 - len(sources))
            for (lead, _), part in zip(sources, (re, im)):
                assert lead(flat) == min((c for c, v in part.items() if v), default=inf)
            eager.add_row({c: Scalar(re.get(c, 0), im.get(c, 0)) for c in {*re, *im}})
        deferred = hochschild._reduced_coboundary(indexes, alg.dim, n, ())
        assert list(deferred.pivots) == list(eager.pivots)
        assert deferred.rows == eager.rows
