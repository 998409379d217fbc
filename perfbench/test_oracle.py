"""The dense oracle against hand-worked cases.

Run with ``python3 -m pytest perfbench``.
"""

from fractions import Fraction

import oracle as O

g = O.gauss


def test_scalar_text_round_trip():
    for text, value in (("3/2", g(Fraction(3, 2))), ("-1", g(-1)), ("2i", g(0, 2)),
                        ("1/2-3i", g(Fraction(1, 2), -3)), ("-1/3+1/2i", g(Fraction(-1, 3), Fraction(1, 2)))):
        assert O.parse(text) == value
        assert O.fmt(value) == text


def test_gaussian_field_operations():
    x, y = g(1, 2), g(3, -1)
    assert O.mul(x, y) == g(5, 5)
    assert O.mul(x, O.inv(x)) == O.ONE
    assert O.sub(O.add(x, y), y) == x


def test_matrix_units_of_m2():
    p = O.matrix_units(2)  # E11, E12, E21, E22
    assert p[1][2] == O.unit_vector(4, 0)  # E12 E21 = E11
    assert p[2][1] == O.unit_vector(4, 3)  # E21 E12 = E22
    assert p[1][1] == O.zeros(4)  # E12 E12 = 0
    assert p[0][1] == O.unit_vector(4, 1)  # E11 E12 = E12
    assert O.unit_of(p) == [O.ONE, O.ZERO, O.ZERO, O.ONE]
    assert O.is_associative(p)


def test_dual_numbers_and_their_left_multiplication():
    p = O.dual_numbers()  # 1, eps
    assert p[1][1] == O.zeros(2)  # eps^2 = 0
    assert p[0][1] == O.unit_vector(2, 1)
    n = [[O.ZERO, O.ZERO], [O.ONE, O.ZERO]]  # N(1) = eps, N(eps) = 0
    # 1 o 1 = eps + eps - eps = eps; every other basis pair deforms to zero.
    q = O.deformed(p, n)
    assert q[0][0] == O.unit_vector(2, 1)
    assert q[0][1] == q[1][0] == q[1][1] == O.zeros(2)
    assert O.first_nonzero_pair(O.torsion(p, n)) is None
    assert O.inner_generator(p, [[O.ZERO, O.ZERO], [O.ZERO, O.ONE]]) is None  # commutative


def matmul2(x, y):
    """2x2 matrices of Gaussian rationals, multiplied by hand."""
    return [[O.add(O.mul(x[i][0], y[0][j]), O.mul(x[i][1], y[1][j])) for j in range(2)]
            for i in range(2)]


def unit2(a):
    m = [[O.ZERO, O.ZERO], [O.ZERO, O.ZERO]]
    m[a // 2][a % 2] = O.ONE
    return m


def flat2(m):
    return [m[0][0], m[0][1], m[1][0], m[1][1]]


def test_left_multiplication_deforms_ab_to_akb():
    k = [[g(1), g(2)], [g(0, 1), g(-1)]]
    p = O.matrix_units(2)
    lk_cols = [flat2(matmul2(k, unit2(a))) for a in range(4)]
    lk = [[lk_cols[j][i] for j in range(4)] for i in range(4)]
    q = O.deformed(p, lk)
    for a in range(4):
        for b in range(4):
            assert q[a][b] == flat2(matmul2(matmul2(unit2(a), k), unit2(b)))
    assert O.first_nonzero_pair(O.torsion(p, lk)) is None
    assert O.is_associative(q)
    assert O.compatible(p, q)


def test_transpose_deformation_of_m2_is_not_associative():
    p = O.matrix_units(2)
    t = [[O.ONE if (i % 2) * 2 + i // 2 == j else O.ZERO for j in range(4)] for i in range(4)]
    assert O.first_nonzero_pair(O.torsion(p, t)) is not None
    assert not O.is_associative(O.deformed(p, t))


def test_split_quaternions():
    p = O.split_quaternions()  # I, A, B, C
    assert p[1][1] == O.unit_vector(4, 0)  # A^2 = I
    assert p[3][3] == [g(-1), O.ZERO, O.ZERO, O.ZERO]  # C^2 = -I
    assert p[1][2] == O.unit_vector(4, 3)  # AB = C
    assert p[2][1] == [O.ZERO, O.ZERO, O.ZERO, g(-1)]  # BA = -C
    assert O.is_associative(p)


def test_solve_and_change_of_basis():
    assert O.solve([[g(1), g(1)], [g(1), g(-1)]], [g(3), g(1)], 2) == [g(2), g(1)]
    assert O.solve([[g(1), g(1)], [g(2), g(2)]], [g(1), g(3)], 2) is None
    p = O.matrix_units(2)
    swap = [[O.ONE if i == 3 - j else O.ZERO for j in range(4)] for i in range(4)]
    q = O.change_basis(p, swap, swap)  # reversed basis E22, E21, E12, E11
    assert q[1][2] == O.unit_vector(4, 0)  # E21 E12 = E22
