"""Differential tests: the sparse identity checks against a dense evaluator.

The dense side below works from the definitions on coordinate lists, one
basis pair at a time, and shares nothing with the engine but the scalars and
the structure constants. Operators are drawn at random (integer or Gaussian
entries) or built as left, right or inner multiplications, with or without a
perturbation, so that both verdicts occur. The deformed table, the associator
and the mixed associator are compared entry by entry, also on direct sums
and with Gaussian, non-integer operators. The coboundary and the cohomology
dimensions are compared against the alternating-sum definition, with ranks
taken by ``sympy``, on the same algebras and on random changes of their basis.
Where a basis vector is the unit, the engine enumerates only the normalized
cochains; their cohomology is compared with the full complex's, also after a
change of basis that moves the unit off the basis.
Sums of compositions with three distinct operators are compared too, since
``table_of`` builds every one of them by insertion. The identities that
decide the power hierarchy from its torsion sweep (T_{a+bN} = b^2 T_N, T_{N^2}
and the polar form Q(N, N^2) in T_N, B(X, Y) = -(T_{X+Y} - T_X - T_Y)) are
checked for operators with torsion, also on a random product that is not
associative; its report is compared with the definitions at power 6 on
torsion-free operators. For operators with torsion, the associator of the
deformed product is compared with minus the coboundary of the torsion, its
mixed associator with the product is zero, and the torsion of a sum is
split into the two torsions and the cross sum, on both sides; so is the
power relation R(1, N^k), into D_{N^k} T_N and N composed with the
composition law B(N, N^k), and B(N, N) = -2 T_N. The unit check is compared
with its definition on algebras, one-sided unit tables and random Gaussian
tables, and random tables that are not associative must be refused. The
inner-generator solve is compared with the system ad_h = D written from the
definitions, its consistency and the rank of ad decided by ``sympy``.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import event, example, given, settings, strategies as st

from algdeform.algebra import (
    Algebra,
    Operator,
    dual_number_algebra,
    full_matrix_algebra,
    split_quaternion_algebra,
    table_is_unit,
    table_unit,
    triangular_split,
    upper_triangular_algebra,
)
from algdeform.deform import (
    associativity_criterion,
    deform,
    deform_product,
    lie_nijenhuis_check,
    mu_product,
    projection_tensor,
    tensors_compatible,
    torsion,
    verify_hierarchy,
)
from algdeform import hochschild
from algdeform.dynamics import commutator_derivation, inner_generator, is_derivation
from algdeform.errors import AlgebraError, PreconditionError
from algdeform.hochschild import Cochain, coboundary, cohomology_dimension
from algdeform.scalar import ONE, ZERO, Scalar
from algdeform.tables import (
    Compose,
    associator_table,
    deform_terms,
    mixed_associator_table,
    table_of,
)

ALGEBRAS = [
    full_matrix_algebra(2),
    upper_triangular_algebra(3),
    dual_number_algebra(),
    split_quaternion_algebra(),
]
SETTINGS = settings(max_examples=30, deadline=None)


class Dense:
    """An algebra as a dense structure-constant cube c[i][j][k]."""

    def __init__(self, alg):
        d = self.d = alg.dim
        self.c = [
            [[alg.structure.get((i, j), {}).get(k, ZERO) for k in range(d)] for j in range(d)]
            for i in range(d)
        ]

    def e(self, i):
        return [ONE if k == i else ZERO for k in range(self.d)]

    def mul(self, x, y):
        out = [ZERO] * self.d
        for i in range(self.d):
            if not x[i]:
                continue
            for j in range(self.d):
                if not y[j]:
                    continue
                for k in range(self.d):
                    out[k] = out[k] + x[i] * y[j] * self.c[i][j][k]
        return out

    def apply(self, rows, x):
        return [sum((r[j] * x[j] for j in range(self.d)), ZERO) for r in rows]

    def deformed(self, rows, mul):
        """The product (x, y) -> mul(Nx, y) + mul(x, Ny) - N mul(x, y)."""
        def prod(x, y):
            terms = (mul(self.apply(rows, x), y), mul(x, self.apply(rows, y)))
            return sub(add(*terms), self.apply(rows, mul(x, y)))
        return prod

    def torsion(self, rows, a, b):
        x, y = self.e(a), self.e(b)
        lhs = self.apply(rows, self.deformed(rows, self.mul)(x, y))
        return sub(lhs, self.mul(self.apply(rows, x), self.apply(rows, y)))

    def pairs(self):
        return [(a, b) for a in range(self.d) for b in range(self.d)]


def add(x, y):
    return [u + v for u, v in zip(x, y)]


def sub(x, y):
    return [u - v for u, v in zip(x, y)]


def matmul(p, q):
    n = len(p)
    return [[sum((p[i][k] * q[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]


def scalars(gaussian):
    part = st.integers(-2, 2)
    if gaussian:
        return st.tuples(part, part).map(lambda t: Scalar(*t))
    return part.map(Scalar)


@st.composite
def operator_rows(draw, dense, kinds=("matrix", "left", "right", "inner", "inner+1")):
    """Rows of a d x d operator matrix (column j is the image of e_j)."""
    d = dense.d
    sc = scalars(draw(st.booleans()))
    kind = draw(st.sampled_from(kinds))
    if kind == "matrix":
        return [[draw(sc) if draw(st.booleans()) else ZERO for _ in range(d)] for _ in range(d)]
    if kind == "scalar":
        s = draw(sc)
        return [[s if i == j else ZERO for j in range(d)] for i in range(d)]
    k = [draw(sc) for _ in range(d)]
    cols = []
    for j in range(d):
        ej = dense.e(j)
        if kind == "left":
            cols.append(dense.mul(k, ej))
        elif kind == "right":
            cols.append(dense.mul(ej, k))
        else:
            cols.append(sub(dense.mul(k, ej), dense.mul(ej, k)))
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    if kind == "inner+1":
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] = rows[i][j] + ONE
    return rows


def drawn(data, kinds=None):
    alg = data.draw(st.sampled_from(ALGEBRAS))
    dense = Dense(alg)
    return alg, dense, (lambda: data.draw(operator_rows(dense, *([kinds] if kinds else []))))


@SETTINGS
@given(st.data())
def test_torsion_matches_dense(data):
    alg, dense, draw_rows = drawn(data)
    rows = draw_rows()
    table = torsion(Operator.from_matrix_rows(alg, rows)).table
    for a, b in dense.pairs():
        vec = table.get((a, b), {})
        assert [vec.get(k, ZERO) for k in range(dense.d)] == dense.torsion(rows, a, b)


@SETTINGS
@given(st.data(), st.booleans())
def test_is_derivation_matches_dense(data, use_deformed):
    alg, dense, draw_rows = drawn(data)
    rows = draw_rows()
    if use_deformed:
        base = draw_rows()
        prod, mul = deform(Operator.from_matrix_rows(alg, base)), dense.deformed(base, dense.mul)
    else:
        prod, mul = mu_product(alg), dense.mul
    expected = (True, None)
    for a, b in dense.pairs():
        x, y = dense.e(a), dense.e(b)
        lhs = dense.apply(rows, mul(x, y))
        rhs = add(mul(dense.apply(rows, x), y), mul(x, dense.apply(rows, y)))
        if lhs != rhs:
            expected = (False, (a, b))
            break
    assert is_derivation(Operator.from_matrix_rows(alg, rows), prod) == expected


@SETTINGS
@given(st.data())
def test_tensors_compatible_matches_dense(data):
    alg, dense, draw_rows = drawn(data, ("matrix", "left", "right", "scalar"))
    r1, r2 = draw_rows(), draw_rows()
    n1, n2 = Operator.from_matrix_rows(alg, r1), Operator.from_matrix_rows(alg, r2)
    zero = [ZERO] * dense.d
    if any(dense.torsion(r, a, b) != zero for r in (r1, r2) for a, b in dense.pairs()):
        event("refused: torsion")
        with pytest.raises(PreconditionError):
            tensors_compatible(n1, n2)
        return
    d1, d2 = dense.deformed(r1, dense.mul), dense.deformed(r2, dense.mul)
    expected = True
    for a, b in dense.pairs():
        x, y = dense.e(a), dense.e(b)
        lhs = add(dense.apply(r1, d2(x, y)), dense.apply(r2, d1(x, y)))
        rhs = add(
            dense.mul(dense.apply(r1, x), dense.apply(r2, y)),
            dense.mul(dense.apply(r2, x), dense.apply(r1, y)),
        )
        expected = expected and lhs == rhs
    event(f"compatible: {expected}")
    assert tensors_compatible(n1, n2) == expected


@SETTINGS
@given(st.data())
def test_lie_nijenhuis_check_matches_dense(data):
    alg, dense, draw_rows = drawn(data)
    rows = draw_rows()
    deformed = dense.deformed(rows, dense.mul)
    expected = True
    for a, b in dense.pairs():
        x, y = dense.e(a), dense.e(b)
        lhs = dense.apply(rows, sub(deformed(x, y), deformed(y, x)))
        nx, ny = dense.apply(rows, x), dense.apply(rows, y)
        expected = expected and lhs == sub(dense.mul(nx, ny), dense.mul(ny, nx))
    assert lie_nijenhuis_check(Operator.from_matrix_rows(alg, rows)) == expected


def cube_mul(cube):
    """The bilinear product whose value on (e_i, e_j) is ``cube[i][j]``."""
    d = len(cube)

    def mul(x, y):
        out = [ZERO] * d
        for i in range(d):
            if not x[i]:
                continue
            for j in range(d):
                if not y[j]:
                    continue
                c = x[i] * y[j]
                for k, v in enumerate(cube[i][j]):
                    if v:
                        out[k] = out[k] + c * v
        return out

    return mul


# -- the coboundary and cohomology ------------------------------------------------

# Coefficients of a change of basis: Gaussian and non-integer ones included,
# so that the cohomology rank scales by a common denominator and realifies.
BASIS_COEFFICIENTS = [Scalar(Fraction(re), Fraction(im)) for re, im in (
    (1, 0), (-1, 0), (2, 0), (Fraction(1, 2), 0), (Fraction(-2, 3), 0),
    (0, 1), (1, 1), (Fraction(1, 2), -1), (-1, Fraction(1, 3)),
)]


@st.composite
def algebras(draw):
    """One of ``ALGEBRAS``, as it is or in the basis f_j = P e_j for a random P.

    P is a product of column additions and a diagonal scaling, so its inverse
    comes from undoing each step; the new structure constants are
    P^-1 (P e_a)(P e_b).
    """
    alg = draw(st.sampled_from(ALGEBRAS))
    if not draw(st.booleans()):
        return alg
    dense = Dense(alg)
    d = dense.d
    coefficient = st.sampled_from(BASIS_COEFFICIENTS)
    p = [dense.e(j) for j in range(d)]  # row i of P
    p_inv = [dense.e(j) for j in range(d)]
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(coefficient)
        if x == y:
            continue
        for row in p:  # column x of P += c * column y
            row[x] = row[x] + c * row[y]
        p_inv[y] = sub(p_inv[y], [c * v for v in p_inv[x]])
    for j in range(d):
        s = draw(coefficient)
        for row in p:
            row[j] = row[j] * s
        p_inv[j] = [v / s for v in p_inv[j]]
    assert matmul(p, p_inv) == [dense.e(j) for j in range(d)]
    columns = [[p[i][j] for i in range(d)] for j in range(d)]
    structure = {}
    for a, b in dense.pairs():
        vec = dense.apply(p_inv, dense.mul(columns[a], columns[b]))
        if any(vec):
            structure[(a, b)] = {k: v for k, v in enumerate(vec) if v}
    event("twisted, Gaussian" if any(
        v.im for vec in structure.values() for v in vec.values()) else "twisted, real")
    return Algebra(alg.name + "'", d, [f"f{j}" for j in range(d)], structure)


def dense_coboundary(dense, values, n):
    """(d f)(e_a1, ..., e_a(n+1)) on every basis tuple, from the alternating sum

        a_1 f(a_2, ...) + sum_i (-1)^i f(..., a_i a_(i+1), ...) + (-1)^(n+1) f(...) a_(n+1)

    where ``values`` holds f on every basis n-tuple as a coordinate list.
    """
    d = dense.d
    out = {}
    for a in product(range(d), repeat=n + 1):
        e = [dense.e(x) for x in a]
        acc = dense.mul(e[0], values[a[1:]])
        for i in range(1, n + 1):
            merged = dense.mul(e[i - 1], e[i])
            for j in range(d):
                if merged[j]:
                    term = [merged[j] * v for v in values[a[: i - 1] + (j,) + a[i + 1:]]]
                    acc = sub(acc, term) if i % 2 else add(acc, term)
        last = dense.mul(values[a[:n]], e[n])
        acc = add(acc, last) if (n + 1) % 2 == 0 else sub(acc, last)
        out[a] = acc
    return out


def coboundary_rank(sympy, dense, n):
    """Rank of d on arity-n cochains, the matrix built entry by entry from the
    alternating sum: row (a, m) is coordinate m of (d f)(e_a1, ..., e_a(n+1)),
    column (t, k) is the basis cochain sending e_t to e_k and all else to 0.
    """
    from sympy.polys.matrices import DomainMatrix

    d = dense.d
    entries = {}

    def put(a, m, t, k, v):
        if v:
            key = (a, m), (t, k)
            entries[key] = entries.get(key, ZERO) + v

    for a in product(range(d), repeat=n + 1):
        for k in range(d):
            for m in range(d):
                # a_1 f(a_2, ...): f must be the cochain at t = (a_2, ...).
                put(a, m, a[1:], k, dense.c[a[0]][k][m])
                # (-1)^(n+1) f(a_1, ..., a_n) a_(n+1)
                put(a, m, a[:n], k, (-1) ** (n + 1) * dense.c[k][a[n]][m])
            # (-1)^i f(..., a_i a_(i+1), ...): coordinate k of e_k, times the
            # coefficient of e_j in a_i a_(i+1).
            for i in range(1, n + 1):
                for j in range(d):
                    put(a, k, a[: i - 1] + (j,) + a[i + 1:], k,
                        (-1) ** i * dense.c[a[i - 1]][a[i]][j])
    rows = {key: r for r, key in enumerate(product(product(range(d), repeat=n + 1), range(d)))}
    cols = {key: c for c, key in enumerate(product(product(range(d), repeat=n), range(d)))}
    matrix = sympy.SparseMatrix(len(rows), len(cols), {
        (rows[r], cols[c]): sympy.Rational(v.re.numerator, v.re.denominator)
        + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)
        for (r, c), v in entries.items() if v
    })
    return DomainMatrix.from_Matrix(matrix).rank()


# k[x]/(x^3): H^0, H^1, H^2 = 3, 2, 2, where every algebra above has H^2 <= 1.
TRUNCATED_POLYNOMIALS = Algebra("k[x]/(x^3)", 3, ["1", "x", "x2"], {
    (i, j): {i + j: ONE} for i in range(3) for j in range(3) if i + j < 3})


@settings(max_examples=20, deadline=None)
@given(algebras())
@example(TRUNCATED_POLYNOMIALS)
def test_cohomology_dimension_matches_sympy_rank(alg):
    sympy = pytest.importorskip("sympy")
    dense = Dense(alg)
    ranks = [0] + [coboundary_rank(sympy, dense, n) for n in (0, 1, 2)]
    for n in (0, 1, 2):
        expected = dense.d ** (n + 1) - ranks[n + 1] - ranks[n]
        assert cohomology_dimension(alg, n) == expected


@SETTINGS
@given(algebras(), st.integers(0, 2), st.booleans(), st.randoms(use_true_random=False))
def test_coboundary_matches_dense(alg, n, gaussian, rng):
    dense = Dense(alg)

    def draw():
        if rng.random() < 0.5:
            return ZERO
        return Scalar(rng.randint(-2, 2), rng.randint(-2, 2) if gaussian else 0)

    values = {t: [draw() for _ in range(dense.d)] for t in product(range(dense.d), repeat=n)}
    table = {t: {k: v for k, v in enumerate(vec) if v} for t, vec in values.items()}
    got = coboundary(Cochain(alg, n, table)).table
    for a, vec in dense_coboundary(dense, values, n).items():
        assert [got.get(a, {}).get(k, ZERO) for k in range(dense.d)] == vec


def unit_off_the_basis(alg):
    """``alg``, whose unit is e_0, in the basis f_0 = 2 (e_0 + e_1) and
    f_j = 2 e_j otherwise (f_0 = 2 e_0 in dimension 1): no f_j is the unit."""
    dense = Dense(alg)
    d = dense.d
    p = [[2 * v for v in dense.e(j)] for j in range(d)]  # row i of P
    p_inv = [[v / 2 for v in dense.e(j)] for j in range(d)]
    if d > 1:  # P = 2 (1 + E), E = e_1 e_0^T, so P^-1 = (1 - E) / 2
        p[1][0], p_inv[1][0] = Scalar(2), Scalar(Fraction(-1, 2))
    assert matmul(p, p_inv) == [dense.e(j) for j in range(d)]
    columns = [[p[i][j] for i in range(d)] for j in range(d)]
    structure = {}
    for a, b in dense.pairs():
        vec = dense.apply(p_inv, dense.mul(columns[a], columns[b]))
        structure[(a, b)] = {k: v for k, v in enumerate(vec) if v}
    return Algebra(alg.name + "'", d, [f"f{j}" for j in range(d)], structure)


# Algebras whose basis vector e_0 is the unit, with their H^0, H^1, H^2.
UNIT_BASIS_ALGEBRAS = {
    "dual": (dual_number_algebra(), [2, 1, 1]),
    "split quaternions": (split_quaternion_algebra(), [1, 0, 0]),
    "k[x]/(x^3)": (TRUNCATED_POLYNOMIALS, [3, 2, 2]),
    # y = x, z = x^2 / c for c = 1/2 - i: y y = c z.
    "k[x]/(x^3) Gaussian": (Algebra("k[x]/(x^3)", 3, ["1", "y", "z"], {
        **{(0, j): {j: ONE} for j in range(3)}, **{(j, 0): {j: ONE} for j in range(3)},
        (1, 1): {2: Scalar(Fraction(1, 2), -1)}}), [3, 2, 2]),
    "k[C3]": (Algebra("k[C3]", 3, ["1", "g", "g2"], {
        (i, j): {(i + j) % 3: ONE} for i in range(3) for j in range(3)}), [3, 0, 0]),
    "k": (Algebra("k", 1, ["1"], {(0, 0): {0: ONE}}), [1, 0, 0]),
}


@pytest.mark.parametrize("moved", [False, True], ids=["unit basis vector", "unit moved off"])
@pytest.mark.parametrize("alg, dims", UNIT_BASIS_ALGEBRAS.values(), ids=UNIT_BASIS_ALGEBRAS.keys())
def test_normalized_cohomology_matches_sympy_rank_of_the_full_complex(alg, dims, moved):
    """Where a basis vector is the unit, only the normalized cochains are
    enumerated; their cohomology must be that of the full complex, ranked by
    ``sympy``. After a change of basis that moves the unit off the basis,
    every cochain is enumerated again, and H^n does not change."""
    sympy = pytest.importorskip("sympy")
    alg = unit_off_the_basis(alg) if moved else alg
    units = hochschild._integer_indexes(alg)[1]
    assert len(units) == (not moved)
    dense = Dense(alg)
    ranks = [0] + [coboundary_rank(sympy, dense, n) for n in (0, 1, 2)]
    assert [dense.d ** (n + 1) - ranks[n + 1] - ranks[n] for n in (0, 1, 2)] == dims
    assert [cohomology_dimension(alg, n) for n in (0, 1, 2)] == dims


# -- deformed tables, associators and mixed associators ---------------------------


class DenseProduct(Dense):
    """A bilinear product as a dense structure cube, evaluated like ``Dense``."""

    def __init__(self, d, prod):
        self.d = d
        self.c = [[prod(self.e(i), self.e(j)) for j in range(d)] for i in range(d)]


def direct_sum(a1, a2):
    """A1 x A2, the basis of A1 first; products across the two blocks vanish."""
    d1 = a1.dim
    structure = {pair: dict(vec) for pair, vec in a1.structure.items()}
    for (i, j), vec in a2.structure.items():
        structure[(i + d1, j + d1)] = {k + d1: v for k, v in vec.items()}
    basis = [f"{a1.name}.{x}" for x in a1.basis] + [f"{a2.name}.{x}" for x in a2.basis]
    return Algebra(f"{a1.name}+{a2.name}", d1 + a2.dim, basis, structure)


@st.composite
def small_algebras(draw):
    """One of ``ALGEBRAS``, or the direct sum of two of them of dimension at most 8."""
    first = draw(st.sampled_from(ALGEBRAS))
    if draw(st.booleans()):
        return first
    second = draw(st.sampled_from([a for a in ALGEBRAS if first.dim + a.dim <= 8]))
    event("direct sum")
    return direct_sum(first, second)


@st.composite
def fractional_operator_rows(draw, dense):
    """A random matrix, or left or right multiplication by a random element,
    with Gaussian and non-integer entries (left multiplications are Nijenhuis,
    so associative deformations occur too)."""
    d = dense.d
    entry = st.sampled_from([ZERO] + BASIS_COEFFICIENTS)
    kind = draw(st.sampled_from(("matrix", "left", "right")))
    event(kind)
    if kind == "matrix":
        return [[draw(entry) for _ in range(d)] for _ in range(d)]
    k = [draw(entry) for _ in range(d)]
    cols = [dense.mul(k, dense.e(j)) if kind == "left" else dense.mul(dense.e(j), k)
            for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def table_row(table, key, d):
    vec = table.get(key, {})
    return [vec.get(k, ZERO) for k in range(d)]


def dense_mixed_associator(p1, p2, a, b, c):
    """p1(p2(a, b), c) + p2(p1(a, b), c) - p1(a, p2(b, c)) - p2(a, p1(b, c))."""
    x, y, z = p1.e(a), p1.e(b), p1.e(c)
    left = add(p1.mul(p2.mul(x, y), z), p2.mul(p1.mul(x, y), z))
    right = add(p1.mul(x, p2.mul(y, z)), p2.mul(x, p1.mul(y, z)))
    return sub(left, right)


def drawn_fractional(data, count):
    alg = data.draw(small_algebras())
    dense = Dense(alg)
    rows = [data.draw(fractional_operator_rows(dense)) for _ in range(count)]
    return alg, dense, rows


def with_torsion(data, dense, rows):
    """Perturb one entry of ``rows`` in place if the operator has no torsion
    (a left or right multiplication, say)."""
    def torsion():
        return any(any(dense.torsion(rows, a, b)) for a, b in dense.pairs())

    if not torsion():
        i, j = (data.draw(st.integers(0, dense.d - 1)) for _ in range(2))
        rows[i][j] = rows[i][j] + data.draw(st.sampled_from(BASIS_COEFFICIENTS))
    event(f"torsion: {'nonzero' if torsion() else 'zero'}")


@SETTINGS
@given(st.data())
def test_deformed_tables_match_dense(data):
    """mu_N1 and its deformation (mu_N1)_N2, as the hierarchy builds them."""
    alg, dense, (r1, r2) = drawn_fractional(data, 2)
    once = deform(Operator.from_matrix_rows(alg, r1), compute_flags=False)
    twice = deform_product(once, Operator.from_matrix_rows(alg, r2))
    p1 = DenseProduct(dense.d, dense.deformed(r1, dense.mul))
    p2 = DenseProduct(dense.d, dense.deformed(r2, p1.mul))
    for a, b in dense.pairs():
        assert table_row(once.table, (a, b), dense.d) == p1.c[a][b]
        assert table_row(twice.table, (a, b), dense.d) == p2.c[a][b]


@SETTINGS
@given(st.data())
def test_associator_table_matches_dense(data):
    alg, dense, (rows,) = drawn_fractional(data, 1)
    table = deform(Operator.from_matrix_rows(alg, rows), compute_flags=False).table
    p = DenseProduct(dense.d, dense.deformed(rows, dense.mul))
    got = associator_table(table)
    event(f"deformed product associative: {not got}")
    for a, b, c in product(range(dense.d), repeat=3):
        x, y, z = p.e(a), p.e(b), p.e(c)
        expected = sub(p.mul(p.mul(x, y), z), p.mul(x, p.mul(y, z)))
        assert table_row(got, (a, b, c), dense.d) == expected


@SETTINGS
@given(st.data(), st.booleans())
def test_mixed_associator_table_matches_dense(data, with_mu):
    alg, dense, (r1, r2) = drawn_fractional(data, 2)
    t2 = deform(Operator.from_matrix_rows(alg, r2), compute_flags=False).table
    p2 = DenseProduct(dense.d, dense.deformed(r2, dense.mul))
    if with_mu:
        t1, p1 = alg.structure, DenseProduct(dense.d, dense.mul)
    else:
        t1 = deform(Operator.from_matrix_rows(alg, r1), compute_flags=False).table
        p1 = DenseProduct(dense.d, dense.deformed(r1, dense.mul))
    got = mixed_associator_table(t1, t2)
    event(f"compatible: {not got}")
    for a, b, c in product(range(dense.d), repeat=3):
        assert table_row(got, (a, b, c), dense.d) == dense_mixed_associator(p1, p2, a, b, c)


@SETTINGS
@given(st.data())
def test_composition_sums_match_dense(data):
    """c0 N o mu o (N1, N2) + c1 mu o (N2, N1) + c2 N o mu + c3 mu o (1, N1) + c4 mu.

    N1 and N2 differ, so a lowering that swaps the inner slots, or that
    applies the outer operator to an input, fails on some pair.
    """
    alg, dense, (r, r1, r2) = drawn_fractional(data, 3)
    if r1 == r2:
        r2 = [[v + ONE if i == j else v for j, v in enumerate(row)] for i, row in enumerate(r2)]
    n, n1, n2 = (Operator.from_matrix_rows(alg, rows).columns for rows in (r, r1, r2))
    c = [data.draw(st.sampled_from(BASIS_COEFFICIENTS)) for _ in range(5)]
    mu = alg.structure
    got = table_of([
        Compose(c[0], mu, n, (n1, n2)),
        Compose(c[1], mu, inner=(n2, n1)),
        Compose(c[2], mu, outer=n),
        Compose(c[3], mu, inner=(None, n1)),
        Compose(c[4], mu),
    ])
    event(f"zero sum: {not got}")
    for a, b in dense.pairs():
        x, y = dense.e(a), dense.e(b)
        parts = [
            dense.apply(r, dense.mul(dense.apply(r1, x), dense.apply(r2, y))),
            dense.mul(dense.apply(r2, x), dense.apply(r1, y)),
            dense.apply(r, dense.mul(x, y)),
            dense.mul(x, dense.apply(r1, y)),
            dense.mul(x, y),
        ]
        expected = [sum((ci * v[k] for ci, v in zip(c, parts)), ZERO) for k in range(dense.d)]
        assert table_row(got, (a, b), dense.d) == expected


# -- the hierarchy report on torsion-free operators --------------------------------


def dense_hierarchy(dense, rows, maxk):
    """Every section of the hierarchy report of ``rows`` up to ``maxk``, from
    the definitions: the first failing case, with its first failing basis
    tuple, or None."""
    identity = [dense.e(i) for i in range(dense.d)]
    powers = [identity]
    for _ in range(maxk):
        powers.append(matmul(rows, powers[-1]))
    cubes = [[[dense.deformed(p, dense.mul)(dense.e(a), dense.e(b)) for b in range(dense.d)]
              for a in range(dense.d)] for p in powers]
    muls = [cube_mul(cube) for cube in cubes]
    triples = list(product(range(dense.d), repeat=3))

    def first(cases):
        return next((key for key, failing in cases if failing), None)

    relation = first(
        ((r, k, a, b), dense.apply(powers[r], cubes[k + r][a][b])
         != muls[k](dense.apply(powers[r], dense.e(a)), dense.apply(powers[r], dense.e(b))))
        for r in range(maxk + 1) for k in range(maxk + 1 - r) for a, b in dense.pairs())
    composition = first(
        ((i, k), any(dense.deformed(powers[k], muls[i])(dense.e(a), dense.e(b)) != cubes[i + k][a][b]
                     for a, b in dense.pairs()))
        for i in range(maxk + 1) for k in range(maxk + 1 - i))

    def mixed(m1, m2, a, b, c):
        x, y, z = dense.e(a), dense.e(b), dense.e(c)
        return sub(add(m1(m2(x, y), z), m2(m1(x, y), z)), add(m1(x, m2(y, z)), m2(x, m1(y, z))))

    def associator(m, a, b, c):
        x, y, z = dense.e(a), dense.e(b), dense.e(c)
        return sub(m(m(x, y), z), m(x, m(y, z)))

    associativity = first(
        ((k, t), any(associator(muls[k], *t))) for k in range(maxk + 1) for t in triples)
    compatibility = first(
        ((k1, k2, t), any(mixed(muls[k1], muls[k2], *t)))
        for k1 in range(maxk + 1) for k2 in range(k1 + 1, maxk + 1) for t in triples)
    return {
        "power_relation": relation,
        "composition_law": composition,
        "associativity": associativity,
        "pairwise_compatibility": compatibility,
    }


def truncated_polynomials(n):
    return Algebra(f"Q[x]/x^{n}", n, [f"x{i}" for i in range(n)],
                   {(i, j): {i + j: ONE} for i in range(n) for j in range(n - i)}, unit={0: ONE})


def left_multiplication(alg, coords):
    return Operator.left_multiplication(alg.element(coords))


TORSION_FREE = {
    "L_K on M2": left_multiplication(full_matrix_algebra(2), [Scalar(1, 1), 2, Scalar(0, -1), 3]),
    "L_K on T3": left_multiplication(upper_triangular_algebra(3), [1, Scalar(2, 1), 0, -1, 1, 2]),
    "L_x on Q[x]/x^7": left_multiplication(truncated_polynomials(7), {1: 1}),
    "projection on M2": projection_tensor(triangular_split(full_matrix_algebra(2)), 1, Scalar(0, 2)),
}


@pytest.mark.parametrize("op", TORSION_FREE.values(), ids=TORSION_FREE.keys())
def test_torsion_free_hierarchy_matches_dense(op):
    """The whole report at the largest power, 6, against the definitions, on
    torsion-free operators, whose report is decided by their torsion sweep
    alone: every section holds on the dense side too."""
    dense = Dense(op.algebra)
    rows = [[col.get(i, ZERO) for col in op.columns] for i in range(dense.d)]
    expected = dense_hierarchy(dense, rows, 6)
    assert verify_hierarchy(op, 6) == {
        "max_power": 6, "nijenhuis": True, "pass": True,
        **{name: {"pass": w is None, "witness": w} for name, w in expected.items()},
    }


# -- the identities behind the hierarchy's decisions ------------------------------


def composed(cube, outer=None, inner=(None, None)):
    """outer o C o (inner[0], inner[1]) for the product cube C = ``cube`` and
    operator matrices given by rows; None is the identity."""
    d, (left, right) = len(cube), inner

    def combination(terms):
        out = [ZERO] * d
        for c, vec in terms:
            if c:
                out = [u + c * v if v else u for u, v in zip(out, vec)]
        return out

    if left is not None:
        cube = [[combination((left[i][a], cube[i][b]) for i in range(d)) for b in range(d)]
                for a in range(d)]
    if right is not None:
        cube = [[combination((right[j][b], cube[a][j]) for j in range(d)) for b in range(d)]
                for a in range(d)]
    if outer is not None:
        cube = [[combination(zip(vec, [[row[j] for row in outer] for j in range(d)])) for vec in line]
                for line in cube]
    return cube


def cube_sum(*signed):
    """The sum of (sign, cube) pairs, entry by entry."""
    d = len(signed[0][1])
    return [[[sum((s * c[a][b][k] for s, c in signed), ZERO) for k in range(d)]
             for b in range(d)] for a in range(d)]


def deformed_cube(cube, p):
    """D_p C = C o (p, 1) + C o (1, p) - p o C."""
    return cube_sum((ONE, composed(cube, inner=(p, None))), (ONE, composed(cube, inner=(None, p))),
                    (-ONE, composed(cube, outer=p)))


@settings(max_examples=15, deadline=None)
@given(st.data(), st.integers(0, 2))
def test_hierarchy_reductions_hold_on_operators_with_torsion(data, k):
    """Four identities behind the hierarchy's decisions, on the dense
    definitions and for any operator N, torsion or none. With mu_X the
    product deformed by X, D_Y the deformation by Y and
    R(r, k) = N^r o mu_{N^(k+r)} - mu_{N^k} o (N^r, N^r):
    R(r, k) = N^(r-1) o R(1, k+r-1) + R(r-1, k) o (N, N) for r <= 4;
    B(X, Y) = D_Y mu_X - mu_{XY} is symmetric on powers and B(1, .) = 0, on
    N^i, N^k with i, k <= 3; the mixed associator of mu and mu_X is zero for
    a random X; the mixed associator Q(N, X) of mu_N and mu_X is dB(N, X), d
    the coboundary of mu, for that X, which need not commute with N."""
    alg, dense, (rows, x_rows) = drawn_fractional(data, 2)
    with_torsion(data, dense, rows)
    powers = [[dense.e(i) for i in range(dense.d)]]
    for _ in range(6):
        powers.append(matmul(rows, powers[-1]))
    cubes = [deformed_cube(dense.c, p) for p in powers]

    def relation(r, k):
        p = powers[r]
        return cube_sum((ONE, composed(cubes[k + r], outer=p)), (-ONE, composed(cubes[k], inner=(p, p))))

    n = powers[1]
    for r in range(2, 5):
        lhs = relation(r, k)
        assert lhs == cube_sum((ONE, composed(relation(1, k + r - 1), outer=powers[r - 1])),
                               (ONE, composed(relation(r - 1, k), inner=(n, n))))
        event(f"R({r}, k) {'nonzero' if any(any(map(any, line)) for line in lhs) else 'zero'}")

    def composition(i, k):  # B(N^i, N^k)
        return cube_sum((ONE, deformed_cube(cubes[i], powers[k])), (-ONE, cubes[i + k]))

    zero = [[[ZERO] * dense.d for _ in range(dense.d)] for _ in range(dense.d)]
    for i in range(4):
        for k in range(i + 1, 4):
            value = composition(i, k)
            assert value == composition(k, i)
            assert i or value == zero

    p1 = DenseProduct(dense.d, dense.deformed(x_rows, dense.mul))
    mu = DenseProduct(dense.d, dense.mul)
    for a, b, c in product(range(dense.d), repeat=3):
        assert not any(dense_mixed_associator(mu, p1, a, b, c))

    event(f"N and X {'commute' if matmul(rows, x_rows) == matmul(x_rows, rows) else 'do not commute'}")
    b_nx = cube_sum((ONE, deformed_cube(cubes[1], x_rows)),
                    (-ONE, deformed_cube(dense.c, matmul(rows, x_rows))))
    q_nx = dense_coboundary(dense, {(a, b): b_nx[a][b] for a, b in dense.pairs()}, 2)
    pn = DenseProduct(dense.d, cube_mul(cubes[1]))
    for a, b, c in product(range(dense.d), repeat=3):
        assert dense_mixed_associator(pn, p1, a, b, c) == q_nx[(a, b, c)]
    event(f"Q(N, X) {'nonzero' if any(map(any, q_nx.values())) else 'zero'}")


# -- the torsion as the obstruction, on operators with torsion ---------------------

TORSION_ALGEBRAS = [*ALGEBRAS, direct_sum(dual_number_algebra(), full_matrix_algebra(2))]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_torsion_identities_hold_on_operators_with_torsion(data):
    """Three identities of the torsion T_N for any operator N, torsion or none,
    with Gaussian entries, on the dense definitions and on the engine's tables.
    With mu_N = D_N mu the deformed product and d the coboundary of mu:
    Assoc(mu_N) = -dT_N; the mixed associator Q(mu, mu_N) is zero; and
    T_(N1+N2) = T_N1 + T_N2 + C(N1, N2), where the cross sum
    C(N1, N2)(a, b) = N1(a o_N2 b) + N2(a o_N1 b) - N1(a)N2(b) - N2(a)N1(b)
    is what ``tensors_compatible`` decides: with both torsions zero it is
    the torsion of N1 + N2, which it sweeps."""
    alg = data.draw(st.sampled_from(TORSION_ALGEBRAS))
    event(alg.name)
    dense, d = Dense(alg), alg.dim
    r1, r2 = (data.draw(fractional_operator_rows(dense)) for _ in range(2))
    for rows in (r1, r2):
        with_torsion(data, dense, rows)

    pn = DenseProduct(d, dense.deformed(r1, dense.mul))
    torsion1 = {(a, b): dense.torsion(r1, a, b) for a, b in dense.pairs()}
    d_torsion = dense_coboundary(dense, torsion1, 2)
    mu_n = deform(Operator.from_matrix_rows(alg, r1), compute_flags=False).table
    assoc, mixed = associator_table(mu_n), mixed_associator_table(alg.structure, mu_n)
    for a, b, c in product(range(d), repeat=3):
        x, y, z = dense.e(a), dense.e(b), dense.e(c)
        lhs = sub(pn.mul(pn.mul(x, y), z), pn.mul(x, pn.mul(y, z)))
        assert lhs == [-v for v in d_torsion[(a, b, c)]] == table_row(assoc, (a, b, c), d)
        assert not any(dense_mixed_associator(dense, pn, a, b, c))
        assert not any(table_row(mixed, (a, b, c), d))
    event(f"Assoc(mu_N) {'nonzero' if any(map(any, d_torsion.values())) else 'zero'}")

    r12 = [add(u, v) for u, v in zip(r1, r2)]
    t12, t1, t2 = (torsion(Operator.from_matrix_rows(alg, rows)).table for rows in (r12, r1, r2))
    d1, d2 = dense.deformed(r1, dense.mul), dense.deformed(r2, dense.mul)
    cross_zero = True
    for a, b in dense.pairs():
        x, y = dense.e(a), dense.e(b)
        cross = sub(add(dense.apply(r1, d2(x, y)), dense.apply(r2, d1(x, y))),
                    add(dense.mul(dense.apply(r1, x), dense.apply(r2, y)),
                        dense.mul(dense.apply(r2, x), dense.apply(r1, y))))
        cross_zero = cross_zero and not any(cross)
        assert dense.torsion(r12, a, b) == add(add(torsion1[(a, b)], dense.torsion(r2, a, b)), cross)
        engine = add(add(table_row(t1, (a, b), d), table_row(t2, (a, b), d)), cross)
        assert table_row(t12, (a, b), d) == engine
    event(f"C(N1, N2) {'zero' if cross_zero else 'nonzero'}")


@pytest.mark.parametrize("alg", TORSION_ALGEBRAS, ids=lambda alg: alg.name)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_power_relation_reduces_to_the_torsion_and_the_composition_law(alg, data):
    """Two identities that let the hierarchy decide its power relation from
    its torsion sweep, for an operator N with torsion or none, with Gaussian
    entries, on the dense definitions and on the engine's tables. With
    R(1, X) = N o mu_{NX} - mu_X o (N, N) and B(N, X) = D_X mu_N - mu_{NX}:
    R(1, X) = D_X T_N - N o B(N, X) for every X that commutes with N, here
    X = N^k for k = 0, ..., 3; and B(N, N) = -2 T_N."""
    dense, d = Dense(alg), alg.dim
    rows = data.draw(fractional_operator_rows(dense))
    with_torsion(data, dense, rows)
    powers = [[dense.e(i) for i in range(d)]]
    for _ in range(4):
        powers.append(matmul(rows, powers[-1]))
    cubes = [deformed_cube(dense.c, p) for p in powers]
    t_n = [[dense.torsion(rows, a, b) for b in range(d)] for a in range(d)]

    op = Operator.from_matrix_rows(alg, rows)
    n = op.columns
    tables = [deform(op.power(k), compute_flags=False).table for k in range(5)]
    engine_t = torsion(op).table
    for a, b in dense.pairs():
        assert table_row(engine_t, (a, b), d) == t_n[a][b]

    for k in range(4):
        x = powers[k]
        relation = cube_sum((ONE, composed(cubes[k + 1], outer=rows)),
                            (-ONE, composed(cubes[k], inner=(rows, rows))))
        b_nx = cube_sum((ONE, deformed_cube(cubes[1], x)), (-ONE, cubes[k + 1]))
        assert relation == cube_sum((ONE, deformed_cube(t_n, x)), (-ONE, composed(b_nx, outer=rows)))
        if k == 1:
            assert b_nx == cube_sum((-2 * ONE, t_n))
        xc = op.power(k).columns
        engine_r = table_of([Compose(ONE, tables[k + 1], outer=n),
                             Compose(-ONE, tables[k], inner=(n, n))])
        engine_b = table_of(deform_terms(ONE, tables[1], xc) + [Compose(-ONE, tables[k + 1])])
        engine_rhs = table_of(deform_terms(ONE, engine_t, xc) + [Compose(-ONE, engine_b, outer=n)])
        for a, b in dense.pairs():
            assert table_row(engine_r, (a, b), d) == relation[a][b] == table_row(engine_rhs, (a, b), d)
            assert table_row(engine_b, (a, b), d) == b_nx[a][b]
        zero = not any(any(map(any, line)) for line in relation)
        event(f"R(1, N^{k}) {'zero' if zero else 'nonzero'}")


def drawn_with_torsion(data):
    """(algebra or None, dense product, operator rows with torsion): one of
    ``TORSION_ALGEBRAS``, or a random Gaussian product of dimension 3, which
    is not associative (then no algebra)."""
    alg = data.draw(st.sampled_from([*TORSION_ALGEBRAS, None]))
    if alg is None:
        cube = [[[data.draw(scalars(True)) for _ in range(3)] for _ in range(3)] for _ in range(3)]
        dense = DenseProduct(3, cube_mul(cube))
    else:
        dense = Dense(alg)
    event(alg.name if alg else "random product")
    rows = data.draw(fractional_operator_rows(dense))
    with_torsion(data, dense, rows)
    return alg, dense, rows


def torsion_cube(dense, rows):
    return [[dense.torsion(rows, a, b) for b in range(dense.d)] for a in range(dense.d)]


def combined(coefs, matrices):
    """The operator sum of c * M over (c, M), as rows."""
    d = len(matrices[0])
    return [[sum((c * m[i][j] for c, m in zip(coefs, matrices)), ZERO) for j in range(d)]
            for i in range(d)]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_torsion_of_a_polynomial_in_n_reduces_to_t_n(data):
    """Three identities that make T_P(N) zero for every polynomial P once T_N
    is zero, for an operator N with torsion, with Gaussian entries:
    T_{a+bN} = b^2 T_N; T_{N^2} = T_N o (N, N) + N o T_N o (N, 1) +
    N o T_N o (1, N) + N^2 o T_N; and Q(N, N^2) = N o T_N + T_N o (N, 1)/2 +
    T_N o (1, N)/2 for the polar form 2Q(X, Y) = T_{X+Y} - T_X - T_Y. They
    hold for any bilinear product: on the dense definitions, also for a
    random product that is not associative, and on algebras also on the
    engine's torsion tables."""
    alg, dense, rows = drawn_with_torsion(data)
    d, one = dense.d, [dense.e(i) for i in range(dense.d)]
    a, b = data.draw(scalars(True)), data.draw(scalars(True))
    n2 = matmul(rows, rows)
    t_n, t_n2 = torsion_cube(dense, rows), torsion_cube(dense, n2)
    shifted = combined((a, b), (one, rows))
    assert torsion_cube(dense, shifted) == cube_sum((b * b, t_n))
    square = [(ONE, composed(t_n, inner=(rows, rows))), (ONE, composed(t_n, rows, (rows, None))),
              (ONE, composed(t_n, rows, (None, rows))), (ONE, composed(t_n, outer=n2))]
    assert t_n2 == cube_sum(*square)
    polar = cube_sum((ONE, torsion_cube(dense, combined((ONE, ONE), (rows, n2)))), (-ONE, t_n), (-ONE, t_n2))
    half = ONE / Scalar(2)
    assert cube_sum((half, polar)) == cube_sum(
        (ONE, composed(t_n, outer=rows)), (half, composed(t_n, inner=(rows, None))),
        (half, composed(t_n, inner=(None, rows))))
    if alg is None:
        return
    op = Operator.from_matrix_rows(alg, rows)
    n, engine_t = op.columns, torsion(op).table
    engine_square = table_of([Compose(ONE, engine_t, inner=(n, n)), Compose(ONE, engine_t, n, (n, None)),
                              Compose(ONE, engine_t, n, (None, n)), Compose(ONE, engine_t, (op @ op).columns)])
    engine_shifted = torsion(Operator.from_matrix_rows(alg, shifted)).table
    for x, y in dense.pairs():
        assert table_row(engine_t, (x, y), d) == t_n[x][y]
        assert table_row(torsion(op @ op).table, (x, y), d) == t_n2[x][y] == table_row(engine_square, (x, y), d)
        assert table_row(engine_shifted, (x, y), d) == [b * b * v for v in t_n[x][y]]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_composition_law_is_minus_the_polar_torsion(data):
    """B(X, Y) = D_Y mu_X - mu_{XY} = -(T_{X+Y} - T_X - T_Y) for commuting X
    and Y, here (1, N), (N, N), (N, N^2) and (a + bN, N^2), for an operator
    N with torsion, with Gaussian entries: on the dense definitions, also for
    a random product that is not associative, and on algebras also on the
    engine's tables. A zero T_N so makes every composition law of its powers
    zero."""
    alg, dense, rows = drawn_with_torsion(data)
    d, one = dense.d, [dense.e(i) for i in range(dense.d)]
    a, b = data.draw(scalars(True)), data.draw(scalars(True))
    n2 = matmul(rows, rows)
    for x, y in ((one, rows), (rows, rows), (rows, n2), (combined((a, b), (one, rows)), n2)):
        law = cube_sum((ONE, deformed_cube(deformed_cube(dense.c, x), y)),
                       (-ONE, deformed_cube(dense.c, matmul(x, y))))
        polar = cube_sum((ONE, torsion_cube(dense, combined((ONE, ONE), (x, y)))),
                         (-ONE, torsion_cube(dense, x)), (-ONE, torsion_cube(dense, y)))
        assert law == cube_sum((-ONE, polar))
        if alg is None:
            continue
        ox, oy = (Operator.from_matrix_rows(alg, m) for m in (x, y))
        mu_x = deform(ox, compute_flags=False).table
        engine_law = table_of(deform_terms(ONE, mu_x, oy.columns)
                              + [Compose(-ONE, deform(ox @ oy, compute_flags=False).table)])
        engine_polar = table_of([Compose(ONE, torsion(ox + oy).table), Compose(-ONE, torsion(ox).table),
                                 Compose(-ONE, torsion(oy).table)])
        for p, q in dense.pairs():
            assert table_row(engine_law, (p, q), d) == law[p][q]
            assert table_row(engine_polar, (p, q), d) == polar[p][q]


def dense_cube(table, d):
    return [[[table.get((i, j), {}).get(k, ZERO) for k in range(d)] for j in range(d)]
            for i in range(d)]


def dense_is_unit(table, d, u):
    """u e_j = e_j = e_j u for every j, on coordinate lists."""
    mul = cube_mul(dense_cube(table, d))
    x = [u.get(i, ZERO) for i in range(d)]
    basis = [[ONE if k == j else ZERO for k in range(d)] for j in range(d)]
    return all(mul(x, e) == e == mul(e, x) for e in basis)


@st.composite
def unit_tables(draw):
    """``(table, dim, one_sided)``: an algebra of ``algebras()`` (Gaussian once
    twisted), a table in which every basis vector is a left (or right) unit,
    or a random Gaussian table, associative or not, of dimension 0 to 3."""
    kind = draw(st.sampled_from(("algebra", "left units", "right units", "random")))
    event(kind)
    if kind == "algebra":
        alg = draw(algebras())
        return alg.structure, alg.dim, False
    d = draw(st.integers(0, 3))
    pairs = list(product(range(d), repeat=2))
    if kind == "random":
        entry = st.one_of(st.just(ZERO), scalars(True))
        vecs = {t: {k: s for k in range(d) if (s := draw(entry))} for t in pairs}
        return {t: vec for t, vec in vecs.items() if vec}, d, False
    side = 1 if kind == "left units" else 0  # e_i e_j = e_j, or e_i e_j = e_i
    return {t: {t[side]: ONE} for t in pairs}, d, True


@settings(max_examples=80, deadline=None)
@given(unit_tables(), st.data())
def test_unit_check_matches_dense(case, data):
    table, d, one_sided = case
    found = table_unit(table, d)
    kinds = ("found", "zero", "basis", "random", "perturbed")
    kind = "basis" if one_sided else data.draw(st.sampled_from(kinds))
    if kind == "basis" and d:
        u = {data.draw(st.integers(0, d - 1)): ONE}
    elif kind == "random":
        u = {k: s for k in range(d) if (s := data.draw(scalars(True)))}
    elif kind == "perturbed" and found is not None and d:
        u = dict(found)
        k = data.draw(st.integers(0, d - 1))
        u[k] = u.get(k, ZERO) + data.draw(st.sampled_from(BASIS_COEFFICIENTS))
        u = {k: v for k, v in u.items() if v}
    else:
        u = dict(found or {}) if kind == "found" else {}
    expected = dense_is_unit(table, d, u)
    event(f"{kind}: {'unit' if expected else 'not a unit'}")
    assert table_is_unit(table, d, u) == expected
    assert found is None or dense_is_unit(table, d, found)
    if expected:  # a two-sided unit is unique, and the solver finds it
        assert found == u


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_associative_structures_are_refused(data):
    """Every structure is checked on construction, and no argument skips it."""
    d = data.draw(st.integers(1, 3))
    entry = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, Scalar(0, 1)])
    cube = [[[data.draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    structure = {(i, j): {k: v for k, v in enumerate(cube[i][j]) if v}
                 for i, j in product(range(d), repeat=2)}
    mul = cube_mul(cube)
    e = [[ONE if k == j else ZERO for k in range(d)] for j in range(d)]
    associative = all(mul(mul(e[a], e[b]), e[c]) == mul(e[a], mul(e[b], e[c]))
                      for a, b, c in product(range(d), repeat=3))
    event("associative" if associative else "not associative")
    args = ("X", d, [f"e{i}" for i in range(d)], structure)
    if associative:
        assert Algebra(*args).structure == {t: vec for t, vec in structure.items() if vec}
    else:
        with pytest.raises(AlgebraError, match="not associative"):
            Algebra(*args)
    with pytest.raises(TypeError):
        Algebra(*args, validate=False)


# -- the Lie checks and the criterion, on operators with torsion -----------------


def torsion_operator_pair(data):
    """An algebra of ``TORSION_ALGEBRAS``, its dense form, and two operators
    as rows: a random one, and that one perturbed to have torsion."""
    alg = data.draw(st.sampled_from(TORSION_ALGEBRAS))
    event(alg.name)
    dense = Dense(alg)
    rows = data.draw(fractional_operator_rows(dense))
    perturbed = [list(row) for row in rows]
    with_torsion(data, dense, perturbed)
    return alg, dense, (rows, perturbed)


def dense_first_failure(values, d):
    """The first basis triple, in order, where ``values`` is not zero, with
    its nonzero coordinates: the witness that the engine reports."""
    for t in product(range(d), repeat=3):
        if any(values[t]):
            return t, {k: v for k, v in enumerate(values[t]) if v}
    return None


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_lie_checks_match_dense_on_operators_with_torsion(data):
    """The commutator of D_N mu is D_N of the commutator of mu on the dense
    definitions, so the deformed bracket identity never fails, and
    ``lie_nijenhuis_check`` gives the dense verdict of N o [.,.]_N =
    [.,.] o (N, N)."""
    alg, dense, pair = torsion_operator_pair(data)

    def bracket(x, y):
        return sub(dense.mul(x, y), dense.mul(y, x))

    for rows in pair:
        deformed, deformed_bracket = dense.deformed(rows, dense.mul), dense.deformed(rows, bracket)
        verdict = True
        for a, b in dense.pairs():
            x, y = dense.e(a), dense.e(b)
            bracket_n = sub(deformed(x, y), deformed(y, x))
            assert bracket_n == deformed_bracket(x, y)
            nx, ny = dense.apply(rows, x), dense.apply(rows, y)
            verdict = verdict and dense.apply(rows, bracket_n) == bracket(nx, ny)
        event(f"Lie torsion {'zero' if verdict else 'nonzero'}")
        assert lie_nijenhuis_check(Operator.from_matrix_rows(alg, rows)) == verdict


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_criterion_witnesses_match_dense_on_operators_with_torsion(data):
    """Both witnesses of ``associativity_criterion`` are the dense first
    failing triple and its residual: of the associator of mu_N, and of dT_N."""
    alg, dense, pair = torsion_operator_pair(data)
    d = dense.d
    for rows in pair:
        pn = DenseProduct(d, dense.deformed(rows, dense.mul))
        assoc = {}
        for a, b, c in product(range(d), repeat=3):
            x, y, z = pn.e(a), pn.e(b), pn.e(c)
            assoc[(a, b, c)] = sub(pn.mul(pn.mul(x, y), z), pn.mul(x, pn.mul(y, z)))
        torsion_values = {(a, b): dense.torsion(rows, a, b) for a, b in dense.pairs()}
        d_torsion = dense_coboundary(dense, torsion_values, 2)
        res = associativity_criterion(Operator.from_matrix_rows(alg, rows))
        event(f"deformed product {'not ' if res.associator_witness else ''}associative")
        assert res.associator_witness == dense_first_failure(assoc, d)
        assert res.cocycle_witness == dense_first_failure(d_torsion, d)


# -- inner generators against the dense system ad_h = D ----------------------------


def sympy_rank(sympy, grid):
    """Rank of a nonempty dense grid of scalars, over Q(i) by ``sympy``."""
    from sympy.polys.matrices import DomainMatrix

    matrix = sympy.Matrix(len(grid), len(grid[0]), lambda i, j: (
        sympy.Rational(grid[i][j].re.numerator, grid[i][j].re.denominator)
        + sympy.I * sympy.Rational(grid[i][j].im.numerator, grid[i][j].im.denominator)))
    return DomainMatrix.from_Matrix(matrix).rank()


@SETTINGS
@given(st.data(), st.booleans(), st.booleans())
def test_inner_generator_matches_dense(data, use_deformed, inner):
    """D is ad_h for a random Gaussian h, or a random matrix, over mu or a
    deformation of it. Row (j, c) of the dense system is g -> (e_g e_j -
    e_j e_g)_c with right-hand side D(e_j)_c: ``inner`` is its consistency,
    the generator reproduces D, and the ambiguity is a basis of the center,
    the kernel of ad, of size dim - rank."""
    sympy = pytest.importorskip("sympy")
    alg, dense, draw_rows = drawn(data, ("matrix",))
    prod = mu_product(alg)
    if use_deformed:
        base = draw_rows()
        prod = deform(Operator.from_matrix_rows(alg, base), compute_flags=False)
        dense = DenseProduct(dense.d, dense.deformed(base, dense.mul))
    d, e = dense.d, dense.e
    if inner:
        h = [data.draw(scalars(True)) for _ in range(d)]
        cols = [sub(dense.mul(h, e(j)), dense.mul(e(j), h)) for j in range(d)]
        rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    else:
        rows = draw_rows()
    ad = [[sub(dense.mul(e(g), e(j)), dense.mul(e(j), e(g)))[c] for g in range(d)]
          for j in range(d) for c in range(d)]
    rank = sympy_rank(sympy, ad)
    augmented = [row + [rows[c][j]] for row, (j, c) in zip(ad, product(range(d), repeat=2))]
    consistent = sympy_rank(sympy, augmented) == rank
    event(f"{'ad_h' if inner else 'random'}: {'inner' if consistent else 'not inner'}")
    op = Operator.from_matrix_rows(alg, rows)
    rep = inner_generator(op, prod)
    assert rep.inner == consistent
    if not consistent:
        assert rep.generator is None and rep.ambiguity == []
        return
    assert commutator_derivation(rep.generator, prod) == op
    center = [[z.coords.get(k, ZERO) for k in range(d)] for z in rep.ambiguity]
    assert len(center) == d - rank
    assert not center or sympy_rank(sympy, center) == len(center)
    assert all(dense.mul(z, e(j)) == dense.mul(e(j), z) for z in center for j in range(d))
