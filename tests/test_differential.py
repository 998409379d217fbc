"""Differential tests: the sparse identity checks against a dense evaluator.

The dense side below works from the definitions on coordinate lists, one
basis pair at a time, and shares nothing with the engine but the scalars and
the structure constants. Operators are drawn at random (integer or Gaussian
entries) or built as left, right or inner multiplications, with or without a
perturbation, so that both verdicts occur. The coboundary and the cohomology
dimensions are compared against the alternating-sum definition, with ranks
taken by ``sympy``, on the same algebras and on random changes of their basis.
"""

import importlib
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from algdeform.algebra import (
    Algebra,
    Operator,
    dual_number_algebra,
    full_matrix_algebra,
    split_quaternion_algebra,
    upper_triangular_algebra,
)
from algdeform.deform import (
    deform,
    lie_nijenhuis_check,
    mu_product,
    tensors_compatible,
    torsion,
    verify_hierarchy,
)
from algdeform.dynamics import is_derivation
from algdeform.errors import PreconditionError
from algdeform.hochschild import Cochain, coboundary, cohomology_dimension
from algdeform.scalar import ONE, ZERO, Scalar

ALGEBRAS = [
    full_matrix_algebra(2),
    upper_triangular_algebra(3),
    dual_number_algebra(),
    split_quaternion_algebra(),
]
SETTINGS = settings(max_examples=30, deadline=None)
# The package re-exports the function ``deform`` under the module's name.
deform_module = importlib.import_module("algdeform.deform")


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


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_hierarchy_power_relation_matches_dense(data):
    """N^r(A o_{N^(k+r)} B) = N^r(A) o_{N^k} N^r(B), smallest (r, k, a, b) failing.

    The hierarchy refuses operators with torsion; the torsion gate is lifted
    here so that the relation is also exercised where it fails.
    """
    alg, dense, draw_rows = drawn(data)
    rows = draw_rows()
    maxk = 2
    identity = [[ONE if i == j else ZERO for j in range(dense.d)] for i in range(dense.d)]
    powers = [identity]
    for _ in range(maxk):
        powers.append(matmul(rows, powers[-1]))
    prods = [dense.deformed(p, dense.mul) for p in powers]
    witness = None
    for r in range(maxk + 1):
        for k in range(maxk + 1 - r):
            for a, b in dense.pairs():
                x, y = dense.e(a), dense.e(b)
                lhs = dense.apply(powers[r], prods[k + r](x, y))
                rhs = prods[k](dense.apply(powers[r], x), dense.apply(powers[r], y))
                if witness is None and lhs != rhs:
                    witness = (r, k, a, b)
    event(f"power relation holds: {witness is None}")
    with mock.patch.object(deform_module, "is_nijenhuis", return_value=True):
        report = verify_hierarchy(Operator.from_matrix_rows(alg, rows), maxk)
    assert report["power_relation"] == {"pass": witness is None, "witness": witness}


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


@settings(max_examples=20, deadline=None)
@given(algebras())
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
