import random
from itertools import combinations
from math import inf

import pytest
from fractions import Fraction
from hypothesis import event, given, settings, strategies as st

from algdeform.linalg import (
    Matrix,
    RowReducer,
    invert,
    kernel_basis,
    rank,
    solve_affine,
)
from algdeform.scalar import I, ONE, ZERO, Scalar

SYSTEMS = settings(max_examples=60, deadline=None)


def test_rank_identity():
    assert rank(Matrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(Matrix.zeros(3, 5)) == 0


def test_rank_complex_dependent_rows():
    # second row is i times the first
    m = Matrix.from_rows([[Scalar(1), I], [I, Scalar(-1)]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(Matrix.zeros(2, 2))
    assert len(basis) == 2


def test_kernel_one_dimensional():
    basis = kernel_basis(Matrix.from_rows([[1, 1], [0, 0]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[0]


def test_solve_identity():
    b = [Scalar(3), Scalar(-1, 2)]
    sol = solve_affine(Matrix.identity(2), b)
    assert sol.particular == b and sol.kernel == []


def test_solve_inconsistent():
    assert solve_affine(Matrix.zeros(2, 2), [1, 0]) is None


def test_solve_affine_with_kernel():
    sol = solve_affine(Matrix.from_rows([[1, 0], [1, 0]]), [2, 2])
    assert sol.particular == [Scalar(2), ZERO]
    assert len(sol.kernel) == 1
    assert sol.kernel[0] == [ZERO, ONE]


def _random_matrix(rng, rows, cols, span=3):
    return Matrix.from_rows(
        [[Scalar(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_nullity_randomized():
    rng = random.Random(42)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        assert rank(m) + len(kernel_basis(m)) == cols


def test_kernel_vectors_annihilate():
    rng = random.Random(43)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in kernel_basis(m):
            assert all(not x for x in m.times_vector(v))


def test_solve_is_exact_on_consistent_systems():
    rng = random.Random(44)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = [Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(cols)]
        b = m.times_vector(x)
        sol = solve_affine(m, b)
        assert sol is not None
        assert m.times_vector(sol.particular) == b


def test_solve_detects_inconsistency():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    assert solve_affine(m, [1, 2]) is None


def test_invert_round_trip():
    rng = random.Random(45)
    done = 0
    while done < 10:
        m = _random_matrix(rng, 3, 3)
        if rank(m) < 3:
            continue
        minv = invert(m)
        assert minv is not None
        assert m @ minv == Matrix.identity(3)
        done += 1


def test_invert_singular_returns_none():
    assert invert(Matrix.zeros(2, 2)) is None
    assert invert(Matrix.from_rows([[1, 2], [2, 4]])) is None


def test_row_reducer_incremental_consistency():
    red = RowReducer()
    red.add_row({0: ONE, 1: ONE}, Scalar(2))
    red.add_row({0: ONE, 1: ONE}, Scalar(2))  # duplicate row is absorbed
    assert red.rank == 1 and not red.inconsistent
    red.add_row({0: ONE, 1: ONE}, Scalar(3))  # contradictory rhs
    assert red.inconsistent


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(1, 2, [[1, 2, 3]])
    with pytest.raises(ValueError):
        solve_affine(Matrix.identity(2), [1])


def test_cross_validation_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(777)

    def rand_scalar():
        return Scalar(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
        )

    def to_sympy(m):
        return sympy.Matrix(
            m.rows,
            m.cols,
            lambda i, j: sympy.Rational(m.entries[i][j].re)
            + sympy.Rational(m.entries[i][j].im) * sympy.I,
        )

    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(
            r, c,
            [[rand_scalar() if rng.random() < 0.7 else 0 for _ in range(c)] for _ in range(r)],
        )
        sm = to_sympy(m)
        assert rank(m) == sm.rank()
        assert len(kernel_basis(m)) == len(sm.nullspace())
        if r == c:
            assert (invert(m) is None) == (sm.det() == 0)


# -- the solve path against sympy's reduced row echelon form --------------------------


@st.composite
def systems(draw, square=False):
    """``(m, b)``: a random matrix over Q, Q with fractions or Q(i), with zero
    rows and rows that are combinations of earlier rows, and a right-hand
    side that is either ``m x`` for a random ``x`` or arbitrary. Square
    matrices have fewer zero and combined rows, so that most are invertible."""
    kind = draw(st.sampled_from(["integer", "fraction", "gaussian"]))
    num = st.integers(-4, 4)
    den = st.integers(1, 1) if kind == "integer" else st.integers(1, 5)
    part = st.builds(Fraction, num, den)
    imag = part if kind == "gaussian" else st.just(0)
    scalar = st.one_of(st.just(ZERO), st.builds(Scalar, part, imag))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if square:
        cols = rows = min(rows, 5)
    shapes = ["random"] * (10 if square else 2) + ["zero", "combination"]
    entries = []
    for _ in range(rows):
        shape = draw(st.sampled_from(shapes))
        if shape == "zero" or (shape == "combination" and not entries):
            entries.append([ZERO] * cols)
        elif shape == "combination":
            coefs = [draw(scalar) for _ in entries]
            entries.append([
                sum((c * row[j] for c, row in zip(coefs, entries)), ZERO) for j in range(cols)
            ])
        else:
            entries.append([draw(scalar) for _ in range(cols)])
    m = Matrix(rows, cols, entries)
    if draw(st.booleans()):
        b = m.times_vector([draw(scalar) for _ in range(cols)])
    else:
        b = [draw(scalar) for _ in range(rows)]
    return m, b


def _to_sympy(sympy, s):
    return sympy.Rational(s.a, s.d) + sympy.I * sympy.Rational(s.b, s.d)


def _from_sympy(x):
    re, im = x.as_real_imag()
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _sympy_rref(sympy, m, b=None):
    """The reduced row echelon form of ``m`` (or of ``[m | b]``) and its pivots."""
    cols = m.cols + (b is not None)
    grid = [row + ([b[i]] if b is not None else []) for i, row in enumerate(m.entries)]
    sm = sympy.Matrix(m.rows, cols, lambda i, j: _to_sympy(sympy, grid[i][j]))
    rref, pivots = sm.rref()
    return [[_from_sympy(rref[i, j]) for j in range(cols)] for i in range(len(pivots))], pivots


@SYSTEMS
@given(systems(), st.randoms(use_true_random=False))
def test_solve_affine_matches_sympy_rref(system, rnd):
    """Also solved with every row fed twice, in a shuffled order: equal pairs
    are skipped and the reduced echelon form does not depend on row order,
    so the result is the same."""
    sympy = pytest.importorskip("sympy")
    m, b = system
    rref, pivots = _sympy_rref(sympy, m, b)
    sol = solve_affine(m, b)
    pairs = list(zip(m.entries, b)) * 2
    rnd.shuffle(pairs)
    assert solve_affine(Matrix.from_rows([r for r, _ in pairs]), [s for _, s in pairs]) == sol
    if m.cols in pivots:  # a pivot in the right-hand side column
        event("inconsistent")
        assert sol is None
        return
    event("consistent")
    expected = [ZERO] * m.cols
    for i, p in enumerate(pivots):
        expected[p] = rref[i][m.cols]
    assert sol.particular == expected
    assert sol.kernel == kernel_basis(m)


@SYSTEMS
@given(systems())
def test_kernel_basis_matches_sympy_rref(system):
    sympy = pytest.importorskip("sympy")
    m, _ = system
    rref, pivots = _sympy_rref(sympy, m)
    expected = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -rref[i][f]
        expected.append(vec)
    assert kernel_basis(m) == expected
    assert rank(m) == len(pivots)


@SYSTEMS
@given(systems(square=True))
def test_invert_matches_sympy_inverse(system):
    sympy = pytest.importorskip("sympy")
    square, _ = system
    n = square.rows
    sm = sympy.Matrix(n, n, lambda i, j: _to_sympy(sympy, square.entries[i][j]))
    if sm.det() == 0:
        event("singular")
        assert invert(square) is None
        return
    event("invertible")
    inverse = sm.inv()
    expected = [[_from_sympy(sympy.expand(inverse[i, j])) for j in range(n)] for i in range(n)]
    assert invert(square) == Matrix(n, n, expected)


# -- sparser rows take over pivots --------------------------------------------------------


@st.composite
def dense_echelon_systems(draw):
    """``(m, b)``, consistent, whose reduced echelon form is [I | u v^T | c]:
    its rows are dense, but u_j R_i - u_i R_j cancels every free column. The
    rows of ``m`` mix those of the echelon form by a unimodular matrix."""
    r, f = draw(st.integers(2, 4)), draw(st.integers(3, 4))
    nonzero = st.integers(-3, 3).filter(bool)
    u = draw(st.lists(nonzero, min_size=r, max_size=r))
    v = draw(st.lists(nonzero, min_size=f, max_size=f))
    c = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    echelon = [[int(i == j) for j in range(r)] + [ui * vj for vj in v] + [ci]
               for i, (ui, ci) in enumerate(zip(u, c))]
    mix = st.integers(-2, 2)
    for i in range(r):  # row additions: the mix is unimodular
        for j in range(r):
            k = draw(mix)
            if i != j and k:
                echelon[i] = [a + k * b for a, b in zip(echelon[i], echelon[j])]
    m = Matrix.from_rows([row[:-1] for row in echelon])
    return m, [Scalar(row[-1]) for row in echelon]


def _read(red, ncols):
    return red.particular_sparse(), red.kernel_basis_sparse(ncols)


@SYSTEMS
@given(dense_echelon_systems())
def test_sparser_rows_leave_the_read_out_on_the_reduced_echelon_form(system):
    sympy = pytest.importorskip("sympy")
    m, b = system
    rref, pivots = _sympy_rref(sympy, m, b)
    assert m.cols not in pivots
    particular = {p: rref[i][m.cols] for i, p in enumerate(pivots) if rref[i][m.cols]}
    kernel = []
    for f in range(m.cols):
        if f not in pivots:
            vec = {f: ONE}
            vec.update({p: -rref[i][f] for i, p in enumerate(pivots) if rref[i][f]})
            kernel.append(vec)
    red = RowReducer()
    for row, rhs in zip(m.sparse_rows(), b):
        red.add_row(row, rhs)
    first = _read(red, m.cols)
    assert first == (particular, kernel)
    # Rows of the row space with three entries or fewer, against stored
    # reduced rows of four or more: each one takes over a pivot.
    for i, j in combinations(range(len(pivots)), 2):
        ui, uj = rref[i][m.cols - 1], rref[j][m.cols - 1]  # u times the last v
        comb = [uj * x - ui * y for x, y in zip(rref[i], rref[j])]
        row = {k: x for k, x in enumerate(comb[:-1]) if x}
        assert len(row) == 2 and not red.add_row(row, comb[-1])
    second = _read(red, m.cols)
    assert second == (particular, kernel)
    assert [list(v) for v in (second[0], *second[1])] == [list(v) for v in (first[0], *first[1])]


def _random_gaussian_rows(rng, ncols, gaussian):
    """Sparse Gaussian integer rows ``(re, im)``, with explicit zeros, rows of
    zeros, repeated rows and their multiples, and rows with a zero real part."""
    rows = []
    for _ in range(rng.randint(6, 24)):
        kind = rng.random()
        if kind < 0.1:
            rows.append(({rng.randrange(ncols): 0}, {}))  # vanishes on entry
        elif kind < 0.3 and rows:
            re, im = rng.choice(rows)
            k = rng.choice((1, -1, 2, -3))
            rows.append(({c: k * v for c, v in re.items()}, {c: k * v for c, v in im.items()}))
        else:
            size = rng.randint(1, ncols) if rng.random() < 0.3 else rng.randint(1, 3)
            cols = rng.sample(range(ncols), size)
            re, im = {c: rng.randint(-3, 3) for c in cols}, {}
            if gaussian and len(rows) > 2 and rng.random() < 0.5:  # real rows stored first
                im = {c: rng.randint(-2, 2) for c in rng.sample(cols, rng.randint(1, len(cols)))}
                if rng.random() < 0.2:
                    re = {}
            rows.append((re, im))
    return rows


def _lead(part):
    return min((c for c, v in part.items() if v), default=inf)


@pytest.mark.parametrize("gaussian", [False, True], ids=["integer", "Gaussian"])
def test_deferred_rows_read_as_rows_built_up_front(gaussian):
    # Differential guard: rows stored unbuilt and built when first read give
    # the reducer that the same rows fed built, through add_row, give.
    swapped = realified = unbuilt = 0
    for seed in range(60):
        rng = random.Random(seed)
        ncols = rng.randint(3, 12)
        rows = _random_gaussian_rows(rng, ncols, gaussian)
        deferred, eager = RowReducer(), RowReducer()
        deferred.add_deferred_rows(((i, _lead(re), _lead(im)) for i, (re, im) in enumerate(rows)),
                                   lambda i: tuple(dict(part) for part in rows[i]))
        for re, im in rows:
            eager.add_row({c: Scalar(re.get(c, 0), im.get(c, 0)) for c in {*re, *im}})
        swapped += eager._reduced == -1
        realified += eager.realified
        unbuilt += sum(type(row) is tuple for row in deferred.pivots.values())
        assert list(deferred.pivots) == list(eager.pivots)
        assert deferred.rank == eager.rank and deferred.realified == eager.realified
        assert deferred.rows == eager.rows
        assert deferred.pivots == eager.pivots
        assert all(all(row.values()) for row in deferred.rows)
        assert deferred.kernel_basis_sparse(ncols) == eager.kernel_basis_sparse(ncols)
        assert deferred.particular_sparse() == eager.particular_sparse() == {}
    assert swapped and unbuilt and bool(realified) == gaussian  # the cases were met


@pytest.mark.parametrize("gaussian", [False, True], ids=["integer", "Gaussian"])
def test_the_pivot_set_does_not_depend_on_row_order(gaussian):
    # The pivot columns are the leading columns of the row space, so rows fed
    # deferred or eager, in any order, give one rank, one pivot set and one
    # realification. Cohomology leaves out the cochains on d^(n-1)'s pivots.
    for seed in range(60):
        rng = random.Random(seed)
        ncols = rng.randint(3, 12)
        rows = _random_gaussian_rows(rng, ncols, gaussian)
        seen = set()
        for order in [rows] + [rng.sample(rows, len(rows)) for _ in range(3)]:
            deferred, eager = RowReducer(), RowReducer()
            deferred.add_deferred_rows(((i, _lead(re), _lead(im)) for i, (re, im) in enumerate(order)),
                                       lambda i: tuple(dict(part) for part in order[i]))
            for re, im in order:
                eager.add_row({c: Scalar(re.get(c, 0), im.get(c, 0)) for c in {*re, *im}})
            seen.update((red.rank, frozenset(red.pivots), red.realified) for red in (deferred, eager))
        assert len(seen) == 1, seed
