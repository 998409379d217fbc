"""Dense reference arithmetic for checking algdeform's outputs.

Everything here is written from the definitions, apart from the program's
sparse engine: a Gaussian rational is a pair ``(re, im)`` of
``fractions.Fraction``, a vector is a plain list of such pairs, a linear map
is a list of rows (column ``j`` is the image of basis vector ``j``), and a
bilinear product on a ``d``-dimensional space is ``P[a][b]``, the vector
``e_a * e_b``.  Nothing is imported from ``algdeform``; the benchmark
converts the program's outputs through their text form (:func:`parse`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product as iproduct

F0 = Fraction(0)
ZERO = (F0, F0)
ONE = (Fraction(1), F0)

_TOKEN = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)?(i))?$")


# -- Q(i) ------------------------------------------------------------------------


def gauss(re_part, im_part=0):
    return (Fraction(re_part), Fraction(im_part))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def nonzero(x):
    return bool(x[0]) or bool(x[1])


def parse(text):
    """Read the scalar grammar ``RAT | RATi | RAT(+|-)RATi``."""
    m = _TOKEN.match(text)
    if m is None:
        raise ValueError(f"bad scalar {text!r}")
    first, second, imag = m.groups()
    if imag is None:
        return (Fraction(first), F0)
    if second is None:
        return (F0, Fraction(first))
    return (Fraction(first), Fraction(second))


def fmt(x):
    """Canonical text of a scalar, in the grammar :func:`parse` reads."""
    re_part, im_part = x
    if not im_part:
        return str(re_part)
    if not re_part:
        return f"{im_part}i"
    sign = "+" if im_part > 0 else "-"
    return f"{re_part}{sign}{abs(im_part)}i"


# -- vectors and linear maps ----------------------------------------------------------


def zeros(d):
    return [ZERO] * d


def unit_vector(d, i):
    v = zeros(d)
    v[i] = ONE
    return v


def vadd(x, y):
    return [add(a, b) if b[0] or b[1] else a for a, b in zip(x, y)]


def vsub(x, y):
    return [sub(a, b) if b[0] or b[1] else a for a, b in zip(x, y)]


def axpy(acc, c, x):
    """In place: ``acc += c * x``."""
    for k, v in enumerate(x):
        if v[0] or v[1]:
            acc[k] = add(acc[k], mul(c, v))


def vscale(c, x):
    return [mul(c, a) for a in x]


def is_zero_vector(x):
    return not any(a[0] or a[1] for a in x)


def apply(m, x):
    """The map with rows ``m`` applied to the vector ``x``."""
    out = zeros(len(m))
    for j, xj in enumerate(x):
        if not nonzero(xj):
            continue
        for i, row in enumerate(m):
            if nonzero(row[j]):
                out[i] = add(out[i], mul(row[j], xj))
    return out


def map_add(m1, m2):
    return [vadd(r1, r2) for r1, r2 in zip(m1, m2)]


def identity_map(d):
    return [unit_vector(d, i) for i in range(d)]


# -- bilinear products given by structure constants ----------------------------------


def bilinear(p, x, y):
    """``p(x, y)`` for a product table ``p[a][b]`` and dense vectors."""
    out = zeros(len(x))
    ys = [(b, yb) for b, yb in enumerate(y) if nonzero(yb)]
    for a, xa in enumerate(x):
        if nonzero(xa):
            row = p[a]
            for b, yb in ys:
                axpy(out, mul(xa, yb), row[b])
    return out


def outer_left(p, q, a, b, c):
    """``p(q(e_a, e_b), e_c)``."""
    out = zeros(len(p))
    for m, v in enumerate(q[a][b]):
        if v[0] or v[1]:
            axpy(out, v, p[m][c])
    return out


def outer_right(p, q, a, b, c):
    """``p(e_a, q(e_b, e_c))``."""
    out = zeros(len(p))
    row = p[a]
    for m, v in enumerate(q[b][c]):
        if v[0] or v[1]:
            axpy(out, v, row[m])
    return out


def deformed(p, n):
    """``N(e_a) e_b + e_a N(e_b) - N(e_a e_b)`` for every basis pair."""
    d = len(n)
    images = [[n[i][j] for i in range(d)] for j in range(d)]
    out = []
    for a in range(d):
        ea = unit_vector(d, a)
        row = []
        for b in range(d):
            eb = unit_vector(d, b)
            v = vadd(bilinear(p, images[a], eb), bilinear(p, ea, images[b]))
            row.append(vsub(v, apply(n, p[a][b])))
        out.append(row)
    return out


def torsion(p, n):
    """``N(e_a o_N e_b) - N(e_a) N(e_b)`` for every basis pair."""
    d = len(n)
    images = [[n[i][j] for i in range(d)] for j in range(d)]
    q = deformed(p, n)
    return [
        [vsub(apply(n, q[a][b]), bilinear(p, images[a], images[b])) for b in range(d)]
        for a in range(d)
    ]


def associator(p, a, b, c):
    return vsub(outer_left(p, p, a, b, c), outer_right(p, p, a, b, c))


def mixed_associator(p1, p2, a, b, c):
    """``p1(p2(a,b),c) + p2(p1(a,b),c) - p1(a,p2(b,c)) - p2(a,p1(b,c))``."""
    acc = vadd(outer_left(p1, p2, a, b, c), outer_left(p2, p1, a, b, c))
    acc = vsub(acc, outer_right(p1, p2, a, b, c))
    return vsub(acc, outer_right(p2, p1, a, b, c))


def first_nonzero_triple(fn, d):
    """Lexicographically first basis triple where ``fn`` is nonzero, or None."""
    for a, b, c in iproduct(range(d), repeat=3):
        if not is_zero_vector(fn(a, b, c)):
            return (a, b, c)
    return None


def first_nonzero_pair(table):
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if not is_zero_vector(v):
                return (a, b)
    return None


def is_associative(p):
    return first_nonzero_triple(lambda a, b, c: associator(p, a, b, c), len(p)) is None


def compatible(p1, p2):
    """Mixed associators of the two products cancel on every basis triple."""
    fn = lambda a, b, c: mixed_associator(p1, p2, a, b, c)
    return first_nonzero_triple(fn, len(p1)) is None


def commutator_table(p):
    d = len(p)
    return [[vsub(p[a][b], p[b][a]) for b in range(d)] for a in range(d)]


def lie_torsion_zero(p, n):
    """``N([A,B]_N) = [N(A), N(B)]`` on basis pairs, brackets being commutators."""
    d = len(n)
    images = [[n[i][j] for i in range(d)] for j in range(d)]
    bracket = commutator_table(deformed(p, n))
    for a in range(d):
        for b in range(d):
            rhs = vsub(bilinear(p, images[a], images[b]), bilinear(p, images[b], images[a]))
            if not is_zero_vector(vsub(apply(n, bracket[a][b]), rhs)):
                return False
    return True


def is_derivation(p, dmap):
    """Leibniz rule ``D(a b) = D(a) b + a D(b)`` on basis pairs."""
    d = len(dmap)
    images = [[dmap[i][j] for i in range(d)] for j in range(d)]
    for a in range(d):
        for b in range(d):
            rhs = vadd(bilinear(p, images[a], unit_vector(d, b)),
                       bilinear(p, unit_vector(d, a), images[b]))
            if not is_zero_vector(vsub(apply(dmap, p[a][b]), rhs)):
                return False
    return True


def commutator_map(p, h):
    """Rows of ``B -> h o B - B o h``."""
    d = len(h)
    cols = [vsub(bilinear(p, h, unit_vector(d, j)), bilinear(p, unit_vector(d, j), h))
            for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def inner_generator(p, dmap):
    """Some ``h`` with ``h o e_j - e_j o h = D(e_j)`` for all j, or None."""
    d = len(dmap)
    rows, rhs = [], []
    # ad_h is linear in h: column g of the system is ad_{e_g}.
    ads = [commutator_map(p, unit_vector(d, g)) for g in range(d)]
    for j in range(d):
        for c in range(d):
            rows.append([ads[g][c][j] for g in range(d)])
            rhs.append(dmap[c][j])
    return solve(rows, rhs, d)


def jacobi_holds(bracket):
    """The Jacobi identity for a bracket table on every basis triple."""
    d = len(bracket)
    for a, b, c in iproduct(range(d), repeat=3):
        total = vadd(outer_left(bracket, bracket, a, b, c), outer_left(bracket, bracket, b, c, a))
        total = vadd(total, outer_left(bracket, bracket, c, a, b))
        if not is_zero_vector(total):
            return False
    return True


def unit_of(p):
    """The two-sided unit of a product, or None."""
    d = len(p)
    rows, rhs = [], []
    for j in range(d):
        for c in range(d):
            rows.append([p[g][j][c] for g in range(d)])
            rhs.append(ONE if c == j else ZERO)
            rows.append([p[j][g][c] for g in range(d)])
            rhs.append(ONE if c == j else ZERO)
    return solve(rows, rhs, d)


def solve(rows, rhs, ncols):
    """One solution of the dense system ``rows x = rhs``, or None (Gauss-Jordan)."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if nonzero(aug[i][c])), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        lead = inv(aug[r][c])
        aug[r] = [mul(lead, v) for v in aug[r]]
        for i in range(len(aug)):
            if i != r and nonzero(aug[i][c]):
                f = aug[i][c]
                aug[i] = [sub(v, mul(f, w)) for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(nonzero(row[ncols]) for row in aug[r:]):
        return None
    x = zeros(ncols)
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


# -- concrete algebras ----------------------------------------------------------------


def matrix_units(n):
    """Structure constants of n x n matrices, basis E_pq in row-major order."""
    d = n * n
    p = [[zeros(d) for _ in range(d)] for _ in range(d)]
    for a, b, c in iproduct(range(n), repeat=3):
        p[a * n + b][b * n + c][a * n + c] = ONE
    return p


def upper_triangular(n):
    """Structure constants of upper-triangular n x n matrices, E_pq with p <= q."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    index = {pq: i for i, pq in enumerate(pairs)}
    d = len(pairs)
    p = [[zeros(d) for _ in range(d)] for _ in range(d)]
    for (a, b), i in index.items():
        for c in range(b, n):
            p[i][index[(b, c)]][index[(a, c)]] = ONE
    return p


def dual_numbers():
    """Basis (1, eps) with eps^2 = 0."""
    p = [[zeros(2) for _ in range(2)] for _ in range(2)]
    p[0][0][0] = p[0][1][1] = p[1][0][1] = ONE
    return p


def split_quaternions():
    """Basis (I, A, B, C) with A^2 = B^2 = I, C^2 = -I, AB = C = -BA."""
    # Realised as 2x2 matrices: A = diag(1, -1), B = [[0,1],[1,0]], C = AB.
    mats = [
        [[1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[0, 1], [-1, 0]],
    ]
    p = [[zeros(4) for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            prod = [[sum(mats[a][i][k] * mats[b][k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]
            # Every product is +-1 times one basis matrix.
            for c in range(4):
                for sign in (1, -1):
                    if prod == [[sign * v for v in row] for row in mats[c]]:
                        p[a][b][c] = gauss(sign)
    return p


def change_basis(p, cols, cols_inv):
    """Structure constants in the basis ``f_j = sum_i cols[i][j] e_i``."""
    d = len(p)
    out = [[zeros(d) for _ in range(d)] for _ in range(d)]
    fvecs = [[cols[i][j] for i in range(d)] for j in range(d)]
    for a in range(d):
        for b in range(d):
            out[a][b] = apply(cols_inv, bilinear(p, fvecs[a], fvecs[b]))
    return out
