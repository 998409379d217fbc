import json
import tracemalloc
from unittest import mock

import pytest

from algdeform.algebra import (
    Algebra,
    Element,
    Operator,
    banded_oscillator_algebra,
    decompose,
    diagonal_split,
    dual_number_algebra,
    full_matrix_algebra,
    matrix_unit_index,
    split_quaternion_algebra,
    transpose_operator,
    triangular_split,
    upper_triangular_algebra,
)
from algdeform.documents import (
    algebra_from_doc,
    algebra_to_doc,
    decomposition_from_doc,
    operator_from_doc,
    operator_to_doc,
)
from algdeform.errors import (
    SIZE_GUARD,
    AlgebraError,
    DocumentError,
    PreconditionError,
    SizeGuardError,
    check_size,
)
from algdeform.hochschild import Cochain
from algdeform.scalar import ONE, ZERO, Scalar, as_scalar


def units(n):
    alg = full_matrix_algebra(n)
    return alg, {
        (p, q): alg.basis_element(matrix_unit_index(n, p, q))
        for p in range(n)
        for q in range(n)
    }


def test_matrix_units_multiplication():
    alg, E = units(2)
    assert E[(0, 1)] * E[(1, 0)] == E[(0, 0)]
    assert (E[(0, 1)] * E[(0, 1)]).is_zero
    assert alg.unit * E[(0, 1)] == E[(0, 1)]


def test_m3_unit_coordinates():
    alg = full_matrix_algebra(3)
    assert alg.dim == 9
    dense = alg.unit.dense()
    expected = [ONE if i in (0, 4, 8) else Scalar(0) for i in range(9)]
    assert dense == expected


def test_upper_triangular():
    alg = upper_triangular_algebra(3)
    assert alg.dim == 6
    by_label = {label: alg.basis_element(i) for i, label in enumerate(alg.basis)}
    assert by_label["E11"] * by_label["E12"] == by_label["E12"]
    assert by_label["E12"] * by_label["E23"] == by_label["E13"]
    assert (by_label["E12"] * by_label["E12"]).is_zero
    assert alg.unit is not None


def test_every_builder_is_associative_and_unital():
    for alg in (
        full_matrix_algebra(2),
        full_matrix_algebra(3),
        upper_triangular_algebra(3),
        dual_number_algebra(),
        split_quaternion_algebra(),
    ):
        assert alg.associativity_witness() is None
        u = alg.unit
        for j in range(alg.dim):
            ej = alg.basis_element(j)
            assert u * ej == ej and ej * u == ej


def test_oscillator_ladder_identities():
    for dim in (2, 5, 8):
        alg, a, adag, h = banded_oscillator_algebra(dim)
        assert adag * a == h
        top = alg.basis_element(matrix_unit_index(dim, dim - 1, dim - 1))
        assert a * adag - adag * a == alg.unit - dim * top
        assert h * adag - adag * h == adag
        assert a * h - h * a == a
        assert alg.metadata["band"] == 1


def test_oscillator_algebra_reuses_the_checked_matrix_table():
    base = full_matrix_algebra(5)
    with mock.patch.object(Algebra, "associativity_witness") as check:
        alg, a, adag, h = banded_oscillator_algebra(5, band=2)
    check.assert_not_called()
    assert (alg.name, alg.dim, alg.metadata) == ("Osc5", 25, {"band": 2, "truncation_of": "oscillator"})
    assert alg.structure == base.structure and alg.basis == base.basis
    assert alg.unit.algebra is alg and alg.unit.coords == base.unit.coords
    assert a.algebra is alg and adag * a == h
    assert (base.name, base.metadata, base.unit.algebra) == ("M5", {}, base)


def test_oscillator_preconditions():
    with pytest.raises(AlgebraError):
        banded_oscillator_algebra(1)
    with pytest.raises(AlgebraError):
        banded_oscillator_algebra(4, band=0)


def test_dual_numbers():
    alg = dual_number_algebra()
    eps = alg.basis_element(1)
    assert (eps * eps).is_zero
    assert alg.unit == alg.basis_element(0)


def test_split_quaternion_matches_matrix_realization():
    # the abstract table reproduces ordinary 2x2 matrix products of
    # I, diag(1,-1), the swap, and the quarter turn
    sq = split_quaternion_algebra()
    m2, E = units(2)
    real = {
        0: m2.unit,
        1: E[(0, 0)] - E[(1, 1)],
        2: E[(0, 1)] + E[(1, 0)],
        3: E[(0, 1)] - E[(1, 0)],
    }
    for i in range(4):
        for j in range(4):
            product = sq.basis_element(i) * sq.basis_element(j)
            expected = real[i] * real[j]
            realized = sum(
                (v * real[k] for k, v in product.coords.items()),
                m2.zero(),
            )
            assert realized == expected, (i, j)
    C = sq.basis_element(3)
    assert C * C == -1 * sq.unit


def test_multiply_rejects_algebra_mismatch():
    a = full_matrix_algebra(2)
    b = dual_number_algebra()
    with pytest.raises(AlgebraError):
        a.basis_element(0) * b.basis_element(0)


def test_element_arithmetic():
    alg = full_matrix_algebra(2)
    x = alg.element([1, 2, 0, "1/2"])
    y = alg.basis_element(0)
    assert (x + y).coeff(0) == Scalar(2)
    assert (x - x).is_zero
    assert (3 * x).coeff(1) == Scalar(6)
    assert x.dense()[3] == Scalar("1/2", 0) or str(x.dense()[3]) == "1/2"


def test_operator_basics():
    alg = full_matrix_algebra(2)
    T = transpose_operator(alg)
    E01 = alg.basis_element(1)
    E10 = alg.basis_element(2)
    assert T(E01) == E10
    assert (T @ T) == Operator.identity(alg)
    assert T.power(2) == Operator.identity(alg)
    K = alg.element({0: 1, 3: 2})
    NK = Operator.left_multiplication(K)
    assert NK(E01) == E01
    assert NK(E10) == 2 * E10
    assert (NK + NK)(E10) == 4 * E10
    rows = NK.to_matrix_rows()
    assert operator_from_doc(alg, operator_to_doc(NK)) == NK
    assert rows[2][2] == Scalar(2)


def _owns_its_columns(op):
    """No zero entry, and no column dict shared with another column."""
    cols = op.columns
    return (len(cols) == op.algebra.dim and len({id(c) for c in cols}) == len(cols)
            and all(v for col in cols for v in col.values()))


def test_operators_built_without_a_copy_hold_fresh_zero_free_columns():
    """Operator documents, matrix rows, projectors and products hand their
    columns to the operator uncopied; each column must be new and zero-free."""
    alg = full_matrix_algebra(2)
    texts = [["1", "0", "-0", "1/2"], ["0/3", "0i", "0+0i", "2i"], ["00", "1/2", "0", "0"],
             ["1", "1/2", "3-1i", "0"]]
    want = Operator(alg, [{i: as_scalar(texts[i][j]) for i in range(4)} for j in range(4)])
    from_doc = operator_from_doc(alg, {"algebra": "M2", "matrix": texts})
    assert from_doc.columns[2] == {3: Scalar(3, -1)}  # "-0", "0+0i" and "00" are dropped
    dec = triangular_split(alg)
    p1, p2 = dec.projector(1), dec.projector(2)
    for op in (from_doc, Operator.from_matrix_rows(alg, texts)):
        assert op == want and _owns_its_columns(op)
    for op in (p1, p2, p1 @ p2, p1 @ p1, from_doc @ from_doc, from_doc @ p2):
        assert _owns_its_columns(op)
    assert p1 @ p2 == Operator.zero(alg) and p1 @ p1 == p1 and p1 + p2 == Operator.identity(alg)


@pytest.mark.parametrize("index", [True, False, 1.0, "0", None, -1, 2])
def test_structure_indices_must_be_ints_in_range(index):
    doc = algebra_to_doc(dual_number_algebra())
    doc["structure"].append([1, index, 1, "3"])
    with pytest.raises(DocumentError, match=f"structure index {index!r} out of range"):
        algebra_from_doc(doc)


def test_equal_objects_hash_equally_and_mutable_ones_do_not_hash():
    alg = full_matrix_algebra(2)
    x, y = alg.element({0: ZERO}), alg.element({})
    assert x == y and hash(x) == hash(y)
    assert alg.element({1: 2, 0: 1}) == alg.element({0: 1, 1: 2})
    assert hash(alg.element({1: 2, 0: 1})) == hash(alg.element({0: 1, 1: 2}))
    # Operators and cochains compare by value and can change in place.
    for a, b in ((Operator.identity(alg), Operator.identity(alg)),
                 (Cochain.product_cochain(alg), Cochain.product_cochain(alg))):
        assert a == b
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("alg", [full_matrix_algebra(2), dual_number_algebra(),
                                 split_quaternion_algebra()], ids=lambda alg: alg.name)
def test_elements_operators_and_cochains_share_one_linear_structure(alg):
    """An element is an arity-0 cochain and an operator an arity-1 one: the
    cochain of a sum, difference, negative or Gaussian multiple is the same
    combination of cochains. A kind never equals its cochain, and mixing
    kinds, algebras or arities raises the kind's own error."""
    s = Scalar("1/2", 1)
    d = alg.dim
    x = alg.element([Scalar(k + 1, k % 2) for k in range(d)])
    y = alg.element({0: 3, d - 1: Scalar(0, -1)})
    f = Operator.left_multiplication(x)
    g = Operator.from_matrix_rows(alg, [[Scalar(i - j, i * j) for j in range(d)] for i in range(d)])
    for wrap, a, b in ((Cochain.from_element, x, y), (Cochain.from_operator, f, g)):
        assert wrap(a + b) == wrap(a) + wrap(b)
        assert wrap(a - b) == wrap(a) - wrap(b)
        assert wrap(-a) == -wrap(a) == wrap((-1) * a)
        assert wrap(s * a) == s * wrap(a) and wrap(0 * a).is_zero
        assert (a - a).is_zero and not a.is_zero
        assert a != wrap(a) and wrap(a) != a
    assert (-f)(y) == -f(y) and x * s == s * x
    mu = Cochain.product_cochain(alg)
    stranger = upper_triangular_algebra(2).basis_element(0)
    mismatched = [(f, 1, AlgebraError), (x, f, AlgebraError), (f, x, AlgebraError),
                  (x, stranger, AlgebraError), (f, Cochain.from_operator(f), AlgebraError),
                  (mu, alg.basis_element(0), PreconditionError),
                  (mu, Cochain.from_operator(f), PreconditionError)]
    for a, b, error in mismatched:
        with pytest.raises(error):
            a + b
        with pytest.raises(error):
            a - b


def test_equality_compares_entries_on_one_algebra_and_arity():
    """``==`` on elements, operators and cochains reads an explicit zero entry
    or an empty row as an absent one, in either order. The same entries on
    another algebra of the same dimension, or a cochain of another arity, even
    the zero one, are not equal."""
    alg, other, s = full_matrix_algebra(2), split_quaternion_algebra(), Scalar(0, 1)
    x = alg.element({0: 1, 3: s})
    padded = Element(alg, {0: ONE, 1: ZERO, 3: s})
    assert padded == x and x == padded
    assert x != alg.element({0: 1}) and x != alg.element({0: 1, 3: -s}) and x != Element(other, x.coords)
    f = Operator.left_multiplication(x)
    padded = Operator.left_multiplication(x)
    padded.columns[1][2] = ZERO
    assert padded == f and f == padded
    assert f != Operator.identity(alg) and f != Operator(other, f.columns)
    mu, padded = Cochain.product_cochain(alg), Cochain.product_cochain(alg)
    padded.table[(0, 3)] = {}
    padded.table[(0, 0)][1] = ZERO
    assert padded == mu and mu == padded
    assert mu != Cochain(alg, 2, {**alg.structure, (0, 3): {0: ONE}})
    assert mu != Cochain(other, 2, alg.structure)
    assert Cochain(alg, 1, {}) != Cochain(alg, 2, {}) and Cochain.from_operator(f) != mu


def test_decomposition_flags_and_projections():
    m2 = full_matrix_algebra(2)
    dec = triangular_split(m2)
    assert dec.part1_closed and dec.part2_closed
    E21 = m2.basis_element(2)
    assert dec.project(E21, 1).is_zero
    x = m2.element([1, 2, 3, 4])
    assert dec.project(x, 1) + dec.project(x, 2) == x
    P1 = dec.projector(1)
    assert P1 @ P1 == P1

    sq = split_quaternion_algebra()
    dec2 = decompose(sq, [0, 3])
    assert dec2.part1_closed and not dec2.part2_closed

    whole = decompose(m2, range(4))
    assert whole.part2 == () and whole.part2_closed

    dd = diagonal_split(m2)
    assert dd.part1_closed and not dd.part2_closed


def test_project_on_mixed_element():
    m2 = full_matrix_algebra(2)
    dec = triangular_split(m2)
    x = m2.basis_element(0) + m2.basis_element(2)  # E11 + E21
    assert dec.project(x, 1) == m2.basis_element(0)
    with pytest.raises(AlgebraError, match="^algebra mismatch$"):
        dec.project(split_quaternion_algebra().basis_element(0), 1)
    with pytest.raises(AlgebraError, match="^part must be 1 or 2$"):
        dec.project(x, 3)


def test_algebra_document_round_trip():
    alg = full_matrix_algebra(2)
    doc = algebra_to_doc(alg)
    loaded = algebra_from_doc(json.loads(json.dumps(doc)))
    assert loaded.dim == alg.dim
    assert loaded.structure == alg.structure
    assert loaded.unit is not None
    assert loaded.unit.coords == alg.unit.coords


def test_unit_discovery_from_document():
    doc = algebra_to_doc(full_matrix_algebra(2))
    del doc["unit"]
    loaded = algebra_from_doc(doc)
    assert loaded.unit is not None
    assert loaded.unit.coords == full_matrix_algebra(2).unit.coords


def test_load_rejects_non_associative():
    # e1*e1 = e2, e1*e2 = e1, e2*anything = 0: (e1 e1) e1 = 0 but e1 (e1 e1) = e1
    doc = {
        "name": "bad",
        "dim": 2,
        "basis": ["e1", "e2"],
        "structure": [[0, 0, 1, "1"], [0, 1, 0, "1"]],
    }
    with pytest.raises(AlgebraError):
        algebra_from_doc(doc)


def test_load_rejects_false_unit():
    doc = algebra_to_doc(full_matrix_algebra(2))
    doc["unit"] = ["1", "0", "0", "0"]  # E11 is not a unit
    with pytest.raises(AlgebraError):
        algebra_from_doc(doc)


def test_load_dual_numbers_document():
    doc = {
        "name": "dual",
        "dim": 2,
        "basis": ["1", "eps"],
        "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    }
    alg = algebra_from_doc(doc)
    assert alg.dim == 2
    eps = alg.basis_element(1)
    assert (eps * eps).is_zero
    assert alg.unit == alg.basis_element(0)
    # commutative
    x = alg.element([1, 2])
    y = alg.element([3, "1/2"])
    assert x * y == y * x


def test_document_validation_errors():
    with pytest.raises(DocumentError):
        algebra_from_doc({"name": "x", "dim": 1, "basis": ["e"]})
    with pytest.raises(DocumentError):
        algebra_from_doc(
            {"name": "x", "dim": 1, "basis": ["e"], "structure": [[0, 0, 5, "1"]]}
        )
    with pytest.raises(DocumentError):
        algebra_from_doc(
            {"name": "x", "dim": 1, "basis": ["e"], "structure": [[0, 0, 0, "1.5"]]}
        )
    alg = full_matrix_algebra(2)
    with pytest.raises(DocumentError):
        operator_from_doc(alg, {"algebra": "M2", "matrix": [["1"]]})
    with pytest.raises(DocumentError):
        operator_from_doc(alg, {"algebra": "other", "matrix": [["0"] * 4] * 4})
    with pytest.raises(DocumentError):
        decomposition_from_doc(alg, {"part1": [0, 9]})


def test_no_unit_algebra_discovery():
    # strictly upper triangular 2x2: one-dimensional, zero product, no unit
    doc = {"name": "nil", "dim": 1, "basis": ["n"], "structure": []}
    alg = algebra_from_doc(doc)
    assert alg.unit is None


def test_matrix_algebra_beyond_the_size_guard_is_refused_before_allocating():
    # M_n has n^4 nonzero basis triples: 31^4 = 923 521 fits, 32^4 = 1 048 576 does not.
    assert 31 ** 4 <= SIZE_GUARD < 32 ** 4
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            full_matrix_algebra(32)
        with pytest.raises(SizeGuardError):
            banded_oscillator_algebra(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Building M32 would start with 1 024 basis labels and 32 768 table rows.
    assert peak < 64 * 1024


def test_size_guard_bound_is_inclusive():
    check_size("count", SIZE_GUARD)
    with pytest.raises(SizeGuardError, match="exceeds the size guard"):
        check_size("count", SIZE_GUARD + 1)
