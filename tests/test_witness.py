"""The witness engine against the tables it avoids building.

``tables.Sweep.witness``, from a fresh or from a reused sweep, must return
what ``first_witness`` returns on the materialised sum: the lexicographically
smallest failing tuple and the residual vector there, as ``{index: Scalar}``.
A sum kept by ``Sweep.kept_sum`` must hold the integers of the materialised
sum's form, and later sums must read it as they read that table.
Tables are drawn at random, so most are not associative, with fractional,
negative and purely imaginary entries; operators have denominators too.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from algdeform import tables
from algdeform.algebra import full_matrix_algebra, upper_triangular_algebra
from algdeform.scalar import MINUS_ONE, ONE, Scalar
from algdeform.tables import (
    Compose,
    Insert,
    Sweep,
    associator_table,
    associator_terms,
    deform_terms,
    first_witness,
    mixed_associator_table,
    mixed_associator_terms,
    table_of,
)

SETTINGS = settings(max_examples=80, deadline=None)

REALS = [Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3)]
# Real and Gaussian integers, read by the sweep unscaled; Gaussian entries
# whose parts have denominators 1, 2 and 3, mixed within one table.
INTEGER_ENTRIES = st.one_of(st.sampled_from([-3, -1, 1, 2, 5]).map(Scalar),
                            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda t: Scalar(*t)))
MIXED_ENTRIES = st.tuples(st.sampled_from(REALS), st.sampled_from(REALS)).map(lambda t: Scalar(*t))


def scalars(gaussian):
    real = st.sampled_from(REALS)
    if not gaussian:
        return real.map(Scalar)
    imaginary = real.map(lambda r: Scalar(0, r))
    return st.one_of(real.map(Scalar), imaginary, st.tuples(real, real).map(lambda t: Scalar(*t)))


@st.composite
def problems(draw, entries=None):
    """(dim, two tables, two operators' columns, a coefficient) on one field,
    or with every entry drawn from ``entries``."""
    dim = draw(st.integers(1, 4))
    sc = entries
    if sc is None:
        gaussian = draw(st.booleans())
        event("Gaussian" if gaussian else "real")
        sc = scalars(gaussian)

    def vec():
        return {k: draw(sc) for k in range(dim) if draw(st.booleans())}

    def table():
        return {(a, b): v for a in range(dim) for b in range(dim) if (v := vec())}

    return dim, table(), table(), [vec() for _ in range(dim)], [vec() for _ in range(dim)], draw(sc)


def assert_same(dim, terms, materialised):
    expected = first_witness(materialised)
    got = Sweep(dim).witness(terms)
    assert got == expected
    event("witness" if got else "zero")
    if got is not None:
        assert all(type(v) is Scalar and v for v in got[1].values())


@SETTINGS
@given(problems())
def test_associator_witness_matches_the_table(prob):
    dim, t1, _, _, _, _ = prob
    assert_same(dim, associator_terms(t1), associator_table(t1))


@SETTINGS
@given(problems())
def test_mixed_associator_witness_matches_the_table(prob):
    dim, t1, t2, _, _, _ = prob
    assert_same(dim, mixed_associator_terms(t1, t2), mixed_associator_table(t1, t2))


@SETTINGS
@given(problems())
def test_compose_sum_witness_matches_the_table(prob):
    dim, t1, t2, n1, n2, coef = prob
    terms = deform_terms(coef, t1, n1) + [
        Compose(MINUS_ONE, t2),
        Compose(coef, t2, outer=n2, inner=(n1, None)),
        Compose(ONE, t1, inner=(n2, n2)),
        Compose(MINUS_ONE, t1, outer=n1, inner=(None, n2)),
    ]
    assert_same(dim, terms, table_of(terms))


@SETTINGS
@given(problems())
def test_one_sweep_serves_many_sums(prob):
    dim, t1, t2, n1, n2, coef = prob
    sweep = Sweep(dim)
    sums = [
        associator_terms(t1),
        mixed_associator_terms(t1, t2),
        deform_terms(coef, t1, n1) + [Compose(MINUS_ONE, t2, outer=n2)],
        associator_terms(t2),
        [Compose(ONE, t1, outer=n2), Compose(MINUS_ONE, t2, inner=(n2, n2))],
        mixed_associator_terms(t2, t1),
    ]
    for terms in sums:
        assert sweep.witness(terms) == first_witness(table_of(terms))


def form_entries(form):
    """A form's scale and its integers, keyed by (phase, row, output)."""
    d, parts, _ = form
    return d, {(phase, t, k): v for phase, part in parts for t, k, v in part}


@SETTINGS
@given(problems())
def test_a_kept_sum_reads_like_its_table(prob):
    """A sum kept by the sweep holds the integers of the built table's form,
    and later sums, compose or insert, read it as they read the table."""
    dim, t1, t2, n1, n2, coef = prob
    kept = deform_terms(coef, t1, n1) + [Compose(MINUS_ONE, t2, outer=n2, inner=(None, n1))]
    sweep, table = Sweep(dim), table_of(kept)
    handle = sweep.kept_sum(kept)
    assert form_entries(sweep._form(handle)) == form_entries(Sweep(dim)._form(table))
    event("zero" if not table else "nonzero")
    for build in (associator_terms,
                  lambda t: mixed_associator_terms(t, t2),
                  lambda t: [Compose(ONE, t, outer=n1), Compose(MINUS_ONE, t1, inner=(n2, n2))]):
        assert sweep.witness(build(handle)) == first_witness(table_of(build(table)))
    with pytest.raises(ValueError):
        sweep.kept_sum(associator_terms(t1))


def test_zero_sums_have_no_witness():
    t = {(0, 1): {1: Scalar(Fraction(1, 2), 3)}, (1, 1): {0: Scalar(0, -1)}}
    for dim, terms in [
        (2, associator_terms({})),
        (2, mixed_associator_terms(t, {})),
        (2, [Compose(ONE, t), Compose(MINUS_ONE, t)]),
        (2, [Compose(Scalar(0, 2), t, outer=[{}, {}])]),
        (2, []),
        (9, associator_terms(full_matrix_algebra(3).structure)),
    ]:
        assert Sweep(dim).witness(terms) is None


def test_real_table_witness_and_residual():
    # T3 deformed by the transpose-like swap of E11 and E33 is not associative.
    alg = upper_triangular_algebra(3)
    swap = [{5: ONE}, {1: ONE}, {2: ONE}, {3: ONE}, {4: ONE}, {0: Scalar(Fraction(1, 2))}]
    prod = table_of(deform_terms(ONE, alg.structure, swap))
    witness = Sweep(alg.dim).witness(associator_terms(prod))
    assert witness is not None and witness == first_witness(associator_table(prod))
    assert all(not v.b for v in witness[1].values())


def test_terms_must_share_one_arity_and_slot():
    t = {(0, 0): {0: ONE}}
    with pytest.raises(ValueError):
        Sweep(1).witness([Insert(ONE, t, t, 0), Compose(ONE, t)])
    with pytest.raises(ValueError):
        Sweep(1).witness([Insert(ONE, t, t, 2)])


def assert_rows_listed_once(sweep, table):
    """The first-slot index that the kernel reads lists each row (a, m) of
    each part of the form once, with all the entries of that row."""
    _, parts = sweep._indexed(table, tables._ROWS)
    rows = [((phase, (a, m)), entries) for phase, index in parts
            for a, listed in index.items() for m, entries in listed]
    assert len({key for key, _ in rows}) == len(rows)
    assert {(*key, k): v for key, entries in rows for k, v in entries} == form_entries(sweep._form(table))[1]


@SETTINGS
@given(st.sampled_from([INTEGER_ENTRIES, MIXED_ENTRIES]).flatmap(problems))
def test_integer_and_mixed_denominator_sums_witness_as_their_tables(prob):
    """The forms of integer tables and operators are read unscaled, those with
    mixed denominators over their lcm; either way a form holds only nonzero
    ints, and every kind of sum, kept or not, gives its built table's witness."""
    dim, t1, t2, n1, n2, coef = prob
    sweep, objects = Sweep(dim), (t1, t2, n1, n2)
    forms = [sweep._form(obj) for obj in objects]
    assert all(type(v) is int and v for _, parts, _ in forms for _, part in parts for _, _, v in part)
    dens = {v.d for obj in objects for vec in (obj.values() if isinstance(obj, dict) else obj)
            for v in vec.values()}
    event("every denominator 1" if dens <= {1} else "mixed denominators" if len(dens) > 1
          else "one denominator above 1")
    for terms in (associator_terms(t1), mixed_associator_terms(t1, t2),
                  deform_terms(coef, t1, n1) + [Compose(MINUS_ONE, t2, outer=n2, inner=(n2, None))]):
        assert sweep.witness(terms) == first_witness(table_of(terms))
    kept = deform_terms(coef, t1, n1) + [Compose(MINUS_ONE, t2, inner=(n2, n1))]
    handle = sweep.kept_sum(kept)
    assert form_entries(sweep._form(handle)) == form_entries(Sweep(dim)._form(table_of(kept)))
    assert sweep.witness(associator_terms(handle)) == first_witness(associator_table(table_of(kept)))
    for table in (t1, t2, handle):
        assert_rows_listed_once(sweep, table)


def test_a_kept_sum_divides_its_scale_by_the_gcd_of_its_entries():
    """A sixth of a table whose integers are all even is summed at scale 6 and
    kept over 3, as the built table's form is."""
    t = {(0, 0): {0: Scalar(6)}, (0, 1): {1: Scalar(0, 4)}, (1, 1): {0: Scalar(2, 8)}}
    terms = [Compose(Scalar(Fraction(1, 6)), t)]
    sweep, table = Sweep(2), table_of(terms)
    handle = sweep.kept_sum(terms)
    assert form_entries(sweep._form(handle)) == form_entries(Sweep(2)._form(table)) == (
        3, {(0, (0, 0), 0): 3, (0, (1, 1), 0): 1, (1, (0, 1), 1): 2, (1, (1, 1), 0): 4})
    assert sweep.witness(associator_terms(handle)) == first_witness(associator_table(table))


def test_each_form_is_built_once_per_sweep(monkeypatch):
    """Terms that name one table or operator several times, later sums on the
    same sweep and a kept sum share the forms: one build per object."""
    mu, built, build = full_matrix_algebra(2).structure, [], tables._int_form
    monkeypatch.setattr(tables, "_int_form", lambda items: built.append(1) or build(items))
    n = [{0: ONE, 1: Scalar(0, 1)}, {1: Scalar(Fraction(1, 2))}, {}, {3: MINUS_ONE}]
    sweep = Sweep(4)
    sweep.witness(associator_terms(mu))
    assert len(built) == 1
    sweep.witness([Compose(ONE, mu, n, (n, None)), Compose(ONE, mu, n, (None, n)),
                   Compose(MINUS_ONE, mu, inner=(n, n))])
    assert len(built) == 2
    sweep.witness(mixed_associator_terms(mu, mu))
    handle = sweep.kept_sum(deform_terms(ONE, mu, n))
    sweep.witness(associator_terms(handle) + mixed_associator_terms(handle, mu))
    assert len(built) == 2
