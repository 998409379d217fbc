import importlib
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from algdeform.algebra import (
    Operator,
    banded_oscillator_algebra,
    diagonal_split,
    dual_number_algebra,
    full_matrix_algebra,
    matrix_unit_index,
    transpose_operator,
    triangular_split,
    upper_triangular_algebra,
)
from algdeform.deform import (
    Product,
    deform,
    mu_product,
    product_sum,
    projection_tensor,
    sum_bracket_satisfies_jacobi,
)
from algdeform.dynamics import (
    commutator_derivation,
    example_check,
    in_span,
    inner_generator,
    is_bi_hamiltonian,
    is_derivation,
)
from algdeform.dynamics import _diag_element, _diagonal_rescaling_product
from algdeform.errors import PreconditionError
from algdeform.hochschild import Cochain, is_cocycle
from algdeform.scalar import Scalar
from algdeform.tables import Insert, Sweep


def random_operator(rng, alg, span=3):
    return Operator(
        alg,
        [{i: Scalar(rng.randint(-span, span)) for i in range(alg.dim)} for _ in range(alg.dim)],
    )


def test_commutator_derivation_satisfies_leibniz():
    rng = random.Random(21)
    alg = full_matrix_algebra(2)
    mu = mu_product(alg)
    for _ in range(10):
        h = alg.element({i: Scalar(rng.randint(-3, 3)) for i in range(4)})
        d = commutator_derivation(h, mu)
        ok, _ = is_derivation(d, mu)
        assert ok


def test_transpose_is_not_a_derivation():
    alg = full_matrix_algebra(2)
    ok, witness = is_derivation(transpose_operator(alg), mu_product(alg))
    assert not ok and witness is not None


def test_operator_is_derivation_iff_one_cocycle():
    rng = random.Random(22)
    for alg in (full_matrix_algebra(2), dual_number_algebra()):
        mu = mu_product(alg)
        for _ in range(20):
            n = random_operator(rng, alg)
            ok, _ = is_derivation(n, mu)
            assert ok == is_cocycle(Cochain.from_operator(n))


def test_commutator_with_unit_is_zero():
    alg = full_matrix_algebra(2)
    assert commutator_derivation(alg.unit, mu_product(alg)).is_zero


def test_oscillator_number_operator_dynamics():
    alg, a, adag, h = banded_oscillator_algebra(6)
    d = commutator_derivation(h, mu_product(alg))
    assert d(adag) == adag
    assert d(a) == -1 * a


def test_rescaled_product_commutator_matches_rescaled_generator():
    # for the diagonal-rescaling product, ad_h equals the plain commutator
    # with K h whenever h is diagonal
    dim = 4
    alg, a, adag, h = banded_oscillator_algebra(dim)
    k = _diag_element(alg, dim, range(1, dim + 1))
    prod = _diagonal_rescaling_product(alg, dim, k)
    mu = mu_product(alg)
    rng = random.Random(23)
    for _ in range(5):
        hdiag = alg.element(
            {matrix_unit_index(dim, p, p): Scalar(rng.randint(-3, 3)) for p in range(dim)}
        )
        assert commutator_derivation(hdiag, prod) == commutator_derivation(k * hdiag, mu)


def test_inner_generator_round_trip():
    alg = full_matrix_algebra(2)
    mu = mu_product(alg)
    h = alg.element([0, 0, 0, 1])
    d = commutator_derivation(h, mu)
    rep = inner_generator(d, mu)
    assert rep.inner and rep.is_derivation
    assert commutator_derivation(rep.generator, mu) == d
    # generator recovered modulo the center (scalars)
    assert len(rep.ambiguity) == 1
    assert in_span(rep.generator - h, rep.ambiguity)
    assert in_span(alg.unit, rep.ambiguity)


def test_inner_generator_exactness_on_randoms():
    rng = random.Random(24)
    alg = full_matrix_algebra(2)
    mu = mu_product(alg)
    for _ in range(10):
        h = alg.element({i: Scalar(rng.randint(-3, 3)) for i in range(4)})
        rep = inner_generator(commutator_derivation(h, mu), mu)
        assert rep.inner
        assert commutator_derivation(rep.generator, mu) == commutator_derivation(h, mu)


def test_non_inner_on_commutative_algebra():
    alg = dual_number_algebra()
    d = Operator(alg, [{}, {1: Scalar(1)}])  # d(1) = 0, d(eps) = eps
    ok, _ = is_derivation(d, mu_product(alg))
    assert ok
    rep = inner_generator(d, mu_product(alg))
    assert rep.is_derivation and not rep.inner
    assert rep.generator is None


def test_bi_hamiltonian_trivial_derivation():
    alg = full_matrix_algebra(2)
    mu = mu_product(alg)
    rep = is_bi_hamiltonian(Operator.zero(alg), mu, mu)
    assert rep.inner_pair and rep.weak and rep.strong
    assert rep.generators[0] is not None and rep.generators[0].is_zero


def test_bi_hamiltonian_requires_associative_products():
    alg = full_matrix_algebra(2)
    bad = deform(transpose_operator(alg), compute_flags=False)
    with pytest.raises(PreconditionError):
        is_bi_hamiltonian(Operator.zero(alg), mu_product(alg), bad)


def test_bi_hamiltonian_oscillator_projection_strong():
    dim = 4
    alg, a, adag, h = banded_oscillator_algebra(dim)
    mu = mu_product(alg)
    prod = deform(projection_tensor(triangular_split(alg), 1, Scalar(Fraction(1, 2))))
    d = commutator_derivation(h, mu)
    rep = is_bi_hamiltonian(d, mu, prod)
    assert rep.inner_pair and rep.weak and rep.strong


def test_bi_hamiltonian_rescaling_product_weak_pair_only():
    dim = 4
    alg, a, adag, h = banded_oscillator_algebra(dim)
    mu = mu_product(alg)
    k = _diag_element(alg, dim, range(1, dim + 1))
    prod = _diagonal_rescaling_product(alg, dim, k)
    d = commutator_derivation(h, mu)
    rep = is_bi_hamiltonian(d, mu, prod)
    assert rep.inner_pair
    assert not rep.products_compatible
    assert not rep.strong
    # generator for the new product is K^{-1} h modulo the product's center
    k_inv_h = alg.element(
        {matrix_unit_index(dim, p, p): Scalar(Fraction(p, p + 1)) for p in range(1, dim)}
    )
    assert in_span(rep.generators[1] - k_inv_h, rep.ambiguities[1])


def test_sum_bracket_jacobi_matches_brute_force_oracle():
    # dim 2: holds; dim >= 3: fails with witness triple of off-diagonal units
    for dim, expected in ((2, True), (3, False)):
        alg, a, adag, h = banded_oscillator_algebra(dim)
        k = _diag_element(alg, dim, range(1, dim + 1))
        prod = _diagonal_rescaling_product(alg, dim, k)
        mu = mu_product(alg)
        psum = product_sum(mu, prod)

        def br(x, y):
            return psum(x, y) - psum(y, x)

        brute = True
        for i, j, l in iproduct(range(alg.dim), repeat=3):
            x, y, z = alg.basis_element(i), alg.basis_element(j), alg.basis_element(l)
            if not (br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)).is_zero:
                brute = False
                break
        assert brute == expected
        assert sum_bracket_satisfies_jacobi(mu, prod) == expected


def test_every_commutator_derivation_is_a_derivation():
    dim = 3
    alg, a, adag, h = banded_oscillator_algebra(dim)
    k = _diag_element(alg, dim, range(1, dim + 1))
    for prod in (mu_product(alg), _diagonal_rescaling_product(alg, dim, k)):
        rng = random.Random(25)
        for _ in range(5):
            el = alg.element({i: Scalar(rng.randint(-2, 2)) for i in range(alg.dim)})
            ok, _ = is_derivation(commutator_derivation(el, prod), prod)
            assert ok


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_small_examples_pass(example_id):
    rep = example_check(example_id)
    failures = [c for c in rep["checks"] if not c["pass"]]
    assert not failures, failures


def test_example_1_reports_the_first_failing_diagonal_unit(monkeypatch):
    """With 1 added at output E21 of the rows (E11, E12) and (E22, E12) of
    the deformed product, the inner derivations of both E11 and E22 differ
    from those of mu; the witness is the first, E11."""
    dynamics = importlib.import_module("algdeform.dynamics")
    build = dynamics._deform_after_torsion

    def perturbed(*args):
        prod = build(*args)
        alg, table = prod.algebra, {t: dict(vec) for t, vec in prod.table.items()}
        e = {label: i for i, label in enumerate(alg.basis)}
        for row in ((e["E11"], e["E12"]), (e["E22"], e["E12"])):
            vec = table.setdefault(row, {})
            vec[e["E21"]] = vec.get(e["E21"], Scalar(0)) + Scalar(1)
        return Product(Cochain(alg, 2, table, copy=False))

    monkeypatch.setattr(dynamics, "_deform_after_torsion", perturbed)
    checks = example_check(1)["checks"]
    got = next(c for c in checks if c["name"] == "diagonal_inner_derivations_agree")
    assert got == {"name": "diagonal_inner_derivations_agree", "pass": False, "witness": "E11"}


def match_on_basis(alg, got, expected):
    """Whether got(x, y) == expected(x, y) on every basis pair; the first
    failing pair, in lexicographic order."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.basis_element(i), alg.basis_element(j)
            if got(x, y) != expected(x, y):
                return False, [alg.basis[i], alg.basis[j]]
    return True, None


def displayed_formulas(example_id, alg):
    """The displayed products of an example in Element arithmetic, by check
    name, in the order the example builds the products they describe. In
    example 1 they are given in coordinates; in examples 3 and 4, K is the
    diagonal 1, 2, 3 and P1 the projection onto the diagonal."""
    if example_id == 1:
        e = lambda p, q: alg.basis_element(matrix_unit_index(2, p, q))

        def displayed(x, y):
            a, b, c, d = (x.coeff(i) for i in range(4))
            a2, b2, c2, d2 = (y.coeff(i) for i in range(4))
            return ((a * a2) * e(0, 0) + (a * b2 + b * d2) * e(0, 1)
                    + (c * a2 + d * c2) * e(1, 0) + (d * d2) * e(1, 1))

        def displayed_comp(x, y):
            b, c, b2, c2 = x.coeff(1), x.coeff(2), y.coeff(1), y.coeff(2)
            return (b * c2) * e(0, 0) + (c * b2) * e(1, 1)

        return {"table_matches_displayed_form": displayed,
                "complementary_matches_diag_bc_cb": displayed_comp}
    if example_id == 3:
        dec, k = diagonal_split(alg), _diag_element(alg, 3, range(1, 4))
    else:
        diag = [i for i, label in enumerate(alg.basis) if label[1] == label[2]]
        dec = alg.decompose(diag)
        k = alg.element({idx: Scalar(t + 1) for t, idx in enumerate(diag)})

    def expected(x, y):
        dx, dy = dec.project(x, 1), dec.project(y, 1)
        last = dx * dy if example_id == 3 else dec.project(x * y, 1)
        return k * dx * y + x * (k * dy) - k * last

    return {"matches_displayed_formula": expected}


@pytest.mark.parametrize("example_id", [1, 3, 4])
def test_displayed_formula_sweep_matches_the_basis_loop(example_id, monkeypatch):
    """Examples 1, 3 and 4 decide each displayed formula with one sweep. On
    the example's products perturbed in none, one or two entries, each
    verdict and first failing pair are those of the basis loop, and each
    check both passes and fails."""
    dynamics = importlib.import_module("algdeform.dynamics")
    rng = random.Random(example_id)
    built = []

    def perturbed(prod):
        alg, table = prod.algebra, {t: dict(vec) for t, vec in prod.table.items()}
        for _ in range(len(built) % 3):
            row = table.setdefault((rng.randrange(alg.dim), rng.randrange(alg.dim)), {})
            k = rng.randrange(alg.dim)
            row[k] = row.get(k, Scalar(0)) + Scalar(rng.randint(1, 3), rng.randint(-1, 1))
        built.append(Product(Cochain(alg, 2, table, copy=False)))
        return built[-1]

    if example_id == 3:
        build = dynamics._diagonal_rescaling_product
        monkeypatch.setattr(dynamics, "_diagonal_rescaling_product", lambda *a: perturbed(build(*a)))
    else:
        build = dynamics._deform_after_torsion
        monkeypatch.setattr(dynamics, "_deform_after_torsion", lambda *a: perturbed(build(*a)))
    verdicts = set()
    for _ in range(12):
        checks = {c["name"]: c for c in example_check(example_id)["checks"]}
        formulas = displayed_formulas(example_id, built[-1].algebra)
        for prod, (name, expected) in zip(built[-len(formulas):], formulas.items()):
            ok, pair = match_on_basis(prod.algebra, prod, expected)
            assert checks[name] == {"name": name, "pass": ok, **({} if ok else {"witness": pair})}
            verdicts.add((name, ok))
    assert verdicts == {(name, ok) for name in formulas for ok in (True, False)}


@pytest.mark.parametrize("full", [False, True])
def test_part2_is_ideal_matches_the_basis_loop(full, monkeypatch):
    """Example 4 decides with one sweep whether the off-diagonal part is an
    ideal. It is in T3; in M3, patched in for T3, it is not. The verdict is
    that of a loop over the basis pairs with a factor in that part."""
    dynamics = importlib.import_module("algdeform.dynamics")
    if full:
        monkeypatch.setattr(dynamics, "upper_triangular_algebra", full_matrix_algebra)
    got = next(c for c in example_check(4)["checks"] if c["name"] == "part2_is_ideal")
    alg = (full_matrix_algebra if full else upper_triangular_algebra)(3)
    part2 = {i for i, label in enumerate(alg.basis) if label[1] != label[2]}
    ideal = all(set((alg.basis_element(i) * alg.basis_element(j)).coords) <= part2
                for i in range(alg.dim) for j in range(alg.dim) if i in part2 or j in part2)
    assert ideal is not full
    assert got == {"name": "part2_is_ideal", "pass": ideal}


@pytest.mark.parametrize("example_id, sweeps, associator_sweeps", [(1, 3, 0), (4, 6, 0)])
def test_examples_decide_associativity_from_the_torsion(example_id, sweeps, associator_sweeps,
                                                        monkeypatch):
    """Examples 1 and 4 sweep the torsion of their operator, and a zero
    torsion makes the deformed product associative (Assoc(mu_N) = -dT_N), so
    ``deformed_associative`` sweeps no associator. Counted on a second call,
    after the example's algebra is cached: example 1 sweeps the torsion of
    P1 alone, which is that of the complementary 1 - P1 (T_{a+bN} =
    b^2 T_N), and its two displayed forms; example 4 the ideal test, the
    torsion in ``extend_tensor``, its three conditions and the displayed
    formula. None of these sweeps is an associator."""
    example_check(example_id)
    calls = []
    witness = Sweep.witness
    monkeypatch.setattr(Sweep, "witness",
                        lambda self, terms: calls.append(type(terms[0]) is Insert) or witness(self, terms))
    checks = example_check(example_id)["checks"]
    assert all(c["pass"] for c in checks)
    assert (len(calls), sum(calls)) == (sweeps, associator_sweeps)


@pytest.mark.parametrize("example_id", [5, 6])
def test_oscillator_examples_pass_small_dim(example_id):
    rep = example_check(example_id, dim=6)
    failures = [c for c in rep["checks"] if not c["pass"]]
    assert not failures, failures


def test_example_5_lambda_h_identity_small():
    alg, a, adag, h = banded_oscillator_algebra(5)
    dec = triangular_split(alg)
    for lam in (Scalar(0), Scalar(1), Scalar(Fraction(1, 2)), Scalar(-2)):
        prod = deform(projection_tensor(dec, 1, lam), compute_flags=False)
        assert prod(adag, a) == lam * h


def test_example_6_annihilation_small():
    dim = 5
    alg, a, adag, h = banded_oscillator_algebra(dim)
    k = _diag_element(alg, dim, range(1, dim + 1))
    prod = _diagonal_rescaling_product(alg, dim, k)
    assert prod(adag, a).is_zero


EXAMPLE_6_CHECKS = [
    "construction_associative", "adag_circ_a_is_zero", "diagonal_bracket_is_KA_commutator",
    "not_compatible_with_original", "dynamics_inner_for_new_product",
    "generator_is_KinvH_mod_center", "generator_reproduces_dynamics", "inner_wrt_both",
    "strong_is_false",
]


def test_example_6_reads_one_bi_hamiltonian_report(monkeypatch):
    """Example 6 takes its innerness, generator, center and compatibility
    from its one ``is_bi_hamiltonian(ad_h, mu, prod)``: two generator solves,
    one per product, one mixed-associator sweep and no Leibniz sweep, whose
    verdict the report would not carry."""
    dynamics = importlib.import_module("algdeform.dynamics")
    calls = {"_generator_solve": 0, "is_derivation": 0, "mixed_associator_witness": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dynamics, name, counted)
    rep = example_check(6, dim=4)
    assert calls == {"_generator_solve": 2, "is_derivation": 0, "mixed_associator_witness": 1}
    assert rep == {
        "example": 6, "algebra": "Osc4", "dim": 4, "band": 1, "sum_bracket_jacobi": False,
        "checks": [{"name": name, "pass": True} for name in EXAMPLE_6_CHECKS],
    }


def test_example_check_rejects_unknown_id():
    with pytest.raises(PreconditionError):
        example_check(7)


def test_bi_hamiltonian_jacobi_agrees_with_sum_bracket_route():
    # is_bi_hamiltonian alternates the mixed associator; the public function
    # alternates the associator of p1 + p2. For associative pairs they agree.
    pairs = []
    for dim in (2, 3, 4):
        alg, a, adag, h = banded_oscillator_algebra(dim)
        mu = mu_product(alg)
        k = _diag_element(alg, dim, range(1, dim + 1))
        pairs.append((commutator_derivation(h, mu), mu, _diagonal_rescaling_product(alg, dim, k)))
        lam = deform(projection_tensor(triangular_split(alg), 1, Scalar(Fraction(1, 2))))
        pairs.append((commutator_derivation(h, mu), mu, lam))
    m2 = full_matrix_algebra(2)
    pairs.append((Operator.zero(m2), mu_product(m2), deform(projection_tensor(triangular_split(m2), 1, 0))))
    verdicts = set()
    for d, p1, p2 in pairs:
        jacobi = is_bi_hamiltonian(d, p1, p2).sum_bracket_jacobi
        assert jacobi == sum_bracket_satisfies_jacobi(p1, p2)
        verdicts.add(jacobi)
    assert verdicts == {True, False}
