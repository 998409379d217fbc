import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from algdeform.algebra import (
    Operator,
    banded_oscillator_algebra,
    dual_number_algebra,
    full_matrix_algebra,
    matrix_unit_index,
    transpose_operator,
    triangular_split,
)
from algdeform.deform import (
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
