import json

import pytest

from algdeform.algebra import (
    Operator,
    diagonal_split,
    dual_number_algebra,
    full_matrix_algebra,
    transpose_operator,
    triangular_split,
)
from algdeform.cli import main
from algdeform.deform import deform, mu_product, projection_tensor
from algdeform.documents import (
    algebra_from_doc,
    algebra_to_doc,
    decomposition_to_doc,
    operator_to_doc,
    product_to_doc,
)
from algdeform.dynamics import commutator_derivation
from algdeform.scalar import ONE, Scalar


@pytest.fixture()
def workdir(tmp_path):
    m2 = full_matrix_algebra(2)
    files = {}

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        files[name] = str(path)
        return str(path)

    write("m2.json", algebra_to_doc(m2))
    write("dual.json", algebra_to_doc(dual_number_algebra()))
    write("p1.json", operator_to_doc(projection_tensor(triangular_split(m2), 1, 0)))
    write("transpose.json", operator_to_doc(transpose_operator(m2)))
    k = m2.element({0: 1, 3: 2})
    write("nk.json", operator_to_doc(Operator.left_multiplication(k)))
    write("split.json", decomposition_to_doc(triangular_split(m2)))
    write("diag_split.json", decomposition_to_doc(diagonal_split(m2)))
    h = m2.element({3: ONE})
    write("ad_h.json", operator_to_doc(commutator_derivation(h, mu_product(m2))))
    files["tmp"] = str(tmp_path)
    return files


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def check_map(report):
    return {c["name"]: c["pass"] for c in report["checks"]}


def test_check_nijenhuis_passes_for_projection(workdir, capsys):
    code, rep = run(
        capsys,
        ["check-nijenhuis", "--algebra", workdir["m2.json"], "--operator", workdir["p1.json"]],
    )
    assert code == 0
    assert check_map(rep) == {
        "torsion_zero": True,
        "deformed_associative": True,
        "unit_preserved": True,
    }


def test_check_nijenhuis_fails_for_transpose(workdir, capsys):
    code, rep = run(
        capsys,
        ["check-nijenhuis", "--algebra", workdir["m2.json"], "--operator", workdir["transpose.json"]],
    )
    assert code == 1
    checks = {c["name"]: c for c in rep["checks"]}
    assert not checks["torsion_zero"]["pass"]
    assert "witness" in checks["torsion_zero"]


def test_torsion_export(workdir, capsys):
    code, rep = run(
        capsys,
        ["torsion", "--algebra", workdir["m2.json"], "--operator", workdir["nk.json"]],
    )
    assert code == 0
    assert rep["outputs"]["torsion_zero"] is True
    assert rep["outputs"]["torsion"] == []


def test_deform_round_trips_as_algebra(workdir, capsys, tmp_path):
    out = str(tmp_path / "deformed.json")
    code, rep = run(
        capsys,
        [
            "deform",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["p1.json"],
            "--out", out,
        ],
    )
    assert code == 0
    doc = json.loads((tmp_path / "deformed.json").read_text())
    assert doc == rep["outputs"]["product"]
    assert doc["associative"] is True
    loaded = algebra_from_doc(doc)  # validates associativity on load
    assert loaded.dim == 4
    assert loaded.unit is not None  # same unit as the original product


def test_criterion_reports_both_booleans(workdir, capsys):
    code, rep = run(
        capsys,
        ["criterion", "--algebra", workdir["m2.json"], "--operator", workdir["transpose.json"]],
    )
    assert code == 0  # the two booleans agree even though both are false
    assert rep["outputs"]["deformed_associative"] is False
    assert rep["outputs"]["torsion_is_2cocycle"] is False
    assert check_map(rep) == {"booleans_agree": True}


def test_compat_mu_with_deformed(workdir, capsys, tmp_path):
    m2 = full_matrix_algebra(2)
    prod = deform(projection_tensor(triangular_split(m2), 1, 0))
    p = tmp_path / "prod.json"
    p.write_text(json.dumps(product_to_doc(prod)))
    code, rep = run(
        capsys,
        ["compat", "--algebra", workdir["m2.json"], "--product1", "mu", "--product2", str(p)],
    )
    assert code == 0
    assert check_map(rep) == {"mixed_associators_cancel": True}


def test_tensors_compat(workdir, capsys, tmp_path):
    m2 = full_matrix_algebra(2)
    k2 = m2.element({0: 3, 3: -1})
    nk2 = tmp_path / "nk2.json"
    nk2.write_text(json.dumps(operator_to_doc(Operator.left_multiplication(k2))))
    code, rep = run(
        capsys,
        [
            "tensors-compat",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["nk.json"],
            "--operator2", str(nk2),
        ],
    )
    assert code == 0
    assert check_map(rep) == {"compatible": True, "matches_sum_torsion_freeness": True}
    # a valid but incompatible pair: the projection and a left multiplication
    code, rep = run(
        capsys,
        [
            "tensors-compat",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["p1.json"],
            "--operator2", workdir["nk.json"],
        ],
    )
    assert code == 1
    assert check_map(rep)["compatible"] is False
    assert check_map(rep)["matches_sum_torsion_freeness"] is True


def test_tensors_compat_rejects_torsion(workdir, capsys):
    code = main(
        [
            "tensors-compat",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["transpose.json"],
            "--operator2", workdir["nk.json"],
        ]
    )
    capsys.readouterr()
    assert code == 2


def test_hierarchy(workdir, capsys):
    code, rep = run(
        capsys,
        [
            "hierarchy",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["nk.json"],
            "--max-power", "3",
        ],
    )
    assert code == 0
    assert all(check_map(rep).values())


def test_projection_command(workdir, capsys):
    code, rep = run(
        capsys,
        [
            "projection",
            "--algebra", workdir["m2.json"],
            "--decomposition", workdir["split.json"],
            "--l1", "1",
            "--l2", "1/2",
        ],
    )
    assert code == 0
    assert all(check_map(rep).values())
    assert rep["outputs"]["product"]["associative"] is True


def test_contraction_command(workdir, capsys):
    code, rep = run(
        capsys,
        [
            "contraction",
            "--algebra", workdir["m2.json"],
            "--decomposition", workdir["diag_split.json"],
        ],
    )
    assert code == 0
    assert check_map(rep) == {"associative": True, "limit_interpolation_matches": True}


def test_theorem5_command(workdir, capsys, tmp_path):
    m2 = full_matrix_algebra(2)
    dec = diagonal_split(m2)
    k = m2.element({0: 1, 3: 2})
    n1_doc = operator_to_doc(
        Operator(m2, [m2.mul_vec(k.coords, {j: ONE}) if j in set(dec.part1) else {} for j in range(4)])
    )
    n2_doc = operator_to_doc(dec.projector(2))
    from algdeform.deform import Product
    from algdeform.hochschild import Cochain

    table = {}
    for i in dec.part1:
        for j in dec.part1:
            vec = m2.mul_vec(m2.mul_vec(k.coords, {i: ONE}), {j: ONE})
            if vec:
                table[(i, j)] = vec
    circ_doc = product_to_doc(Product(Cochain(m2, 2, table)))
    paths = {}
    for name, doc in (("n1.json", n1_doc), ("n2.json", n2_doc), ("circ1.json", circ_doc)):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    code, rep = run(
        capsys,
        [
            "theorem5",
            "--algebra", workdir["m2.json"],
            "--decomposition", workdir["diag_split.json"],
            "--circ1", paths["circ1.json"],
            "--n1", paths["n1.json"],
            "--n2", paths["n2.json"],
        ],
    )
    assert code == 0
    assert check_map(rep) == {"associative": True}


def test_extend_command(workdir, capsys, tmp_path):
    m2 = full_matrix_algebra(2)
    dec = diagonal_split(m2)
    n1 = Operator(m2, [{0: Scalar(1)}, {}, {}, {3: Scalar(2)}])
    p = tmp_path / "n1diag.json"
    p.write_text(json.dumps(operator_to_doc(n1)))
    code, rep = run(
        capsys,
        [
            "extend",
            "--algebra", workdir["m2.json"],
            "--decomposition", workdir["diag_split.json"],
            "--n1", str(p),
        ],
    )
    assert code == 0  # the contract check passes even though the extension fails
    assert rep["outputs"]["is_nijenhuis"] is False
    assert rep["outputs"]["conditions"]["square_zero"] is False
    assert rep["outputs"]["condition_witnesses"]["square_zero"] == ["E12", "E21"]


def test_lie_check_command(workdir, capsys):
    code, rep = run(
        capsys,
        ["lie-check", "--algebra", workdir["m2.json"], "--operator", workdir["nk.json"]],
    )
    assert code == 0
    assert all(check_map(rep).values())
    code, rep = run(
        capsys,
        ["lie-check", "--algebra", workdir["m2.json"], "--operator", workdir["transpose.json"]],
    )
    assert code == 1
    assert rep is not None
    checks = check_map(rep)
    assert checks["deformed_bracket_identity"] is True
    assert checks["lie_torsion_zero"] is False


def test_cohomology_command(workdir, capsys):
    expected = {0: 1, 1: 0, 2: 0}
    for degree, value in expected.items():
        code, rep = run(
            capsys,
            ["cohomology", "--algebra", workdir["m2.json"], "--degree", str(degree)],
        )
        assert code == 0
        assert rep["outputs"]["dimension"] == value
    code, rep = run(
        capsys,
        ["cohomology", "--algebra", workdir["dual.json"], "--degree", "1"],
    )
    assert code == 0 and rep["outputs"]["dimension"] == 1


def test_derivation_check_command(workdir, capsys):
    code, rep = run(
        capsys,
        [
            "derivation-check",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["ad_h.json"],
        ],
    )
    assert code == 0
    code, rep = run(
        capsys,
        [
            "derivation-check",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["transpose.json"],
        ],
    )
    assert code == 1
    assert "witness" in rep["checks"][0]


def test_inner_generator_command(workdir, capsys):
    code, rep = run(
        capsys,
        [
            "inner-generator",
            "--algebra", workdir["m2.json"],
            "--operator", workdir["ad_h.json"],
        ],
    )
    assert code == 0
    out = rep["outputs"]
    assert out["inner"] and out["is_derivation"]
    assert out["generator"] is not None
    assert len(out["ambiguity"]) == 1


def test_bihamiltonian_command(workdir, capsys, tmp_path):
    m2 = full_matrix_algebra(2)
    prod = deform(projection_tensor(triangular_split(m2), 1, 0))
    p = tmp_path / "prod.json"
    p.write_text(json.dumps(product_to_doc(prod)))
    code, rep = run(
        capsys,
        [
            "bihamiltonian",
            "--algebra", workdir["m2.json"],
            "--derivation", workdir["ad_h.json"],
            "--product1", "mu",
            "--product2", str(p),
        ],
    )
    assert code == 0
    out = rep["outputs"]
    assert out["inner_first"] and out["inner_second"]
    assert out["weak"] and out["strong"]


def test_example_command_small(capsys):
    code, rep = run(capsys, ["example", "--id", "1"])
    assert code == 0
    assert all(check_map(rep).values())
    code, rep = run(capsys, ["example", "--id", "6", "--dim", "4"])
    assert code == 0
    assert all(check_map(rep).values())


def test_example_command_lambda_flag(capsys):
    code, rep = run(
        capsys, ["example", "--id", "5", "--dim", "4", "--lambda", "1/2", "--lambda", "-2"]
    )
    assert code == 0
    assert rep["lambdas"] == ["1/2", "-2"]
    assert all(check_map(rep).values())


def test_exit_code_two_on_bad_inputs(workdir, capsys, tmp_path):
    assert main(["cohomology", "--algebra", str(tmp_path / "missing.json"), "--degree", "0"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["cohomology", "--algebra", str(bad), "--degree", "0"]) == 2
    capsys.readouterr()
    # non-associative structure
    doc = {
        "name": "bad",
        "dim": 2,
        "basis": ["e1", "e2"],
        "structure": [[0, 0, 1, "1"], [0, 1, 0, "1"]],
    }
    nonassoc = tmp_path / "nonassoc.json"
    nonassoc.write_text(json.dumps(doc))
    assert main(["cohomology", "--algebra", str(nonassoc), "--degree", "0"]) == 2
    capsys.readouterr()
    # precondition violation: projection on a non-twilled split
    sq_doc = algebra_to_doc(full_matrix_algebra(2))
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(sq_doc))
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps({"part1": [0]}))
    assert (
        main(
            [
                "projection",
                "--algebra", str(alg_path),
                "--decomposition", str(dec_path),
                "--l1", "1",
                "--l2", "0",
            ]
        )
        == 2
    )
    capsys.readouterr()
    # bad scalar flag
    assert (
        main(
            [
                "projection",
                "--algebra", str(alg_path),
                "--decomposition", str(dec_path),
                "--l1", "1.5",
                "--l2", "0",
            ]
        )
        == 2
    )
    capsys.readouterr()


def test_reports_are_byte_identical_across_runs(workdir, capsys):
    argv = ["check-nijenhuis", "--algebra", workdir["m2.json"], "--operator", workdir["p1.json"]]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["inputs"]["algebra"]["sha256"]


def test_bihamiltonian_refuses_forged_associative_flag(workdir, capsys, tmp_path):
    m2 = full_matrix_algebra(2)
    doc = product_to_doc(deform(transpose_operator(m2)))
    assert doc["associative"] is False
    doc["associative"] = True
    p = tmp_path / "forged.json"
    p.write_text(json.dumps(doc))
    argv = [
        "bihamiltonian",
        "--algebra", workdir["m2.json"],
        "--derivation", workdir["ad_h.json"],
        "--product1", "mu",
        "--product2", str(p),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_repeated_structure_triple_is_refused(workdir, capsys, tmp_path):
    doc = algebra_to_doc(dual_number_algebra())
    doc["structure"].append(list(doc["structure"][0]))
    alg_path = tmp_path / "repeated.json"
    alg_path.write_text(json.dumps(doc))
    assert main(["cohomology", "--algebra", str(alg_path), "--degree", "0"]) == 2
    assert "repeated" in capsys.readouterr().err
