import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from algdeform import cli, hochschild, tables
from algdeform.algebra import (
    Operator,
    diagonal_split,
    dual_number_algebra,
    full_matrix_algebra,
    transpose_operator,
    triangular_split,
)
from algdeform.cli import COMMANDS, build_parser, main
from algdeform.deform import deform, mu_product, projection_tensor
from algdeform.documents import (
    algebra_from_doc,
    algebra_to_doc,
    decomposition_to_doc,
    dump_json,
    operator_to_doc,
    product_to_doc,
    read_json,
)
from algdeform.dynamics import commutator_derivation
from algdeform.errors import DocumentError
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


def test_structure_scalar_with_a_trailing_newline_exits_2(tmp_path, capsys):
    doc = algebra_to_doc(dual_number_algebra())
    assert doc["structure"][0][3] == "1"
    doc["structure"][0][3] = "1\n"
    alg_path = tmp_path / "newline.json"
    alg_path.write_text(json.dumps(doc))
    assert main(["cohomology", "--algebra", str(alg_path), "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad scalar syntax" in captured.err


def test_example_dim_beyond_the_size_guard_exits_2(capsys):
    for example_id in ("5", "6"):
        assert main(["example", "--id", example_id, "--dim", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the size guard" in captured.err


def test_input_digest_is_of_the_bytes_parsed(workdir, capsys):
    main(["cohomology", "--algebra", workdir["m2.json"], "--degree", "0"])
    digest = json.loads(capsys.readouterr().out)["inputs"]["algebra"]
    assert digest["sha256"] == hashlib.sha256(Path(workdir["m2.json"]).read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe{}", "not UTF-8 text"),
        (b"[" * 200_000, "JSON nested too deeply"),
        (b"\xef\xbb\xbf{}", "invalid JSON (Unexpected UTF-8 BOM"),
        (b"{\r\n  x}", "invalid JSON (Expecting property name enclosed in double quotes: "
                      "line 2 column 3 (char 4))"),
    ],
    ids=["not-utf8", "deep", "bom", "crlf"],
)
def test_unreadable_document_exits_2(tmp_path, capsys, data, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert main(["cohomology", "--algebra", str(path), "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {message}")
    assert captured.err.count("\n") == 1  # one line, no traceback


def test_algebra_document_dim_beyond_the_size_guard_exits_2(tmp_path, capsys):
    def write(dim, basis_len):
        doc = {
            "name": f"D{dim}",
            "dim": dim,
            "basis": [f"e{i}" for i in range(basis_len)],
            "structure": [[i, i, i, "1"] for i in range(basis_len)],
        }
        path = tmp_path / f"d{dim}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    argv = ["compat", "--product1", "mu", "--product2", "mu", "--algebra"]
    assert main(argv + [write(1001, 1001)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exceeds the size guard" in captured.err
    # dim 1000 passes the guard and is refused for its short basis list instead.
    assert main(argv + [write(1000, 1)]) == 2
    assert "basis must be a list of 1000 labels" in capsys.readouterr().err


def _with_required(name):
    """``name`` with a value for each of its required options."""
    argv = [name]
    for flags, kwargs in COMMANDS[name][2]:
        if kwargs.get("required"):
            choices = kwargs.get("choices")
            argv += [flags[0], str(choices[0]) if choices else "x"]
    return argv


def _parser_cases():
    cases = [[], ["-h"], ["no-such-command"], ["--bogus", "torsion"]]
    for name in COMMANDS:
        full = _with_required(name)
        cases += [[name, "-h"], full[:-2], full + ["--bogus"], full + ["extra"]]
        # The first required option as --flag=value, abbreviated (--alg, --i)
        # and given twice, the -- separator, and --he (for --help) at the end.
        flag, value, rest = full[1], full[2], full[3:]
        cases += [
            [name, f"{flag}={value}", *rest, "extra"],
            [name, flag[:max(3, len(flag) - 4)], value, *rest, "extra"],
            full + [flag, "y", "extra"],
            [name, "--", *full[1:]],
            full + ["--he"],
        ]
    return cases


@pytest.mark.parametrize("argv", _parser_cases(), ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_like_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    assert outcome(main) == outcome(build_parser().parse_args)


@pytest.mark.parametrize("argv", _parser_cases(), ids=lambda argv: " ".join(argv) or "(none)")
def test_repeated_main_calls_parse_like_a_fresh_parser(argv, capsys, monkeypatch):
    """The shared parsers keep no state from one call to the next."""
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    first, second = outcome(main), outcome(main)
    assert first == second == outcome(build_parser().parse_args)


def test_a_valid_invocation_parses_its_arguments_once(workdir, capsys, monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    argv = ["cohomology", "--algebra", workdir["dual.json"], "--degree", "1"]
    for _ in range(2):  # the first call builds the shared parser
        assert main(argv) == 0
        assert calls == ["algdeform cohomology"]
        assert json.loads(capsys.readouterr().out)["outputs"] == {"dimension": 1}
        calls.clear()


def _fresh_python(*args):
    """``python *args`` in a new process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=300,
    )


def test_repeated_example_reports_match_a_fresh_process(capsys):
    """An ``append`` option starts empty on every call."""
    with_lambda = ["example", "--id", "5", "--dim", "2", "--lambda", "1"]
    without = with_lambda[:-2]
    fresh = {tuple(argv): _fresh_python("-m", "algdeform.cli", *argv)
             for argv in (with_lambda, without)}
    for argv in (with_lambda, with_lambda, without):
        code = main(argv)
        proc = fresh[tuple(argv)]
        assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout)


def test_main_rereads_a_rewritten_document(workdir, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    dims = {}
    for name in ("m2.json", "dual.json"):
        data = Path(workdir[name]).read_bytes()
        path.write_bytes(data)
        code, rep = run(capsys, ["cohomology", "--algebra", str(path), "--degree", "0"])
        assert code == 0
        assert rep["inputs"]["algebra"]["sha256"] == hashlib.sha256(data).hexdigest()
        dims[name] = rep["outputs"]["dimension"]
    assert dims == {"m2.json": 1, "dual.json": 2}  # the centres of M2 and of the dual numbers


def test_import_builds_no_parser():
    proc = _fresh_python("-c", "import algdeform.cli as c; print(c._parser.cache_info().currsize)")
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_console_entry_point_matches_in_process_main(workdir, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    real = ["check-nijenhuis", "--algebra", workdir["m2.json"], "--operator", workdir["p1.json"]]
    for argv in (real, ["--help"]):
        proc = subprocess.run(
            [sys.executable, "-m", "algdeform.cli", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


@pytest.mark.parametrize("text", ["１", "١/٢"])
def test_structure_scalar_with_non_ascii_digits_exits_2(text, tmp_path, capsys):
    doc = algebra_to_doc(dual_number_algebra())
    assert doc["structure"][0][3] == "1"
    doc["structure"][0][3] = text
    alg_path = tmp_path / "digits.json"
    alg_path.write_text(json.dumps(doc))
    assert main(["cohomology", "--algebra", str(alg_path), "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad scalar syntax" in captured.err


@pytest.mark.parametrize("scalar", ["1" + "0" * 4999, "1/" + "7" * 5000, "2-" + "3" * 5000 + "i"],
                         ids=["numerator", "denominator", "imaginary"])
def test_scalar_beyond_the_int_conversion_limit_exits_2(workdir, tmp_path, capsys, scalar):
    doc = json.loads(Path(workdir["p1.json"]).read_text())
    doc["matrix"][1][2] = scalar
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["torsion", "--algebra", workdir["m2.json"], "--operator", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "5000 digits" in captured.err and scalar[:50] not in captured.err


@pytest.mark.parametrize("where", ["dim", "structure", "matrix", "unit"])
def test_json_integer_beyond_the_int_conversion_limit_exits_2(workdir, tmp_path, capsys, where):
    """A JSON integer longer than Python's int/str limit fails inside
    ``json.loads`` itself: one error line naming the path, and exit 2."""
    m2 = full_matrix_algebra(2)
    algebra = ["--algebra", workdir["m2.json"]]
    if where in ("dim", "structure"):
        doc = algebra_to_doc(m2)
        if where == "dim":
            doc["dim"] = "HUGE"
        else:
            doc["structure"][0][0] = "HUGE"
        argv = ["cohomology", "--degree", "0", "--algebra"]
    elif where == "matrix":
        doc = json.loads(Path(workdir["p1.json"]).read_text())
        doc["matrix"][1][2] = "HUGE"
        argv = ["torsion", *algebra, "--operator"]
    else:
        doc = product_to_doc(deform(projection_tensor(triangular_split(m2), 1, 0)))
        doc["unit"] = ["HUGE", "0", "0", "1"]
        argv = ["compat", *algebra, "--product1", "mu", "--product2"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 4999))
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()}-digit limit" in captured.err
    assert "Traceback" not in captured.err
    with pytest.raises(DocumentError):
        read_json(str(path))


def test_result_beyond_the_int_conversion_limit_exits_2(workdir, tmp_path, capsys):
    """A valid operator whose torsion has entries past Python's int-to-text
    limit: one error line with the digit count, not the digits, and exit 2."""
    doc = json.loads(Path(workdir["p1.json"]).read_text())
    doc["matrix"] = [[str(1 + (4 * i + j) % 9) * 2200 for j in range(4)] for i in range(4)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    assert main(["torsion", "--algebra", workdir["m2.json"], "--operator", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    digits = int(re.search(r"a part of (\d+) digits", captured.err)[1])
    assert digits > sys.get_int_max_str_digits() and not re.search(r"\d{20}", captured.err)


def _golden_invocations(workdir):
    """(label, argv) for every subcommand on the ``workdir`` documents, with a
    failing check, a refusal and ``deform --out``; the extra documents they
    need are written beside the fixture's."""
    m2 = full_matrix_algebra(2)
    tmp = Path(workdir["tmp"])

    def write(name, doc):
        (tmp / name).write_text(json.dumps(doc))
        return str(tmp / name)

    dec = diagonal_split(m2)
    p1_def = write("p1_def.json", product_to_doc(deform(projection_tensor(triangular_split(m2), 1, 0))))
    # theorem5's inputs as in test_theorem5_command: circ1 = K x y and N1 = L_K on part1.
    k = m2.element({0: 1, 3: 2})
    lk = [m2.mul_vec(k.coords, {j: ONE}) if j in dec.part1 else {} for j in range(4)]
    circ = {(i, j): m2.mul_vec(lk[i], {j: ONE}) for i in dec.part1 for j in dec.part1}
    circ_doc = {"structure": [[i, j, c, str(v)] for (i, j), vec in circ.items() for c, v in vec.items()]}
    circ1 = write("circ1.json", circ_doc)
    n1 = write("n1.json", operator_to_doc(Operator(m2, lk)))
    n2 = write("n2.json", operator_to_doc(dec.projector(2)))
    n1diag = write("n1diag.json", operator_to_doc(Operator(m2, [{0: Scalar(1)}, {}, {}, {3: Scalar(2)}])))
    alg = ["--algebra", workdir["m2.json"]]
    return [
        ("check-nijenhuis", ["check-nijenhuis", *alg, "--operator", workdir["transpose.json"]]),
        ("torsion", ["torsion", *alg, "--operator", workdir["nk.json"]]),
        ("deform", ["deform", *alg, "--operator", workdir["p1.json"], "--out", str(tmp / "out.json")]),
        ("criterion", ["criterion", *alg, "--operator", workdir["transpose.json"]]),
        ("compat", ["compat", *alg, "--product1", "mu", "--product2", p1_def]),
        ("tensors-compat", ["tensors-compat", *alg, "--operator", workdir["p1.json"],
                            "--operator2", workdir["nk.json"]]),
        ("hierarchy", ["hierarchy", *alg, "--operator", workdir["nk.json"], "--max-power", "3"]),
        ("hierarchy refused", ["hierarchy", *alg, "--operator", workdir["nk.json"], "--max-power", "9"]),
        ("projection", ["projection", *alg, "--decomposition", workdir["split.json"],
                        "--l1", "1", "--l2", "2"]),
        ("contraction", ["contraction", *alg, "--decomposition", workdir["diag_split.json"]]),
        ("theorem5", ["theorem5", *alg, "--decomposition", workdir["diag_split.json"],
                      "--circ1", circ1, "--n1", n1, "--n2", n2]),
        ("extend", ["extend", *alg, "--decomposition", workdir["diag_split.json"], "--n1", n1diag]),
        ("lie-check", ["lie-check", *alg, "--operator", workdir["transpose.json"]]),
        ("cohomology", ["cohomology", "--algebra", workdir["dual.json"], "--degree", "2"]),
        ("derivation-check", ["derivation-check", *alg, "--operator", workdir["ad_h.json"]]),
        ("inner-generator", ["inner-generator", *alg, "--operator", workdir["ad_h.json"],
                             "--product", p1_def]),
        ("bihamiltonian", ["bihamiltonian", *alg, "--derivation", workdir["ad_h.json"],
                           "--product1", "mu", "--product2", p1_def]),
        ("example", ["example", "--id", "1"]),
        *((f"example {i}", ["example", "--id", str(i)]) for i in (2, 3, 4)),
        *((f"example {i} dim 4", ["example", "--id", str(i), "--dim", "4"]) for i in (5, 6)),
    ]


# sha256 of each invocation's exit code, stdout without the ``inputs`` paths,
# stderr, and the ``--out`` file's bytes. A change here changes what users read.
GOLDEN_REPORTS = {
    "check-nijenhuis": "badbaf59afd96604b8ef039e9f06b9e4aff5f87c74dc7fffbda9ccd815ae6191",
    "torsion": "dafe6f79489b93e902d26e4c592128325372189b0cb9a86926b7de2193a1819e",
    "deform": "7f9176ce46bc41ed8a18bc5ce765d4c396235ddd34bdeb3b8a78da2cea31c4ba",
    "criterion": "a09d125213a628f60efcb3b6fb8c11c1606b2c1251476b51c649366af00a614e",
    "compat": "8fb9601fc987eb31327e64067e69628a7aae9695c7611d0259d567dfccb141a1",
    "tensors-compat": "55ddb70afecbcb7fca42d96a4ea86b5b332047f6dc93c89b94b34da10eec6385",
    "hierarchy": "dce1f6fa78dcedf7c53ad374ea4214a6f151ec26847e06c786e5446d6905ef30",
    "hierarchy refused": "691dc04340f5612a57d0c0b46110dfee7c168ae7e92f8206287e91ce672bb5a5",
    "projection": "cf546234221f38a3bac1c3c1dd4c74e808f2368c1c40766785e56376375f7c32",
    "contraction": "1c7dedc1837fc7c711d7bdd7bd3c9df2a3587e4443f678376ba932c06234df01",
    "theorem5": "e2ce21ffdfccf044069e01ffae1f4a61de6b864a132c7d7fc0a46d9dedfb8d8f",
    "extend": "699c97a5f44475c15491777b8d3a8be009c16444e11374b354048985d1ae1270",
    "lie-check": "615e46e6fa1e44723ace9241c83e129006124d3a1b94b8bfd0afa61f4ba40d8d",
    "cohomology": "f1d86c056716d4232fc251b8be4bd3e82159ca123edcf079ff453ab547d10f79",
    "derivation-check": "0c1a2b6d3b09ba6bd2a70cef5d175d2c1c5792fdaaedff82025d504bb1254a5b",
    "inner-generator": "5a3a2df06a209ed0df6577404bc848f29cf662a5885d2d0faff8677b4f65af88",
    "bihamiltonian": "241002ff1f2cef09f7da0432849764df250a10d2e7edd15d4756fe1a51c7af23",
    "example": "d09b64a3bf4acae61f15bf4499f5f31422447e35839af599389bb82e736e6aa9",
    "example 2": "0878777c9dd0368737fd96d1df6336ee714aeadd0657fceea0fbedfd1d7e06c9",
    "example 3": "d89771f8389b2ed7c3b7c083ce7463ef8006c3b0fe95f1ef17043bb86f6ceac3",
    "example 4": "ca6fc1e7bd4df863cfc2a732b96f2a0d97ab9bded1856cb5a1f9be540af8b796",
    "example 5 dim 4": "78ce7cc847e9f7d6f65a8fcbb555166841f12dcd83801e12cf59e2cb44c91ec8",
    "example 6 dim 4": "4f03477f0c5e0fea37de32a6334ce015b048246996699147b3c43ca3a7b19513",
}


def test_reports_match_the_golden_digests(workdir, capsys):
    """Every subcommand's report is byte for byte the pinned one."""
    tmp = workdir["tmp"]
    digests = {}
    for label, argv in _golden_invocations(workdir):
        code = main(argv)
        captured = capsys.readouterr()
        out = captured.out
        if out:
            for entry in json.loads(out).get("inputs", {}).values():
                assert "path" not in entry or entry["path"].startswith(tmp)
            out = re.sub(r'^      "path": ".*",\n', "", out, flags=re.M)
        assert tmp not in out and tmp not in captured.err
        parts = [str(code), out, captured.err]
        if "--out" in argv:
            parts.append(Path(argv[argv.index("--out") + 1]).read_text())
        digests[label] = hashlib.sha256("\0".join(parts).encode()).hexdigest()
    assert digests == GOLDEN_REPORTS


def test_theorem5_empty_n1p_path_is_a_missing_file(workdir, capsys):
    """``--n1p ''`` names a file, as ``--operator ''`` does; only an absent
    ``--n1p`` means "same as n1"."""
    argv = dict(_golden_invocations(workdir))["theorem5"]
    code, rep = run(capsys, argv)
    assert code == 0 and rep["inputs"]["n1p"] == {"builtin": "same-as-n1"}
    assert main(argv + ["--n1p", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


def _identity_route_invocations(workdir):
    """(label, argv) for the checks that an identity decides or that run on
    integer forms: failing and refused cases on M2, ``projection`` and the
    fifth example at other values, and each check on a 0-dimensional algebra."""
    m2 = full_matrix_algebra(2)
    tmp = Path(workdir["tmp"])

    def write(name, doc):
        (tmp / name).write_text(json.dumps(doc))
        return str(tmp / name)

    zero = write("zero.json", {"name": "zero", "dim": 0, "basis": [], "structure": []})
    zero_op = write("zero_op.json", {"algebra": "zero", "matrix": []})
    nk2 = write("nk2.json", operator_to_doc(Operator.left_multiplication(m2.element({0: 1, 1: 3, 3: 2}))))
    alg = ["--algebra", workdir["m2.json"]]
    transpose, p1 = ["--operator", workdir["transpose.json"]], ["--operator", workdir["p1.json"]]
    cases = [
        ("lie-check transpose", ["lie-check", *alg, *transpose]),
        ("criterion transpose", ["criterion", *alg, *transpose]),
        ("tensors-compat torsion refused", ["tensors-compat", *alg, *p1, "--operator2",
                                            workdir["transpose.json"]]),
        ("tensors-compat fails", ["tensors-compat", *alg, *p1, "--operator2", workdir["nk.json"]]),
        ("tensors-compat passes", ["tensors-compat", *alg, "--operator", workdir["nk.json"],
                                   "--operator2", nk2]),
        ("check-nijenhuis torsion-free", ["check-nijenhuis", *alg, "--operator", nk2]),
        ("projection", ["projection", *alg, "--decomposition", workdir["split.json"],
                        "--l1", "1/2", "--l2", "2i"]),
        ("example 5", ["example", "--id", "5", "--dim", "4"]),
    ]
    for command in ("check-nijenhuis", "lie-check", "criterion", "tensors-compat"):
        argv = [command, "--algebra", zero, "--operator", zero_op]
        cases.append((f"{command} dim 0", argv + ["--operator2", zero_op] * (command == "tensors-compat")))
    return cases


# Computed before these routes changed, as GOLDEN_REPORTS above.
IDENTITY_ROUTE_REPORTS = {
    "lie-check transpose": "615e46e6fa1e44723ace9241c83e129006124d3a1b94b8bfd0afa61f4ba40d8d",
    "criterion transpose": "a09d125213a628f60efcb3b6fb8c11c1606b2c1251476b51c649366af00a614e",
    "tensors-compat torsion refused": "3045865b9086c0efcd64bcd51849ee5927c246b5af8625890112a44130367965",
    "tensors-compat fails": "55ddb70afecbcb7fca42d96a4ea86b5b332047f6dc93c89b94b34da10eec6385",
    "tensors-compat passes": "a9ed5d014778d8014d78e4d288fe66afc042a02290a0b7fbb88af2c5b0c68fa4",
    "check-nijenhuis torsion-free": "add321236d6456c30b2cd34a4e62820d88289903f6ac1247cd03082a6e658420",
    "projection": "4af31f6a695be0b9b6c3d0fd89c4c1786d10a6651749282e6253070143ecdc59",
    "example 5": "78ce7cc847e9f7d6f65a8fcbb555166841f12dcd83801e12cf59e2cb44c91ec8",
    "check-nijenhuis dim 0": "62ea55b5414eef8cdb63336c3320df030aca0289c0a05119fc8b8f00cfee5b69",
    "lie-check dim 0": "0c80f7b1dbb0746b651bd4f64a779b097ccebbfd7dc757f93e071c78de2c83cb",
    "criterion dim 0": "a14e769366440a4adedf1274357ada29c4f8fdb96e265e287cc673ff3b258262",
    "tensors-compat dim 0": "e4644d164e4fc9a3ecf6b9b21f844c0b045a08af0fb687d520ce519b4a1a0d8b",
}


def test_identity_decided_reports_match_the_golden_digests(workdir, capsys):
    """The reports of the identity-decided and integer-form routes are byte
    for byte the pinned ones, digested as in the test above."""
    tmp = workdir["tmp"]
    digests = {}
    for label, argv in _identity_route_invocations(workdir):
        code = main(argv)
        captured = capsys.readouterr()
        out = re.sub(r'^      "path": ".*",\n', "", captured.out, flags=re.M)
        assert tmp not in out and tmp not in captured.err
        digests[label] = hashlib.sha256("\0".join([str(code), out, captured.err]).encode()).hexdigest()
    assert digests == IDENTITY_ROUTE_REPORTS


def _hierarchy_invocations(workdir):
    """(label, argv) for ``hierarchy`` at every ``--max-power`` from 0 to 6 on
    M4 with L_K (K Gaussian, four independent powers) and with P_lambda =
    P1 + (1/2 + i) P2 of the triangular split (two), on M2 with L_diag(1,2)
    at 3, and refused on the M2 transpose, which has torsion."""
    m4 = full_matrix_algebra(4)
    tmp = Path(workdir["tmp"])

    def write(name, doc):
        (tmp / name).write_text(json.dumps(doc))
        return str(tmp / name)

    k = m4.element({0: 1, 1: Scalar(0, 1), 5: -1, 10: 1, 11: Scalar(0, 1), 12: 1, 15: Scalar(1, 2)})
    m4_doc = write("m4.json", algebra_to_doc(m4))
    ops = {"lk": write("m4_lk.json", operator_to_doc(Operator.left_multiplication(k))),
           "pl": write("m4_pl.json", operator_to_doc(
               projection_tensor(triangular_split(m4), 1, Scalar(Fraction(1, 2), 1))))}
    cases = [(f"M4 {name} {maxk}", ["hierarchy", "--algebra", m4_doc, "--operator", path,
                                    "--max-power", str(maxk)])
             for name, path in ops.items() for maxk in range(7)]
    m2 = ["hierarchy", "--algebra", workdir["m2.json"], "--operator"]
    return cases + [("M2 nk 3", m2 + [workdir["nk.json"], "--max-power", "3"]),
                    ("M2 transpose refused", m2 + [workdir["transpose.json"], "--max-power", "3"])]


# Computed before the hierarchy decided cases from its torsion sweep, as
# GOLDEN_REPORTS above.
HIERARCHY_REPORTS = {
    "M4 lk 0": "ad54583650bbd7a10efccaf270c73f680bdfd11b139a4dd2eb903e27ef22fb4c",
    "M4 lk 1": "9d31178cf278409372b6751e20d76d96c98b9961be581d5724c845e494b43651",
    "M4 lk 2": "9fd8f0784c1d56e5f6f1ca421ec59c55e69e48913f404c35862026000e6c5e39",
    "M4 lk 3": "646738d061ae0a8e00e71e887ea6c0a53960423fd15caddf76ed217205e41382",
    "M4 lk 4": "e38111a77ca77a10ac0252a1cb4478d34bf1f65d7f4dc24309f71f443b60a989",
    "M4 lk 5": "d756be2957c7951a2f1d30a3610bf4a853fe82c8ec93c085f5e2cf0e313fe012",
    "M4 lk 6": "a81e61366aee19ba1b4a08b294a78e6b3d3cba237be929c19170b59470e985ef",
    "M4 pl 0": "07f585d40d3e7a051d7701e4a1525cccfb7cac00771f8d3f2bca36ecf463c089",
    "M4 pl 1": "7db804036f81dffaad3a9f76ab8b25449f755b9bc70097f39f04ea6d60e4096a",
    "M4 pl 2": "0eb6bbf238ab5f404b6cf1f1852b22c2ca5637d6e5f68165ce89ab6aaf631084",
    "M4 pl 3": "aed2925c4c732d25a27dc47f1b64ddb1e185e08fb24c0056051b284500aaaeac",
    "M4 pl 4": "16a3e76f8ed70a25a9bf1f4367e1ab976dfeb2dfee75a05915a615840bcf9cbb",
    "M4 pl 5": "d516e87eeb8d29f7b9c76a47aa221a145f9124c703d497b462b030012bc89b00",
    "M4 pl 6": "5d1e47e2965027f7f49f90b764268cd3445fd9e539ad046aba246fc7894c8c1f",
    "M2 nk 3": "dce1f6fa78dcedf7c53ad374ea4214a6f151ec26847e06c786e5446d6905ef30",
    "M2 transpose refused": "9b0f86aa1d9d79ad68824d05b6c7d4280792af1d62b710c8cb8f47a3bd2637d1",
}


def test_hierarchy_reports_match_the_golden_digests(workdir, capsys):
    """``hierarchy`` reports, passing and refused, are byte for byte the
    pinned ones, digested as in the tests above."""
    tmp = workdir["tmp"]
    digests = {}
    for label, argv in _hierarchy_invocations(workdir):
        code = main(argv)
        captured = capsys.readouterr()
        out = re.sub(r'^      "path": ".*",\n', "", captured.out, flags=re.M)
        assert tmp not in out and tmp not in captured.err
        digests[label] = hashlib.sha256("\0".join([str(code), out, captured.err]).encode()).hexdigest()
    assert digests == HIERARCHY_REPORTS


# Beyond the reports: empty containers at the top and nested, lists of lists
# and mixed lists, escapes, non-ASCII and astral strings, big ints, constants.
WRITER_INPUTS = [
    {}, [], {"a": {}, "b": [], "c": [[], {}, [[]]]}, [[1, 2], ["x", [3, []]], [], [{}]],
    [1, "two", True, None, {"k": False}, [None, -3]], [True, False, None], [True, 1, "x", False],
    ['quote " backslash \\ slash /', "tab\tnewline\nreturn\rnul\x00bell\x07del\x7f",
     "é ü ж 中文  ", "\U0001F600 \U00010348", ""],
    {"z": 1, "a": [2], "é": "é", "": None, "A": {"b": True}, "\U0001F600": 0},
    [2 ** 64, -(2 ** 64) - 1, 10 ** 100, 0, -1], 2 ** 70, -5, "astral \U0001D400",
    True, False, None,
]


@pytest.fixture()
def written(monkeypatch):
    """Every object that ``cli`` hands to ``dump_json``, in order."""
    objs = []

    def recorded(obj):
        objs.append(obj)
        return dump_json(obj)

    monkeypatch.setattr(cli, "dump_json", recorded)
    return objs


def test_the_writer_writes_the_bytes_of_json_dumps(workdir, capsys, written):
    """``dump_json`` against ``json.dumps(indent=2, sort_keys=True)`` on every
    report and ``--out`` document of the golden invocations, and on the inputs
    above."""
    invocations = (_golden_invocations(workdir) + _identity_route_invocations(workdir)
                   + _hierarchy_invocations(workdir))
    reports = sum(main(argv) != 2 for _, argv in invocations)
    capsys.readouterr()
    out_documents = sum("--out" in argv for _, argv in invocations)
    assert out_documents and len(written) == reports + out_documents
    for obj in written + WRITER_INPUTS:
        assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [1.5, [0, 0.5], {"a": {"b": 2.0}}, {1: "a"}, {"a": {None: 1}},
                                 {"a": 1, 2: "b"}, ("a",), [{"a", "b"}], b"bytes"],
                         ids=repr)
def test_the_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        dump_json(obj)


def test_non_ascii_labels_are_written_as_the_stdlib_writes_them(tmp_path, capsys, written):
    """Basis labels reach stdout in witnesses and product documents."""
    doc = algebra_to_doc(full_matrix_algebra(2))
    doc["basis"] = ["É₁₁", 'e"12\\', "\U0001D400", "ж\t22"]
    alg = tmp_path / "labels.json"
    alg.write_text(json.dumps(doc))
    op = tmp_path / "transpose.json"
    op.write_text(json.dumps(operator_to_doc(transpose_operator(full_matrix_algebra(2)))))
    out = tmp_path / "deformed.json"
    base = ["--algebra", str(alg), "--operator", str(op)]
    assert main(["check-nijenhuis", *base]) == 1
    report = capsys.readouterr().out
    assert main(["deform", *base, "--out", str(out)]) == 0
    deformed = capsys.readouterr().out
    stdlib = [json.dumps(obj, indent=2, sort_keys=True) + "\n" for obj in written]
    assert stdlib == [report, out.read_text(), deformed]
    witness = json.loads(report)["checks"][0]["witness"]
    assert set(witness) <= set(doc["basis"]) and "\\u00c9" in report + deformed
    assert json.loads(out.read_text())["basis"] == doc["basis"]


def test_torsion_free_checks_build_no_table(tmp_path, capsys, monkeypatch):
    """The work of four checks on M4 and a torsion-free L_K, K Gaussian,
    counted by wrapping ``table_of``, ``coboundary`` and ``Sweep.witness``:
    ``check-nijenhuis`` makes one sweep beyond the algebra's own validation
    and builds no table; ``lie-check``, ``criterion`` and ``tensors-compat``
    build no table (the commutator of mu is an alternation, and the cross sum
    of two torsion-free operators is swept as the torsion of their sum) and
    take no coboundary."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("table_of", tables.table_of), ("coboundary", hochschild.coboundary)):
        for module in [m for key, m in sys.modules.items() if key.startswith("algdeform")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(tables.Sweep, "witness", counted("witness", tables.Sweep.witness))

    m4 = full_matrix_algebra(4)
    k = m4.element({0: 1, 1: Scalar(0, 1), 5: -1, 10: 1, 11: Scalar(0, 1), 12: 1, 15: Scalar(1, 2)})
    alg_doc, op = algebra_to_doc(m4), tmp_path / "lk.json"
    (tmp_path / "m4.json").write_text(json.dumps(alg_doc))
    op.write_text(json.dumps(operator_to_doc(Operator.left_multiplication(k))))
    algebra_from_doc(alg_doc)
    validation = calls["witness"]
    alg = ["--algebra", str(tmp_path / "m4.json"), "--operator", str(op)]
    for argv in (["check-nijenhuis", *alg], ["lie-check", *alg], ["criterion", *alg],
                 ["tensors-compat", *alg, "--operator2", str(op)]):
        calls.clear()
        code, rep = run(capsys, argv)
        assert code in (0, 1) and rep["checks"][0]["pass"], argv[0]
        assert calls["table_of"] == 0 and calls["coboundary"] == 0, argv[0]
        if argv[0] == "check-nijenhuis":
            assert calls["witness"] == validation + 1


def _leaves(doc, path=()):
    """The paths to every value of a JSON document that is not a list or an object."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else None
    if items is None:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


# What a leaf may become: nearby and malformed scalars and indices, and other
# JSON types. Every number stays short; long entries are a budget's concern.
SCALAR_MUTANTS = ["0", "-1", "2", "1/2", "-3/4", "i", "1+i", "2-3i/5", "1/0", "0/0", "",
                  " 1", "x", "1e3", "1.5", "--1", "+", "i i", "1//2", "١"]
INDEX_MUTANTS = [-1, 0, 1, 3, 4, 5, 16, 2 ** 31, 10 ** 6]
TYPE_MUTANTS = [None, True, False, [], {}, 0.5, "1", [0], {"": 0}]


def _mutated(doc, rng):
    """A deep copy of ``doc`` with one leaf replaced, and the leaf's path."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(_leaves(doc))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    old = node[key]
    pool = SCALAR_MUTANTS if isinstance(old, str) else INDEX_MUTANTS if isinstance(old, int) else []
    node[key] = rng.choice(pool + TYPE_MUTANTS)
    return doc, path


DOCUMENT_FLAGS = {"--algebra", "--operator", "--operator2", "--decomposition", "--product",
                  "--product1", "--product2", "--circ1", "--n1", "--n2", "--derivation"}


def test_one_leaf_mutations_of_the_documents_exit_0_1_or_2(workdir, capsys, tmp_path):
    """Seeded one-leaf mutations of the M2 documents (and the dual numbers',
    which ``cohomology`` reads), each fed to every subcommand that reads it:
    the CLI must answer with exit 0, 1 or 2, never a traceback, in at most 5 s
    per run."""
    covered = set()
    for label, argv in _golden_invocations(workdir):
        slots = [i for i in range(1, len(argv)) if argv[i - 1] in DOCUMENT_FLAGS and argv[i] != "mu"]
        if not slots:
            continue
        covered.add(argv[0])
        rng = random.Random(f"one-leaf {label}")
        for run_index in range(12):
            slot = rng.choice(slots)
            doc, path = _mutated(json.loads(Path(argv[slot]).read_text()), rng)
            mutant = tmp_path / f"mutant-{run_index}.json"
            mutant.write_text(json.dumps(doc))
            case = f"{label}: {argv[slot - 1]} {Path(argv[slot]).name} at {list(path)}"
            start = time.perf_counter()
            try:
                code = main([*argv[:slot], str(mutant), *argv[slot + 1:]])
            except Exception as exc:  # a traceback would reach the user
                pytest.fail(f"{case} raised {exc!r}")
            seconds = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 1, 2), case
            assert "Traceback" not in err, case
            assert seconds <= 5, f"{case} took {seconds:.1f} s"
    assert covered == set(COMMANDS) - {"example"}
