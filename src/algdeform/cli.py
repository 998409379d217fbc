"""Command-line front end.

One subcommand per construction: load algebra/operator documents, run the
exact checks, and emit a deterministic JSON report on stdout (sorted keys, no
floats, canonical scalar strings). Exit codes: 0 when every check in the
report passed, 1 when a mathematical check failed (the report carries a
witness), 2 for unusable inputs (parse errors, precondition violations,
missing files).

Verification commands (check-nijenhuis, compat, hierarchy, lie-check, ...)
populate the ``checks`` list; classification commands (cohomology, criterion,
bihamiltonian, inner-generator, torsion, deform) put their findings under
``outputs`` and only add a check where a contract is being verified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from .algebra import Algebra, Operator
from .deform import (
    associativity_criterion,
    contraction_product,
    deform,
    deformed_bracket_witness,
    extend_tensor,
    interpolated_contraction_limit,
    is_nijenhuis,
    lie_nijenhuis_check,
    mixed_associator_witness,
    mu_product,
    nijenhuis_witness,
    projection_tensor,
    tensors_compatible,
    theorem5_product,
    torsion,
    verify_hierarchy,
)
from .documents import (
    element_to_list,
    operator_from_doc,
    operator_to_doc,
    product_from_doc,
    product_to_doc,
    algebra_from_doc,
    decomposition_from_doc,
    read_json,
    structure_to_triples,
)
from .dynamics import (
    _check,
    _labels,
    example_check,
    inner_generator,
    is_bi_hamiltonian,
    is_derivation,
)
from .errors import AlgebraError, DocumentError, PreconditionError
from .hochschild import cohomology_dimension
from .scalar import ScalarError, parse_scalar
from .tables import table_sub

USAGE_ERRORS = (DocumentError, AlgebraError, PreconditionError, ScalarError, OSError)


def _digest(path: str) -> dict:
    with open(path, "rb") as fh:
        return {"path": path, "sha256": hashlib.sha256(fh.read()).hexdigest()}


def _table_witness(alg: Algebra, witness) -> Optional[list[str]]:
    if witness is None:
        return None
    indices, _vec = witness
    return _labels(alg, indices)


def _load_algebra(args, inputs: dict) -> Algebra:
    doc = read_json(args.algebra)
    inputs["algebra"] = _digest(args.algebra)
    return algebra_from_doc(doc, where=args.algebra)


def _load_operator(alg: Algebra, path: str, inputs: dict, key: str) -> Operator:
    doc = read_json(path)
    inputs[key] = _digest(path)
    return operator_from_doc(alg, doc, where=path)


def _load_product(alg: Algebra, spec: str, inputs: dict, key: str):
    if spec == "mu":
        inputs[key] = {"builtin": "mu"}
        return mu_product(alg)
    doc = read_json(spec)
    inputs[key] = _digest(spec)
    return product_from_doc(alg, doc, where=spec)


def _load_decomposition(alg: Algebra, args, inputs: dict):
    doc = read_json(args.decomposition)
    inputs["decomposition"] = _digest(args.decomposition)
    return decomposition_from_doc(alg, doc, where=args.decomposition)


def _emit(report: dict) -> int:
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(c["pass"] for c in report.get("checks", ())) else 1


# -- command handlers ---------------------------------------------------------


def _cmd_check_nijenhuis(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    tw = nijenhuis_witness(op)
    prod = deform(op)
    checks = [
        _check("torsion_zero", tw is None, _table_witness(alg, tw)),
        _check(
            "deformed_associative",
            bool(prod.associative),
            _table_witness(alg, prod.associativity_witness()),
        ),
    ]
    if alg.unit is not None:
        preserved = prod.unit == alg.unit
        checks.append(
            _check(
                "unit_preserved",
                preserved,
                None if preserved else element_to_list(op(alg.unit)),
            )
        )
    return _emit({"command": "check-nijenhuis", "inputs": inputs, "checks": checks})


def _cmd_torsion(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    t = torsion(op)
    report = {
        "command": "torsion",
        "inputs": inputs,
        "checks": [],
        "outputs": {
            "torsion": structure_to_triples(t.table),
            "torsion_zero": t.is_zero,
        },
    }
    return _emit(report)


def _cmd_deform(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    prod = deform(op)
    doc = product_to_doc(prod, name=f"{alg.name}-deformed")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    report = {
        "command": "deform",
        "inputs": inputs,
        "checks": [],
        "outputs": {"product": doc},
    }
    return _emit(report)


def _cmd_criterion(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    res = associativity_criterion(op)
    report = {
        "command": "criterion",
        "inputs": inputs,
        "checks": [_check("booleans_agree", res.agree)],
        "outputs": {
            "deformed_associative": res.deformed_associative,
            "torsion_is_2cocycle": res.torsion_is_2cocycle,
        },
    }
    return _emit(report)


def _cmd_compat(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    p1 = _load_product(alg, args.product1, inputs, "product1")
    p2 = _load_product(alg, args.product2, inputs, "product2")
    w = mixed_associator_witness(p1, p2)
    report = {
        "command": "compat",
        "inputs": inputs,
        "checks": [_check("mixed_associators_cancel", w is None, _table_witness(alg, w))],
    }
    return _emit(report)


def _cmd_tensors_compat(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op1 = _load_operator(alg, args.operator, inputs, "operator")
    op2 = _load_operator(alg, args.operator2, inputs, "operator2")
    compatible = tensors_compatible(op1, op2)
    matches = compatible == is_nijenhuis(op1 + op2)
    report = {
        "command": "tensors-compat",
        "inputs": inputs,
        "checks": [
            _check("compatible", compatible),
            _check("matches_sum_torsion_freeness", matches),
        ],
    }
    return _emit(report)


def _cmd_hierarchy(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    rep = verify_hierarchy(op, args.max_power)
    checks = []
    for key in ("power_relation", "composition_law", "associativity", "pairwise_compatibility"):
        entry = rep[key]
        checks.append(_check(key, entry["pass"], entry["witness"]))
    report = {
        "command": "hierarchy",
        "inputs": inputs,
        "max_power": args.max_power,
        "checks": checks,
    }
    return _emit(report)


def _cmd_projection(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    dec = _load_decomposition(alg, args, inputs)
    op = projection_tensor(dec, parse_scalar(args.l1), parse_scalar(args.l2))
    prod = deform(op)
    checks = [
        _check("torsion_zero", is_nijenhuis(op)),
        _check("deformed_associative", bool(prod.associative)),
    ]
    report = {
        "command": "projection",
        "inputs": inputs,
        "checks": checks,
        "outputs": {
            "operator": operator_to_doc(op),
            "product": product_to_doc(prod, name=f"{alg.name}-projection-deformed"),
        },
    }
    return _emit(report)


def _cmd_contraction(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    dec = _load_decomposition(alg, args, inputs)
    prod = contraction_product(dec)
    limit = interpolated_contraction_limit(dec)
    checks = [
        _check("associative", prod.associativity_witness() is None),
        _check(
            "limit_interpolation_matches",
            not table_sub(limit.table, prod.table),
        ),
    ]
    report = {
        "command": "contraction",
        "inputs": inputs,
        "checks": checks,
        "outputs": {"product": product_to_doc(prod, name=f"{alg.name}-contraction")},
    }
    return _emit(report)


def _cmd_theorem5(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    dec = _load_decomposition(alg, args, inputs)
    circ1 = _load_product(alg, args.circ1, inputs, "circ1")
    n1 = _load_operator(alg, args.n1, inputs, "n1")
    n1p = _load_operator(alg, args.n1p, inputs, "n1p") if args.n1p else n1
    if args.n1p is None:
        inputs["n1p"] = {"builtin": "same-as-n1"}
    n2 = _load_operator(alg, args.n2, inputs, "n2")
    prod = theorem5_product(dec, circ1, n1, n1p, n2)
    report = {
        "command": "theorem5",
        "inputs": inputs,
        "checks": [_check("associative", bool(prod.associative))],
        "outputs": {"product": product_to_doc(prod, name=f"{alg.name}-two-part")},
    }
    return _emit(report)


def _cmd_extend(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    dec = _load_decomposition(alg, args, inputs)
    n1 = _load_operator(alg, args.n1, inputs, "n1")
    rep = extend_tensor(dec, n1)
    report = {
        "command": "extend",
        "inputs": inputs,
        "checks": [
            _check(
                "conditions_equal_torsion_freeness",
                rep.conditions_conjunction == rep.is_nijenhuis,
            )
        ],
        "outputs": {
            "conditions": {
                "square_zero": rep.conditions[0],
                "left_mixed": rep.conditions[1],
                "right_mixed": rep.conditions[2],
            },
            "condition_witnesses": {
                name: _labels(alg, pair) for name, pair in rep.witnesses.items()
            },
            "is_nijenhuis": rep.is_nijenhuis,
            "operator": operator_to_doc(rep.operator),
        },
    }
    return _emit(report)


def _cmd_lie_check(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    w = deformed_bracket_witness(op)
    report = {
        "command": "lie-check",
        "inputs": inputs,
        "checks": [
            _check("deformed_bracket_identity", w is None, _table_witness(alg, w)),
            _check("lie_torsion_zero", lie_nijenhuis_check(op)),
        ],
    }
    return _emit(report)


def _cmd_cohomology(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    dim = cohomology_dimension(alg, args.degree)
    report = {
        "command": "cohomology",
        "inputs": inputs,
        "degree": args.degree,
        "checks": [],
        "outputs": {"dimension": dim},
    }
    return _emit(report)


def _cmd_derivation_check(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    prod = _load_product(alg, args.product, inputs, "product")
    ok, witness = is_derivation(op, prod)
    report = {
        "command": "derivation-check",
        "inputs": inputs,
        "checks": [
            _check("leibniz", ok, _labels(alg, witness) if witness else None)
        ],
    }
    return _emit(report)


def _cmd_inner_generator(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.operator, inputs, "operator")
    prod = _load_product(alg, args.product, inputs, "product")
    rep = inner_generator(op, prod)
    outputs = {
        "is_derivation": rep.is_derivation,
        "inner": rep.inner,
        "generator": element_to_list(rep.generator) if rep.generator else None,
        "ambiguity": [element_to_list(v) for v in rep.ambiguity],
    }
    report = {
        "command": "inner-generator",
        "inputs": inputs,
        "checks": [_check("inner", rep.inner)],
        "outputs": outputs,
    }
    return _emit(report)


def _cmd_bihamiltonian(args) -> int:
    inputs: dict = {}
    alg = _load_algebra(args, inputs)
    op = _load_operator(alg, args.derivation, inputs, "derivation")
    p1 = _load_product(alg, args.product1, inputs, "product1")
    p2 = _load_product(alg, args.product2, inputs, "product2")
    rep = is_bi_hamiltonian(op, p1, p2)
    gens = [
        element_to_list(g) if g is not None else None for g in rep.generators
    ]
    report = {
        "command": "bihamiltonian",
        "inputs": inputs,
        "checks": [],
        "outputs": {
            "inner_first": rep.inner_first,
            "inner_second": rep.inner_second,
            "sum_bracket_jacobi": rep.sum_bracket_jacobi,
            "products_compatible": rep.products_compatible,
            "weak": rep.weak,
            "strong": rep.strong,
            "generators": gens,
        },
    }
    return _emit(report)


def _cmd_example(args) -> int:
    lambdas = [parse_scalar(s) for s in args.lam] if args.lam else None
    rep = example_check(args.id, dim=args.dim, band=args.band, lambdas=lambdas)
    rep["command"] = "example"
    return _emit(rep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algdeform",
        description="Exact checks for deformations of associative algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def with_algebra(p):
        p.add_argument("--algebra", required=True, help="algebra document (JSON)")
        return p

    p = with_algebra(add("check-nijenhuis", _cmd_check_nijenhuis,
                         help="torsion, associativity and unit checks for an operator"))
    p.add_argument("--operator", required=True)

    p = with_algebra(add("torsion", _cmd_torsion, help="export the torsion table"))
    p.add_argument("--operator", required=True)

    p = with_algebra(add("deform", _cmd_deform, help="export the deformed product"))
    p.add_argument("--operator", required=True)
    p.add_argument("--out", help="also write the product document to this path")

    p = with_algebra(add("criterion", _cmd_criterion,
                         help="deformed associativity versus torsion 2-cocycle"))
    p.add_argument("--operator", required=True)

    p = with_algebra(add("compat", _cmd_compat,
                         help="mixed-associator compatibility of two products"))
    p.add_argument("--product1", required=True, help="product document or 'mu'")
    p.add_argument("--product2", required=True, help="product document or 'mu'")

    p = with_algebra(add("tensors-compat", _cmd_tensors_compat,
                         help="compatibility of two torsion-free operators"))
    p.add_argument("--operator", required=True)
    p.add_argument("--operator2", required=True)

    p = with_algebra(add("hierarchy", _cmd_hierarchy,
                         help="power hierarchy checks for a torsion-free operator"))
    p.add_argument("--operator", required=True)
    p.add_argument("--max-power", type=int, default=4)

    p = with_algebra(add("projection", _cmd_projection,
                         help="projection combination l1*P1 + l2*P2 of a two-subalgebra split"))
    p.add_argument("--decomposition", required=True)
    p.add_argument("--l1", required=True)
    p.add_argument("--l2", required=True)

    p = with_algebra(add("contraction", _cmd_contraction,
                         help="contraction product of a split with subalgebra part1"))
    p.add_argument("--decomposition", required=True)

    p = with_algebra(add("theorem5", _cmd_theorem5,
                         help="two-part product from a subalgebra product and part maps"))
    p.add_argument("--decomposition", required=True)
    p.add_argument("--circ1", required=True, help="product document on part1, or 'mu'")
    p.add_argument("--n1", required=True)
    p.add_argument("--n1p", help="defaults to n1")
    p.add_argument("--n2", required=True)

    p = with_algebra(add("extend", _cmd_extend,
                         help="extend a part1 operator by zero and test the obstructions"))
    p.add_argument("--decomposition", required=True)
    p.add_argument("--n1", required=True)

    p = with_algebra(add("lie-check", _cmd_lie_check,
                         help="commutator identities of the deformed product"))
    p.add_argument("--operator", required=True)

    p = with_algebra(add("cohomology", _cmd_cohomology,
                         help="cohomology dimension in degree 0, 1 or 2"))
    p.add_argument("--degree", type=int, required=True, choices=(0, 1, 2))

    p = with_algebra(add("derivation-check", _cmd_derivation_check,
                         help="Leibniz rule for an operator against a product"))
    p.add_argument("--operator", required=True)
    p.add_argument("--product", default="mu", help="product document or 'mu' (default)")

    p = with_algebra(add("inner-generator", _cmd_inner_generator,
                         help="solve for a generator realizing a derivation as inner"))
    p.add_argument("--operator", required=True)
    p.add_argument("--product", default="mu", help="product document or 'mu' (default)")

    p = with_algebra(add("bihamiltonian", _cmd_bihamiltonian,
                         help="weak/strong classification of a derivation and two products"))
    p.add_argument("--derivation", required=True, help="operator document")
    p.add_argument("--product1", required=True, help="product document or 'mu'")
    p.add_argument("--product2", required=True, help="product document or 'mu'")

    p = add("example", _cmd_example, help="re-run one of the six worked examples")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4, 5, 6))
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--band", type=int, default=1)
    p.add_argument("--lambda", dest="lam", action="append",
                   help="scalar value; may repeat (oscillator examples only)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
