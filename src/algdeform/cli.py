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

:func:`main` builds every report: it loads the ``--algebra`` document, passes
the algebra and the ``inputs`` record to the subcommand's handler, and wraps
the keys the handler returns with ``command``, ``checks`` and ``inputs``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from typing import Optional

from .algebra import Algebra, Operator
from .deform import (
    _deform_after_torsion,
    associativity_criterion,
    contraction_product,
    deform,
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
    dump_json,
    parse_json,
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
from .scalar import MINUS_ONE, ONE, ScalarError, parse_scalar
from .tables import Compose, Sweep

USAGE_ERRORS = (DocumentError, AlgebraError, PreconditionError, ScalarError, OSError)


def _read(path: str, inputs: dict, key: str) -> dict:
    """Parse the document at ``path``; record the sha256 of the bytes parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[key] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return parse_json(data, path)


def _table_witness(alg: Algebra, witness) -> Optional[list[str]]:
    if witness is None:
        return None
    indices, _vec = witness
    return _labels(alg, indices)


def _load_operator(alg: Algebra, path: str, inputs: dict, key: str) -> Operator:
    return operator_from_doc(alg, _read(path, inputs, key), where=path)


def _load_product(alg: Algebra, spec: str, inputs: dict, key: str):
    if spec == "mu":
        inputs[key] = {"builtin": "mu"}
        return mu_product(alg)
    return product_from_doc(alg, _read(spec, inputs, key), where=spec)


def _load_decomposition(alg: Algebra, args, inputs: dict):
    doc = _read(args.decomposition, inputs, "decomposition")
    return decomposition_from_doc(alg, doc, where=args.decomposition)


def _emit(report: dict) -> int:
    """Print the report as sorted, indented JSON; 0 if every check passed, else 1."""
    print(dump_json(report))
    return 0 if all(c["pass"] for c in report["checks"]) else 1


# -- command handlers ---------------------------------------------------------
# Each loads its other documents in order and returns the report's own keys.


def _cmd_check_nijenhuis(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    tw = nijenhuis_witness(op)
    # Assoc(mu_N) = -dT_N: only a nonzero torsion leaves an associator to sweep.
    aw = None if tw is None else deform(op, compute_flags=False).associativity_witness()
    checks = [
        _check("torsion_zero", tw is None, _table_witness(alg, tw)),
        _check("deformed_associative", aw is None, _table_witness(alg, aw)),
    ]
    if alg.unit is not None:
        preserved = op(alg.unit) == alg.unit
        checks.append(
            _check(
                "unit_preserved",
                preserved,
                None if preserved else element_to_list(op(alg.unit)),
            )
        )
    return {"checks": checks}


def _cmd_torsion(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    t = torsion(op)
    return {
        "outputs": {
            "torsion": structure_to_triples(t.table),
            "torsion_zero": t.is_zero,
        },
    }


def _cmd_deform(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    prod = deform(op)
    doc = product_to_doc(prod, name=f"{alg.name}-deformed")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc) + "\n")
    return {"outputs": {"product": doc}}


def _cmd_criterion(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    res = associativity_criterion(op)
    return {
        "checks": [_check("booleans_agree", res.agree)],
        "outputs": {
            "deformed_associative": res.deformed_associative,
            "torsion_is_2cocycle": res.torsion_is_2cocycle,
        },
    }


def _cmd_compat(args, alg, inputs) -> dict:
    p1 = _load_product(alg, args.product1, inputs, "product1")
    p2 = _load_product(alg, args.product2, inputs, "product2")
    w = mixed_associator_witness(p1, p2)
    return {"checks": [_check("mixed_associators_cancel", w is None, _table_witness(alg, w))]}


def _cmd_tensors_compat(args, alg, inputs) -> dict:
    op1 = _load_operator(alg, args.operator, inputs, "operator")
    op2 = _load_operator(alg, args.operator2, inputs, "operator2")
    # tensors_compatible refuses an operator with torsion, so by T_{N1+N2} =
    # T_{N1} + T_{N2} + C(N1, N2) the torsion of N1 + N2 it sweeps is C.
    return {
        "checks": [
            _check("compatible", tensors_compatible(op1, op2)),
            _check("matches_sum_torsion_freeness", True),
        ],
    }


def _cmd_hierarchy(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    rep = verify_hierarchy(op, args.max_power)
    checks = []
    for key in ("power_relation", "composition_law", "associativity", "pairwise_compatibility"):
        entry = rep[key]
        checks.append(_check(key, entry["pass"], entry["witness"]))
    return {"max_power": args.max_power, "checks": checks}


def _cmd_projection(args, alg, inputs) -> dict:
    dec = _load_decomposition(alg, args, inputs)
    op = projection_tensor(dec, parse_scalar(args.l1), parse_scalar(args.l2))
    torsion_zero = is_nijenhuis(op)
    prod = _deform_after_torsion(op, torsion_zero)
    checks = [
        _check("torsion_zero", torsion_zero),
        _check("deformed_associative", bool(prod.associative)),
    ]
    return {
        "checks": checks,
        "outputs": {
            "operator": operator_to_doc(op),
            "product": product_to_doc(prod, name=f"{alg.name}-projection-deformed"),
        },
    }


def _cmd_contraction(args, alg, inputs) -> dict:
    dec = _load_decomposition(alg, args, inputs)
    prod = contraction_product(dec)
    limit = interpolated_contraction_limit(dec)
    checks = [
        _check("associative", prod.associativity_witness() is None),
        _check(
            "limit_interpolation_matches",
            Sweep(alg.dim).witness([Compose(ONE, limit.table), Compose(MINUS_ONE, prod.table)])
            is None,
        ),
    ]
    return {
        "checks": checks,
        "outputs": {"product": product_to_doc(prod, name=f"{alg.name}-contraction")},
    }


def _cmd_theorem5(args, alg, inputs) -> dict:
    dec = _load_decomposition(alg, args, inputs)
    circ1 = _load_product(alg, args.circ1, inputs, "circ1")
    n1 = _load_operator(alg, args.n1, inputs, "n1")
    n1p = n1 if args.n1p is None else _load_operator(alg, args.n1p, inputs, "n1p")
    if args.n1p is None:
        inputs["n1p"] = {"builtin": "same-as-n1"}
    n2 = _load_operator(alg, args.n2, inputs, "n2")
    prod = theorem5_product(dec, circ1, n1, n1p, n2)
    return {
        "checks": [_check("associative", bool(prod.associative))],
        "outputs": {"product": product_to_doc(prod, name=f"{alg.name}-two-part")},
    }


def _cmd_extend(args, alg, inputs) -> dict:
    dec = _load_decomposition(alg, args, inputs)
    n1 = _load_operator(alg, args.n1, inputs, "n1")
    rep = extend_tensor(dec, n1)
    return {
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


def _cmd_lie_check(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    # The commutator of mu_N is the commutator of mu deformed by N, so the
    # deformed bracket identity holds for every N.
    return {
        "checks": [
            _check("deformed_bracket_identity", True),
            _check("lie_torsion_zero", lie_nijenhuis_check(op)),
        ],
    }


def _cmd_cohomology(args, alg, inputs) -> dict:
    dim = cohomology_dimension(alg, args.degree)
    return {"degree": args.degree, "outputs": {"dimension": dim}}


def _cmd_derivation_check(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    prod = _load_product(alg, args.product, inputs, "product")
    ok, witness = is_derivation(op, prod)
    return {"checks": [_check("leibniz", ok, _labels(alg, witness) if witness else None)]}


def _cmd_inner_generator(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.operator, inputs, "operator")
    prod = _load_product(alg, args.product, inputs, "product")
    rep = inner_generator(op, prod)
    outputs = {
        "is_derivation": rep.is_derivation,
        "inner": rep.inner,
        "generator": element_to_list(rep.generator) if rep.generator else None,
        "ambiguity": [element_to_list(v) for v in rep.ambiguity],
    }
    return {"checks": [_check("inner", rep.inner)], "outputs": outputs}


def _cmd_bihamiltonian(args, alg, inputs) -> dict:
    op = _load_operator(alg, args.derivation, inputs, "derivation")
    p1 = _load_product(alg, args.product1, inputs, "product1")
    p2 = _load_product(alg, args.product2, inputs, "product2")
    rep = is_bi_hamiltonian(op, p1, p2)
    gens = [
        element_to_list(g) if g is not None else None for g in rep.generators
    ]
    return {
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


def _cmd_example(args, alg, inputs) -> dict:
    lambdas = [parse_scalar(s) for s in args.lam] if args.lam else None
    return example_check(args.id, dim=args.dim, band=args.band, lambdas=lambdas)


def _arg(*flags, **kwargs):
    return flags, kwargs


_ALGEBRA = _arg("--algebra", required=True, help="algebra document (JSON)")
_OPERATOR = _arg("--operator", required=True)
_DECOMPOSITION = _arg("--decomposition", required=True)
_PRODUCT = _arg("--product", default="mu", help="product document or 'mu' (default)")
_PRODUCT1 = _arg("--product1", required=True, help="product document or 'mu'")
_PRODUCT2 = _arg("--product2", required=True, help="product document or 'mu'")

# Every subcommand: name -> (handler, help, argument specs in --help order).
COMMANDS = {
    "check-nijenhuis": (
        _cmd_check_nijenhuis,
        "torsion, associativity and unit checks for an operator",
        [_ALGEBRA, _OPERATOR],
    ),
    "torsion": (_cmd_torsion, "export the torsion table", [_ALGEBRA, _OPERATOR]),
    "deform": (
        _cmd_deform,
        "export the deformed product",
        [_ALGEBRA, _OPERATOR,
         _arg("--out", help="also write the product document to this path")],
    ),
    "criterion": (
        _cmd_criterion,
        "deformed associativity versus torsion 2-cocycle",
        [_ALGEBRA, _OPERATOR],
    ),
    "compat": (
        _cmd_compat,
        "mixed-associator compatibility of two products",
        [_ALGEBRA, _PRODUCT1, _PRODUCT2],
    ),
    "tensors-compat": (
        _cmd_tensors_compat,
        "compatibility of two torsion-free operators",
        [_ALGEBRA, _OPERATOR, _arg("--operator2", required=True)],
    ),
    "hierarchy": (
        _cmd_hierarchy,
        "power hierarchy checks for a torsion-free operator",
        [_ALGEBRA, _OPERATOR, _arg("--max-power", type=int, default=4)],
    ),
    "projection": (
        _cmd_projection,
        "projection combination l1*P1 + l2*P2 of a two-subalgebra split",
        [_ALGEBRA, _DECOMPOSITION,
         _arg("--l1", required=True), _arg("--l2", required=True)],
    ),
    "contraction": (
        _cmd_contraction,
        "contraction product of a split with subalgebra part1",
        [_ALGEBRA, _DECOMPOSITION],
    ),
    "theorem5": (
        _cmd_theorem5,
        "two-part product from a subalgebra product and part maps",
        [_ALGEBRA, _DECOMPOSITION,
         _arg("--circ1", required=True, help="product document on part1, or 'mu'"),
         _arg("--n1", required=True),
         _arg("--n1p", help="defaults to n1"),
         _arg("--n2", required=True)],
    ),
    "extend": (
        _cmd_extend,
        "extend a part1 operator by zero and test the obstructions",
        [_ALGEBRA, _DECOMPOSITION, _arg("--n1", required=True)],
    ),
    "lie-check": (
        _cmd_lie_check,
        "commutator identities of the deformed product",
        [_ALGEBRA, _OPERATOR],
    ),
    "cohomology": (
        _cmd_cohomology,
        "cohomology dimension in degree 0, 1 or 2",
        [_ALGEBRA, _arg("--degree", type=int, required=True, choices=(0, 1, 2))],
    ),
    "derivation-check": (
        _cmd_derivation_check,
        "Leibniz rule for an operator against a product",
        [_ALGEBRA, _OPERATOR, _PRODUCT],
    ),
    "inner-generator": (
        _cmd_inner_generator,
        "solve for a generator realizing a derivation as inner",
        [_ALGEBRA, _OPERATOR, _PRODUCT],
    ),
    "bihamiltonian": (
        _cmd_bihamiltonian,
        "weak/strong classification of a derivation and two products",
        [_ALGEBRA, _arg("--derivation", required=True, help="operator document"),
         _PRODUCT1, _PRODUCT2],
    ),
    "example": (
        _cmd_example,
        "re-run one of the six worked examples",
        [_arg("--id", type=int, required=True, choices=(1, 2, 3, 4, 5, 6)),
         _arg("--dim", type=int, default=16),
         _arg("--band", type=int, default=1),
         _arg("--lambda", dest="lam", action="append",
              help="scalar value; may repeat (oscillator examples only)")],
    ),
}


def _build(command: Optional[str] = None):
    """:func:`build_parser` and, given a subcommand name, its one subparser."""
    parser = argparse.ArgumentParser(
        prog="algdeform",
        description="Exact checks for deformations of associative algebras.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(COMMANDS)
    else:
        # The full choice list keeps the top-level usage line that
        # "unrecognized arguments" prints; the full parser derives the same
        # text from its choices, and a metavar there would change its
        # "required" and "invalid choice" errors.
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
        names = [command]
    for name in names:
        handler, help_text, specs = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
    return parser, p


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """A fresh CLI parser; given a subcommand name, with only that subparser,
    whose help, errors and exit codes are the full parser's."""
    return _build(command)[0]


# Each name's (parser, subparser), built on first use; None: the full parser.
_parser = functools.lru_cache(maxsize=None)(_build)


def main(argv=None) -> int:
    """Run the CLI on ``argv``; return the exit code. An argv that starts with
    a subcommand name is parsed by that name's shared subparser alone, any
    other (help, an unknown command, an option first) by the full parser.
    Only parsers are kept across calls: each call reads, digests and
    validates its documents anew. ``checks`` is empty unless the handler
    gives some; ``inputs`` lists each document read."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser, sub = _parser(command)
    if command is None:
        args, extras = parser.parse_known_args(argv)
    else:
        args, extras = sub.parse_known_args(argv[1:])
        args.command = command
    if extras:  # reported as parse_args reports them
        parser.error("unrecognized arguments: " + " ".join(extras))
    inputs: dict = {}
    try:
        alg = None
        if hasattr(args, "algebra"):
            alg = algebra_from_doc(_read(args.algebra, inputs, "algebra"), where=args.algebra)
        report = {"command": args.command, "checks": [], **args.handler(args, alg, inputs)}
        if inputs:
            report["inputs"] = inputs
        return _emit(report)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
