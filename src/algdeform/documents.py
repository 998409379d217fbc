"""JSON document formats for algebras, operators, decompositions, products.

Algebra document::

    {"name": str, "dim": int, "basis": [str, ...],
     "structure": [[i, j, k, scalar-string], ...],   # omitted triples are zero
     "unit": [scalar-string x dim]}                  # optional

Operator document::

    {"algebra": str, "matrix": [[scalar-string x d] x d]}   # column j = image of e_j

Decomposition document::

    {"part1": [int, ...]}

A product document reuses the algebra layout for its ``structure`` plus the
flags ``associative`` and ``unit`` (null when unknown/absent), so a deformed
product that came out associative can be fed back in as an algebra document.
All scalars are strings in the grammar of :mod:`algdeform.scalar`; indices are
0-based.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import Algebra, Decomposition, Element, Operator
from .deform import Product
from .errors import DocumentError
from .hochschild import Cochain
from .scalar import Scalar, ScalarError, as_scalar
from .tables import Table

__all__ = [
    "algebra_to_doc",
    "algebra_from_doc",
    "operator_to_doc",
    "operator_from_doc",
    "decomposition_to_doc",
    "decomposition_from_doc",
    "product_to_doc",
    "product_from_doc",
    "structure_to_triples",
    "triples_to_table",
    "element_to_list",
    "read_json",
]


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top-level JSON value must be an object")
    return doc


def _parse_scalar_field(value, where: str) -> Scalar:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: booleans are not scalars")
    if isinstance(value, (str, int)):
        try:
            return as_scalar(value)
        except ScalarError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    raise DocumentError(f"{where}: expected a scalar string, got {value!r}")


def structure_to_triples(table: Table) -> list[list]:
    triples = []
    for (i, j), vec in table.items():
        for k, v in vec.items():
            triples.append([i, j, k, str(v)])
    triples.sort(key=lambda t: (t[0], t[1], t[2]))
    return triples


def triples_to_table(raw, dim: int, where: str) -> dict[tuple[int, int], dict[int, Scalar]]:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: structure must be a list of [i, j, k, scalar]")
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 4:
            raise DocumentError(f"{where}: bad structure entry {entry!r}")
        i, j, k, s = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < dim:
                raise DocumentError(f"{where}: structure index {idx!r} out of range")
        cell = table.setdefault((i, j), {})
        if k in cell:
            raise DocumentError(f"{where}: structure triple {[i, j, k]} is repeated")
        cell[k] = _parse_scalar_field(s, where)
    return table


def element_to_list(el: Element) -> list[str]:
    return [str(v) for v in el.dense()]


def algebra_to_doc(alg: Algebra) -> dict:
    doc = {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis),
        "structure": structure_to_triples(alg.structure),
    }
    if alg.unit is not None:
        doc["unit"] = element_to_list(alg.unit)
    return doc


def algebra_from_doc(doc: dict, where: str = "algebra document") -> Algebra:
    """Build and validate an algebra; discovers the unit when none is given."""
    for key in ("name", "dim", "basis", "structure"):
        if key not in doc:
            raise DocumentError(f"{where}: missing key {key!r}")
    name = doc["name"]
    dim = doc["dim"]
    if not isinstance(name, str):
        raise DocumentError(f"{where}: name must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{where}: dim must be a nonnegative integer")
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise DocumentError(f"{where}: basis must be a list of {dim} labels")
    structure = triples_to_table(doc["structure"], dim, where)
    unit = doc.get("unit")
    unit_vec = None
    if unit is not None:
        if not isinstance(unit, list) or len(unit) != dim:
            raise DocumentError(f"{where}: unit must list {dim} scalars")
        unit_vec = [_parse_scalar_field(v, where) for v in unit]
    return Algebra(
        name,
        dim,
        basis,
        structure,
        unit=unit_vec,
        discover_unit=unit_vec is None,
    )


def operator_to_doc(op: Operator) -> dict:
    return {
        "algebra": op.algebra.name,
        "matrix": [[str(v) for v in row] for row in op.to_matrix_rows()],
    }


def operator_from_doc(alg: Algebra, doc: dict, where: str = "operator document") -> Operator:
    if "matrix" not in doc:
        raise DocumentError(f"{where}: missing key 'matrix'")
    declared = doc.get("algebra")
    if declared is not None and declared != alg.name:
        raise DocumentError(
            f"{where}: operator was written for algebra {declared!r}, not {alg.name!r}"
        )
    matrix = doc["matrix"]
    if (
        not isinstance(matrix, list)
        or len(matrix) != alg.dim
        or any(not isinstance(r, list) or len(r) != alg.dim for r in matrix)
    ):
        raise DocumentError(f"{where}: matrix must be {alg.dim}x{alg.dim}")
    rows = [[_parse_scalar_field(v, where) for v in r] for r in matrix]
    return Operator.from_matrix_rows(alg, rows)


def decomposition_to_doc(dec: Decomposition) -> dict:
    return {"part1": list(dec.part1)}


def decomposition_from_doc(
    alg: Algebra, doc: dict, where: str = "decomposition document"
) -> Decomposition:
    if "part1" not in doc:
        raise DocumentError(f"{where}: missing key 'part1'")
    part1 = doc["part1"]
    if not isinstance(part1, list) or any(
        not isinstance(i, int) or isinstance(i, bool) for i in part1
    ):
        raise DocumentError(f"{where}: part1 must be a list of integers")
    for i in part1:
        if not 0 <= i < alg.dim:
            raise DocumentError(f"{where}: part1 index {i} out of range")
    return Decomposition(alg, part1)


def product_to_doc(prod: Product, name: Optional[str] = None) -> dict:
    alg = prod.algebra
    return {
        "name": name or f"{alg.name}-product",
        "algebra": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis),
        "structure": structure_to_triples(prod.table),
        "associative": prod.associative,
        "unit": element_to_list(prod.unit) if prod.unit is not None else None,
    }


def product_from_doc(alg: Algebra, doc: dict, where: str = "product document") -> Product:
    if "structure" not in doc:
        raise DocumentError(f"{where}: missing key 'structure'")
    declared = doc.get("algebra")
    if declared is not None and declared != alg.name:
        raise DocumentError(
            f"{where}: product was written for algebra {declared!r}, not {alg.name!r}"
        )
    declared_dim = doc.get("dim")
    if declared_dim is not None and declared_dim != alg.dim:
        raise DocumentError(f"{where}: dim {declared_dim} does not match {alg.dim}")
    table = triples_to_table(doc["structure"], alg.dim, where)
    # The flag is only type-checked: it is recomputed where it is used.
    associative = doc.get("associative")
    if associative is not None and not isinstance(associative, bool):
        raise DocumentError(f"{where}: associative flag must be boolean or null")
    unit = doc.get("unit")
    unit_el = None
    if unit is not None:
        if not isinstance(unit, list) or len(unit) != alg.dim:
            raise DocumentError(f"{where}: unit must list {alg.dim} scalars")
        unit_el = alg.element([_parse_scalar_field(v, where) for v in unit])
    prod = Product(Cochain(alg, 2, table, copy=False), unit=unit_el)
    if unit_el is not None and not prod.is_unit(unit_el):
        raise DocumentError(f"{where}: claimed unit is not a unit for the product")
    return prod
