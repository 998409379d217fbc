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
from .errors import DocumentError, check_size
from .hochschild import Cochain
from .scalar import Scalar, ScalarError, as_scalar
from .tables import Table

_ESCAPE = json.encoder.encode_basestring_ascii

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
    "parse_json",
    "dump_json",
]


def read_json(path: str) -> dict:
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path)


def parse_json(data: bytes, where: str) -> dict:
    """The JSON object in ``data``, the bytes of the document at ``where``."""
    try:
        # Strict UTF-8 with universal newlines, as a text-mode open reads it,
        # so a BOM stays an error and error positions count the same chars.
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{where}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{where}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DocumentError(f"{where}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: top-level JSON value must be an object")
    return doc


def dump_json(obj, indent: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with
    str keys, lists, str, int, bool and None; TypeError for anything else.
    ``indent`` is the newline and indentation of the level ``obj`` sits at. A
    list of str and int leaves is written with one join, no call per leaf."""
    if type(obj) is str:
        return _ESCAPE(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) in (list, dict) and not obj:
        return "[]" if type(obj) is list else "{}"
    inner = indent + "  "
    if type(obj) is list:
        if all(type(x) is str or type(x) is int for x in obj):
            items = [_ESCAPE(x) if type(x) is str else int.__repr__(x) for x in obj]
        else:
            items = [dump_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if type(obj) is dict:  # a key that is not a str fails to sort or escape
        items = [_ESCAPE(k) + ": " + dump_json(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _parse_scalar_field(value, where: str) -> Scalar:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: booleans are not scalars")
    if isinstance(value, (str, int)):
        try:
            return as_scalar(value)
        except ScalarError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    raise DocumentError(f"{where}: expected a scalar string, got {value!r}")


def _scalar_reader(where: str):
    """:func:`_parse_scalar_field` for the fields of one list: each distinct
    string is parsed once, ints and bools are checked every time."""
    parsed: dict[str, Scalar] = {}

    def read(value) -> Scalar:
        if type(value) is not str:
            return _parse_scalar_field(value, where)
        s = parsed.get(value)
        if s is None:
            s = parsed[value] = _parse_scalar_field(value, where)
        return s

    return read


def _require(doc: dict, keys, where: str) -> None:
    for key in keys:
        if key not in doc:
            raise DocumentError(f"{where}: missing key {key!r}")


def _check_declared_algebra(doc: dict, alg: Algebra, kind: str, where: str) -> None:
    """Refuse a document whose optional ``algebra`` names another algebra."""
    declared = doc.get("algebra")
    if declared is not None and declared != alg.name:
        raise DocumentError(
            f"{where}: {kind} was written for algebra {declared!r}, not {alg.name!r}"
        )


def _read_unit(doc: dict, dim: int, where: str) -> Optional[list[Scalar]]:
    """The optional ``unit`` list of ``dim`` scalars, or None."""
    unit = doc.get("unit")
    if unit is None:
        return None
    if not isinstance(unit, list) or len(unit) != dim:
        raise DocumentError(f"{where}: unit must list {dim} scalars")
    return list(map(_scalar_reader(where), unit))


def structure_to_triples(table: Table) -> list[list]:
    triples = []
    for (i, j), vec in table.items():
        for k, v in vec.items():
            triples.append([i, j, k, str(v)])
    triples.sort(key=lambda t: (t[0], t[1], t[2]))
    return triples


def triples_to_table(raw, dim: int, where: str) -> dict[tuple[int, int], dict[int, Scalar]]:
    read = _scalar_reader(where)
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: structure must be a list of [i, j, k, scalar]")
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 4:
            raise DocumentError(f"{where}: bad structure entry {entry!r}")
        i, j, k, s = entry
        for idx in (i, j, k):
            if not (type(idx) is int and 0 <= idx < dim):
                raise DocumentError(f"{where}: structure index {idx!r} out of range")
        cell = table.setdefault((i, j), {})
        if k in cell:
            raise DocumentError(f"{where}: structure triple {[i, j, k]} is repeated")
        cell[k] = read(s)
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
    _require(doc, ("name", "dim", "basis", "structure"), where)
    name = doc["name"]
    dim = doc["dim"]
    if not isinstance(name, str):
        raise DocumentError(f"{where}: name must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{where}: dim must be a nonnegative integer")
    check_size(f"{where}: dim^2", dim ** 2)
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim or any(type(b) is not str for b in basis):
        raise DocumentError(f"{where}: basis must be a list of {dim} labels")
    structure = triples_to_table(doc["structure"], dim, where)
    unit_vec = _read_unit(doc, dim, where)
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
    _require(doc, ("matrix",), where)
    _check_declared_algebra(doc, alg, "operator", where)
    matrix, d = doc["matrix"], alg.dim
    if not isinstance(matrix, list) or len(matrix) != d or any(
        not isinstance(r, list) or len(r) != d for r in matrix
    ):
        raise DocumentError(f"{where}: matrix must be {d}x{d}")
    read = _scalar_reader(where)
    cols: list[dict[int, Scalar]] = [{} for _ in range(d)]
    for i, row in enumerate(matrix):
        for col, s in zip(cols, map(read, row)):
            if s:
                col[i] = s
    return Operator._of_columns(alg, cols)


def decomposition_to_doc(dec: Decomposition) -> dict:
    return {"part1": list(dec.part1)}


def decomposition_from_doc(
    alg: Algebra, doc: dict, where: str = "decomposition document"
) -> Decomposition:
    _require(doc, ("part1",), where)
    part1 = doc["part1"]
    if not isinstance(part1, list) or any(type(i) is not int for i in part1):
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
    _require(doc, ("structure",), where)
    _check_declared_algebra(doc, alg, "product", where)
    declared_dim = doc.get("dim")
    if declared_dim is not None and declared_dim != alg.dim:
        raise DocumentError(f"{where}: dim {declared_dim} does not match {alg.dim}")
    table = triples_to_table(doc["structure"], alg.dim, where)
    # The flag is only type-checked: it is recomputed where it is used.
    associative = doc.get("associative")
    if associative is not None and not isinstance(associative, bool):
        raise DocumentError(f"{where}: associative flag must be boolean or null")
    unit = _read_unit(doc, alg.dim, where)
    unit_el = None if unit is None else alg.element(unit)
    prod = Product(Cochain(alg, 2, table, copy=False), unit=unit_el)
    if unit_el is not None and not prod.is_unit(unit_el):
        raise DocumentError(f"{where}: claimed unit is not a unit for the product")
    return prod
