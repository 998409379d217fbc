"""Sparse coefficient tables for multilinear maps on a finite basis.

A *vector* is ``{basis index: Scalar}`` with zero entries omitted. A *table*
for an n-linear map sends n-tuples of basis indices to vectors, again with
zero rows omitted. An operator is given by its columns: column j is the image
of basis vector j.

Every identity check in the package has one shape: two compositions of a
product table with linear operators agree on every basis tuple. Such a check
is a signed sum of terms, each built in place by one of two kernels:

    table_compose_into  acc += c * N o T o (N1, N2, ...)  (None = identity)
    table_insert_into   acc += c * P(..., Q(...), ...)    (Q in one slot of P)

and the identity holds exactly when the sum is the zero table;
:func:`first_witness` returns its lexicographically smallest failing tuple.
The deformed product T o (N, 1) + T o (1, N) - N o T is three compose terms
(:func:`table_deform_into`); the associators, and in ``hochschild`` the
graded bracket and the coboundary d = (-1)^(n+1) [mu, .], are insertions.
The kernels are flat and dict-based: their cost scales with the number of
nonzero entries, never with dim**n.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Mapping, Optional, Sequence

from .scalar import MINUS_ONE, ONE, Scalar

Vec = dict[int, Scalar]
Table = dict[tuple[int, ...], Vec]
Columns = Sequence[Mapping[int, Scalar]]

__all__ = [
    "Vec",
    "Table",
    "Columns",
    "vec_add_into",
    "vec_mul",
    "vec_sub",
    "vec_eq",
    "table_tidy",
    "table_add_into",
    "table_sub",
    "table_scaled",
    "table_insert",
    "table_insert_into",
    "table_compose_into",
    "table_deform_into",
    "associator_table",
    "mixed_associator_table",
    "table_alternation",
    "first_witness",
]


def vec_add_into(acc: Vec, coef: Scalar, vec: Mapping[int, Scalar]) -> None:
    """In place: acc += coef * vec (zeros are left for a later tidy)."""
    if coef is ONE:
        for k, v in vec.items():
            cur = acc.get(k)
            acc[k] = v if cur is None else cur + v
    elif coef is MINUS_ONE:
        for k, v in vec.items():
            cur = acc.get(k)
            acc[k] = -v if cur is None else cur - v
    else:
        for k, v in vec.items():
            cur = acc.get(k)
            w = coef * v
            acc[k] = w if cur is None else cur + w


def vec_mul(table: Table, x: Mapping[int, Scalar], y: Mapping[int, Scalar]) -> Vec:
    """The arity-2 ``table`` evaluated on two vectors."""
    acc: Vec = {}
    for i, xi in x.items():
        for j, yj in y.items():
            cell = table.get((i, j))
            if cell:
                vec_add_into(acc, xi * yj, cell)
    return {k: v for k, v in acc.items() if v}


def vec_sub(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> Vec:
    out = dict(a)
    vec_add_into(out, MINUS_ONE, b)
    return {k: v for k, v in out.items() if v}


def vec_eq(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> bool:
    return not vec_sub(a, b)


def table_tidy(table: Table) -> Table:
    """Drop zero coefficients and empty rows, in place; returns the table."""
    dead_rows = []
    for t, vec in table.items():
        dead = [k for k, v in vec.items() if not v]
        for k in dead:
            del vec[k]
        if not vec:
            dead_rows.append(t)
    for t in dead_rows:
        del table[t]
    return table


def table_add_into(acc: Table, coef: Scalar, table: Table) -> None:
    for t, vec in table.items():
        row = acc.get(t)
        if row is None:
            row = {}
            acc[t] = row
        vec_add_into(row, coef, vec)


def table_sub(a: Table, b: Table) -> Table:
    out: Table = {t: dict(vec) for t, vec in a.items()}
    table_add_into(out, MINUS_ONE, b)
    return table_tidy(out)


def table_scaled(coef: Scalar, table: Table) -> Table:
    out: Table = {}
    if not coef:
        return out
    for t, vec in table.items():
        out[t] = {k: coef * v for k, v in vec.items()}
    return out


def table_insert_into(
    acc: Table, coef: Scalar, p: Table, p_arity: int, q: Table, q_arity: int, pos: int
) -> None:
    """In place: acc += coef * P(..., Q(...), ...) with Q in slot ``pos``.

    The result has arity ``p_arity + q_arity - 1``. Built by matching nonzero
    outputs of Q against slot ``pos`` of nonzero rows of P, so the cost is
    proportional to the match count. Zeros are left for a later tidy.
    """
    if not (0 <= pos < p_arity):
        raise ValueError(f"slot {pos} out of range for arity {p_arity}")
    by_slot: dict[int, list[tuple[tuple[int, ...], Vec]]] = {}
    for tp, vp in p.items():
        by_slot.setdefault(tp[pos], []).append((tp, vp))
    for tq, vq in q.items():
        for m, qcoef in vq.items():
            hits = by_slot.get(m)
            if not hits:
                continue
            if coef is not ONE:
                qcoef = coef * qcoef
            for tp, vp in hits:
                key = tp[:pos] + tq + tp[pos + 1:]
                row = acc.get(key)
                if row is None:
                    row = acc[key] = {}
                vec_add_into(row, qcoef, vp)


def table_insert(p: Table, p_arity: int, q: Table, q_arity: int, pos: int) -> Table:
    """The partial composition P(..., Q(...), ...) with Q in slot ``pos``."""
    out: Table = {}
    table_insert_into(out, ONE, p, p_arity, q, q_arity, pos)
    return table_tidy(out)


def _preimages(cols: Columns, coef: Scalar) -> dict[int, list[tuple[int, Scalar]]]:
    """m -> [(a, coef * N(e_a)_m)] over the nonzero entries of N."""
    idx: dict[int, list[tuple[int, Scalar]]] = {}
    for a, col in enumerate(cols):
        for m, v in col.items():
            idx.setdefault(m, []).append((a, v if coef is ONE else coef * v))
    return idx


def table_compose_into(
    acc: Table,
    coef: Scalar,
    table: Table,
    outer: Optional[Columns] = None,
    inner: Optional[Sequence[Optional[Columns]]] = None,
) -> None:
    """In place: acc += coef * outer o table o (inner[0], ..., inner[n-1]).

    ``outer`` and each slot of ``inner`` are operator columns; None is the
    identity. One pass over the rows of ``table``: the row at (m_1, ..., m_n),
    post-composed once, lands on every (a_1, ..., a_n) with e_{m_s} in
    inner[s](e_{a_s}), found through each operator's preimage index. Zeros are
    left for a later tidy.
    """
    slots = one = None
    substituted = [s for s, op in enumerate(inner) if op is not None] if inner else ()
    if substituted:
        # ``coef`` is folded into the index of the first substituted slot.
        slots = [
            None if op is None else _preimages(op, coef if s == substituted[0] else ONE)
            for s, op in enumerate(inner)
        ]
        if len(substituted) == 1:
            one = substituted[0]
    for t, vec in table.items():
        if outer is not None:
            image: Vec = {}
            for k, v in vec.items():
                vec_add_into(image, v, outer[k])
            vec = {k: v for k, v in image.items() if v}
            if not vec:
                continue
        if slots is None:
            row = acc.get(t)
            if row is None:
                row = acc[t] = {}
            vec_add_into(row, coef, vec)
            continue
        if one is not None:  # the other slots keep their index
            for a, c in slots[one].get(t[one], ()):
                key = t[:one] + (a,) + t[one + 1:]
                row = acc.get(key)
                if row is None:
                    row = acc[key] = {}
                vec_add_into(row, c, vec)
            continue
        hits = [((m, ONE),) if idx is None else idx.get(m) for m, idx in zip(t, slots)]
        if not all(hits):
            continue
        for combo in product(*hits):
            c = ONE
            for _, x in combo:
                if x is not ONE:
                    c = x if c is ONE else c * x
            key = tuple(a for a, _ in combo)
            row = acc.get(key)
            if row is None:
                row = acc[key] = {}
            vec_add_into(row, c, vec)


def table_deform_into(acc: Table, coef: Scalar, table: Table, cols: Columns) -> None:
    """In place: acc += coef * (T o (N, 1) + T o (1, N) - N o T), T = ``table``.

    For a product T this is the deformed product N(A)B + A N(B) - N(AB), the
    Hochschild coboundary of N taken with T. Zeros are left for a later tidy.
    """
    table_compose_into(acc, coef, table, inner=(cols, None))
    table_compose_into(acc, coef, table, inner=(None, cols))
    neg = MINUS_ONE if coef is ONE else ONE if coef is MINUS_ONE else -coef
    table_compose_into(acc, neg, table, outer=cols)


def associator_table(table: Table) -> Table:
    """(e_a e_b) e_c - e_a (e_b e_c) for an arity-2 table."""
    acc: Table = {}
    table_insert_into(acc, ONE, table, 2, table, 2, 0)
    table_insert_into(acc, MINUS_ONE, table, 2, table, 2, 1)
    return table_tidy(acc)


def mixed_associator_table(t1: Table, t2: Table) -> Table:
    """p1(p2(a,b),c) + p2(p1(a,b),c) - p1(a,p2(b,c)) - p2(a,p1(b,c))."""
    acc: Table = {}
    for pos, sign in ((0, ONE), (1, MINUS_ONE)):
        table_insert_into(acc, sign, t1, 2, t2, 2, pos)
        table_insert_into(acc, sign, t2, 2, t1, 2, pos)
    return table_tidy(acc)


def table_alternation(table: Table) -> Table:
    """The alternating sum of ``table`` over all orders of its arguments."""
    if not table:
        return {}
    arity = len(next(iter(table)))
    signed = []
    for perm in permutations(range(arity)):
        odd = sum(perm[i] > perm[j] for i, j in combinations(range(arity), 2)) % 2
        signed.append((perm, MINUS_ONE if odd else ONE))
    out: Table = {}
    for t, vec in table.items():
        for perm, sign in signed:
            row = out.setdefault(tuple(t[i] for i in perm), {})
            vec_add_into(row, sign, vec)
    return table_tidy(out)


def first_witness(table: Table) -> tuple[tuple[int, ...], Vec] | None:
    """Lexicographically smallest nonzero row, or None if the table is zero."""
    table_tidy(table)
    if not table:
        return None
    key = min(table)
    return key, table[key]
