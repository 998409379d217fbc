"""Sparse coefficient tables for multilinear maps on a finite basis.

A *vector* is ``{basis index: Scalar}`` with zero entries omitted. A *table*
for an n-linear map sends n-tuples of basis indices to vectors, again with
zero rows omitted. An operator is given by its columns: column j is the image
of basis vector j.

Every identity check in the package has one shape: two compositions of a
product table with linear operators agree on every basis tuple. Such a check
is a signed sum of terms, written once as data:

    Compose(c, T, N, (N1, N2))  c * N o T o (N1, N2)   (None = identity)
    Insert(c, P, Q, pos)        c * P(Q(a, b), c) or c * P(a, Q(b, c))

:func:`deform_terms` gives the deformed product T o (N, 1) + T o (1, N) -
N o T as three compose terms, :func:`associator_terms` and
:func:`mixed_associator_terms` the associators as insertions. A sum of terms
is read in one of two ways:

- :func:`table_of` builds it with the Scalar kernel that also builds every
  table the package outputs (in ``hochschild`` the graded bracket and the
  coboundary d = (-1)^(n+1) [mu, .] are insertions of any arity):

      table_insert_into   acc += c * P(..., Q(...), ...)  (Q in one slot of P)

  An operator is a 1-cochain, the arity-1 table {(j,): column j}, so N o T
  inserts T into N; T o (N1, N2) is read in one pass over T, from the
  preimage lists of N1 and N2. :func:`first_witness` returns the
  sum's lexicographically smallest failing tuple, with the residual there.
- :class:`Sweep` returns that same witness without building the table, for
  checks that only test it. Each table and operator is read once into flat
  integer entries over its common denominator, and indexed once per role it
  plays; the terms go to one common scale, which cannot change a zero test.
  The first slot is swept in ascending order and only its rows are summed,
  in plain ints with the real and the imaginary parts apart; the first
  nonzero row is the witness, and only its residual is divided back into
  Scalars. Swept to the end (:meth:`Sweep.kept_sum`), a sum of compose terms
  is kept as an integer form instead, which later terms of the same sweep
  take in place of a table; ``deform.associativity_criterion`` keeps its
  deformed product and torsion so, with no Scalar table.

Both are flat and dict-based: their cost scales with the number of nonzero
entries, never with dim**n, and a sweep holds one first-slot row block at a
time.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .scalar import MINUS_ONE, ONE, ZERO, Scalar, _canonical

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
    "Insert",
    "Compose",
    "table_of",
    "deform_terms",
    "associator_terms",
    "mixed_associator_terms",
    "associator_table",
    "mixed_associator_table",
    "table_alternation",
    "slot_rows",
    "first_witness",
    "Sweep",
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
    """Entry by entry, an absent entry reading zero, up to the first that differs."""
    return a == b or all(a.get(k, ZERO) == b.get(k, ZERO) for k in a.keys() | b.keys())


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
        out[t] = {k: coef if v is ONE else coef * v for k, v in vec.items()}
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
                qcoef = coef if qcoef is ONE else coef * qcoef
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


class Insert:
    """The term coef * P(Q(a, b), c) (``pos`` 0) or coef * P(a, Q(b, c)) (``pos`` 1).

    P and Q are arity-2 tables, or handles from :meth:`Sweep.kept_sum` in a
    term that sweep reads; the term has arity 3.
    """

    __slots__ = ("coef", "p", "q", "pos")

    def __init__(self, coef: Scalar, p: Table, q: Table, pos: int):
        self.coef, self.p, self.q, self.pos = coef, p, q, pos


class Compose:
    """The term coef * outer o table o (inner[0], inner[1]); None is the identity.

    ``table`` has arity 2, and so has the term; it may be a handle from
    :meth:`Sweep.kept_sum` in a term that sweep reads.
    """

    __slots__ = ("coef", "table", "outer", "inner")

    def __init__(self, coef: Scalar, table: Table, outer: Optional[Columns] = None,
                 inner: Optional[Sequence[Optional[Columns]]] = None):
        self.coef, self.table, self.outer, self.inner = coef, table, outer, inner


def table_of(terms: Sequence[Insert | Compose]) -> Table:
    """The signed sum of ``terms``, built in full with Scalars. A compose
    term's inner operators are substituted in one pass over its table, read
    from their preimage lists x -> [(a, N[a][x])], a missing one as 1; its
    outer operator, the arity-1 table {(j,): column j}, is inserted last."""
    acc: Table = {}
    for term in terms:
        if type(term) is Insert:
            table_insert_into(acc, term.coef, term.p, 2, term.q, 2, term.pos)
            continue
        table, outer, coef = term.table, term.outer, term.coef if term.outer is None else ONE
        if term.inner:  # (a, b) gets N1[a][x] N2[b][y] T(x, y); coef rides on slot 0
            pre = [None if op is None else {} for op in term.inner]
            for p, op, k in zip(pre, term.inner, (coef, ONE)):
                for a, col in enumerate(op or ()):
                    for x, c in col.items():
                        p.setdefault(x, []).append((a, c if k is ONE else k * c))
            inner, table = table, acc if outer is None else {}
            for (x, y), vec in inner.items():
                for a, c1 in ((x, coef),) if pre[0] is None else pre[0].get(x, ()):
                    for b, c2 in ((y, ONE),) if pre[1] is None else pre[1].get(y, ()):
                        c = c1 if c2 is ONE else c2 if c1 is ONE else c1 * c2
                        vec_add_into(table.setdefault((a, b), {}), c, vec)
        if outer is not None:
            table_insert_into(acc, term.coef, {(j,): col for j, col in enumerate(outer) if col}, 1, table, 2, 0)
        elif table is not acc:
            table_add_into(acc, coef, table)
    return table_tidy(acc)


def deform_terms(coef: Scalar, table: Table, cols: Columns) -> list[Compose]:
    """coef * (T o (N, 1) + T o (1, N) - N o T) for T = ``table``, N = ``cols``.

    For a product T this is the deformed product N(A)B + A N(B) - N(AB), the
    Hochschild coboundary of N taken with T.
    """
    neg = MINUS_ONE if coef is ONE else ONE if coef is MINUS_ONE else -coef
    return [
        Compose(coef, table, inner=(cols, None)),
        Compose(coef, table, inner=(None, cols)),
        Compose(neg, table, outer=cols),
    ]


def associator_terms(table: Table) -> list[Insert]:
    """(e_a e_b) e_c - e_a (e_b e_c) for an arity-2 table."""
    return [Insert(ONE, table, table, 0), Insert(MINUS_ONE, table, table, 1)]


def mixed_associator_terms(t1: Table, t2: Table) -> list[Insert]:
    """p1(p2(a,b),c) + p2(p1(a,b),c) - p1(a,p2(b,c)) - p2(a,p1(b,c))."""
    return [
        Insert(ONE, t1, t2, 0),
        Insert(ONE, t2, t1, 0),
        Insert(MINUS_ONE, t1, t2, 1),
        Insert(MINUS_ONE, t2, t1, 1),
    ]


def associator_table(table: Table) -> Table:
    return table_of(associator_terms(table))


def mixed_associator_table(t1: Table, t2: Table) -> Table:
    return table_of(mixed_associator_terms(t1, t2))


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


def slot_rows(table: Table, signs: Sequence[Optional[Scalar]]) -> dict[tuple[int, int], Vec]:
    """The rows of the linear map x -> sum_pos signs[pos] * table(x in slot
    pos, e_j) of an arity-2 ``table``, a slot whose sign is None left out:
    row (j, c), over the coordinates of x, gives coordinate c at e_j."""
    slots = [(pos, sign) for pos, sign in enumerate(signs) if sign is not None]
    rows: dict[tuple[int, int], Vec] = {}
    for pair, vec in table.items():
        for c, s in vec.items():
            for pos, sign in slots:
                row = rows.setdefault((pair[1 - pos], c), {})
                w = s if sign is ONE else -s if sign is MINUS_ONE else sign * s
                cur = row.get(pair[pos])
                row[pair[pos]] = w if cur is None else cur + w
    return rows


def first_witness(table: Table) -> tuple[tuple[int, ...], Vec] | None:
    """Lexicographically smallest nonzero row, or None if the table is zero."""
    table_tidy(table)
    if not table:
        return None
    key = min(table)
    return key, table[key]


# -- the witness engine ---------------------------------------------------------------
#
# A form is a table, or an operator's columns, scaled to integers by the
# common denominator d of its entries and split into its real and imaginary
# parts: (d, [(phase, [(key, k, v), ...]), ...], {role: [(phase, index), ...]}).
# A part of phase p stands for i**p times its integers, one flat entry per
# nonzero (key the table row or operator column, k the output), those of one
# key contiguous. Each role of a form in a sweep is indexed once, in one pass.

_ROWS, _FLAT, _OUT, _COLS, _PRE = range(5)
_IDENTITY = (1, [(0, None)])  # a slot left alone: scale 1, one real part, no index


def _int_form(items) -> tuple:
    """The form of ``items``, (key, {k: Scalar}) pairs: their entries are read
    once into a flat list, and each part is one pass over that list."""
    flat = [(t, k, v) for t, vec in items for k, v in vec.items()]
    d = lcm(*{v.d for _, _, v in flat})
    if d == 1:  # integer entries, the common case: nothing to scale
        re = [(t, k, v.a) for t, k, v in flat if v.a]
        im = [(t, k, v.b) for t, k, v in flat if v.b]
    else:
        re = [(t, k, v.a * (d // v.d)) for t, k, v in flat if v.a]
        im = [(t, k, v.b * (d // v.d)) for t, k, v in flat if v.b]
    return d, [(phase, part) for phase, part in ((0, re), (1, im)) if part], {}


def _index(role: int, part: list, dim: int):
    """One part of a table or operator, indexed for its role in a sweep."""
    if role == _COLS:  # column a of an operator: [(k, v)]
        cols: list = [[] for _ in range(dim)]
        for a, k, v in part:
            cols[a].append((k, v))
        return cols
    idx: dict = {}
    if role == _ROWS:  # (a, m) -> a: [(m, [(k, v), ...])], one list per row
        last = None
        for t, k, v in part:
            if t != last:
                last, entries = t, []
                idx.setdefault(t[0], []).append((t[1], entries))
            entries.append((k, v))
    elif role == _FLAT:  # (m, c) -> m: [(c*dim + k, v)]
        for (m, c), k, v in part:
            idx.setdefault(m, []).append((c * dim + k, v))
    elif role == _OUT:  # (b, c) -> output m: [((b*dim + c)*dim, v)]
        for (b, c), m, v in part:
            idx.setdefault(m, []).append(((b * dim + c) * dim, v))
    else:  # _PRE: column a -> output m: [(a*dim, v)]
        for a, m, v in part:
            idx.setdefault(m, []).append((a * dim, v))
    return idx


class Sweep:
    """The witness engine for basis indices below ``dim``.

    :meth:`witness` returns ``first_witness(table_of(terms))`` without
    building the table. Every table and operator is scaled once to integers,
    listed flat, and indexed once for each role it plays (by first slot, by
    output coordinate, ...). These forms are kept for the life of the sweep,
    so one sweep serves many sums over the same tables, which must not change
    meanwhile; :meth:`kept_sum` adds a whole sum as one more such form.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._forms: dict = {}  # id -> (the object, keeping its id taken; its form)

    def _form(self, obj) -> tuple:
        """The form of a table or of operator columns."""
        hit = self._forms.get(id(obj))
        if hit is None:
            form = _int_form(obj.items() if isinstance(obj, dict) else enumerate(obj))
            hit = self._forms[id(obj)] = (obj, form)
        return hit[1]

    def _indexed(self, obj, role: int) -> tuple:
        """(scale, [(phase, index), ...]) of ``obj``'s form in ``role``; None is the identity."""
        if obj is None:
            return _IDENTITY
        hit = self._forms.get(id(obj))
        d, parts, indexes = self._form(obj) if hit is None else hit[1]
        if role not in indexes:
            indexes[role] = [(phase, _index(role, part, self.dim)) for phase, part in parts]
        return d, indexes[role]

    def witness(self, terms: Sequence[Insert | Compose]) -> tuple[tuple[int, ...], Vec] | None:
        """The smallest failing tuple of the sum of ``terms`` and its residual.

        All terms are :class:`Insert` (arity 3) or all are :class:`Compose`
        (arity 2). The terms are brought to one common integer scale and
        summed in plain ints, the real and the imaginary parts apart; only
        the reported residual is divided back into Scalars. The first slot
        ``a`` is swept in ascending order: only the rows (a, ...) are summed,
        and the first ``a`` with a nonzero row gives the witness.
        """
        kind, scale, jobs = self._jobs(terms)
        dim = self.dim
        for a, re, im in self._blocks(jobs):
            rest = min(key for acc in (re, im) for key, v in acc.items() if v) // dim
            residual: Vec = {}
            for key in range(rest * dim, rest * dim + dim):
                r, i = re.get(key, 0), im.get(key, 0)
                if r or i:
                    residual[key - rest * dim] = _canonical(r, i, scale)
            tail = divmod(rest, dim) if kind < 2 else (rest,)
            return (a, *tail), residual
        return None

    def kept_sum(self, terms: Sequence[Compose]) -> object:
        """Sweep the sum of compose ``terms`` to the end and keep it as a form.

        Returns a handle that later terms of this sweep take in place of a
        table: the sum is never divided back into Scalars. Its rows are listed
        in ascending order, and the common scale is divided by its gcd with
        every entry, so the form holds the same integers as that of the built
        table.
        """
        kind, scale, jobs = self._jobs(terms)
        if kind != 2:
            raise ValueError("only a sum of compose terms is kept")
        dim, parts = self.dim, ([], [])
        for a, *accs in self._blocks(jobs):
            for part, acc in zip(parts, accs):
                part += [((a, key // dim), key % dim, v) for key, v in sorted(acc.items()) if v]
        g = gcd(scale, *(v for part in parts for _, _, v in part))
        parts = [(phase, part if g == 1 else [(t, k, v // g) for t, k, v in part])
                 for phase, part in enumerate(parts) if part]
        handle = object()
        self._forms[id(handle)] = (handle, (scale // g, parts, {}))
        return handle

    def _jobs(self, terms) -> tuple:
        """(kind, common scale, jobs) of a sum: kind 0 or 1 for insertions in
        that slot, 2 for compositions; a job is (kind, integer factor, 0 real /
        1 imaginary, indexes), one per choice of a part in each slot."""
        ix, scale, specs = self._indexed, 1, []
        compose = not terms or type(terms[0]) is Compose
        for term in terms:
            if type(term) is not (Compose if compose else Insert):
                raise ValueError("insert terms have arity 3, compose terms arity 2")
            if compose:
                n1, n2 = term.inner or (None, None)
                (d1, c1), (dt, rows), (d2, pre), (do, outer) = (
                    ix(n1, _COLS), ix(term.table, _ROWS), ix(n2, _PRE), ix(term.outer, _COLS))
                den, combos = d1 * dt * d2 * do, [(p + q + r + s, (w, x, y, z)) for p, w in c1
                                                  for q, x in rows for r, y in pre for s, z in outer]
            else:
                if term.pos == 0:  # P(Q(a, b), c): Q rows (a, b), P rows (m, c)
                    (dr, rows), (dx, other) = ix(term.q, _ROWS), ix(term.p, _FLAT)
                elif term.pos == 1:  # P(a, Q(b, c)): P rows (a, m), Q rows (b, c) by output m
                    (dr, rows), (dx, other) = ix(term.p, _ROWS), ix(term.q, _OUT)
                else:
                    raise ValueError(f"slot {term.pos} out of range for arity 2")
                den, combos = dr * dx, [(p + q, (x, y)) for p, x in rows for q, y in other]
            den *= term.coef.d
            scale = lcm(scale, den)
            specs.append((2 if compose else term.pos, den, term.coef, combos))
        # i**p is 1, i, -1, -i: part p % 2, negated when p % 4 > 1
        jobs = [(kind, (m if p % 4 < 2 else -m) * (scale // den), p % 2, idx)
                for kind, den, coef, combos in specs for phase, idx in combos
                for p, m in ((phase, coef.a), (phase + 1, coef.b)) if m]
        return (specs[0][0] if specs else 2), scale, jobs

    def _blocks(self, jobs: list):
        """Yield (a, real, imaginary) for each first slot ``a``, ascending,
        whose rows are not all zero; the two accumulators map (b*dim + k) for
        compositions and ((b*dim + c)*dim + k) for insertions to ints, and are
        reused for the next ``a``."""
        if not jobs:
            return
        dim = self.dim
        accs = (defaultdict(int), defaultdict(int))
        dd = dim * dim
        for a in range(dim):
            for kind, f, target, idx in jobs:
                acc = accs[target]
                if kind == 0:  # P(Q(a, b), c): Q rows (a, b), P rows (m, c)
                    q_rows, p_flat = idx
                    for b, entries in q_rows.get(a, ()):
                        base = b * dd
                        for m, q in entries:
                            flat = p_flat.get(m)
                            if flat:
                                q *= f
                                for ck, p in flat:
                                    acc[base + ck] += q * p
                elif kind == 1:  # P(a, Q(b, c)): P rows (a, m), Q rows (b, c) by output m
                    p_rows, q_out = idx
                    for m, entries in p_rows.get(a, ()):
                        for bc, q in q_out.get(m, ()):
                            q *= f
                            for k, p in entries:
                                acc[bc + k] += q * p
                else:  # N o T o (N1, N2): N1 column a, T rows (m1, m2), N2 preimages of m2
                    cols, t_rows, pre, outer = idx
                    for m1, v1 in ((a, 1),) if cols is None else cols[a]:
                        rows = t_rows.get(m1)
                        if rows:
                            v1 *= f
                            for m2, entries in rows:
                                for a2, v2 in ((m2 * dim, 1),) if pre is None else pre.get(m2, ()):
                                    v2 *= v1
                                    if outer is None:
                                        for k, v in entries:
                                            acc[a2 + k] += v2 * v
                                    else:  # column k of N
                                        for k, v in entries:
                                            v *= v2
                                            for m, x in outer[k]:
                                                acc[a2 + m] += v * x
            re, im = accs
            if any(re.values()) or any(im.values()):
                yield a, re, im
            re.clear()
            im.clear()
