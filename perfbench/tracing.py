"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces chosen functions and methods of ``algdeform`` by
wrappers for the length of one traced pass, then puts every original back.
Package modules bind each other's functions with ``from ... import``, so a
module-level function is replaced under every name any package module binds
it to (found by object identity); methods are replaced on their class.

Span wrappers keep (name, start, end, parent) for each call and add the
call's self time -- its duration minus the time its child spans cover -- to
the name's total. Count wrappers (``Scalar`` arithmetic, too frequent for
spans) only count, and keep a deterministic sample of their operands.
"""

from __future__ import annotations

import numbers
import sys
import time
import weakref
from array import array

SPAN_CAP = 200_000
OPERAND_SAMPLE_CAP = 4096


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counters: dict[str, int] = {}
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.spans_dropped = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self.operand_samples: dict[str, list[tuple]] = {}
        self._reducer_serial = weakref.WeakKeyDictionary()
        self.reducer_nnz: dict[int, int] = {}
        self._current_reducer = None

    # -- bookkeeping ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def span_wrapper(self, fn, name: str, on_result=None):
        """Wrap ``fn`` so each call records a span and its self time."""
        nid = self._name_id(name)
        stack = self._stack
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                self._record(sid, nid, t0, t1, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, sid, nid, t0, t1, parent):
        if len(self.span_name) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_parent.append(parent)

    def count_wrapper(self, fn, counter: str, sample_stride: int = 0):
        """Wrap a binary method so each call bumps ``counter``.

        With ``sample_stride`` every stride-th call's operands are kept; when
        the sample is full it is thinned to every other entry and the stride
        doubles, so the sample stays spread over the whole pass.
        """
        counters = self.counters
        counters.setdefault(counter, 0)
        samples = self.operand_samples.setdefault(counter, [])
        state = [sample_stride, sample_stride]  # [stride, calls until next sample]

        def wrapper(self_, *args):
            counters[counter] += 1
            if sample_stride:
                state[1] -= 1
                if state[1] == 0:
                    state[1] = state[0]
                    samples.append((fn, self_) + args)
                    if len(samples) >= OPERAND_SAMPLE_CAP:
                        del samples[1::2]
                        state[0] *= 2
                        state[1] = state[0]
            return fn(self_, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    def add_row_wrapper(self, fn, name: str):
        """``RowReducer.add_row`` as a span, plus rank gain and stored fill-in."""

        def on_result(args, grew):
            reducer = args[0]
            if grew:
                self.counters["add_row_useful"] += 1
            if reducer is not self._current_reducer:
                self._close_reducer()
                self._current_reducer = reducer
                self._reducer_serial.setdefault(reducer, len(self.reducer_nnz) + 1)
                self.reducer_nnz.setdefault(self._reducer_serial[reducer], 0)

        self.counters.setdefault("add_row_useful", 0)
        return self.span_wrapper(fn, name, on_result)

    def _close_reducer(self):
        """Record the stored nonzeros of the reducer that was last fed."""
        reducer = self._current_reducer
        if reducer is not None:
            serial = self._reducer_serial[reducer]
            self.reducer_nnz[serial] = sum(len(r) for r in reducer.rows)
        self._current_reducer = None

    # -- installing and removing ------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        self._close_reducer()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int]]:
        """name -> (self ns, calls), summed over every wrapper of that name."""
        out: dict[str, list[int]] = {}
        for nid, name in enumerate(self.names):
            acc = out.setdefault(name, [0, 0])
            acc[0] += self.self_ns[nid]
            acc[1] += self.calls[nid]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_spans(self, path: str) -> None:
        """Spans as text: one ``id name start_ns end_ns parent_id`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans={len(self.span_name)} dropped={self.spans_dropped}\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_id[i]} {self.names[self.span_name[i]]} {self.span_start[i]} "
                    f"{self.span_end[i]} {self.span_parent[i]}\n"
                )


def package_modules(package_name: str = "algdeform") -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package_name or name.startswith(package_name + "."))
    ]


# -- the package's layers ------------------------------------------------------------------

# (metric prefix, module, owner inside the module or None, attribute). Each
# becomes a span wrapper; ``<prefix>_s`` is its self time and ``<prefix>_calls``
# its call count.
SPANS = (
    ("tables.table_insert", "tables", None, "table_insert"),
    ("tables.vec_add_into", "tables", None, "vec_add_into"),
    ("tables.table_sub", "tables", None, "table_sub"),
    ("tables.table_add_into", "tables", None, "table_add_into"),
    ("tables.table_tidy", "tables", None, "table_tidy"),
    ("tables.first_witness", "tables", None, "first_witness"),
    ("linalg.add_row", "linalg", "RowReducer", "add_row"),
    ("hochschild.coboundary", "hochschild", None, "coboundary"),
    ("hochschild.cohomology_dimension", "hochschild", None, "cohomology_dimension"),
    ("algebra.init", "algebra", "Algebra", "__init__"),
    ("algebra.mul_vec", "algebra", "Algebra", "mul_vec"),
    ("algebra.apply_vec", "algebra", "Operator", "apply_vec"),
    ("deform.deform", "deform", None, "deform"),
    ("deform.torsion", "deform", None, "torsion"),
    ("deform.associativity_witness", "deform", "Product", "associativity_witness"),
    ("deform.mixed_associator", "deform", None, "mixed_associator_witness"),
    ("deform.verify_hierarchy", "deform", None, "verify_hierarchy"),
    ("deform.tensors_compatible", "deform", None, "tensors_compatible"),
    ("deform.lie_nijenhuis_check", "deform", None, "lie_nijenhuis_check"),
    ("deform.total_skew_associator", "deform", None, "total_skew_associator"),
    ("dynamics.example_check", "dynamics", None, "example_check"),
    ("dynamics.inner_generator", "dynamics", None, "inner_generator"),
    ("dynamics.is_bi_hamiltonian", "dynamics", None, "is_bi_hamiltonian"),
    ("dynamics.is_derivation", "dynamics", None, "is_derivation"),
    ("dynamics.commutator_derivation", "dynamics", None, "commutator_derivation"),
    ("documents.algebra_from_doc", "documents", None, "algebra_from_doc"),
    ("documents.operator_from_doc", "documents", None, "operator_from_doc"),
    ("documents.product_from_doc", "documents", None, "product_from_doc"),
    ("documents.product_to_doc", "documents", None, "product_to_doc"),
    ("cli.main", "cli", None, "main"),
)

# ``Scalar`` methods counted (not spanned) under each counter.
SCALAR_COUNTS = (
    ("mul", ("__mul__", "__rmul__")),
    ("add", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("inverse", ("inverse",)),
)
SCALAR_SAMPLE_STRIDE = 101

NNZ_COUNTERS = {"tables.table_insert": "table_insert_out_nnz",
                "hochschild.coboundary": "coboundary_out_nnz"}


def _nnz(table) -> int:
    return sum(len(v) for v in table.values())


def layer_bindings(api):
    """Every function the tracer replaces, with each name that holds it.

    Yields ``(metric name, kind, original, bindings)``: ``kind`` is ``"span"``
    or ``"count"`` and ``bindings`` lists every ``(owner, attribute)`` bound to
    ``original`` -- for a module-level function, each package module that binds
    it (found by identity); for a method, its class.
    """
    modules = package_modules(api.package.__name__)
    for prefix, modname, owner, attr in SPANS:
        mod = getattr(api, modname)
        if owner is None:
            original = getattr(mod, attr)
            bindings = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
        else:
            cls = getattr(mod, owner)
            original, bindings = cls.__dict__[attr], [(cls, attr)]
        yield prefix, "span", original, bindings
    scalar_cls = api.scalar.Scalar
    for counter, methods in SCALAR_COUNTS:
        for method in methods:
            yield counter, "count", scalar_cls.__dict__[method], [(scalar_cls, method)]
    yield ("parse_scalar", "count", api.documents._parse_scalar_field,
           [(api.documents, "_parse_scalar_field")])


def install_layers(tracer: Tracer, api) -> None:
    """Wrap every layer function of the imported package ``api``."""
    for name, kind, original, bindings in list(layer_bindings(api)):
        if kind == "count":
            stride = SCALAR_SAMPLE_STRIDE if name in ("mul", "add") else 0
            replacement = tracer.count_wrapper(original, name, stride)
        elif name == "linalg.add_row":
            replacement = tracer.add_row_wrapper(original, name)
        else:
            counter = NNZ_COUNTERS.get(name)
            on_result = None
            if counter is not None:
                tracer.counters[counter] = 0
                table_of = (lambda r: r.table) if name.startswith("hochschild.") else (lambda r: r)

                def on_result(args, result, counter=counter, table_of=table_of):
                    tracer.counters[counter] += _nnz(table_of(result))
            replacement = tracer.span_wrapper(original, name, on_result)
        for owner, attr in bindings:
            tracer.patch(owner, attr, replacement)


def layer_targets(api) -> list[tuple[object, str, object]]:
    """(owner, attribute, current value) for every name the tracer may replace."""
    return [(owner, attr, original)
            for _name, _kind, original, bindings in layer_bindings(api)
            for owner, attr in bindings]


def unchanged(targets) -> bool:
    """Every recorded name still holds the very object recorded (identity)."""
    return all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is value
        for owner, attr, value in targets
    )


def is_number(x) -> bool:
    """A Scalar, int or Fraction; Scalar methods are also handed elements, and refuse them."""
    return isinstance(x, numbers.Rational) or (hasattr(x, "re") and hasattr(x, "im"))


def arithmetic(samples) -> list:
    """The sampled calls whose operands are all numbers."""
    return [s for s in samples if all(is_number(x) for x in s[1:])]


def operand_bits(x) -> int:
    """Widest numerator or denominator of a Scalar, int or Fraction operand."""
    if hasattr(x, "im"):
        parts = (x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator)
    else:
        parts = (x.numerator, x.denominator)
    return max(abs(p).bit_length() for p in parts)


def time_samples(samples, repeats: int = 5) -> float:
    """Median ns per call of each sampled ``(method, self, other)`` call."""
    if not samples:
        return 0.0
    rounds = max(1, 20_000 // len(samples))
    clock = time.perf_counter_ns
    per_call = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(rounds):
            for fn, a, b in samples:
                fn(a, b)
        per_call.append((clock() - t0) / (rounds * len(samples)))
    per_call.sort()
    return per_call[len(per_call) // 2]


def bit_mix(samples) -> dict:
    """Share of sampled calls by the widest operand part, and the Gaussian share."""
    buckets = {"<=2": 0, "3-8": 0, "9-32": 0, "33-64": 0, ">64": 0}
    gaussian = 0
    for _fn, a, b in samples:
        bits = max(operand_bits(a), operand_bits(b))
        key = ("<=2" if bits <= 2 else "3-8" if bits <= 8 else "9-32" if bits <= 32
               else "33-64" if bits <= 64 else ">64")
        buckets[key] += 1
        if any(getattr(x, "im", 0) for x in (a, b)):
            gaussian += 1
    n = max(1, len(samples))
    return {"calls_sampled": len(samples),
            "bits_share": {k: v / n for k, v in buckets.items()},
            "gaussian_share": gaussian / n}


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    totals = tracer.totals()
    c = tracer.counters
    m: dict[str, float] = {}
    for prefix, *_ in SPANS:
        self_ns, calls = totals.get(prefix, (0, 0))
        if prefix == "cli.main":
            m["cli.main_self_s"] = self_ns / 1e9
            m["cli.invocations"] = calls
        elif prefix == "tables.first_witness":
            m["tables.first_witness_calls"] = calls
        else:
            m[f"{prefix}_s"] = self_ns / 1e9
            m[f"{prefix}_calls"] = calls
    m["tables.table_insert_out_nnz"] = c["table_insert_out_nnz"]
    m["hochschild.coboundary_out_nnz"] = c["coboundary_out_nnz"]
    rows_fed = m["linalg.add_row_calls"]
    m["linalg.add_row_useful_ratio"] = c["add_row_useful"] / rows_fed if rows_fed else 0.0
    m["linalg.stored_nnz"] = sum(tracer.reducer_nnz.values())
    m["documents.parse_scalar_calls"] = c["parse_scalar"]
    m["scalar.mul_calls"] = c["mul"]
    m["scalar.add_calls"] = c["add"]
    m["scalar.inverse_calls"] = c["inverse"]
    mul, add = (arithmetic(tracer.operand_samples[k]) for k in ("mul", "add"))
    bits = sorted(max(operand_bits(a), operand_bits(b)) for _fn, a, b in mul + add) or [0]
    m["scalar.operand_bits_max"] = bits[-1]
    m["scalar.operand_bits_p50"] = bits[len(bits) // 2]
    m["scalar.gaussian_share"] = bit_mix(mul + add)["gaussian_share"]
    m["scalar.mul_ns"] = time_samples(mul)
    m["scalar.add_ns"] = time_samples(add)
    m.update(extra)
    return m
