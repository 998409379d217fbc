"""The benchmark's own bookkeeping: self time, restoring, untraced passes.

Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import types

import run
import tracing
from workloads import WORKLOADS, Op

API = run.import_package()
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def busy(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    ns = types.SimpleNamespace()
    ns.inner = tracer.span_wrapper(busy, "inner")

    def outer():
        busy(20_000)
        ns.inner(30_000)
        busy(20_000)
        ns.inner(10_000)

    ns.outer = tracer.span_wrapper(outer, "outer")
    ns.outer()
    spans = {
        tracer.span_id[i]: (tracer.names[tracer.span_name[i]], tracer.span_start[i],
                            tracer.span_end[i], tracer.span_parent[i])
        for i in range(len(tracer.span_id))
    }
    (outer_id, (_, start, end, parent)), = [(k, v) for k, v in spans.items() if v[0] == "outer"]
    assert parent == -1
    children = [v for v in spans.values() if v[3] == outer_id]
    assert [c[0] for c in children] == ["inner", "inner"]
    child_ns = sum(c[2] - c[1] for c in children)
    totals = tracer.totals()
    assert totals["outer"] == ((end - start) - child_ns, 1)
    assert totals["inner"] == (child_ns, 2)


def test_every_wrapped_name_is_restored():
    targets = tracing.layer_targets(API)
    tracer = tracing.Tracer()
    tracing.install_layers(tracer, API)
    try:
        assert not tracing.unchanged(targets)
        # vec_add_into is bound in several modules; every binding is wrapped.
        original = [v for o, a, v in targets if a == "vec_add_into"][0]
        bound = [m for m in tracing.package_modules() if getattr(m, "vec_add_into", None) is not None]
        assert len(bound) > 1
        assert all(m.vec_add_into is not original for m in bound)
        API.hochschild.cohomology_dimension(API.algebra.full_matrix_algebra(2), 1)
    finally:
        tracer.uninstall()
    assert tracing.unchanged(targets)
    assert tracer.totals()["hochschild.cohomology_dimension"][1] == 1


class ProbeWorkload:
    """Records, from inside each operation, whether any layer name is replaced."""

    name = "probe"

    def __init__(self):
        self.targets = tracing.layer_targets(API)
        self.seen = []

    def load(self, api):
        pass

    def operations(self):
        def op():
            self.seen.append(tracing.unchanged(self.targets))
            return API.hochschild.cohomology_dimension(API.algebra.dual_number_algebra(), 0)
        return [Op("probe", op)]

    def check(self, op, result):
        return [] if result == 2 else [f"H0(dual) = {result}"]


def test_untraced_passes_run_without_wrappers(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    probe = ProbeWorkload()
    run.run_traced(probe, API, "probe")
    assert probe.seen == [False]
    passes, _speed = run.run_untraced(probe, 0.0, API)
    assert probe.seen[1:] == [True] * len(passes)
    assert all(not p.errors for p in passes)


class RaisingWorkload:
    name = "raising"

    def __init__(self, known_fault):
        self.known_fault = known_fault

    def operations(self):
        def boom():
            raise ValueError("boom")
        return [Op("ok", lambda: 1), Op("boom", boom, self.known_fault)]

    def check(self, op, result):
        return []


def test_a_raising_operation_is_not_timed():
    res = run.run_pass(RaisingWorkload(known_fault=False))
    assert (res.attempted, res.failed, list(res.intervals)) == (2, 0, ["ok"])
    assert res.errors == ["boom raised: ValueError: boom"]
    res = run.run_pass(RaisingWorkload(known_fault=True))
    assert (res.attempted, res.failed, list(res.intervals), res.errors) == (2, 1, ["ok"], [])


def test_benchmark_json_names_the_reported_metrics(tmp_path, monkeypatch):
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    _result, layer = run.run_traced(ProbeWorkload(), API, "probe")
    assert {m["name"] for m in bench["per_layer"]} == set(layer)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: run.unit_of(k) for k in layer}
    cohomology = WORKLOADS["cohomology"](1, str(tmp_path))
    cohomology.load(API)
    timings = {op.label: 0.5 for op in cohomology.operations()}
    e2e = {"setup_s", "total_s", "peak_rss_mib"} | set(cohomology.pass_metrics(timings))
    assert {m["name"] for m in bench["end_to_end"]} == e2e
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: run.unit_of(k) for k in e2e}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
