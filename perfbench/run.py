"""algdeform benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones: set-up
is timed in fresh processes, then whole passes run until ``--seconds`` have
gone by. Every end-to-end time is adjusted for the host's speed
(:mod:`speedprobe`) and is a median: over the set-up processes, over the
passes, and over each operation's passes. With ``--trace 1`` they are the
per-layer ones of the workload's set-up and a single pass, traced. Spans of
a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from setup_time import ROOT, WORK, import_package  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60


def measure_setup(workload: str, seed: int) -> float:
    """Median adjusted set-up time over fresh processes (``setup_time.py``)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_time.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class PassResult:
    def __init__(self):
        self.intervals: dict[str, tuple[float, float]] = {}  # operation label -> (start, end)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timings(self, probe=None) -> dict[str, float]:
        """Seconds per operation: wall time, or adjusted by a :class:`SpeedProbe`."""
        if probe is None:
            return {label: t1 - t0 for label, (t0, t1) in self.intervals.items()}
        return {label: probe.adjusted(t0, t1) for label, (t0, t1) in self.intervals.items()}


def run_pass(workload) -> PassResult:
    """One pass over the workload's operations; each result checked untimed.

    An operation that raises is left out of the intervals. It makes the run
    incorrect, unless it is a known fault, which counts in ``failed``.
    """
    res = PassResult()
    clock = time.perf_counter
    for op in workload.operations():
        res.attempted += 1
        t0 = clock()
        try:
            result, raised = op.fn(), None
        except Exception:  # a program fault is reported, not fatal to the run
            result, raised = None, traceback.format_exc()
        t1 = clock()
        if raised is not None:
            sys.stderr.write(f"{op.label} raised:\n{raised}")
            if op.known_fault:
                res.failed += 1
            else:
                res.errors.append(f"{op.label} raised: {raised.splitlines()[-1]}")
            continue
        if op.label in res.intervals:
            raise RuntimeError(f"two operations of a pass are labelled {op.label!r}")
        res.intervals[op.label] = (t0, t1)
        errors = workload.check(op, result)
        if errors and op.known_fault:
            res.failed += 1
        else:
            res.errors += errors
    return res


def run_untraced(workload, seconds: float, api):
    """Whole passes until ``seconds`` have gone by, at least one, with speed probes.

    Returns the passes and the :class:`SpeedProbe` that ran during them.
    """
    from speedprobe import SpeedProbe
    from tracing import layer_targets, unchanged

    targets = layer_targets(api)
    passes = []
    probe = SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(workload))
    finally:
        probe.stop()
    if not unchanged(targets):
        raise RuntimeError("a layer function was replaced during the untraced passes")
    return passes, probe


def run_traced(workload, api, tag: str):
    """The workload's ``load`` and one pass, with the tracer installed.

    The speed probe runs too, only so that the summary's adjusted total can
    be set against the untraced ``total_s`` (the tracing overhead).
    """
    from speedprobe import SpeedProbe
    from tracing import Tracer, arithmetic, bit_mix, install_layers, layer_metrics

    tracer = Tracer()
    probe = SpeedProbe()
    install_layers(tracer, api)
    probe.start()
    try:
        workload.load(api)
        result = run_pass(workload)
    finally:
        probe.stop()
        tracer.uninstall()
    extra = {"cli.report_bytes": getattr(workload, "report_bytes", 0)}
    metrics = layer_metrics(tracer, extra)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"{tag}-spans.txt"))
    summary = {
        "metrics": metrics,
        "traced_total_wall_s": sum(result.timings().values()),
        "traced_total_adjusted_s": sum(result.timings(probe).values()),
        "mul_operand_mix": bit_mix(arithmetic(tracer.operand_samples["mul"])),
        "add_operand_mix": bit_mix(arithmetic(tracer.operand_samples["add"])),
    }
    with open(os.path.join(OUT, f"{tag}-summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare_checks()
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            result, metrics = run_traced(workload, api, tag)
            passes = [result]
            out_metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
        else:
            workload.load(api)
            passes, probe = run_untraced(workload, args.seconds, api)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Medians of speed-adjusted times (speedprobe.py): total_s over the
            # passes, and the other metrics from each operation's median over
            # the passes.
            adjusted = [p.timings(probe) for p in passes]
            for p, times in zip(passes, adjusted):
                print(f"pass: wall_s={sum(p.timings().values())!r} "
                      f"adjusted_s={sum(times.values())!r}", file=sys.stderr)
            per_op = {}
            for times in adjusted:
                for label, t in times.items():
                    per_op.setdefault(label, []).append(t)
            values = {
                "setup_s": setup_s,
                "total_s": statistics.median(sum(times.values()) for times in adjusted),
                "peak_rss_mib": peak_rss_mib,
            }
            try:
                values.update(workload.pass_metrics(
                    {label: statistics.median(ts) for label, ts in per_op.items()}))
            except KeyError as exc:  # raised on every pass: the run is already incorrect
                print(f"no timing for {exc}", file=sys.stderr)
            out_metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
        errors = [e for p in passes for e in p.errors]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": out_metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if "bits" in name:
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
