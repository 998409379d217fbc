"""The program's set-up, timed once in this fresh process.

    python3 perfbench/setup_time.py WORKLOAD SEED

Prints the set-up's seconds, adjusted for the host's speed (:mod:`speedprobe`):
the package import plus the workload's ``load``, which hands the inputs to the
program. The benchmark's own input building runs between the two, untimed.
Before the clock starts this file imports only modules the interpreter has
loaded at start-up, and the probe's few small ones, so the standard-library
modules the package imports are timed with it.
``run.py`` imports the package through :func:`import_package` too.
"""

import importlib
import os
import sys
import time
import types

from speedprobe import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MODULES = ("scalar", "tables", "linalg", "algebra", "hochschild", "deform", "dynamics",
           "documents", "cli")
PROBE_INTERVAL_S = 0.005  # set-up takes about 50 ms


def import_package():
    """Import algdeform from this checkout's ``src/``; exit 2 if it is not there.

    Returns a namespace of the package and its modules (the package itself
    rebinds some module names, ``algdeform.deform`` being a function).
    """
    if not os.path.isfile(os.path.join(SRC, "algdeform", "__init__.py")):
        print(f"error: no algdeform sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    package = importlib.import_module("algdeform")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        print(f"error: algdeform was imported from {package.__file__}", file=sys.stderr)
        sys.exit(2)
    modules = {sub: importlib.import_module(f"algdeform.{sub}") for sub in MODULES}
    return types.SimpleNamespace(package=package, **modules)


def main(workload: str, seed: int) -> None:
    workdir = os.path.join(WORK, f"setup-{os.getpid()}")
    probe = SpeedProbe(PROBE_INTERVAL_S)
    probe.start()
    try:
        t0 = time.perf_counter()
        api = import_package()
        t1 = time.perf_counter()
        from workloads import WORKLOADS

        inputs = WORKLOADS[workload](seed, workdir)
        t2 = time.perf_counter()
        inputs.load(api)
        t3 = time.perf_counter()
    finally:
        probe.stop()
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(probe.adjusted(t0, t1) + probe.adjusted(t2, t3)))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
