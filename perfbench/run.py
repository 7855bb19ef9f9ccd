#!/usr/bin/env python3
"""vmsight benchmark: two workloads, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload triage_mixed --seed 1 --seconds 40 --trace 0

Workloads: ``triage_mixed`` and ``rebuild`` (see workloads.py).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` a traced run reports the per-layer metrics and writes its
spans to ``.perfbench/``.  Earlier stdout lines give the machine, the
quality figures and the correctness gate; the last line is the result:

    {"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}

The exit code is 0 when the correctness gate passes and 1 when it fails.
Without the vmsight sources next to ``perfbench/`` it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def blas_threads():
    """The thread count the BLAS under numpy reports, or None if unknown.

    Only read, never set: the benchmark runs with the default users get.
    Symbol lookup through numpy's extension module also searches the BLAS
    library it links against.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # show_config(mode=...) is numpy >= 1.25
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["triage_mixed", "rebuild"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs that exercise every layer (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vmsight", "__init__.py")):
        print(f"perfbench: no vmsight sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        metrics, attempted, failed, problems, detail, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work
        )
    except workloads.GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        print(f"perfbench: {len(tracer.spans)} spans -> {spans}", file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "detail": detail, "gate": problems or "pass"}))
    for problem in problems:
        print(f"perfbench: correctness gate failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
