#!/usr/bin/env python3
"""Benchmark for linrestrict: seeded line-query workloads, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload dense_lines --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from wrappers installed around
the package's entry points (see layertrace.py).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
The exit code is 0 when a result was printed, whether or not the checks
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.SPECS, repeated so that parsing the arguments does
# not import numpy before the set-up is timed
WORKLOADS = ("dense_lines", "conv_relu", "conv_pool", "ig_audit")

# BLAS threads: one, within the machine's cores; the load is one client
# thread, and a single BLAS thread keeps the timings steady on a shared host.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh processes whose set-up time is measured; their median is setup_s
SETUP_SAMPLES = 7

#: count metrics of earlier runs, by workload, seed, query count and code
LEDGER = HERE / "_work" / "counts.json"


def _setup(workload: str, seed: int, workdir: Path):
    """Import the package, load the network documents and generate the
    queries.  Returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads  # imports the package

    wl = workloads.load(workload, seed, workdir)
    return wl, time.perf_counter() - t0


def _machine() -> dict:
    import numpy

    try:
        from linrestrict import _kernels

        backend = getattr(_kernels, "active_backend", lambda: "numpy")()
    except ImportError:
        backend = "numpy"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "crossing_backend": backend,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "load": "1 process, 1 client thread, closed loop",
    }


def _setup_seconds(args, workdir: Path) -> list[float]:
    """Set-up time of SETUP_SAMPLES fresh processes, one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _report(summary: dict, metrics: dict, correct: bool, verifier) -> None:
    for key, value in summary.items():
        print(f"# {key}: {value}")
    print(f"# failed_frac: {verifier.failed / verifier.attempted!r} ratio "
          f"({verifier.failed} of {verifier.attempted})")
    for problem in verifier.problems[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "linrestrict" / "__init__.py").is_file():
        print(f"error: no linrestrict sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _, seconds = _setup(args.workload, args.seed, args.setup_probe)
        print(repr(seconds))
        return 0

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: Path) -> int:
    import harness
    import workloads

    workloads.write_documents(args.workload, workdir)
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        try:
            wl, _ = _setup(args.workload, args.seed, workdir)
        finally:
            tracer.uninstall()
        load_s = tracer.reset().get("io_formats.load_network.s", 0.0)
        metrics, verifier, counts, info = harness.traced(wl, tracer, args.seconds, load_s)
    else:
        setup = _setup_seconds(args, workdir)
        wl, _ = _setup(args.workload, args.seed, workdir)
        metrics, verifier, counts, info = harness.end_to_end(wl, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        info["setup_samples_s"] = setup
    unstable = info.pop("unstable_counts", [])
    if unstable:
        print(f"# COUNTS CHANGED between passes: {unstable}")

    key = (f"{args.workload}|{args.seed}|trace={args.trace}|{len(wl.queries)}"
           f"|{harness.code_digest(ROOT)}")
    ledger_changed = harness.ledger_compare(LEDGER, key, counts)
    if ledger_changed:
        print(f"# COUNTS CHANGED since an earlier run of this code and seed: "
              f"{ledger_changed}")
    correct = verifier.failed == 0 and not unstable and not ledger_changed
    summary = {"workload": args.workload, "seed": args.seed, **_machine(), **info}
    _report(summary, metrics, correct, verifier)
    return 0


if __name__ == "__main__":
    sys.exit(main())
