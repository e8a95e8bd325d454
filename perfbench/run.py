"""Benchmark of the dualrail simulator, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload loss-sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``loss-sweep``, ``dephasing-sweep`` and
``mc-oracle``.  Everything runs in this one process except the set-up
measurement, which times fresh interpreters importing ``dualrail.cli``.

``--trace 0`` runs whole blocks of operations until ``--seconds`` of
operation time have passed, checks every output, and reports the end-to-end
metrics.
``--trace 1`` runs the first ``TRACE_OPS`` operations of the seed twice,
untraced and then traced (see ``tracing.py``), reports the per-layer metrics
per operation, and writes the spans to ``perfbench/out/``.

Stdout gets one line per metric (name, value, unit), a JSON line of run
metadata, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` next to this directory; without it the benchmark exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
MIN_OPS = 2 * TAIL_BEYOND + 1  # so the tail percentile is at least the median

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "points_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("loss-sweep", "dephasing-sweep", "mc-oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli() -> float:
    """Wall time of one fresh interpreter importing ``dualrail.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dualrail.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _blas_info() -> list[dict]:
    """OpenBLAS libraries loaded in this process, with their thread counts."""
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        libs.append(entry)
    return libs


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def run_metadata(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dualrail").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * k / max(n - 1, 1), ordered[k]


def end_to_end(args, harness) -> dict[str, float]:
    """Operations until ``args.seconds`` of operation time have passed.

    The set-up probes are spread over the run, between operations, so that
    their median sees the same host conditions as the operations do.  The
    first import is unmeasured: it writes the bytecode cache that an
    installed program has.
    """
    from workloads import OK

    import_cli()
    setup, busy = [], 0.0
    while busy < args.seconds or len(setup) < SETUP_REPEATS or len(harness.records) < MIN_OPS:
        for op in harness.next_block():
            if len(setup) < SETUP_REPEATS and busy >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(import_cli())
            t0 = time.perf_counter()
            harness.measure(op)
            busy += time.perf_counter() - t0
    recs = harness.records
    walls = [r["wall"] for r in recs]
    pct, tail_s = tail(walls)
    print(f"# {len(recs)} operations; op_tail_s is the p{pct:.1f} order statistic")
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "points_per_s": sum(r["points"] for r in recs) / sum(walls),
        "cpu_per_op_s": statistics.median(r["cpu"] for r in recs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_share": sum(r["status"] == OK for r in recs) / len(recs),
    }


def per_layer(args, harness, meta: dict) -> dict[str, float]:
    from dualrail import gates
    from tracing import Tracer
    from workloads import TRACE_OPS

    ops = []
    while len(ops) < TRACE_OPS:
        ops.extend(harness.next_block())
    untraced = [harness.measure(op)["wall"] for op in ops]

    bs_cache = gates.beamsplitter_unitary
    bs_cache.cache_clear()  # traced operations start cold, as a fresh process does
    tracer = Tracer()
    tracer.install()
    try:
        traced = [harness.measure(op, tracer) for op in ops]
    finally:
        tracer.uninstall()
    info = bs_cache.cache_info()
    metrics = tracer.layer_metrics(
        n_ops=len(ops), bs_cache_hits=info.hits, bs_cache_misses=info.misses,
        output_bytes=sum(r["bytes"] for r in traced),
        overhead=statistics.median(r["wall"] for r in traced) / statistics.median(untraced),
    )
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(path, meta)
    print(f"# {len(ops)} operations traced; {metrics['trace.spans'] * len(ops):.0f} spans "
          f"written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualrail" / "__init__.py").is_file():
        print(f"perfbench: no dualrail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualrail

    if Path(dualrail.__file__).resolve().parent != SRC / "dualrail":
        print(f"perfbench: imported dualrail from {dualrail.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import Harness

    meta = run_metadata(args)
    harness = Harness(args.workload, args.seed)
    if args.trace:
        from tracing import METRICS as units

        metrics = per_layer(args, harness, meta)
    else:
        units = E2E_UNITS
        metrics = end_to_end(args, harness)
    correct, attempted, failed = harness.summary()
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
