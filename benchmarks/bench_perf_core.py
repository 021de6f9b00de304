#!/usr/bin/env python
"""Execution-core scaling benchmark.

Sweeps the simulation core over growing rank counts in two shapes --
MPI-only (the figure 3.3 chain) and hybrid MPI+OpenMP (fork/join-heavy,
one OpenMP team forked per rank per step) -- and records wall-clock
time, events/sec and dispatches/sec per configuration.  Results are
written to ``BENCH_CORE.json`` at the repository root so successive
PRs accumulate a perf trajectory for the execution core.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_core.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_perf_core.py --quick    # CI smoke

Also usable as a before/after harness: ``--label before`` merges the
measurement under a distinct key instead of overwriting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (  # noqa: E402
    get_property,
    run_all_mpi_properties,
    run_hybrid_composite,
)

OUT_PATH = REPO_ROOT / "BENCH_CORE.json"

#: MPI steps for the hybrid shape -- cheap, communication-light, so the
#: measurement is dominated by fork/join and scheduler dispatch costs.
HYBRID_MPI_STEPS = ("imbalance_at_mpi_barrier", "late_broadcast")
#: OpenMP steps for the hybrid shape -- every step forks a fresh team
#: on every rank, which is exactly the thread-churn hot path.
HYBRID_OMP_STEPS = (
    "imbalance_in_omp_pregion",
    "imbalance_in_omp_loop",
    "imbalance_at_omp_barrier",
    "imbalance_at_omp_single",
)


def _measure(fn, repeats: int):
    """Best-of-``repeats`` wall time plus run statistics."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    sim = result.world.sim if getattr(result, "world", None) else None
    dispatches = sim.dispatch_count if sim is not None else 0
    events = len(result.recorder.events) if result.recorder else 0
    return {
        "wall_s": round(best, 6),
        "events": events,
        "dispatches": dispatches,
        "events_per_s": round(events / best) if best else 0,
        "dispatches_per_s": round(dispatches / best) if best else 0,
        "final_time": round(result.final_time, 9),
    }


def run_sweep(sizes, num_threads: int, repeats: int) -> dict:
    rows = []
    for size in sizes:
        mpi = _measure(
            lambda size=size: run_all_mpi_properties(size=size), repeats
        )
        hybrid = _measure(
            lambda size=size: run_hybrid_composite(
                HYBRID_MPI_STEPS,
                HYBRID_OMP_STEPS,
                size=size,
                num_threads=num_threads,
            ),
            repeats,
        )
        row = {"size": size, "mpi_only": mpi, "hybrid": hybrid}
        rows.append(row)
        print(
            f"size={size:>3}  mpi: {mpi['wall_s']*1000:8.1f} ms "
            f"({mpi['events_per_s']:>8} ev/s)   "
            f"hybrid: {hybrid['wall_s']*1000:8.1f} ms "
            f"({hybrid['dispatches_per_s']:>8} disp/s)"
        )
    return {
        "sizes": list(sizes),
        "num_threads": num_threads,
        "repeats": repeats,
        "rows": rows,
    }


#: the kilo-rank shape: one barrier-heavy SPMD program at 1024 ranks.
#: A single property (not the full MPI chain) keeps the measurement
#: focused on scheduler throughput at scale rather than chain length.
KILO_PROGRAM = "imbalance_at_mpi_barrier"
KILO_SIZE = 1024

#: the parallel-sweep shape: a small robustness grid, serial vs forked.
SWEEP_PROGRAMS = (
    "imbalance_at_mpi_barrier",
    "late_broadcast",
    "late_sender",
    "balanced_mpi_barrier",
)


def run_kilo(repeats: int, size: int = KILO_SIZE) -> dict:
    """Single-process kilo-rank throughput (the size-1024 row)."""
    spec = get_property(KILO_PROGRAM)
    best = None
    run = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = spec.run(size=size, num_threads=2, seed=0)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    events = len(run.events)
    row = {
        "program": KILO_PROGRAM,
        "size": size,
        "wall_s": round(best, 6),
        "events": events,
        "events_per_s": round(events / best) if best else 0,
        "ranks_per_s": round(size / best, 1) if best else 0.0,
        "final_time": round(run.final_time, 9),
    }
    print(
        f"kilo size={size}  {row['wall_s']*1000:8.1f} ms "
        f"({row['events_per_s']:>8} ev/s, {row['ranks_per_s']:>7} ranks/s)"
    )
    return row


def run_parallel_sweep(workers: int = 0) -> dict:
    """Serial vs forked robustness sweep over one small grid.

    Records the measured speedup together with the host's CPU count --
    the bench guard tiers its expectation on ``cpus``, because a ≥2x
    fork speedup is physically impossible on a single-core runner.
    Also asserts the two artifacts are byte-identical, so the committed
    speedup number always describes equivalent work.
    """
    from repro.validation.robustness import run_robustness

    cpus = os.cpu_count() or 1
    if workers < 1:
        workers = min(4, max(2, cpus))
    specs = [get_property(name) for name in SWEEP_PROGRAMS]
    # size 48 makes each cell ~100ms of pure-Python simulation, large
    # enough that the one-time fork cost (interpreter copy, worker
    # threads, result pipe) is noise against the work it parallelizes.
    kw = dict(
        specs=specs,
        magnitudes=(0.0, 0.7),
        seeds=(0, 1),
        size=48,
        num_threads=2,
    )
    t0 = time.perf_counter()
    serial = run_robustness(**kw)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_robustness(**kw, workers=workers)
    parallel_s = time.perf_counter() - t0
    if serial.to_json_str() != parallel.to_json_str():
        raise AssertionError(
            "parallel robustness artifact diverged from serial"
        )
    row = {
        "programs": list(SWEEP_PROGRAMS),
        "cells": len(serial.cells),
        "workers": workers,
        "cpus": cpus,
        "serial_wall_s": round(serial_s, 6),
        "parallel_wall_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else 0.0,
    }
    print(
        f"sweep {row['cells']} cells  serial {serial_s*1000:8.1f} ms  "
        f"forked(x{workers}) {parallel_s*1000:8.1f} ms  "
        f"speedup {row['speedup']:.2f}x on {cpus} cpu(s)"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny parameters for CI smoke runs (no BENCH_CORE.json write)",
    )
    parser.add_argument(
        "--label", default="current",
        help="key to store this measurement under (e.g. before/current)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker count for the parallel-sweep section "
        "(0 = min(4, cpus))",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if args.quick:
        sweep = run_sweep(sizes=(4,), num_threads=2, repeats=1)
        run_kilo(repeats=1, size=128)
        run_parallel_sweep(workers=2)
        print("quick smoke ok")
        return 0

    sweep = run_sweep(sizes=(4, 8, 16, 32, 64), num_threads=4,
                      repeats=args.repeats)
    sweep["kilo"] = run_kilo(repeats=args.repeats)
    sweep["parallel_sweep"] = run_parallel_sweep(workers=args.workers)

    existing = {}
    if OUT_PATH.exists():
        existing = json.loads(OUT_PATH.read_text())
    existing[args.label] = sweep
    OUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    before = existing.get("before")
    if before and args.label != "before":
        for b_row, c_row in zip(before["rows"], sweep["rows"]):
            if b_row["size"] != c_row["size"]:
                continue
            speedup = (
                b_row["hybrid"]["wall_s"] / c_row["hybrid"]["wall_s"]
                if c_row["hybrid"]["wall_s"] else float("inf")
            )
            print(f"size={b_row['size']:>3} hybrid speedup vs before: "
                  f"{speedup:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
