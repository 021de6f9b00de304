#!/usr/bin/env python3
"""ATS end-to-end benchmark: campaign, mpi64 and service workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off);
``--trace 1`` reports the per-layer metrics from a traced run and
writes a Perfetto-viewable Chrome trace per workload under
``perfbench/out/``.  Each workload's program runs in fresh processes
pinned to one CPU; set-up is repeated and its median reported.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what
each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import (
    END_TO_END,
    OUT,
    PER_LAYER,
    SRC,
    WORKLOADS,
    Tally,
    allowed_cpus,
    host_facts,
    median,
    peak_rss_mb,
    pin_to,
    result_line,
    self_times,
)

#: fresh-process set-ups per untraced run; the median is reported
SETUPS = 5
#: every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
#: the CPUs this process may use, before it pins itself for clients
ALLOWED = allowed_cpus()


def cpus():
    """(program CPU, client CPU): different CPUs when there are two."""
    return ALLOWED[-1], ALLOWED[0]


def batch(workload: str, seed: int, seconds: float, traced: bool,
          workdir: Path, deadline: float, prefix: Path):
    from procs import Child, worker_args

    program_cpu, _ = cpus()
    mode = "traced" if traced else "run"
    setups = []
    rounds = 1 if traced else SETUPS
    for i in range(rounds):
        args = worker_args(
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode,
            "--cpu", str(program_cpu), "--workdir", str(workdir / f"w{i}"),
            "--out-prefix", str(prefix),
        )
        t0 = time.perf_counter()
        child = Child(args, workdir)
        try:
            child.message("ready", deadline)
            setups.append(time.perf_counter() - t0)
            if i < rounds - 1:
                child.tell("quit")
                child.finish(deadline)
                continue
            child.tell("go")
            result = child.message("result", deadline)["result"]
            child.finish(deadline)
        finally:
            child.stop()
    tally = Tally.from_dict(result["tally"])
    metrics = dict(result["metrics"])
    if traced:
        metrics["simkernel.cross_cpu_slowdown"] = cross_cpu(
            seed, workdir, deadline
        )
    else:
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    detail = {"setups": setups, "worker": result}
    return tally, metrics, detail


def cross_cpu(seed: int, workdir: Path, deadline: float) -> float:
    """Unpinned over pinned simulation time of mpi64, fresh processes."""
    from procs import Child, worker_args

    program_cpu, _ = cpus()
    walls = {}
    for label, cpu in (("pinned", program_cpu), ("unpinned", -1)):
        child = Child(
            worker_args(
                "--workload", "mpi64", "--seed", str(seed),
                "--seconds", "0", "--mode", "probe", "--cpu", str(cpu),
                "--workdir", str(workdir / f"probe-{label}"),
            ),
            workdir,
        )
        try:
            child.message("ready", deadline)
            child.tell("go")
            walls[label] = child.message("result", deadline)["result"][
                "core_run_s"
            ]
            child.finish(deadline)
        finally:
            child.stop()
    return walls["unpinned"] / walls["pinned"]


def service(seed: int, seconds: float, traced: bool, workdir: Path,
            deadline: float, prefix: Path):
    import serving
    from layers import layer_metrics, obs_totals

    server_cpu, client_cpu = cpus()
    nclients = len(ALLOWED)
    tally = Tally()
    # the clients are threads of this process, on the other CPU
    pin_to(client_cpu)
    if not traced:
        setups = []
        for i in range(SETUPS):
            server, took = serving.stand_up(
                workdir / f"s{i}", server_cpu, seed, deadline, tally
            )
            setups.append(took)
            if i < SETUPS - 1:
                server.stop()
        try:
            load = serving.drive(server, nclients, seed, seconds=seconds)
            rss = peak_rss_mb(server.child.proc.pid)
        finally:
            server.stop()
        tally.merge(load["tally"])
        metrics = serving.e2e_metrics(load)
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = rss
        detail = {"setups": setups,
                  "requests": len(load["records"])}
        return tally, metrics, detail

    rates = {}
    for label in ("untraced", "traced"):
        trace_out = str(prefix) if label == "traced" else None
        server, _ = serving.stand_up(
            workdir / label, server_cpu, seed, deadline, tally, trace_out
        )
        try:
            before = server.metrics_json()
            load = serving.drive(server, nclients, seed,
                                 requests=serving.TRACED_REQUESTS)
            after = server.metrics_json()
        finally:
            code = server.stop()
        tally.merge(load["tally"])
        tally.check(code == 0, f"{label} server exited with {code}")
        rates[label] = serving.e2e_metrics(load)["req_per_s"]
    dump = json.loads(Path(str(prefix) + ".layers.json").read_text())
    spans = [tuple(s) for s in dump["spans"]]
    metrics = layer_metrics(dump["recorder"], obs_totals(after), spans, 0.0)
    server_s = (serving.request_seconds(after)[0]
                - serving.request_seconds(before)[0])
    client_s = sum(r[2] for r in load["records"])
    metrics["service.http_ms"] = 1e3 * (
        (client_s - server_s) / len(load["records"])
    )
    metrics["work.fork_speedup"] = 0.0
    # the same request count at the fast-window request rate
    metrics["obs.trace_overhead"] = rates["untraced"] / rates["traced"] - 1
    os.sched_setaffinity(0, ALLOWED)
    metrics["simkernel.cross_cpu_slowdown"] = cross_cpu(
        seed, workdir, deadline
    )
    return tally, metrics, {"req_per_s": rates, "self_s": self_times(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_BUDGET_S
    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prefix = OUT / tag
    facts = host_facts()
    try:
        if args.workload == "service":
            tally, metrics, detail = service(
                args.seed, args.seconds, traced, workdir, deadline, prefix
            )
        else:
            tally, metrics, detail = batch(
                args.workload, args.seed, args.seconds, traced, workdir,
                deadline, prefix,
            )
    except Exception as exc:
        print(f"perfbench: {args.workload} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    line = result_line(tally, metrics, units)
    record = {"host": facts, "args": vars(args), "detail": detail,
              "tally": tally.to_dict(), "result": json.loads(line)}
    Path(str(prefix) + ".json").write_text(json.dumps(record, indent=1))
    print("perfbench host: " + json.dumps(facts))
    if tally.reasons:
        print("perfbench failures: " + json.dumps(tally.reasons))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
