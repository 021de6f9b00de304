"""One batch workload in a fresh process pinned to one CPU.

Started by ``run.py``; not meant to be run by hand.  The protocol is
one JSON object per stdout line: after set-up the worker sends
``{"ready": true}`` and reads one stdin line -- ``go`` runs the
workload and sends ``{"result": {...}}``, anything else exits.  The
parent times set-up from spawn to ``ready``.

Modes: ``run`` measures the end-to-end metrics for ``--seconds``;
``traced`` runs a fixed amount of work untraced, then again with the
layer wrappers and :mod:`repro.obs` on, and reports per-layer numbers;
``probe`` times the mpi64 simulation alone (the cross-CPU probe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import (
    OUT,
    SRC,
    Tally,
    allowed_cpus,
    median,
    peak_rss_mb,
    per_item_best,
    self_times,
    send,
    tail,
)

#: analyzer threshold of every verdict (the CLI and campaign default)
THRESHOLD = 0.01
FAMILIES = ("rule", "similarity")
#: fixed campaign size: later grid cells are heavier, so the cell
#: count never follows the run length
CAMPAIGN_CELLS = 300
#: campaign passes per run at least, and journal resumes per pass
MIN_PASSES = 3
RESUMES = 3
#: cells of the serial-vs-forked comparison in the traced run
FORK_CELLS = 120
MPI64_SIZE = 64
#: mpi64 repetitions per run at least (figures are the fastest's)
MIN_REPS = 3
#: every CPU this process may use, read at import, before it pins
#: itself: the forked executor's comparison runs across all of them
ALL_CPUS = set(allowed_cpus())


def warm_pool() -> None:
    """One small simulate + analyze: pool threads, lazy imports."""
    from repro.analysis import analyze_run
    from repro.core import get_property
    from repro.stats import battery_for

    run = get_property("late_sender").run(size=4, num_threads=2, seed=0)
    analyze_run(run, detectors=battery_for(FAMILIES))


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


class Campaign:
    """``run_campaign`` on a grid spec, supervised, archived, scored.

    A run makes at least :data:`MIN_PASSES` passes over the same cells
    (same seed: byte-identical results) and takes each cell's fastest
    time across passes (see :func:`common.per_item_best`).
    """

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.faults import FaultPlan
        from repro.synth import CampaignSpec, NoiseConfig

        def spec(cells: int) -> CampaignSpec:
            return CampaignSpec(
                name="perfbench",
                strategy="grid",
                scenarios=cells,
                skeletons=("none", "jacobi", "pipeline", "master_worker"),
                sizes=(4, 8, 16),
                threads=2,
                noise=NoiseConfig(
                    plan=FaultPlan.default(), magnitudes=(0.0, 0.35, 0.7)
                ),
                seed=seed,
            )

        self.workdir = workdir
        self.spec = spec(CAMPAIGN_CELLS)
        self.fork_spec = spec(FORK_CELLS)
        self.passes = 0
        warm_pool()

    def one_pass(self, rec, tally: Tally) -> dict:
        """One supervised, archived, scored campaign, then its resumes."""
        from repro.archive import Archive
        from repro.resilience import Supervisor
        from repro.synth import run_campaign, score_result
        from repro.synth.campaign import cell_key

        root = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        checkpoint = str(root / "checkpoint.jsonl")
        root.mkdir(parents=True)
        archive = Archive(root / "archive", fsync=True)
        started = {}
        out = {"cell": [], "warm": [], "analyze": [], "record": []}
        for layer, key in (("analysis.analyze", "analyze"),
                           ("archive.record", "record")):
            rec.samples[layer] = out[key]

        def on_event(event: dict) -> None:
            now = perf_counter()
            kind = event["event"]
            if kind == "cell-started":
                started.setdefault(event["key"], now)
            elif kind in ("cell-done", "cell-quarantined"):
                t0 = started.pop(event["key"])
                out["cell"].append(now - t0)
                rec.add("synth.cell", t0, now)

        supervisor = Supervisor(
            retries=self.spec.max_retries,
            checkpoint=checkpoint,
            on_event=on_event,
        )
        t0 = perf_counter()
        result = run_campaign(
            self.spec, supervisor=supervisor, archive=archive,
            families=FAMILIES,
        )
        t_score = perf_counter()
        report = score_result(result)
        t1 = perf_counter()
        rec.add("synth.score", t_score, t1)
        supervisor.close()
        archive.close()

        quarantined = {f.key for f in supervisor.failures}
        for cell in result.cells:
            key = cell_key(cell.scenario)
            tally.check(
                cell.error is None and key not in quarantined,
                f"campaign cell {key}: {cell.error}",
            )
        out["wall"] = t1 - t0
        out["cells"] = len(result.cells)
        out["events"] = sum(c.events for c in result.cells)
        out["artifact"] = result.to_json_str()
        out["confusion"] = [
            sum(d.tp for d in report.detectors),
            sum(d.fn for d in report.detectors),
            sum(d.fp for d in report.detectors),
        ]

        # Resume over the journal: every cell replays (the warm path),
        # and must come back exactly as it was computed.
        for _ in range(RESUMES):
            resume = Supervisor(retries=self.spec.max_retries,
                                checkpoint=checkpoint)
            replay = resume.replay
            times: list = []

            def timed_replay(key, decode=None, replay=replay, times=times):
                t = perf_counter()
                found = replay(key, decode)
                times.append(perf_counter() - t)
                return found

            resume.replay = timed_replay
            resumed = run_campaign(self.spec, supervisor=resume,
                                   families=FAMILIES)
            resume.close()
            out["warm"].append(times)
            tally.check(
                resumed.to_json_str() == out["artifact"],
                "resumed campaign differs from the computed one",
            )
        return out

    def measure(self, seconds: float) -> dict:
        from layers import Recorder, install_cell_probes

        rec = Recorder()
        install_cell_probes(rec)
        tally = Tally()
        passes = []
        start = perf_counter()
        while len(passes) < MIN_PASSES or (
            (perf_counter() - start) + passes[-1]["wall"] <= seconds
        ):
            passes.append(self.one_pass(rec, tally))
        for p in passes[1:]:
            tally.check(
                p["artifact"] == passes[0]["artifact"],
                "campaign pass differs from the first (same seed)",
            )

        def best(key):
            return per_item_best([p[key] for p in passes])

        cell = best("cell")
        overhead = min(p["wall"] - sum(p["cell"]) for p in passes)
        wall = sum(cell) + overhead
        warm = per_item_best([t for p in passes for t in p["warm"]])
        tp, fn, fp = passes[0]["confusion"]
        rate = passes[0]["cells"] / wall
        metrics = {
            "cells_per_s": rate,
            "req_per_s": rate,
            "cell_p50_ms": median(cell) * 1e3,
            "cell_p95_ms": tail(cell, 95) * 1e3,
            "recall": tp / (tp + fn),
            "precision": tp / (tp + fp),
            "events_per_s": passes[0]["events"] / wall,
            "warm_p50_ms": median(warm) * 1e3,
            "warm_p99_ms": tail(warm, 99) * 1e3,
            "cold_p50_ms": median(best("analyze")) * 1e3,
            "write_p50_ms": median(best("record")) * 1e3,
        }
        return {
            "metrics": metrics,
            "tally": tally.to_dict(),
            "samples": {"passes": len(passes), "cells": len(cell),
                        "resumes": len(passes) * RESUMES},
        }

    def traced(self, out_prefix: Path) -> dict:
        from layers import Recorder, install, install_cell_probes

        tally = Tally()
        probe = Recorder()
        install_cell_probes(probe)
        untraced = self.one_pass(probe, tally)["wall"]
        speedup = self.fork_speedup(tally)

        rec = Recorder(spans=True)
        with Tracing() as tracing:
            install(rec)
            traced_pass = self.one_pass(rec, tally)
        traced = traced_pass["wall"]
        layer = tracing.layer_metrics(rec, cells_s=sum(traced_pass["cell"]),
                                      out_prefix=out_prefix)
        layer["work.fork_speedup"] = speedup
        layer["service.http_ms"] = 0.0
        layer["obs.trace_overhead"] = (traced - untraced) / untraced
        return {"metrics": layer, "tally": tally.to_dict(),
                "walls": {"untraced": untraced, "traced": traced}}

    def fork_speedup(self, tally: Tally) -> float:
        """Serial (pinned) vs ``workers=nproc`` (all CPUs), same cells."""
        from repro.synth import run_campaign

        t0 = perf_counter()
        serial = run_campaign(self.fork_spec, families=FAMILIES)
        t1 = perf_counter()
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, ALL_CPUS)
        try:
            forked = run_campaign(self.fork_spec, families=FAMILIES,
                                  workers=len(ALL_CPUS))
        finally:
            os.sched_setaffinity(0, pinned)
        t2 = perf_counter()
        tally.check(
            serial.to_json_str() == forked.to_json_str(),
            "forked campaign artifact differs from the serial one",
        )
        return (t1 - t0) / (t2 - t1)


# ----------------------------------------------------------------------
# mpi64: one simulate + analyze pipeline per repetition
# ----------------------------------------------------------------------


class Pipeline:
    """The fig. 3.3 chain: simulate, analyze with both families, grade."""

    name = "mpi64"

    def __init__(self, seed: int) -> None:
        from repro.core import get_property
        from repro.core.composite import ALL_MPI_PROPERTY_CHAIN
        from repro.stats import (
            SIMILARITY_PROPERTY_IDS,
            battery_for,
            statistical_expectations,
        )

        self.seed = seed
        specs = [get_property(p) for p in ALL_MPI_PROPERTY_CHAIN]
        self.expected = {e for s in specs for e in s.expected}
        obliged = set(statistical_expectations(self.expected))
        #: graded like a campaign cell: statistical ids the expected
        #: classes oblige count as hits, the rest are tolerated
        self.graded = self.expected | obliged
        self.tolerated = {a for s in specs for a in s.allowed} | (
            set(SIMILARITY_PROPERTY_IDS) - obliged
        )
        self.detectors = battery_for(FAMILIES)
        warm_pool()

    def simulate(self):
        from repro.core import composite

        return composite.run_all_mpi_properties(
            size=MPI64_SIZE, seed=self.seed
        )

    def rep(self, tally: Tally, acc: dict) -> float:
        """Simulate, analyze twice (cold, then warm), encode the trace."""
        from repro.analysis import analyze_run
        from repro.trace import io as trace_io

        t0 = perf_counter()
        run = self.simulate()
        t1 = perf_counter()
        cold = analyze_run(run, detectors=self.detectors)
        t2 = perf_counter()
        warm = analyze_run(run, detectors=self.detectors)
        t3 = perf_counter()
        text = trace_io.events_to_jsonl(
            run.events, metadata={"program": self.name, "seed": self.seed}
        )
        t4 = perf_counter()
        digest = (_digest(text), _findings_digest(cold))
        if acc["digest"] is None:
            acc["digest"] = digest
            detected = set(cold.detected(THRESHOLD))
            acc["hit"] = len(self.expected & detected)
            acc["graded_hit"] = len(self.graded & detected)
            acc["false"] = len(detected - self.graded - self.tolerated)
        tally.check(
            digest == acc["digest"],
            f"{self.name}: trace or findings differ between repetitions",
        )
        tally.check(
            _findings_digest(warm) == digest[1],
            f"{self.name}: re-analysis of one run differs",
        )
        acc["events"] = len(run.events)
        acc["cell"].append(t2 - t0)
        acc["cold"].append(t2 - t1)
        acc["warm"].append(t3 - t2)
        acc["write"].append((t1 - t0) + (t4 - t3))
        acc["rep"].append(t4 - t0)
        return t4 - t0

    @staticmethod
    def _acc() -> dict:
        return {"digest": None, "events": 0, "cell": [], "cold": [],
                "warm": [], "write": [], "rep": []}

    def measure(self, seconds: float) -> dict:
        tally = Tally()
        acc = self._acc()
        start = perf_counter()
        last = 0.0
        while (
            len(acc["rep"]) < MIN_REPS
            or (perf_counter() - start) + last <= seconds
        ):
            last = self.rep(tally, acc)
        # every repetition is the same item: its cost is the fastest
        # repetition (see common.per_item_best), tails included
        cell = min(acc["cell"])
        warm = min(acc["warm"])
        metrics = {
            "cells_per_s": 1.0 / cell,
            "req_per_s": 1.0 / min(acc["rep"]),
            "cell_p50_ms": cell * 1e3,
            "cell_p95_ms": cell * 1e3,
            "recall": acc["hit"] / len(self.expected),
            "precision": acc["graded_hit"] / (
                acc["graded_hit"] + acc["false"]
            ),
            "events_per_s": acc["events"] / cell,
            "warm_p50_ms": warm * 1e3,
            "warm_p99_ms": warm * 1e3,
            "cold_p50_ms": min(acc["cold"]) * 1e3,
            "write_p50_ms": min(acc["write"]) * 1e3,
        }
        return {"metrics": metrics, "tally": tally.to_dict(),
                "samples": {"reps": len(acc["rep"])}}

    def traced(self, out_prefix: Path) -> dict:
        from layers import Recorder, install

        tally = Tally()
        untraced = min(
            self.rep(tally, self._acc()) for _ in range(MIN_REPS)
        )
        rec = Recorder(spans=True)
        with Tracing() as tracing:
            install(rec)
            acc = self._acc()
            traced = min(self.rep(tally, acc) for _ in range(MIN_REPS))
        layer = tracing.layer_metrics(rec, cells_s=0.0,
                                      out_prefix=out_prefix)
        layer["work.fork_speedup"] = 0.0
        layer["service.http_ms"] = 0.0
        layer["obs.trace_overhead"] = (traced - untraced) / untraced
        return {"metrics": layer, "tally": tally.to_dict(),
                "walls": {"untraced": untraced, "traced": traced}}

    def probe(self, reps: int = 2) -> dict:
        """Median wall of the simulation alone (cross-CPU probe)."""
        walls = []
        for _ in range(reps):
            t0 = perf_counter()
            self.simulate()
            walls.append(perf_counter() - t0)
        return {"core_run_s": median(walls), "walls": walls}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _findings_digest(analysis) -> str:
    return _digest(
        repr(
            [
                (f.property, f.callpath, f.loc, f.wait_time)
                for f in analysis.findings
            ]
        )
    )


class Tracing:
    """:mod:`repro.obs` metrics and spans on, fresh, for one block."""

    def __enter__(self) -> "Tracing":
        from repro import obs

        obs.set_metrics_enabled(True)
        obs.reset_metrics()
        obs.set_spans_enabled(True)
        self.log = obs.reset_spans()
        return self

    def __exit__(self, *exc_info) -> None:
        from repro import obs

        self.snapshot = obs.to_json()
        obs.set_spans_enabled(False)
        obs.set_metrics_enabled(False)

    def layer_metrics(self, rec, cells_s: float, out_prefix: Path) -> dict:
        from layers import layer_metrics, obs_totals, own_spans
        from repro.obs import write_chrome_trace

        spans = own_spans(self.log)
        layer = layer_metrics(rec.to_dict(), obs_totals(self.snapshot),
                              spans, cells_s)
        write_chrome_trace(
            str(out_prefix) + ".chrome.json", host_spans=self.log,
            metadata={"benchmark": "perfbench"},
        )
        Path(str(out_prefix) + ".layers.json").write_text(
            json.dumps({"recorder": rec.to_dict(),
                        "self_s": self_times(spans),
                        "obs": self.snapshot}, indent=1) + "\n"
        )
        return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "mpi64"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "probe"),
                        default="run")
    parser.add_argument("--cpu", type=int, default=-1,
                        help="CPU to pin to; -1 = every allowed CPU")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out-prefix", default=None)
    args = parser.parse_args(argv)

    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # the program's own scratch files stay inside the checkout too
    tempfile.tempdir = str(workdir)
    sys.path.insert(0, str(SRC))

    if args.workload == "campaign":
        workload = Campaign(args.seed, workdir)
    else:
        workload = Pipeline(args.seed)
    send({"ready": True})
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.mode == "run":
        result = workload.measure(args.seconds)
    elif args.mode == "traced":
        OUT.mkdir(parents=True, exist_ok=True)
        result = workload.traced(Path(args.out_prefix))
    else:
        result = workload.probe()
    result["peak_rss_mb"] = peak_rss_mb()
    send({"result": result})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
