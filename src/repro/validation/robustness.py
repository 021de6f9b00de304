"""Detector robustness under injected faults (noise-swept validation).

The harness in :mod:`repro.validation.harness` grades a tool on clean
traces.  This module sweeps a :class:`~repro.faults.FaultPlan`'s
magnitude across the same programs and measures how detection degrades:
for every analyzer property id it produces a **true-positive curve**
(fraction of runs that should exhibit the property where the tool still
reports it) and a **false-positive curve** (fraction of runs that
should *not* exhibit it where the tool reports it anyway) as functions
of perturbation magnitude.

A sweep is a cell generator (the program x magnitude x seed grid), a
record builder (:func:`_build_cell`, a :class:`RobustnessCell` graded
by :func:`repro.stats.grade_cell` against the registry ground truth)
and a renderer (the curves table and JSON).  Every cell runs the one
cell pipeline, :func:`repro.synth.campaign.run_noisy_cell`, which
matches how a real tool meets a noisy run:

1. execute the program with the scaled plan's runtime perturbations
   (stragglers, jitter, latency noise, reorder) active,
2. if the plan carries trace faults, round-trip the trace through
   :func:`~repro.trace.io.write_trace` with the fault injector and
   read it back with ``skip_bad_lines`` + ``salvage`` (the recovery
   path),
3. archive and analyze.

Magnitude 0 scales every perturbation to a no-op, so the zero point of
each curve is exactly the clean validation matrix.  Everything is
seed-deterministic: the same ``(programs, magnitudes, seeds, plan)``
produces byte-identical JSON across invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.registry import PropertySpec, list_properties
from ..faults import FaultPlan
from ..resilience import run_cells

#: default magnitude grid (>= 3 nonzero-capable points, anchored at 0)
DEFAULT_MAGNITUDES: Tuple[float, ...] = (0.0, 0.35, 0.7, 1.0)


@dataclass(frozen=True)
class RobustnessCell:
    """One program run under one (magnitude, seed) noise setting."""

    program: str
    paradigm: str
    negative: bool
    magnitude: float
    seed: int
    expected: Tuple[str, ...]
    detected: Tuple[str, ...]
    missing: Tuple[str, ...]
    spurious: Tuple[str, ...]
    #: property ids tolerated but not required (spec.allowed + global)
    allowed: Tuple[str, ...]
    events: int
    #: exception text when the perturbed run or trace read failed;
    #: a failed cell counts as detecting nothing
    error: Optional[str] = None
    salvaged: bool = False

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "paradigm": self.paradigm,
            "negative": self.negative,
            "magnitude": self.magnitude,
            "seed": self.seed,
            "expected": list(self.expected),
            "detected": list(self.detected),
            "missing": list(self.missing),
            "spurious": list(self.spurious),
            "allowed": list(self.allowed),
            "events": self.events,
            "error": self.error,
            "salvaged": self.salvaged,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RobustnessCell":
        """Inverse of :meth:`to_dict` (checkpoint replay)."""
        return cls(
            program=d["program"],
            paradigm=d["paradigm"],
            negative=d["negative"],
            magnitude=d["magnitude"],
            seed=d["seed"],
            expected=tuple(d["expected"]),
            detected=tuple(d["detected"]),
            missing=tuple(d["missing"]),
            spurious=tuple(d["spurious"]),
            allowed=tuple(d["allowed"]),
            events=d["events"],
            error=d.get("error"),
            salvaged=d.get("salvaged", False),
        )


@dataclass(frozen=True)
class CurvePoint:
    """One magnitude sample of one detector's TP/FP rates."""

    magnitude: float
    #: runs where the property was expected / where it was detected
    opportunities: int
    detections: int
    #: runs where it was neither expected nor allowed / false alarms
    clean_runs: int
    false_alarms: int

    @property
    def true_positive_rate(self) -> Optional[float]:
        if not self.opportunities:
            return None
        return self.detections / self.opportunities

    @property
    def false_positive_rate(self) -> Optional[float]:
        if not self.clean_runs:
            return None
        return self.false_alarms / self.clean_runs

    def to_dict(self) -> dict:
        return {
            "magnitude": self.magnitude,
            "opportunities": self.opportunities,
            "detections": self.detections,
            "clean_runs": self.clean_runs,
            "false_alarms": self.false_alarms,
            "true_positive_rate": self.true_positive_rate,
            "false_positive_rate": self.false_positive_rate,
        }


@dataclass
class RobustnessResult:
    """All cells of one sweep plus the derived per-detector curves."""

    magnitudes: Tuple[float, ...]
    seeds: Tuple[int, ...]
    plan: FaultPlan
    cells: List[RobustnessCell] = field(default_factory=list)
    #: detector families the sweep ran (provenance)
    families: Tuple[str, ...] = ("rule",)

    # ------------------------------------------------------------------
    # curve derivation
    # ------------------------------------------------------------------

    def properties(self) -> List[str]:
        """Every property id that is expected or was ever detected."""
        props = set()
        for cell in self.cells:
            props.update(cell.expected)
            props.update(cell.detected)
        return sorted(props)

    def curves(self) -> Dict[str, List[CurvePoint]]:
        """Property id -> TP/FP curve over the magnitude grid."""
        out: Dict[str, List[CurvePoint]] = {}
        for prop in self.properties():
            points = []
            for magnitude in self.magnitudes:
                opportunities = detections = clean = alarms = 0
                for cell in self.cells:
                    if cell.magnitude != magnitude:
                        continue
                    if prop in cell.expected:
                        opportunities += 1
                        if prop in cell.detected:
                            detections += 1
                    elif prop not in cell.allowed:
                        clean += 1
                        if prop in cell.detected:
                            alarms += 1
                points.append(
                    CurvePoint(
                        magnitude=magnitude,
                        opportunities=opportunities,
                        detections=detections,
                        clean_runs=clean,
                        false_alarms=alarms,
                    )
                )
            out[prop] = points
        return out

    @property
    def errors(self) -> List[RobustnessCell]:
        return [c for c in self.cells if c.error is not None]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": "ats-robustness",
            "version": 1,
            "magnitudes": list(self.magnitudes),
            "seeds": list(self.seeds),
            "families": list(self.families),
            "plan": self.plan.to_dict(),
            "programs": sorted({c.program for c in self.cells}),
            "curves": {
                prop: [p.to_dict() for p in points]
                for prop, points in self.curves().items()
            },
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def format_table(self) -> str:
        """Per-detector TP/FP rates across the magnitude grid."""

        def pct(rate: Optional[float]) -> str:
            return "   -" if rate is None else f"{rate:4.0%}"

        header = f"{'detector / magnitude':<28}" + "".join(
            f"{m:>12g}" for m in self.magnitudes
        )
        lines = [header]
        for prop, points in self.curves().items():
            tp = "".join(f"{pct(p.true_positive_rate):>12}" for p in points)
            fp = "".join(f"{pct(p.false_positive_rate):>12}" for p in points)
            lines.append(f"{prop:<28}{tp}  TP")
            lines.append(f"{'':<28}{fp}  FP")
        n_err = len(self.errors)
        lines.append(
            f"{len(self.cells)} runs over {len(self.magnitudes)} "
            f"magnitudes x {len(self.seeds)} seed(s)"
            + (f", {n_err} failed under faults" if n_err else "")
        )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def _build_cell(
    spec: PropertySpec,
    magnitude: float,
    seed: int,
    detected: Sequence[str] = (),
    events: int = 0,
    error: Optional[str] = None,
    salvaged: bool = False,
    families: Tuple[str, ...] = ("rule",),
) -> RobustnessCell:
    from ..stats import grade_cell

    detected = tuple(detected)
    expected, tolerated, missing, spurious = grade_cell(
        spec.expected, spec.allowed, detected, families
    )
    return RobustnessCell(
        program=spec.name,
        paradigm=spec.paradigm,
        negative=spec.negative,
        magnitude=magnitude,
        seed=seed,
        expected=expected,
        detected=detected,
        missing=missing,
        spurious=spurious,
        allowed=tolerated,
        events=events,
        error=error,
        salvaged=salvaged,
    )


def cell_key(spec_name: str, magnitude: float, seed: int) -> str:
    """Stable checkpoint key of one sweep cell."""
    return f"{spec_name}|m{magnitude:g}|s{seed}"


def run_robustness(
    specs: Optional[Sequence[PropertySpec]] = None,
    magnitudes: Sequence[float] = DEFAULT_MAGNITUDES,
    seeds: Sequence[int] = (0,),
    plan: Optional[FaultPlan] = None,
    size: int = 8,
    num_threads: int = 4,
    threshold: float = 0.01,
    time_budget: Optional[float] = None,
    supervisor=None,
    archive=None,
    workers: int = 1,
    families: Sequence[str] = ("rule",),
) -> RobustnessResult:
    """Sweep perturbation magnitude across the validation programs.

    ``specs`` defaults to every registered program (positive and
    negative); ``plan`` defaults to :meth:`FaultPlan.default`.  Returns
    the full cell grid with per-detector TP/FP curves.

    ``time_budget`` arms the per-run virtual-time watchdog, and
    ``supervisor`` (a :class:`repro.resilience.Supervisor`) sets the
    wall-clock timeout, retries and checkpoint journal the cells run
    under; without one, a default supervisor runs each cell once.  A
    failed cell becomes an error cell counting as "detected nothing",
    so a supervised sweep's artifact is byte-identical to a direct one
    unless wall-clock timeouts fire.  A checkpoint written under
    another size, thread count, threshold, plan, families or time
    budget refuses to resume
    (:class:`repro.resilience.CheckpointError`).  ``archive`` records
    every analyzed (possibly fault-damaged) trace in a
    :class:`repro.archive.Archive` under its scaled fault plan.

    ``workers > 1`` fans the cell grid out over forked child processes
    (:func:`repro.resilience.run_cells`).  Cells are independent and
    seed-deterministic, and results are assembled in grid order, so
    the returned result (and its JSON) is byte-identical to a serial
    sweep for any worker count.

    ``families`` selects the detector families to run (see
    :func:`repro.stats.battery_for`).  With ``"similarity"`` enabled,
    each cell's ``expected`` set is augmented with the statistical
    property ids the ground truth obliges (class-taxonomy mapping), so
    the statistical family gets TP/FP curves of its own -- and the
    statistical ids are *not* added to ``allowed``, so a statistical
    detection on a negative program counts as a false positive.
    """
    specs = list_properties() if specs is None else list(specs)
    if archive is not None:
        from ..archive import coerce_archive

        archive = coerce_archive(archive)
    plan = FaultPlan.default() if plan is None else plan
    magnitudes = tuple(magnitudes)
    seeds = tuple(seeds)
    families = tuple(families)
    if not magnitudes:
        raise ValueError("need at least one magnitude")
    if not seeds:
        raise ValueError("need at least one seed")
    from ..stats import battery_for
    from ..synth.campaign import run_noisy_cell

    battery_for(families)  # validates family names
    settings = {
        "size": size,
        "threads": num_threads,
        "threshold": threshold,
        "plan": plan.to_dict(),
        "families": list(families),
        "time_budget": time_budget,
    }

    def cell(spec, magnitude, seed) -> RobustnessCell:
        analyzed = run_noisy_cell(
            spec, size, num_threads, seed, plan, magnitude, families,
            time_budget, archive,
        )
        return _build_cell(
            spec, magnitude, seed, analyzed.analysis.detected(threshold),
            len(analyzed.events), salvaged=analyzed.salvaged,
            families=families,
        )

    cells = run_cells(
        [
            (
                cell_key(spec.name, magnitude, seed),
                partial(cell, spec, magnitude, seed),
                partial(
                    _build_cell, spec, magnitude, seed, families=families
                ),
            )
            for spec in specs
            for magnitude in magnitudes
            for seed in seeds
        ],
        RobustnessCell.from_dict,
        settings,
        supervisor,
        archive,
        workers,
    )
    return RobustnessResult(
        magnitudes=magnitudes,
        seeds=seeds,
        plan=plan,
        cells=cells,
        families=families,
    )
