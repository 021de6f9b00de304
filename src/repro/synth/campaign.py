"""Campaign execution on the shared sweep engine.

Each scenario cell runs :func:`run_noisy_cell`, the pipeline the
robustness grid shares: a seed-deterministic simulated run under the
scaled noise plan, an optional trace-fault round trip through the
salvaging reader, archiving and analysis -- then a verdict against the
scenario's ground-truth manifest.  :func:`repro.resilience.run_cells`
resolves the cells under a supervisor (wall-clock timeout / retry /
quarantine / checkpoint resume), serially or over forked workers;
results come back in scenario order, so the campaign JSON is
byte-identical across all modes.

The adversarial strategy loops here: after the base sample, each
refinement round ranks cells by disagreement (missing + spurious
findings vs. the manifest), perturbs the worst offenders
(:func:`.generate.mutate_scenario`), and executes the mutants.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..analysis import AnalysisConfig, analyze_events, analyze_run
from ..core.registry import PropertySpec
from ..faults import FaultInjector, FaultPlan
from ..resilience import run_cells
from ..trace.io import read_trace, write_trace
from .generate import adversarial_rng, generate_scenarios, mutate_scenario
from .scenario import GroundTruthManifest, Scenario
from .spec import CampaignSpec


class CampaignError(RuntimeError):
    """Campaign aborted (max_failures exceeded); carries the partial result."""

    def __init__(self, message: str, result: "CampaignResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class ScenarioCell:
    """One executed scenario graded against its manifest."""

    scenario: Scenario
    manifest: GroundTruthManifest
    detected: Tuple[str, ...]
    missing: Tuple[str, ...]
    spurious: Tuple[str, ...]
    events: int
    #: archive run id when the campaign archives, else None
    run_id: Optional[str] = None
    error: Optional[str] = None
    salvaged: bool = False

    @property
    def disagreement(self) -> int:
        return len(self.missing) + len(self.spurious)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "manifest": self.manifest.to_dict(),
            "detected": list(self.detected),
            "missing": list(self.missing),
            "spurious": list(self.spurious),
            "events": self.events,
            "run_id": self.run_id,
            "error": self.error,
            "salvaged": self.salvaged,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioCell":
        return cls(
            scenario=Scenario.from_dict(d["scenario"]),
            manifest=GroundTruthManifest.from_dict(d["manifest"]),
            detected=tuple(d["detected"]),
            missing=tuple(d["missing"]),
            spurious=tuple(d["spurious"]),
            events=d["events"],
            run_id=d.get("run_id"),
            error=d.get("error"),
            salvaged=d.get("salvaged", False),
        )


def _build_cell(
    scenario: Scenario,
    detected: Sequence[str] = (),
    events: int = 0,
    run_id: Optional[str] = None,
    error: Optional[str] = None,
    salvaged: bool = False,
    families: Tuple[str, ...] = ("rule",),
) -> ScenarioCell:
    from ..stats import grade_cell

    manifest = scenario.manifest()
    detected = tuple(detected)
    _, _, missing, spurious = grade_cell(
        manifest.expected, manifest.allowed, detected, families
    )
    return ScenarioCell(
        scenario=scenario,
        manifest=manifest,
        detected=detected,
        missing=missing,
        spurious=spurious,
        events=events,
        run_id=run_id,
        error=error,
        salvaged=salvaged,
    )


def cell_key(scenario: Scenario) -> str:
    """Stable checkpoint key of one campaign cell."""
    return (
        f"{scenario.name}|m{scenario.noise_magnitude:g}|s{scenario.seed}"
    )


def run_noisy_cell(
    pspec: PropertySpec,
    size: int,
    threads: int,
    seed: int,
    plan: FaultPlan,
    magnitude: float,
    threshold: float,
    families: Tuple[str, ...],
    workdir: Path,
    time_budget: Optional[float] = None,
    archive=None,
    manifest: Optional[dict] = None,
) -> Tuple[Tuple[str, ...], int, bool, Optional[str]]:
    """One sweep cell: simulate, round-trip the trace, archive, analyze.

    Runs ``pspec`` under ``plan`` scaled to ``magnitude``.  When the
    scaled plan carries trace faults, the trace round-trips through
    ``write_trace`` with the injector and the salvaging reader, so the
    analyzer sees what landed on disk.  With an ``archive``, the
    analyzed events are recorded under the scaled plan, with the
    ground-truth ``manifest`` when there is one.

    Returns ``(detected, events, salvaged, run_id)``: the property ids
    found at ``threshold`` by the ``families`` battery, the number of
    analyzed events, whether the reader salvaged a truncated trace,
    and the archive run id (None without an archive).  Failures raise
    -- a deadlock or hang with its structured report intact -- for
    the supervisor to classify.

    Campaign and robustness cells both run here, and the trace I/O and
    analysis functions are called through this module's globals,
    where perfbench's layer probes wrap them.
    """
    from ..archive import params_to_jsonable
    from ..stats import battery_for

    detectors = battery_for(families)
    scaled = plan.scaled(magnitude)
    injector = FaultInjector.coerce(scaled, seed=seed)
    run = pspec.run(
        size=size,
        num_threads=threads,
        seed=seed,
        faults=injector,
        time_budget=time_budget,
    )
    transport = getattr(run, "transport", None)
    faulty = injector is not None and injector.has_trace_faults
    events, salvaged = run.events, False
    if faulty:
        # named by the cell's key fields (scenario names carry a
        # ``/``), so concurrent forked cells never share a file
        path = workdir / (
            f"{pspec.name.replace('/', '-')}-m{magnitude:g}-s{seed}"
            ".trace.jsonl"
        )
        write_trace(
            path,
            run.events,
            metadata={"program": pspec.name, "seed": seed},
            faults=injector,
        )
        events, metadata = read_trace(
            path, skip_bad_lines=True, salvage=True
        )
        salvaged = bool(metadata.get("truncated"))
    run_id = None
    if archive is not None:
        run_id = archive.record(
            program=pspec.name,
            events=events,
            final_time=run.final_time,
            paradigm=pspec.paradigm,
            params=params_to_jsonable(pspec.default_params),
            size=size,
            threads=threads,
            seed=seed,
            plan=dict(scaled.to_dict(), magnitude=magnitude),
            eager_threshold=(
                transport.eager_threshold if transport is not None else None
            ),
            manifest=manifest,
        ).run_id
    if not faulty:
        analysis = analyze_run(run, detectors=detectors)
    else:
        config = (
            AnalysisConfig(eager_threshold=transport.eager_threshold)
            if transport is not None
            else None
        )
        analysis = analyze_events(
            events,
            total_time=run.final_time,
            config=config,
            detectors=detectors,
        )
    return analysis.detected(threshold), len(events), salvaged, run_id


@dataclass
class CampaignResult:
    """All executed cells of one campaign."""

    spec: CampaignSpec
    cells: List[ScenarioCell] = field(default_factory=list)
    #: detector families the campaign ran (provenance)
    families: Tuple[str, ...] = ("rule",)

    @property
    def errors(self) -> List[ScenarioCell]:
        return [c for c in self.cells if c.error is not None]

    def disagreements(self) -> List[ScenarioCell]:
        return [
            c
            for c in self.cells
            if c.error is None and c.disagreement > 0
        ]

    def to_json_dict(self) -> dict:
        return {
            "format": "ats-synth-campaign",
            "version": 1,
            "spec": self.spec.to_dict(),
            "families": list(self.families),
            "scenarios": len(self.cells),
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def format_summary(self) -> str:
        perfect = sum(
            1
            for c in self.cells
            if c.error is None and c.disagreement == 0
        )
        lines = [
            f"campaign {self.spec.name}: {len(self.cells)} scenario(s), "
            f"strategy={self.spec.strategy}, seed={self.spec.seed}",
            f"  agree with manifest: {perfect}",
            f"  disagreements:       {len(self.disagreements())}",
            f"  errors:              {len(self.errors)}",
        ]
        return "\n".join(lines) + "\n"


def run_campaign(
    spec: CampaignSpec,
    threshold: float = 0.01,
    time_budget: Optional[float] = None,
    supervisor=None,
    archive=None,
    workers: int = 1,
    families: Sequence[str] = ("rule",),
) -> CampaignResult:
    """Execute one synthesis campaign (see module docstring).

    ``supervisor`` runs every cell supervised (build it with
    ``retries=spec.max_retries`` to honor the spec; without one, a
    default supervisor turns failures into error cells); ``archive``
    records every analyzed trace with its ground-truth manifest
    attached; ``workers > 1`` forks the batch over child processes.
    The result (and its JSON) is byte-identical across all execution
    modes and across checkpoint resume.  A checkpoint written under
    another spec, threshold, families or time budget refuses to resume
    (:class:`repro.resilience.CheckpointError`).

    ``spec.max_failures >= 0`` aborts the campaign with a
    :class:`CampaignError` (carrying the partial result) once more
    than that many cells have errored.

    ``families`` selects the detector families to run (see
    :func:`repro.stats.battery_for`); with ``"similarity"`` enabled,
    cells are graded through the class taxonomy and the scorer reports
    rule-based vs. statistical recall side by side.
    """
    families = tuple(families)
    from ..stats import battery_for

    battery_for(families)  # validates family names
    if archive is not None:
        from ..archive import coerce_archive

        archive = coerce_archive(archive)
    result = CampaignResult(spec=spec, families=families)
    settings = {
        "spec": spec.to_dict(),
        "threshold": threshold,
        "families": list(families),
        "time_budget": time_budget,
    }

    def check_failures() -> None:
        if spec.max_failures < 0:
            return
        failed = len(result.errors)
        if failed > spec.max_failures:
            raise CampaignError(
                f"campaign {spec.name}: aborted after {failed} failed "
                f"cell(s) (max_failures={spec.max_failures})",
                result,
            )

    scenarios = generate_scenarios(spec)
    next_index = len(scenarios)
    with tempfile.TemporaryDirectory(prefix="ats-synth-") as tmp:
        workdir = Path(tmp)

        def cell(scenario: Scenario) -> ScenarioCell:
            pspec = scenario.build_spec()
            manifest = scenario.manifest()
            manifest.validate()
            detected, events, salvaged, run_id = run_noisy_cell(
                pspec,
                scenario.size,
                scenario.threads,
                scenario.seed,
                spec.noise.plan,
                scenario.noise_magnitude,
                threshold,
                families,
                workdir,
                time_budget,
                archive,
                manifest=manifest.to_dict(),
            )
            return _build_cell(
                scenario, detected, events, run_id, salvaged=salvaged,
                families=families,
            )

        def run_batch(batch: Sequence[Scenario]) -> None:
            outcomes = run_cells(
                [(cell_key(sc), partial(cell, sc)) for sc in batch],
                ScenarioCell.from_dict,
                settings,
                supervisor,
                archive,
                workers,
            )
            result.cells.extend(
                outcome.value
                if outcome.ok
                else _build_cell(
                    scenario, error=outcome.failure.error,
                    families=families,
                )
                for scenario, outcome in zip(batch, outcomes)
            )
            check_failures()

        run_batch(scenarios)
        if spec.strategy == "adversarial":
            for round_index in range(spec.adversarial_rounds):
                worst = sorted(
                    result.disagreements(),
                    key=lambda c: (-c.disagreement, c.scenario.index),
                )[: spec.adversarial_top]
                if not worst:
                    break
                rng = adversarial_rng(spec, round_index)
                mutants = [
                    mutate_scenario(
                        spec, cell.scenario, next_index + j, rng
                    )
                    for j, cell in enumerate(worst)
                ]
                next_index += len(mutants)
                run_batch(mutants)
    return result
