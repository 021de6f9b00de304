"""The one cell pipeline, and campaign execution on it.

:func:`run_noisy_cell` turns every sweep cell -- matrix, robustness,
``run_sweep`` and campaign alike -- into an analyzed run: a
seed-deterministic simulated run under the scaled noise plan, an
optional trace-fault round trip through the salvaging reader,
archiving and analysis.  A campaign adds a cell generator (the
scenarios), a record builder (:func:`_build_cell`, graded against the
scenario's ground-truth manifest) and a renderer (the campaign JSON).
:func:`repro.resilience.run_cells` resolves the cells under a
supervisor, serially or over forked workers; records come back in
scenario order, so the campaign JSON is byte-identical across modes.

The adversarial strategy loops here: after the base sample, each
refinement round ranks cells by disagreement (missing + spurious
findings vs. the manifest), perturbs the worst offenders
(:func:`.generate.mutate_scenario`), and executes the mutants.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..analysis import AnalysisConfig, analyze_events, analyze_run
from ..analysis.model import AnalysisResult
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
    manifest: GroundTruthManifest,
    detected: Sequence[str] = (),
    events: int = 0,
    run_id: Optional[str] = None,
    error: Optional[str] = None,
    salvaged: bool = False,
    families: Tuple[str, ...] = ("rule",),
) -> ScenarioCell:
    from ..stats import grade_cell

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


class AnalyzedCell(NamedTuple):
    """What :func:`run_noisy_cell` returns for one sweep cell."""

    run: object
    events: Sequence  # what the analysis saw (salvaged after faults)
    salvaged: bool  # the reader recovered a trace cut mid-record
    run_id: Optional[str]  # None without an archive
    analysis: AnalysisResult


def run_noisy_cell(
    pspec: PropertySpec,
    size: int,
    threads: int,
    seed: int,
    plan: Optional[FaultPlan],
    magnitude: float,
    families: Tuple[str, ...],
    time_budget: Optional[float] = None,
    archive=None,
    manifest: Optional[dict] = None,
    params: Optional[dict] = None,
) -> AnalyzedCell:
    """One sweep cell: simulate, round-trip the trace, archive, analyze.

    Runs ``pspec`` with ``params`` under ``plan`` scaled to
    ``magnitude``; ``plan=None`` is the clean run, archived with no
    plan.  When the scaled plan carries trace faults, the trace
    round-trips through ``write_trace`` with the injector and the
    salvaging reader, via a temp file removed after the read, so the
    ``families`` battery analyzes what landed on disk.  With an
    ``archive``, the analyzed events are recorded under the scaled
    plan, with the ground-truth ``manifest`` when there is one.

    Failures raise -- a deadlock or hang with its structured report
    intact -- for the supervisor to classify.  The trace I/O and
    analysis functions are called through this module's globals,
    where perfbench's layer probes wrap them.
    """
    from ..stats import battery_for

    detectors = battery_for(families)
    scaled = None if plan is None else plan.scaled(magnitude)
    injector = FaultInjector.coerce(scaled, seed=seed)
    run = pspec.run(
        size=size,
        num_threads=threads,
        params=params,
        seed=seed,
        faults=injector,
        time_budget=time_budget,
    )
    faulty = injector is not None and injector.has_trace_faults
    events, salvaged = run.events, False
    if faulty:
        fd, path = tempfile.mkstemp(prefix="ats-cell-", suffix=".jsonl")
        os.close(fd)
        try:
            write_trace(
                path,
                run.events,
                metadata={"program": pspec.name, "seed": seed},
                faults=injector,
            )
            events, metadata = read_trace(
                path, skip_bad_lines=True, salvage=True
            )
        finally:
            os.unlink(path)
        salvaged = bool(metadata.get("truncated"))
    run_id = None
    if archive is not None:
        run_id = archive.record_run(
            pspec, run, size, threads, seed, params=params,
            plan=None if scaled is None else dict(
                scaled.to_dict(), magnitude=magnitude
            ),
            manifest=manifest, events=events,
        ).run_id
    if not faulty:
        analysis = analyze_run(run, detectors=detectors)
    else:
        transport = getattr(run, "transport", None)
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
    return AnalyzedCell(run, events, salvaged, run_id, analysis)


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

    def cell(
        scenario: Scenario, manifest: GroundTruthManifest
    ) -> ScenarioCell:
        manifest.validate()
        analyzed = run_noisy_cell(
            scenario.build_spec(), scenario.size, scenario.threads,
            scenario.seed, spec.noise.plan, scenario.noise_magnitude,
            families, time_budget, archive, manifest=manifest.to_dict(),
        )
        return _build_cell(
            scenario, manifest, analyzed.analysis.detected(threshold),
            len(analyzed.events), analyzed.run_id,
            salvaged=analyzed.salvaged, families=families,
        )

    def run_batch(batch: Sequence[Scenario]) -> None:
        cells = []
        for scenario in batch:
            manifest = scenario.manifest()  # once per cell
            cells.append((
                cell_key(scenario),
                partial(cell, scenario, manifest),
                partial(_build_cell, scenario, manifest, families=families),
            ))
        result.cells.extend(run_cells(
            cells, ScenarioCell.from_dict, settings, supervisor, archive,
            workers,
        ))
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
