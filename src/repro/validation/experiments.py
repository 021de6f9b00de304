"""Experiment management: parameter sweeps over property programs.

Paper section 3.2: "More extensive experiments based on these synthetic
test programs can then be executed through scripting languages or
through automatic experiment management systems, such as ZENTURIO."
This module is that layer: declarative sweeps over severity factors,
world sizes or arbitrary parameter grids, producing structured records
and CSV-able tables.  A sweep is a point generator, a record builder
(:class:`SweepPoint`) and a renderer (the CSV); each point runs
through the one cell pipeline,
:func:`repro.synth.campaign.run_noisy_cell`, as a clean run.  Points
run unsupervised: a crashing program raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.registry import get_property


@dataclass(frozen=True)
class SweepPoint:
    """One experiment: configuration plus measured outcomes."""

    property_name: str
    config: Dict[str, Any]
    final_time: float
    severities: Dict[str, float]
    detected: tuple

    def severity_of(self, prop: str) -> float:
        return self.severities.get(prop, 0.0)


@dataclass
class SweepResult:
    """All points of one sweep, with tabulation helpers."""

    points: List[SweepPoint] = field(default_factory=list)

    def series(self, axis: str, prop: str) -> list[tuple[Any, float]]:
        """(axis value, severity of prop) pairs in run order."""
        return [
            (p.config.get(axis), p.severity_of(prop))
            for p in self.points
        ]

    def to_rows(self) -> list[dict]:
        """Flat records (config columns + outcome columns)."""
        rows = []
        for p in self.points:
            row = {"property": p.property_name, **p.config}
            row["final_time"] = p.final_time
            for prop, sev in p.severities.items():
                row[f"sev:{prop}"] = sev
            rows.append(row)
        return rows

    def to_csv(self) -> str:
        """Render as CSV (union of all columns, stable order)."""
        rows = self.to_rows()
        if not rows:
            return ""
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines = [",".join(columns)]
        for row in rows:
            lines.append(
                ",".join(str(row.get(c, "")) for c in columns)
            )
        return "\n".join(lines) + "\n"


def run_sweep(
    property_name: str,
    severity_factors: Optional[Sequence[float]] = None,
    sizes: Optional[Sequence[int]] = None,
    param_grid: Optional[Dict[str, Sequence[Any]]] = None,
    num_threads: int = 4,
    seed: int = 0,
) -> SweepResult:
    """Run a property program over a configuration grid.

    Exactly one of the axes may be combined freely:

    * ``severity_factors`` scales the spec's severity parameters,
    * ``sizes`` varies the world size,
    * ``param_grid`` takes a cartesian product over explicit parameter
      values.

    All combinations of whatever is provided are executed.
    """
    from ..synth.campaign import run_noisy_cell

    spec = get_property(property_name)
    factors = list(severity_factors or [1.0])
    size_list = list(sizes or [8])
    grid_keys = sorted(param_grid) if param_grid else []
    grid_values = (
        itertools.product(*(param_grid[k] for k in grid_keys))
        if param_grid
        else [()]
    )
    result = SweepResult()
    for combo in grid_values:
        for factor in factors:
            for size in size_list:
                params = spec.scaled_params(factor)
                params.update(dict(zip(grid_keys, combo)))
                analyzed = run_noisy_cell(
                    spec, size, num_threads, seed, None, 0.0, ("rule",),
                    params=params,
                )
                analysis = analyzed.analysis
                config: Dict[str, Any] = {
                    "factor": factor,
                    "size": size,
                }
                config.update(dict(zip(grid_keys, combo)))
                result.points.append(
                    SweepPoint(
                        property_name=property_name,
                        config=config,
                        final_time=analyzed.run.final_time,
                        severities=analysis.severities_by_property(),
                        detected=analysis.detected(),
                    )
                )
    return result
