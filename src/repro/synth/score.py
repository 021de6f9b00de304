"""Grade detectors against synthesized ground-truth manifests.

Works from a campaign result (or its JSON artifact): for every analyzer
property id, each cell is a trial -- expected properties count toward
recall (TP/FN), properties neither expected nor allowed count toward
precision (FP/TN).  Errored cells count as detecting nothing, matching
the robustness harness.  Output is deterministic: the same campaign
JSON always scores to the same bytes.

When the campaign ran the statistical detector family (or any cell
detected a statistical property id), the report additionally grades
**rule-based vs. statistical recall side by side**: per behavior class
and per severity band, an expected analyzer property counts as
statistically detected when any statistical property covering its
class fired on the same cell (see
:data:`repro.stats.SIMILARITY_COVERS`).  Statistical property ids get
confusion rows of their own, graded through the same class taxonomy
the robustness harness uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DetectorScore:
    """Confusion counts of one analyzer property over a campaign."""

    property: str
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def recall(self) -> Optional[float]:
        total = self.tp + self.fn
        return self.tp / total if total else None

    @property
    def precision(self) -> Optional[float]:
        total = self.tp + self.fp
        return self.tp / total if total else None

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "tp": self.tp,
            "fn": self.fn,
            "fp": self.fp,
            "tn": self.tn,
            "recall": self.recall,
            "precision": self.precision,
        }


@dataclass(frozen=True)
class BandScore:
    """Recall of expected findings within one severity band.

    ``statistical_detections`` (None unless the statistical family is
    being graded) counts band members statistically covered -- some
    statistical property covering the member's class fired on its
    cell.
    """

    band: str
    opportunities: int
    detections: int
    statistical_detections: Optional[int] = None

    @property
    def recall(self) -> Optional[float]:
        if not self.opportunities:
            return None
        return self.detections / self.opportunities

    @property
    def statistical_recall(self) -> Optional[float]:
        if self.statistical_detections is None or not self.opportunities:
            return None
        return self.statistical_detections / self.opportunities

    def to_dict(self) -> dict:
        d = {
            "band": self.band,
            "opportunities": self.opportunities,
            "detections": self.detections,
            "recall": self.recall,
        }
        if self.statistical_detections is not None:
            d["statistical_detections"] = self.statistical_detections
            d["statistical_recall"] = self.statistical_recall
        return d


@dataclass(frozen=True)
class ClassScore:
    """Rule-based vs. statistical recall over one behavior class."""

    behavior_class: str
    opportunities: int
    rule_detections: int
    statistical_detections: int

    @property
    def rule_recall(self) -> Optional[float]:
        if not self.opportunities:
            return None
        return self.rule_detections / self.opportunities

    @property
    def statistical_recall(self) -> Optional[float]:
        if not self.opportunities:
            return None
        return self.statistical_detections / self.opportunities

    def to_dict(self) -> dict:
        return {
            "class": self.behavior_class,
            "opportunities": self.opportunities,
            "rule_detections": self.rule_detections,
            "statistical_detections": self.statistical_detections,
            "rule_recall": self.rule_recall,
            "statistical_recall": self.statistical_recall,
        }


@dataclass(frozen=True)
class ScoreReport:
    """Per-detector and per-band grades of one campaign."""

    campaign: str
    cells: int
    errors: int
    detectors: Tuple[DetectorScore, ...]
    bands: Tuple[BandScore, ...]
    #: rule vs statistical recall per behavior class (empty unless
    #: the statistical family was graded)
    classes: Tuple[ClassScore, ...] = ()

    def to_json_dict(self) -> dict:
        d = {
            "format": "ats-synth-score",
            "version": 1,
            "campaign": self.campaign,
            "cells": self.cells,
            "errors": self.errors,
            "detectors": [d.to_dict() for d in self.detectors],
            "bands": [b.to_dict() for b in self.bands],
        }
        if self.classes:
            d["classes"] = [c.to_dict() for c in self.classes]
        return d

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def format_table(self) -> str:
        def pct(rate: Optional[float]) -> str:
            return "    -" if rate is None else f"{rate:5.0%}"

        lines = []
        if self.campaign:
            lines.append(f"campaign {self.campaign}")
        lines.append(
            f"{'detector':<28}{'TP':>6}{'FN':>6}{'FP':>6}{'TN':>6}"
            f"{'recall':>9}{'prec':>7}"
        )
        for d in self.detectors:
            lines.append(
                f"{d.property:<28}{d.tp:>6}{d.fn:>6}{d.fp:>6}{d.tn:>6}"
                f"{pct(d.recall):>9}{pct(d.precision):>7}"
            )
        for b in self.bands:
            stat = (
                f"  stat {pct(b.statistical_recall)}"
                if b.statistical_detections is not None
                else ""
            )
            lines.append(
                f"band {b.band:<23}{b.detections:>6}"
                f"{b.opportunities - b.detections:>6}{'':>12}"
                f"{pct(b.recall):>9}{stat}"
            )
        for c in self.classes:
            lines.append(
                f"class {c.behavior_class:<22}"
                f"rule {pct(c.rule_recall)}  "
                f"stat {pct(c.statistical_recall)}  "
                f"({c.opportunities} opportunit"
                f"{'y' if c.opportunities == 1 else 'ies'})"
            )
        lines.append(
            f"{self.cells} scenario cell(s)"
            + (f", {self.errors} errored" if self.errors else "")
        )
        return "\n".join(lines) + "\n"


def score_cells(
    cells: List[dict],
    campaign: str = "",
    families: Optional[Sequence[str]] = None,
) -> ScoreReport:
    """Score raw cell dicts (the campaign JSON's ``cells`` list).

    ``families`` is the campaign's detector-family provenance; when it
    names ``"similarity"`` -- or, with no provenance, when any cell
    detected a statistical property id -- the statistical sections
    (class recall, per-band statistical recall, taxonomy-graded
    confusion rows for the statistical ids) are included.
    """
    from ..stats import (
        SIMILARITY_PROPERTY_IDS,
        covers,
        grade_cell,
        property_class,
    )

    stat_ids = set(SIMILARITY_PROPERTY_IDS)
    properties: set = set()
    for cell in cells:
        properties.update(cell["manifest"]["expected"])
        properties.update(cell["detected"])
    if families is None:
        statistical = bool(
            stat_ids & {p for cell in cells for p in cell["detected"]}
        )
    else:
        statistical = "similarity" in families
    counts: Dict[str, List[int]] = {
        p: [0, 0, 0, 0] for p in sorted(properties)
    }
    band_counts: Dict[str, List[int]] = {}
    class_counts: Dict[str, List[int]] = {}
    errors = 0
    for cell in cells:
        if cell.get("error") is not None:
            errors += 1
        manifest = cell["manifest"]
        expected = set(manifest["expected"])
        detected = set(cell["detected"])
        stat_detected = stat_ids & detected
        # statistical ids are graded through the class taxonomy
        # wherever they appear, as in the sweeps that produced them
        graded, tolerated, _, _ = grade_cell(
            expected, manifest["allowed"], cell["detected"], ("similarity",)
        )
        for prop, c in counts.items():
            if prop in graded:
                if prop in detected:
                    c[0] += 1  # TP
                else:
                    c[1] += 1  # FN
            elif prop not in tolerated:
                if prop in detected:
                    c[2] += 1  # FP
                else:
                    c[3] += 1  # TN

        def stat_hit(prop: str) -> bool:
            return any(covers(sp, prop) for sp in stat_detected)

        for prop, band in sorted(
            manifest.get("severity_bands", {}).items()
        ):
            bc = band_counts.setdefault(band, [0, 0, 0])
            bc[0] += 1
            if prop in detected:
                bc[1] += 1
            if stat_hit(prop):
                bc[2] += 1
        if statistical:
            for prop in sorted(expected):
                cls = property_class(prop)
                if not cls:
                    continue
                cc = class_counts.setdefault(cls, [0, 0, 0])
                cc[0] += 1
                if prop in detected:
                    cc[1] += 1
                if stat_hit(prop):
                    cc[2] += 1
    return ScoreReport(
        campaign=campaign,
        cells=len(cells),
        errors=errors,
        detectors=tuple(
            DetectorScore(p, c[0], c[1], c[2], c[3])
            for p, c in counts.items()
        ),
        bands=tuple(
            BandScore(
                band,
                bc[0],
                bc[1],
                statistical_detections=bc[2] if statistical else None,
            )
            for band, bc in sorted(band_counts.items())
        ),
        classes=tuple(
            ClassScore(cls, cc[0], cc[1], cc[2])
            for cls, cc in sorted(class_counts.items())
        ),
    )


def score_campaign_json(payload: dict) -> ScoreReport:
    """Score an ``ats-synth-campaign`` JSON payload."""
    if payload.get("format") != "ats-synth-campaign":
        raise ValueError(
            "not an ats-synth-campaign artifact "
            f"(format={payload.get('format')!r})"
        )
    return score_cells(
        payload.get("cells", []),
        campaign=payload.get("spec", {}).get("name", ""),
        families=payload.get("families"),
    )


def score_result(result) -> ScoreReport:
    """Score a :class:`.campaign.CampaignResult` in memory."""
    return score_cells(
        [c.to_dict() for c in result.cells],
        campaign=result.spec.name,
        families=getattr(result, "families", None),
    )
