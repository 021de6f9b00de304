"""Serialization of analysis artifacts for the archive.

Findings and results round-trip through plain JSON: cache cells hold
the JSON values below, and a trace's cell file is one JSON object.
Floats survive exactly (``json`` emits the shortest repr that parses
back to the same double), call paths and locations reuse the trace
model's own string forms, and :func:`result_to_json_bytes` defines
the *canonical* bytes of a result -- the form the determinism tests
and the cache byte-identity guarantee compare.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from ..analysis.model import AnalysisResult, Finding
from ..trace.events import Location


def finding_to_dict(finding: Finding) -> dict:
    return {
        "property": finding.property,
        "path": list(finding.callpath),
        "loc": str(finding.loc),
        "wait": finding.wait_time,
    }


def finding_from_dict(d: dict) -> Finding:
    return Finding(
        property=d["property"],
        callpath=tuple(d["path"]),
        loc=Location.parse(d["loc"]),
        wait_time=d["wait"],
    )


def findings_to_list(findings: Iterable[Finding]) -> List[dict]:
    """A findings cell's JSON value."""
    return [finding_to_dict(f) for f in findings]


def findings_from_list(payload: List[dict]) -> List[Finding]:
    return [finding_from_dict(d) for d in payload]


def meta_to_dict(total_time: float, locations: Iterable[Location]) -> dict:
    """A meta cell's JSON value: the trace-level facts of a result."""
    return {
        "total_time": total_time,
        "locations": [str(loc) for loc in locations],
    }


def meta_from_dict(payload: dict) -> tuple[float, List[Location]]:
    return (
        payload["total_time"],
        [Location.parse(text) for text in payload["locations"]],
    )


def result_to_dict(result: AnalysisResult) -> dict:
    """Full, order-preserving view of a result (canonical form)."""
    return {
        "findings": [finding_to_dict(f) for f in result.findings],
        "total_time": result.total_time,
        "locations": [str(loc) for loc in result.locations],
        "comm_registry": {
            str(cid): list(members)
            for cid, members in sorted(result.comm_registry.items())
        },
    }


def result_to_json_bytes(result: AnalysisResult) -> bytes:
    """The canonical bytes two equal results must share exactly."""
    return json.dumps(result_to_dict(result), sort_keys=True).encode(
        "utf-8"
    )
