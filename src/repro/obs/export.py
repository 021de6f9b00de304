"""Registry exporters: Prometheus text exposition and JSON snapshot.

``to_prometheus`` follows the text exposition format version 0.0.4
(``# HELP``/``# TYPE`` comments, cumulative ``_bucket{le=...}``
histogram samples with ``_sum``/``_count``); ``to_json`` renders the
same data as one machine-readable document, the shape Cankur et al.'s
programmatic-profile-analysis workflow asks for.
"""

from __future__ import annotations

import json
from typing import Optional

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_registry,
    quantile_from_counts,
)

#: quantiles derived into every histogram's JSON sample (the JSON
#: metrics dump and the service's ``/metrics.json``)
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

__all__ = [
    "SNAPSHOT_QUANTILES",
    "to_json",
    "to_json_str",
    "to_prometheus",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # Integers render without a trailing .0 (matches prom conventions
    # closely enough and keeps counters diffable across runs).
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(names, values, extra: Optional[tuple] = None) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label(extra[1])}"')
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def _prometheus_family(family: MetricFamily, out: list[str]) -> None:
    out.append(f"# HELP {family.name} {_escape_help(family.help)}")
    out.append(f"# TYPE {family.name} {family.type}")
    for labelvalues, child in family.samples():
        if isinstance(child, Histogram):
            counts, total_sum, total = child.snapshot()
            cumulative = 0
            for bound, count in zip(child.boundaries, counts):
                cumulative += count
                labels = _label_str(
                    family.labelnames, labelvalues,
                    extra=("le", _format_value(bound)),
                )
                out.append(f"{family.name}_bucket{labels} {cumulative}")
            labels = _label_str(
                family.labelnames, labelvalues, extra=("le", "+Inf")
            )
            out.append(f"{family.name}_bucket{labels} {total}")
            base = _label_str(family.labelnames, labelvalues)
            out.append(
                f"{family.name}_sum{base} {_format_value(total_sum)}"
            )
            out.append(f"{family.name}_count{base} {total}")
        else:
            labels = _label_str(family.labelnames, labelvalues)
            out.append(
                f"{family.name}{labels} {_format_value(child.value)}"
            )


def to_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render the registry as Prometheus text exposition format."""
    registry = registry if registry is not None else get_registry()
    out: list[str] = []
    for family in registry.collect():
        _prometheus_family(family, out)
    return "\n".join(out) + ("\n" if out else "")


def _json_sample(family: MetricFamily, labelvalues, child) -> dict:
    labels = dict(zip(family.labelnames, labelvalues))
    if isinstance(child, Histogram):
        counts, total_sum, total = child.snapshot()
        return {
            "labels": labels,
            "buckets": {
                _format_value(b): c
                for b, c in zip(child.boundaries, counts)
            },
            "overflow": counts[-1],
            "sum": total_sum,
            "count": total,
            "quantiles": {
                name: quantile_from_counts(
                    child.boundaries, counts, total, q
                )
                for name, q in SNAPSHOT_QUANTILES
            },
        }
    assert isinstance(child, (Counter, Gauge))
    return {"labels": labels, "value": child.value}


def to_json(registry: Optional[MetricsRegistry] = None) -> dict:
    """Render the registry as a JSON-serializable snapshot document."""
    registry = registry if registry is not None else get_registry()
    return {
        "format": "ats-metrics",
        "version": 1,
        "metrics": [
            {
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "samples": [
                    _json_sample(family, lv, child)
                    for lv, child in family.samples()
                ],
            }
            for family in registry.collect()
        ],
    }


def to_json_str(
    registry: Optional[MetricsRegistry] = None, indent: int = 2
) -> str:
    return json.dumps(to_json(registry), indent=indent) + "\n"
