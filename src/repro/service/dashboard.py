"""Status rendering: the ``ats watch`` terminal view and the HTML page.

One renderer, :func:`render_watch`, draws the ``/status`` JSON
snapshot (:meth:`AnalysisService.status`): queue depth and in-flight
jobs, cumulative job counters, per-endpoint latency quantiles (when
obs metrics are enabled), the archive cache hit ratio, and a live
block per campaign fed by :class:`repro.resilience.Supervisor`
progress events.  ``ats watch`` redraws that frame on its poll
interval; the ``/dashboard`` page serves the same frame, escaped in a
``<pre>``, and self-refreshes with a plain ``<meta>`` refresh -- no
JavaScript, so it renders anywhere.
"""

from __future__ import annotations

import html as _html
from typing import Optional

__all__ = ["render_watch", "render_html"]


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def _fmt_ratio(ratio: Optional[float]) -> str:
    return "-" if ratio is None else f"{ratio:.0%}"


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "eta -"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"eta {seconds:.0f}s"
    if seconds < 3600:
        return f"eta {seconds / 60:.1f}m"
    return f"eta {seconds / 3600:.1f}h"


def _campaign_bar(snap: dict, width: int = 30) -> str:
    total = snap.get("total") or 0
    resolved = snap.get("done", 0) + snap.get("failed", 0)
    if total <= 0:
        return "[" + "?" * width + "]"
    filled = int(width * min(1.0, resolved / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_watch(status: dict) -> str:
    """One frame of the terminal dashboard (``ats serve --watch``)."""
    counts = status.get("counts", {})
    lines = [
        "ats analysis service"
        + ("" if status.get("accepting", True) else "  [DRAINING]"),
        f"  uptime {status.get('uptime', 0.0):8.1f}s"
        f"   queue {status.get('queue_depth', 0):>4}"
        f"   inflight {status.get('inflight', 0)}/"
        f"{status.get('max_workers', 0)}",
        f"  jobs: {counts.get('submitted', 0)} submitted, "
        f"{counts.get('executed', 0)} executed, "
        f"{counts.get('coalesced', 0)} coalesced, "
        f"{counts.get('failed', 0)} failed, "
        f"{counts.get('rate_limited', 0)} rate-limited",
        f"  cache: {counts.get('cache_hits', 0)} hits / "
        f"{counts.get('cache_misses', 0)} misses "
        f"({_fmt_ratio(status.get('cache_hit_ratio'))})",
    ]
    if status.get("durable"):
        lines.append(
            f"  durable: journal at {status.get('state_dir', '?')}"
            f"  ({counts.get('recovered', 0)} recovered, "
            f"{counts.get('requeued', 0)} requeued, "
            f"{counts.get('orphaned', 0)} orphaned, "
            f"{counts.get('expired', 0)} expired)"
        )
    breakers = status.get("breakers") or []
    for cell in breakers:
        lines.append(
            f"  breaker {cell.get('state', '?'):<9} "
            f"{cell.get('cell', '?')}  "
            f"({cell.get('failures', 0)} failures, "
            f"retry in {cell.get('retry_after', 0.0):.0f}s)"
        )
    latency = status.get("latency")
    if latency:
        lines.append("  latency (p50 / p99):")
        for endpoint in sorted(latency):
            sample = latency[endpoint]
            lines.append(
                f"    {endpoint:<12} {_fmt_ms(sample.get('p50')):>10} "
                f"/ {_fmt_ms(sample.get('p99')):>10}  "
                f"({sample.get('count', 0)} reqs)"
            )
    campaigns = status.get("campaigns") or []
    for snap in campaigns:
        resolved = snap.get("done", 0) + snap.get("failed", 0)
        lines.append(
            f"  campaign {snap.get('job_id', '?')}: "
            f"{_campaign_bar(snap)} {resolved}/{snap.get('total', 0)}"
            f"  (retried {snap.get('retried', 0)}, "
            f"failed {snap.get('failed', 0)}, "
            f"{_fmt_eta(snap.get('eta_seconds'))})"
        )
        for event in list(snap.get("recent", []))[-3:]:
            lines.append(
                f"      {event.get('event', '?'):<16} "
                f"{event.get('key', '')}"
            )
    if not campaigns:
        lines.append("  no campaigns")
    return "\n".join(lines) + "\n"


_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>ats analysis service</title>
</head>
<body>
<pre>{frame}</pre>
<p>endpoints: <a href="/status">/status</a> &middot;
<a href="/metrics">/metrics</a> &middot;
<a href="/metrics.json">/metrics.json</a></p>
</body>
</html>
"""


def render_html(status: dict) -> str:
    """The self-refreshing ``/dashboard`` page: one watch frame."""
    return _PAGE.format(frame=_html.escape(render_watch(status)))
