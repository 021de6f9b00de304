"""Measurement helpers shared by the benchmark's processes.

Nothing here imports :mod:`repro`: these are the benchmark's own
arithmetic (percentiles, failure accounting, span self time) and the
declarations of every metric it reports, so the unit tests in
``test_common.py`` run without the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything a run writes (scratch archives, Chrome traces, detail
#: records) lands here, inside the checkout
OUT = HERE / "out"

WORKLOADS: Tuple[str, ...] = ("campaign", "mpi64", "service")

#: (name, unit) of every metric an untraced run reports
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p95_ms", "ms"),
    ("recall", "ratio"),
    ("precision", "ratio"),
    ("events_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("warm_p50_ms", "ms"),
    ("warm_p99_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
)

#: (name, unit) of every metric a traced run reports
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.run_s", "s"),
    ("core.events", "count"),
    ("simkernel.dispatches", "count"),
    ("simkernel.handoffs", "count"),
    ("simkernel.threads_spawned", "count"),
    ("simkernel.cross_cpu_slowdown", "ratio"),
    ("simmpi.messages", "count"),
    ("simmpi.unexpected_frac", "ratio"),
    ("simmpi.posted_queue_mean", "count"),
    ("simmpi.unexpected_queue_mean", "count"),
    ("simomp.teams", "count"),
    ("trace.encode_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.roundtrip_s", "s"),
    ("trace.roundtrip_frac", "ratio"),
    ("analysis.index_s", "s"),
    ("analysis.rule_s", "s"),
    ("stats.features_s", "s"),
    ("stats.cluster_s", "s"),
    ("stats.unique_row_frac", "ratio"),
    ("archive.record_s", "s"),
    ("archive.put_named", "count"),
    ("archive.put_named_s", "s"),
    ("archive.hit_frac", "ratio"),
    ("resilience.checkpoint_s", "s"),
    ("resilience.retries", "count"),
    ("resilience.failures", "count"),
    ("work.fork_speedup", "ratio"),
    ("synth.generate_s", "s"),
    ("synth.score_s", "s"),
    ("synth.self_s", "s"),
    ("service.http_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.journal_s", "s"),
    ("service.coalesced", "count"),
    ("obs.trace_overhead", "ratio"),
)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not _UNIT_RE.fullmatch(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return unit


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

#: percentiles a tail may be reported at, lowest first
TAIL_CANDIDATES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)


def quantile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` (0..1) of ``samples``."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} outside [0, 1]")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(samples: Sequence[float]) -> float:
    return quantile(samples, 0.5)


def tail_percentile(
    n: int, candidates: Sequence[float] = TAIL_CANDIDATES
) -> Optional[float]:
    """Highest percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for p in sorted(candidates):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def tail(samples: Sequence[float], percentile: float) -> float:
    """``percentile`` of ``samples``, capped by the percentile rule.

    Below the named percentile when fewer than ten samples lie beyond
    it; the median when not even that has ten beyond it.
    """
    supported = tail_percentile(len(samples)) or 50.0
    return quantile(samples, min(percentile, supported) / 100.0)


def per_item_best(passes: Sequence[Sequence[float]]) -> List[float]:
    """Fastest of each item's samples across passes over the same items.

    Item ``i`` is the ``i``-th sample of every pass.  Contention from
    other tenants only ever slows work down, and it comes and goes in
    spells shorter than a run, so an item's fastest pass is its own
    cost; the median of its passes flips with the share of slow spells.
    """
    return [min(column) for column in zip(*passes)]


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a wrong answer is a failure."""

    #: failure reasons kept verbatim (the count is always exact)
    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)

    def check(self, passed: bool, reason: str) -> bool:
        """Count one operation; a false ``passed`` is a failure."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = self.MAX_REASONS - len(self.reasons)
        self.reasons.extend(other.reasons[: max(room, 0)])

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tally":
        tally = cls()
        tally.attempted = int(d["attempted"])
        tally.failed = int(d["failed"])
        tally.reasons = list(d.get("reasons", ()))
        return tally

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------

#: one span: (name, start, end, thread id)
SpanTuple = Tuple[str, float, float, int]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[SpanTuple]) -> Dict[str, float]:
    """Self time per span name: duration minus what its children cover.

    A child is a span on the same thread that lies wholly inside its
    parent, with no span in between.  Spans that only partly overlap
    are siblings, not children.
    """
    by_tid: Dict[int, List[SpanTuple]] = {}
    for sp in spans:
        by_tid.setdefault(sp[3], []).append(sp)
    out: Dict[str, float] = {}
    for items in by_tid.values():
        items.sort(key=lambda s: (s[1], -s[2]))
        children: Dict[int, List[Tuple[float, float]]] = {}
        stack: List[int] = []
        for i, (_, start, end, _) in enumerate(items):
            while stack and not (
                items[stack[-1]][1] <= start and end <= items[stack[-1]][2]
            ):
                stack.pop()
            if stack:
                children.setdefault(stack[-1], []).append((start, end))
            stack.append(i)
        for i, (name, start, end, _) in enumerate(items):
            covered = _union_length(children.get(i, ()))
            out[name] = out.get(name, 0.0) + max(0.0, end - start - covered)
    return out


# ----------------------------------------------------------------------
# host facts and output
# ----------------------------------------------------------------------


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def allowed_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def pin_to(cpu: Optional[int]) -> None:
    """Pin the calling process (its main thread and later threads)."""
    if cpu is not None and cpu >= 0:
        os.sched_setaffinity(0, {cpu})


def source_digest() -> str:
    """sha256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` in the checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    """What a result depends on beyond the code: never compare across."""
    return {
        "nproc": os.cpu_count(),
        "affinity": allowed_cpus(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def result_line(tally: Tally, metrics: Dict[str, float], units) -> str:
    """The final stdout line: exactly the keys the contract names."""
    units = dict(units)
    missing = set(units) - set(metrics)
    if missing:
        raise ValueError(f"metrics not measured: {sorted(missing)}")
    body = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            check_metric_name(name): {
                "value": float(metrics[name]),
                "unit": check_unit(units[name]),
            }
            for name in units
        },
    }
    return json.dumps(body)


def send(obj: dict) -> None:
    """One JSON message from a worker to its parent, on stdout."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()
