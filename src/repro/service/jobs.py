"""Job model for the analysis service.

A :class:`Job` is one unit of asynchronous work flowing through
:class:`~repro.service.server.AnalysisService`: submitted over HTTP,
queued, executed on a pooled worker thread, and polled (or awaited)
by its submitter.  Jobs carry the request id of the submission that
created them end to end -- the same id shows up in the HTTP response,
the ``/jobs/<id>`` record, and every obs span the job's lifecycle
records.

Coalescing is keyed by :meth:`Job.coalesce_key`: two jobs whose keys
match are *the same computation* -- the key holds every resolved input
the job reads (for an analyze job, the ``(trace digest, detector-set
fingerprint)`` pair that also keys the archive's incremental cache,
plus the threshold), so "identical" here means identical by
construction, not by request text.  The service maps each in-flight
key to its primary job and hands duplicates that job back instead of
queueing a second copy.

:class:`CampaignProgress` adapts :class:`repro.resilience.Supervisor`
progress events into a thread-safe live counter block that ``/status``
and the dashboards render while a campaign is still running.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "CampaignProgress",
    "Job",
    "advance_job_ids",
]

#: every job kind the service executes.
JOB_KINDS = (
    "run", "analyze", "diff", "history", "campaign", "synth", "export",
)

#: lifecycle: queued -> running -> done | failed.  Two further terminal
#: states exist only on the durability path: ``expired`` (a queued
#: job's client deadline passed before a worker picked it up) and
#: ``orphaned`` (a journaled job whose spec could not be resolved
#: after a restart -- kept visible instead of silently dropped).
JOB_STATES = (
    "queued", "running", "done", "failed", "expired", "orphaned",
)

#: states a job can never leave.
TERMINAL_STATES = ("done", "failed", "expired", "orphaned")


class _IdSource:
    """Monotonic job-id counter that recovery can advance past.

    Replays of a durable journal restore jobs with their original ids;
    the counter then resumes *after* the highest recovered id so a
    restarted service never hands out an id twice.
    """

    def __init__(self) -> None:
        self._next = 1
        self._lock = threading.Lock()

    def take(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def advance_past(self, value: int) -> None:
        with self._lock:
            if value >= self._next:
                self._next = value + 1


_ids = _IdSource()


def _next_job_id() -> str:
    return f"job-{_ids.take():06d}"


def advance_job_ids(job_id: str) -> None:
    """Ensure future ids sort after ``job_id`` (journal recovery)."""
    try:
        numeric = int(job_id.rsplit("-", 1)[-1])
    except (ValueError, IndexError):
        return
    _ids.advance_past(numeric)


class Job:
    """One queued/running/finished unit of service work."""

    __slots__ = (
        "id", "kind", "params", "tenant", "request_id", "state",
        "result", "error", "coalesced", "coalesce_key",
        "created", "started", "finished", "deadline", "recovered",
        "_done_event", "_callbacks", "_lock",
    )

    def __init__(
        self,
        kind: str,
        params: Dict[str, Any],
        tenant: str = "default",
        request_id: str = "",
        coalesce_key: Optional[Tuple] = None,
        deadline: Optional[float] = None,
        job_id: Optional[str] = None,
    ):
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.id = job_id if job_id is not None else _next_job_id()
        self.kind = kind
        self.params = params
        self.tenant = tenant
        self.request_id = request_id
        self.state = "queued"
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        #: how many duplicate submissions this job absorbed.
        self.coalesced = 0
        self.coalesce_key = coalesce_key
        self.created = time.monotonic()
        #: absolute monotonic instant the client stops caring; the
        #: queue cancels jobs it cannot start before their deadline.
        self.deadline = (
            None if deadline is None else self.created + deadline
        )
        #: True when this record was rebuilt from a durable journal.
        self.recovered = False
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self._done_event = threading.Event()
        self._callbacks: List[Callable[["Job"], None]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle (driven by the service, under its queue lock)
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def mark_running(self) -> None:
        self.state = "running"
        self.started = time.monotonic()

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the client deadline passed before execution."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def resolve(
        self,
        result: Optional[dict],
        error: Optional[str],
        state: Optional[str] = None,
    ) -> None:
        """Finish the job and fire every completion callback.

        ``state`` overrides the default done/failed mapping for the
        durability terminals (``expired``, ``orphaned``).  Callbacks
        registered after resolution fire immediately from
        :meth:`add_done_callback`, so there is no window where a
        late awaiter misses the result.
        """
        if state is not None and state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._lock:
            self.finished = time.monotonic()
            if state is not None:
                self.state = state
                self.result = result
                self.error = error
            elif error is None:
                self.state = "done"
                self.result = result
            else:
                self.state = "failed"
                self.error = error
            callbacks = list(self._callbacks)
            self._callbacks.clear()
        self._done_event.set()
        for callback in callbacks:
            callback(self)

    @classmethod
    def restore(cls, job_id: str, payload: dict) -> "Job":
        """Rebuild a *terminal* job from its durable-journal payload.

        Restart recovery uses this so ``GET /jobs/<id>`` keeps
        answering for work that finished before the crash.
        """
        job = cls(
            payload["kind"],
            dict(payload.get("params") or {}),
            tenant=payload.get("tenant", "default"),
            request_id=payload.get("request_id", ""),
            job_id=job_id,
        )
        job.recovered = True
        job.resolve(
            payload.get("result"),
            payload.get("error"),
            state=payload.get("state", "failed"),
        )
        return job

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------

    def add_done_callback(
        self, callback: Callable[["Job"], None]
    ) -> None:
        """Invoke ``callback(job)`` at resolution (now, if resolved).

        Callbacks run on whichever thread resolves the job -- a pooled
        worker.  Event-loop callers must bounce through
        ``loop.call_soon_threadsafe``.
        """
        with self._lock:
            if not self._done_event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; False on timeout (sync callers/tests)."""
        return self._done_event.wait(timeout)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def queue_wait(self) -> Optional[float]:
        """Seconds spent queued, once execution has started."""
        if self.started is None:
            return None
        return self.started - self.created

    def to_dict(self, include_result: bool = True) -> dict:
        out = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "coalesced": self.coalesced,
            "queue_wait": self.queue_wait(),
            "elapsed": (
                (self.finished - self.created)
                if self.finished is not None
                else time.monotonic() - self.created
            ),
        }
        if self.recovered:
            out["recovered"] = True
        if self.deadline is not None and not self.done:
            out["deadline_remaining"] = self.deadline - time.monotonic()
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.result is not None:
            out["result"] = self.result
        return out

    def __repr__(self) -> str:
        return f"<Job {self.id} {self.kind} {self.state}>"


class CampaignProgress:
    """Thread-safe live cell counters fed by Supervisor events.

    An instance's :meth:`on_event` is handed to
    :class:`~repro.resilience.Supervisor` as the ``on_event`` callback;
    the supervised sweep then drives these counters from whatever
    thread runs cells.  ``/status`` snapshots the counters while the
    campaign is in flight, which is what makes ``ats watch`` and the
    HTML dashboard live rather than after-the-fact.
    """

    __slots__ = (
        "job_id", "total", "started", "done", "failed",
        "retried", "resumed", "recent", "_lock",
        "_first_start_ts", "_last_event_ts", "_cell_started_ts",
        "_cell_seconds", "_cells_timed",
    )

    def __init__(self, job_id: str, total: int = 0):
        self.job_id = job_id
        self.total = total
        self.started = 0
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.resumed = 0
        #: most recent events, newest last (dashboard tail).
        self.recent: deque = deque(maxlen=16)
        self._lock = threading.Lock()
        #: wall-time history feeding the ETA estimate: when the first
        #: cell started, when the latest event landed, and the summed
        #: per-cell wall time of every resolved cell.
        self._first_start_ts: Optional[float] = None
        self._last_event_ts: Optional[float] = None
        self._cell_started_ts: Dict[str, float] = {}
        self._cell_seconds = 0.0
        self._cells_timed = 0

    def on_event(self, event: dict) -> None:
        """Supervisor ``on_event`` callback (see PROGRESS_EVENTS)."""
        with self._lock:
            name = event.get("event")
            key = event.get("key", "")
            ts = event.get("ts")
            if ts is not None:
                if self._first_start_ts is None:
                    self._first_start_ts = ts
                self._last_event_ts = ts
            if name == "cell-started":
                if event.get("attempt", 1) == 1:
                    self.started += 1
                if ts is not None:
                    self._cell_started_ts[key] = ts
            elif name == "cell-retry":
                self.retried += 1
            elif name == "cell-done":
                self.done += 1
                self._time_cell(key, ts)
            elif name == "cell-quarantined":
                self.failed += 1
                self._time_cell(key, ts)
            elif name == "cell-resumed":
                self.resumed += 1
            self.recent.append(
                {
                    "event": name,
                    "key": key,
                    "ts": ts,
                }
            )

    def _time_cell(self, key: str, ts: Optional[float]) -> None:
        started = self._cell_started_ts.pop(key, None)
        if started is None or ts is None:
            return
        self._cell_seconds += max(0.0, ts - started)
        self._cells_timed += 1

    def _eta(self) -> dict:
        """Throughput + ETA derived from per-cell wall-time history.

        Rate is executed cells over the observed span (robust to
        concurrency -- it measures what actually got done per wall
        second); checkpoint-replayed cells count as resolved but not
        toward the rate, since their replay is near-instant.  The
        average per-cell seconds rides along for operators sizing
        timeouts.  ``None`` until one cell resolves.
        """
        executed = self.done + self.failed
        resolved = executed + self.resumed
        out = {
            "avg_cell_seconds": (
                self._cell_seconds / self._cells_timed
                if self._cells_timed else None
            ),
            "cells_per_second": None,
            "eta_seconds": None,
        }
        if (
            executed <= 0
            or self._first_start_ts is None
            or self._last_event_ts is None
        ):
            return out
        span = self._last_event_ts - self._first_start_ts
        if span <= 0:
            return out
        rate = executed / span
        out["cells_per_second"] = rate
        remaining = max(0, self.total - resolved)
        if rate > 0:
            out["eta_seconds"] = remaining / rate
        return out

    def snapshot(self) -> dict:
        with self._lock:
            snap = {
                "job_id": self.job_id,
                "total": self.total,
                "started": self.started,
                "done": self.done,
                "failed": self.failed,
                "retried": self.retried,
                "resumed": self.resumed,
                "recent": list(self.recent),
            }
            snap.update(self._eta())
            return snap
