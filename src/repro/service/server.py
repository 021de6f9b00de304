"""The analysis service core: queue, coalescing, workers, drain.

:class:`AnalysisService` is the transport-agnostic heart of ``ats
serve``: submissions come in (from the HTTP layer, the CLI, or tests
calling :meth:`submit` directly), become :class:`~.jobs.Job` records
on a FIFO queue, and execute on the process-global pooled workers via
:func:`repro.simkernel.submit_host_task` -- the same threads that run
simulations and batch analysis, so the service adds no thread pool of
its own.  At most ``max_workers`` jobs run concurrently; the rest
wait in queue, with their wait time recorded into the
``ats_service_queue_wait_seconds`` histogram.

Three policies sit on the submission path:

* **rate limiting** -- a per-tenant token bucket
  (:mod:`~repro.service.ratelimit`); over-budget tenants get a
  :class:`RateLimited` carrying the retry-after hint;
* **coalescing** -- a submission whose
  :meth:`~repro.service.jobs.Job.coalesce_key` matches an in-flight
  job joins that job instead of queueing a duplicate computation
  (the key holds every resolved input the job body reads, so
  coalesced responses are identical by construction);
* **drain** -- :meth:`drain` stops intake (:class:`ServiceDraining`,
  surfaced as 503) and waits for the queue and in-flight jobs to
  empty, the graceful half of shutdown.

Simulation-running jobs (``run``, ``campaign``, ``synth``) serialize
on one internal lock: the simulator's worker-pool handoff protocol assumes
one simulation at a time per process.  Pure host-side jobs (analyze,
diff, history) run fully concurrently.

One step, :meth:`AnalysisService._resolve`, reads a submission's
params, so malformed input is a 400 at submit and never reaches the
queue, the journal or the circuit breaker.

Request tracing: every job carries its submission's request id, and
the service records ``queue-wait`` / ``execute`` / ``archive-cache``
obs spans tagged with it, completing the HTTP-accept span the HTTP
layer records.  One Chrome-trace export shows a request's whole life.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..analysis import DEFAULT_DETECTORS
from ..archive import Archive, ArchiveError, ArchivedRun, CacheStats
from ..archive.fingerprint import detector_set_fingerprint
from ..core import get_property, list_properties
from ..obs.instruments import service_metrics
from ..obs.spans import span_log, spans_enabled
from ..simkernel.process import submit_host_task
from .breaker import BreakerOpen, CircuitBreaker
from .jobs import CampaignProgress, Job, advance_job_ids
from .journal import ServiceJournal, ServiceJournalError
from .ratelimit import RateLimiter

__all__ = [
    "AnalysisService",
    "BreakerOpen",
    "JobError",
    "RateLimited",
    "ServiceDraining",
]


def _chaos_injector():
    """The installed chaos injector, or None (see chaos.inject)."""
    mod = sys.modules.get("repro.chaos.inject")
    return None if mod is None else mod.active()


class JobError(Exception):
    """A submission the service cannot accept (bad params, unknown run)."""


class RateLimited(Exception):
    """Tenant over budget; ``retry_after`` is the seconds-until-token."""

    def __init__(self, tenant: str, retry_after: float):
        super().__init__(
            f"tenant {tenant!r} over rate budget; "
            f"retry in {retry_after:.2f}s"
        )
        self.tenant = tenant
        self.retry_after = retry_after


class ServiceDraining(Exception):
    """The service is draining; no new submissions are accepted."""


def _span(name: str, t0: float, t1: float, **args: Any) -> None:
    if spans_enabled():
        span_log().record(name, "service", t0, t1, args)


#: numeric client key -> (type, range check, the rule errors state).
_NUMBERS = {
    "size": (int, lambda v: v >= 1, "an integer >= 1"),
    "threads": (int, lambda v: v >= 1, "an integer >= 1"),
    "seed": (int, lambda v: True, "an integer"),
    "threshold": (float, lambda v: 0 <= v < math.inf,
                  "a finite number >= 0"),
    "severity_scale": (float, lambda v: 0 < v < math.inf,
                       "a finite number > 0"),
    "timeout": (float, lambda v: v > 0, "a number > 0"),
    "retries": (int, lambda v: v >= 0, "an integer >= 0"),
}


def _number(params: Dict[str, Any], name: str, default):
    """``params[name]`` typed and range-checked by ``_NUMBERS``.

    Absent or null means ``default``.  Whatever ``int()``/``float()``
    accepts is accepted, except a JSON boolean, which is not a number;
    anything else raises :class:`JobError` naming the key.
    """
    raw = params.get(name)
    if raw is None:
        return default
    cast, ok, rule = _NUMBERS[name]
    try:
        value = None if isinstance(raw, bool) else cast(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or not ok(value):
        raise JobError(f"{name!r} must be {rule}, got {raw!r}")
    return value


def _list(params: Dict[str, Any], name: str) -> list:
    """``params[name]`` as a list (absent or null: empty)."""
    value = params.get(name)
    if value is None:
        return []
    if not isinstance(value, list):
        raise JobError(f"{name!r} must be a list, got {value!r}")
    return value


def _grid(params: Dict[str, Any]) -> Dict[str, int]:
    """The size/threads/seed a run or campaign job simulates at."""
    return {
        "size": _number(params, "size", 8),
        "num_threads": _number(params, "threads", 4),
        "seed": _number(params, "seed", 0),
    }


def _property(name):
    if not name or not isinstance(name, str):
        raise JobError(f"not a property name: {name!r}")
    try:
        return get_property(name)
    except KeyError:
        raise JobError(f"unknown property function {name!r}") from None


def _campaign_spec(spec):
    from ..synth import CampaignSpec, SynthError

    if not isinstance(spec, dict):
        raise JobError(
            "synth jobs need a 'spec' object (a CampaignSpec dict)"
        )
    try:
        return CampaignSpec.from_dict(spec)
    except SynthError as exc:
        raise JobError(str(exc)) from None


class AnalysisService:
    """Async job server over one trace archive (see module doc)."""

    #: resolved jobs kept for ``GET /jobs/<id>`` before eviction.
    MAX_FINISHED_JOBS = 4096

    def __init__(
        self,
        archive: Archive,
        max_workers: int = 8,
        rate: float = 200.0,
        burst: int = 400,
        default_detection_threshold: float = 0.01,
        state_dir: Optional[Union[str, Path]] = None,
        recover: bool = False,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.archive = archive
        self.max_workers = max_workers
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.threshold = default_detection_threshold
        self.started_at = time.monotonic()

        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._inflight = 0
        self._accepting = True
        self._idle = threading.Condition(self._lock)
        #: coalesce_key -> unresolved primary job.
        self._active_keys: Dict[Tuple, Job] = {}
        #: job id -> job, submission order (bounded).
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: campaign job id -> live progress (bounded with _jobs).
        self._campaigns: Dict[str, CampaignProgress] = {}
        #: one simulation at a time (worker-pool handoff invariant).
        self._sim_lock = threading.Lock()
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            on_transition=self._on_breaker_transition,
        )

        #: plain counters so ``/status`` works with obs disabled.
        self.counts = {
            "submitted": 0,
            "executed": 0,
            "coalesced": 0,
            "done": 0,
            "failed": 0,
            "rate_limited": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "expired": 0,
            "evicted": 0,
            "recovered": 0,
            "requeued": 0,
            "orphaned": 0,
        }

        #: durable mode: the job journal + per-job checkpoint files.
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.journal: Optional[ServiceJournal] = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            (self.state_dir / "checkpoints").mkdir(exist_ok=True)
            self.journal = ServiceJournal(self.state_dir / "jobs.jsonl")
            if recover:
                self._recover()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        tenant: str = "default",
        request_id: str = "",
        deadline: Optional[float] = None,
    ) -> Tuple[Job, bool]:
        """Queue one job; returns ``(job, coalesced)``.

        ``coalesced`` is True when the submission joined an identical
        in-flight job -- the returned job is then the shared primary,
        and its eventual result answers every coalesced submitter.
        ``deadline`` (seconds) bounds how long the *client* cares: a
        job still queued past its deadline is cancelled (``expired``)
        instead of burning a worker.  Raises :class:`RateLimited`,
        :class:`ServiceDraining`, :class:`BreakerOpen` or
        :class:`JobError`.  In durable mode the job is journaled
        (fsync'd) before this returns -- a journal write failure rolls
        the submission back, so an acknowledged job is always a
        recoverable one.
        """
        params = dict(params or {})
        if not self._accepting:
            raise ServiceDraining("service is draining")
        retry_after = self.limiter.check(tenant)
        if retry_after > 0.0:
            self._count("rate_limited")
            metrics = service_metrics()
            if metrics is not None:
                metrics.rate_limited.labels(tenant=tenant).inc()
            raise RateLimited(tenant, retry_after)
        key = self._resolve(kind, params)
        try:
            self.breaker.check(params["_cell"])
        except BreakerOpen:
            self._count("evicted")
            raise
        with self._lock:
            if not self._accepting:
                raise ServiceDraining("service is draining")
            self._count_locked("submitted")
            if key is not None:
                primary = self._active_keys.get(key)
                if primary is not None and not primary.done:
                    primary.coalesced += 1
                    self._count_locked("coalesced")
                    metrics = service_metrics()
                    if metrics is not None:
                        metrics.coalesced.inc()
                    return primary, True
            job = Job(
                kind,
                params,
                tenant=tenant,
                request_id=request_id,
                coalesce_key=key,
                deadline=deadline,
            )
            self._enqueue_locked(job)
            self._pump_locked()
        return job, False

    def _enqueue_locked(self, job: Job) -> None:
        """Register, journal and queue one accepted job (lock held).

        The journal write is the acknowledgment point: if it fails,
        every registration is rolled back and the error propagates, so
        the client never holds an id a restart would not recognize.
        """
        if job.coalesce_key is not None:
            self._active_keys[job.coalesce_key] = job
        self._remember(job)
        if job.kind in ("campaign", "synth"):
            total = (
                job.params["_campaign"].scenarios
                if job.kind == "synth"
                else len(job.params["_specs"])
            )
            progress = CampaignProgress(job.id, total=total)
            self._campaigns[job.id] = progress
            job.params["_progress"] = progress
        self._queue.append(job)
        try:
            self._journal_state(job)
        except BaseException:
            self._queue.remove(job)
            self._jobs.pop(job.id, None)
            self._campaigns.pop(job.id, None)
            if self._active_keys.get(job.coalesce_key) is job:
                del self._active_keys[job.coalesce_key]
            raise
        metrics = service_metrics()
        if metrics is not None:
            metrics.queue_depth.set(len(self._queue))

    def _on_breaker_transition(self, key: str, state: str) -> None:
        metrics = service_metrics()
        if metrics is not None:
            metrics.breaker_transitions.labels(state=state).inc()
            metrics.breaker_open_cells.set(self.breaker.open_count())

    def _journal_state(self, job: Job) -> None:
        """Append one state transition to the durable journal."""
        if self.journal is None:
            return
        self.journal.record_state(job)
        metrics = service_metrics()
        if metrics is not None:
            metrics.journal_records.inc()

    def _resolve(
        self, kind: str, params: Dict[str, Any]
    ) -> Optional[Tuple]:
        """Read one submission's params; returns its coalesce key.

        The only reader of client keys: it types and range-checks
        every input a job body uses, resolves property names and
        archive refs, applies defaults, and stores the results under
        ``_``-prefixed keys, which the bodies read and the journal
        strips.  The coalesce key holds every input the body reads
        (campaign, synth, export and history jobs never coalesce);
        ``_cell``, the breaker cell, names the resolved identity, so
        two prefixes of one run share a cell.  Malformed values raise
        :class:`JobError` (a 400) before the job is journaled, queued
        or seen by the breaker.
        """
        params["_cell"] = kind
        if kind in ("analyze", "diff"):
            threshold = params["_threshold"] = _number(
                params, "threshold", self.threshold
            )
            refs = ("run",) if kind == "analyze" else ("before", "after")
            runs = [self._resolve_ref(params.get(ref), ref) for ref in refs]
            for ref, run in zip(refs, runs):
                params["_" + ref] = run
            params["_cell"] = ":".join([kind] + [r.run_id for r in runs])
            return (
                kind,
                *[run.trace_digest for run in runs],
                detector_set_fingerprint(DEFAULT_DETECTORS),
                threshold,
            )
        if kind == "run":
            spec = params["_spec"] = _property(params.get("property"))
            kwargs = params["_kwargs"] = _grid(params)
            if spec.paradigm != "omp" and kwargs["size"] < spec.min_size:
                raise JobError(
                    f"'size' must be >= {spec.min_size} for {spec.name}"
                    f", got {kwargs['size']}"
                )
            kwargs["severity_scale"] = _number(
                params, "severity_scale", None
            )
            # size, num_threads, seed, severity_scale
            identity = (spec.name, *kwargs.values())
            params["_cell"] = "run:" + ":".join(map(str, identity))
            return ("run",) + identity
        if kind == "campaign":
            specs = [_property(n) for n in _list(params, "properties")]
            params["_specs"] = specs or list_properties()
            params["_kwargs"] = _grid(params)
            params["_timeout"] = _number(params, "timeout", None)
            params["_retries"] = _number(params, "retries", 0)
        elif kind == "synth":
            spec = params["_campaign"] = _campaign_spec(params.get("spec"))
            params["_threshold"] = _number(
                params, "threshold", self.threshold
            )
            params["_timeout"] = _number(params, "timeout", None)
            params["_retries"] = _number(
                params, "retries", spec.max_retries
            )
            params["_cell"] = f"synth:{spec.name}"
        elif kind == "export":
            refs = _list(params, "runs")
            runs = [self._resolve_ref(ref, "runs") for ref in refs]
            params["_runs"] = runs or None
            params["_csv"] = bool(params.get("csv"))
        return None

    def _resolve_ref(self, ref, label: str) -> ArchivedRun:
        if not ref or not isinstance(ref, str):
            raise JobError(f"missing {label!r} run reference")
        try:
            return self.archive.resolve(ref)
        except ArchiveError as exc:
            raise JobError(str(exc)) from None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _pump_locked(self) -> None:
        """Start queued jobs while worker slots are free (lock held)."""
        metrics = service_metrics()
        while self._inflight < self.max_workers and self._queue:
            job = self._queue.popleft()
            if job.expired():
                self._expire_locked(job)
                continue
            job.mark_running()
            self._inflight += 1
            wait = job.queue_wait() or 0.0
            if metrics is not None:
                metrics.queue_depth.set(len(self._queue))
                metrics.inflight.set(self._inflight)
                metrics.queue_wait_seconds.observe(wait)
            _span(
                "queue-wait", job.created, job.started,
                request_id=job.request_id, job=job.id, kind=job.kind,
            )
            submit_host_task(
                lambda job=job: self._execute(job),
                lambda task, job=job: self._on_done(job, task),
            )

    def _expire_locked(self, job: Job) -> None:
        """Cancel a queued job whose client deadline already passed."""
        metrics = service_metrics()
        self._count_locked("expired")
        if job.coalesce_key is not None:
            if self._active_keys.get(job.coalesce_key) is job:
                del self._active_keys[job.coalesce_key]
        if metrics is not None:
            metrics.expired.inc()
            metrics.jobs.labels(kind=job.kind, status="expired").inc()
            metrics.queue_depth.set(len(self._queue))
        job.resolve(
            None,
            "client deadline expired before execution started",
            state="expired",
        )
        try:
            self._journal_state(job)
        except OSError:
            pass

    def _execute(self, job: Job) -> dict:
        """Job body -- runs on a pooled worker thread."""
        t0 = time.monotonic()
        injector = _chaos_injector()
        if injector is not None:
            injector.execute(job.kind)
        try:
            handler = getattr(self, f"_job_{job.kind}")
            return handler(job)
        finally:
            _span(
                "execute", t0, time.monotonic(),
                request_id=job.request_id, job=job.id, kind=job.kind,
            )

    def _on_done(self, job: Job, task) -> None:
        """Worker-side completion: bookkeeping, resolve, pump next."""
        metrics = service_metrics()
        with self._lock:
            self._inflight -= 1
            if job.coalesce_key is not None:
                if self._active_keys.get(job.coalesce_key) is job:
                    del self._active_keys[job.coalesce_key]
            status = "failed" if task.exception is not None else "done"
            self._count_locked(status)
            self._count_locked("executed")
            if metrics is not None:
                metrics.inflight.set(self._inflight)
                metrics.jobs.labels(kind=job.kind, status=status).inc()
                metrics.executed.inc()
            self._idle.notify_all()
        cell = job.params["_cell"]
        if task.exception is not None:
            exc = task.exception
            job.resolve(None, f"{type(exc).__name__}: {exc}")
            self.breaker.record_failure(cell)
        else:
            job.resolve(task.result, None)
            self.breaker.record_success(cell)
        try:
            self._journal_state(job)
        except OSError:
            # the result is already in memory and served from there;
            # losing the terminal record only means a restart re-runs
            # the job (idempotent through the archive cache).
            pass
        with self._lock:
            self._pump_locked()

    # ------------------------------------------------------------------
    # job bodies
    # ------------------------------------------------------------------

    def _count_cache(self, job: Job, stats: CacheStats) -> None:
        with self._lock:
            self.counts["cache_hits"] += stats.hits
            self.counts["cache_misses"] += stats.misses
        metrics = service_metrics()
        if metrics is not None:
            if stats.hits:
                metrics.cache_hits.inc(stats.hits)
            if stats.misses:
                metrics.cache_misses.inc(stats.misses)
        now = time.monotonic()
        _span(
            "archive-cache", now, now,
            request_id=job.request_id, job=job.id,
            hits=stats.hits, misses=stats.misses,
        )

    def _job_run(self, job: Job) -> dict:
        with self._sim_lock:
            run = self.archive.archive_run(
                job.params["_spec"], **job.params["_kwargs"]
            )
        return {
            "run_id": run.run_id,
            "program": run.program,
            "trace_digest": run.trace_digest,
            "events": run.events,
            "final_time": run.final_time,
        }

    def _job_analyze(self, job: Job) -> dict:
        run = job.params["_run"]
        stats = CacheStats()
        analysis = self.archive.analyze(run, stats=stats)
        self._count_cache(job, stats)
        return {
            "run_id": run.run_id,
            "program": run.program,
            "severities": analysis.severities_by_property(),
            "detected": list(analysis.detected(job.params["_threshold"])),
            "findings": len(analysis.findings),
            "total_time": analysis.total_time,
            "cache": {"hits": stats.hits, "misses": stats.misses},
        }

    def _job_diff(self, job: Job) -> dict:
        before, after = job.params["_before"], job.params["_after"]
        stats = CacheStats()
        report = self.archive.diff(
            before, after, threshold=job.params["_threshold"], stats=stats
        )
        self._count_cache(job, stats)
        return {
            "before": before.run_id,
            "after": after.run_id,
            "report": report.to_dict(),
            "gate_failures": report.gate_failures(),
            "cache": {"hits": stats.hits, "misses": stats.misses},
        }

    def _job_history(self, job: Job) -> dict:
        runs = self.archive.history()
        return {
            "count": len(runs),
            "runs": [
                dict(run.to_payload(), run_id=run.run_id)
                for run in runs
            ],
        }

    def _supervised(self, job: Job, sweep):
        """Run a campaign or synth job's ``sweep(supervisor)``.

        The supervisor takes the job's resolved timeout and retries,
        feeds its live progress, and checkpoints cells to a file keyed
        by job id, which recovery preserves -- so a resumed job
        replays exactly the cells its pre-crash incarnation finished.
        """
        from ..resilience import Supervisor

        checkpoint = None
        if self.state_dir is not None:
            checkpoint = str(
                self.state_dir / "checkpoints" / f"{job.id}.jsonl"
            )
        supervisor = Supervisor(
            timeout=job.params["_timeout"],
            retries=job.params["_retries"],
            on_event=job.params["_progress"].on_event,
            checkpoint=checkpoint,
        )
        try:
            with self._sim_lock:
                return sweep(supervisor)
        finally:
            supervisor.close()

    def _job_campaign(self, job: Job) -> dict:
        from ..validation import run_validation_matrix

        matrix = self._supervised(
            job,
            lambda supervisor: run_validation_matrix(
                job.params["_specs"],
                supervisor=supervisor,
                archive=self.archive,
                **job.params["_kwargs"],
            ),
        )
        return {
            "rows": [row.to_dict() for row in matrix.rows],
            "all_passed": matrix.all_passed,
            "positive_detection_rate": matrix.positive_detection_rate,
            "false_positive_rate": matrix.false_positive_rate,
            "progress": job.params["_progress"].snapshot(),
        }

    def _job_synth(self, job: Job) -> dict:
        from ..synth import CampaignError, run_campaign, score_result

        aborted = None
        try:
            result = self._supervised(
                job,
                lambda supervisor: run_campaign(
                    job.params["_campaign"],
                    threshold=job.params["_threshold"],
                    supervisor=supervisor,
                    archive=self.archive,
                ),
            )
        except CampaignError as exc:
            result = exc.result
            aborted = str(exc)
        return {
            "campaign": result.to_json_dict(),
            "score": score_result(result).to_json_dict(),
            "aborted": aborted,
            "progress": job.params["_progress"].snapshot(),
        }

    def _job_export(self, job: Job) -> dict:
        from ..stats import dataset_rows, rows_to_csv, rows_to_jsonl

        stats = CacheStats()
        rows = dataset_rows(
            self.archive, runs=job.params["_runs"], stats=stats
        )
        self._count_cache(job, stats)
        result = {
            "rows": len(rows),
            "runs": len({row.run_id for row in rows}),
            "jsonl": rows_to_jsonl(rows),
            "cache": {"hits": stats.hits, "misses": stats.misses},
        }
        if job.params["_csv"]:
            result["csv"] = rows_to_csv(rows)
        return result

    # ------------------------------------------------------------------
    # restart recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the durable journal after a restart.

        * terminal jobs (``done``/``failed``/``expired``/``orphaned``)
          are restored into the job table so ``GET /jobs/<id>`` keeps
          answering;
        * ``queued`` and ``running`` jobs are re-enqueued from their
          journaled client spec -- campaign/synth jobs find their
          per-job checkpoint file and resume through the supervised
          sweep's replay path, reproducing the artifact an
          uninterrupted run would have written byte for byte;
        * jobs whose spec no longer resolves (archived run vanished,
          property renamed) become ``orphaned`` -- visible, queryable,
          never silently dropped.

        Client deadlines do not survive a restart: the monotonic clock
        they were armed against died with the old process, so
        recovered jobs run to completion.
        """
        assert self.journal is not None
        try:
            records = self.journal.load()
        except ServiceJournalError as exc:
            raise JobError(
                f"cannot recover service state: {exc}"
            ) from exc
        metrics = service_metrics()
        for job_id in records:
            advance_job_ids(job_id)
        with self._lock:
            for job_id, payload in records.items():
                state = payload.get("state", "failed")
                if state in ("queued", "running"):
                    self._requeue_locked(job_id, payload, metrics)
                else:
                    job = Job.restore(job_id, payload)
                    self._jobs[job.id] = job
                    self._count_locked("recovered")
                    if metrics is not None:
                        metrics.recovered.labels(
                            outcome="restored"
                        ).inc()
            self._pump_locked()

    def _requeue_locked(
        self, job_id: str, payload: dict, metrics
    ) -> None:
        """Re-enqueue one interrupted job under its original id."""
        kind = payload.get("kind", "")
        params = dict(payload.get("params") or {})
        try:
            key = self._resolve(kind, params)
            job = Job(
                kind,
                params,
                tenant=payload.get("tenant", "default"),
                request_id=payload.get("request_id", ""),
                coalesce_key=key,
                job_id=job_id,
            )
        except (JobError, ValueError) as exc:
            self._orphan_locked(job_id, payload, str(exc), metrics)
            return
        job.recovered = True
        self._enqueue_locked(job)
        self._count_locked("requeued")
        if metrics is not None:
            metrics.recovered.labels(outcome="requeued").inc()

    def _orphan_locked(
        self, job_id: str, payload: dict, reason: str, metrics
    ) -> None:
        """Keep an unrecoverable job visible instead of dropping it."""
        from .jobs import JOB_KINDS

        kind = payload.get("kind", "")
        job = Job(
            kind if kind in JOB_KINDS else "history",
            dict(payload.get("params") or {}),
            tenant=payload.get("tenant", "default"),
            request_id=payload.get("request_id", ""),
            job_id=job_id,
        )
        job.recovered = True
        job.resolve(
            None,
            f"unrecoverable after restart: {reason}",
            state="orphaned",
        )
        self._jobs[job.id] = job
        self._count_locked("orphaned")
        if metrics is not None:
            metrics.recovered.labels(outcome="orphaned").inc()
        try:
            self._journal_state(job)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def _remember(self, job: Job) -> None:
        """Register ``job``, evicting the oldest finished jobs over the cap.

        Unfinished jobs are skipped, never evicted, so one long job at
        the head of the table does not stop eviction behind it.
        """
        self._jobs[job.id] = job
        excess = len(self._jobs) - self.MAX_FINISHED_JOBS
        if excess <= 0:
            return
        evict = []
        for held_id, held in self._jobs.items():
            if held.done:
                evict.append(held_id)
                if len(evict) == excess:
                    break
        for held_id in evict:
            del self._jobs[held_id]
            self._campaigns.pop(held_id, None)

    def _count(self, name: str) -> None:
        with self._lock:
            self._count_locked(name)

    def _count_locked(self, name: str) -> None:
        self.counts[name] += 1

    def status(self) -> dict:
        """Live service snapshot (``GET /status`` / dashboards)."""
        with self._lock:
            queue_depth = len(self._queue)
            inflight = self._inflight
            accepting = self._accepting
            counts = dict(self.counts)
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            campaigns = [
                progress.snapshot()
                for progress in self._campaigns.values()
            ]
        lookups = counts["cache_hits"] + counts["cache_misses"]
        out = {
            "uptime": time.monotonic() - self.started_at,
            "accepting": accepting,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "max_workers": self.max_workers,
            "counts": counts,
            "jobs_by_state": states,
            "cache_hit_ratio": (
                counts["cache_hits"] / lookups if lookups else None
            ),
            "campaigns": campaigns,
            "durable": self.journal is not None,
            "breakers": self.breaker.snapshot(),
        }
        if self.state_dir is not None:
            out["state_dir"] = str(self.state_dir)
        metrics = service_metrics()
        if metrics is not None:
            latency = {}
            for (endpoint,), child in sorted(
                metrics.request_seconds.samples()
            ):
                latency[endpoint] = {
                    "p50": child.quantile(0.50),
                    "p99": child.quantile(0.99),
                    "count": child.snapshot()[2],
                }
            out["latency"] = latency
        return out

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake, wait for in-flight work, flush everything.

        Returns False when ``timeout`` elapsed with work still
        pending (the jobs keep running; drain just stopped waiting).
        Either way the durable journal and archive manifest are
        flushed to disk before this returns -- the guarantee ``POST
        /drain`` and the SIGTERM handler rely on before letting the
        process exit.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        drained = True
        with self._lock:
            self._accepting = False
            while self._queue or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        drained = False
                        break
                self._idle.wait(remaining)
        self.flush_durable()
        return drained

    def flush_durable(self) -> None:
        """Force journal + archive manifest to disk (best effort)."""
        if self.journal is not None:
            try:
                self.journal.flush()
            except OSError:
                pass
        try:
            self.archive.store.flush()
        except OSError:
            pass

    @property
    def accepting(self) -> bool:
        return self._accepting

    def close(self) -> None:
        self.flush_durable()
        if self.journal is not None:
            self.journal.close()
        self.archive.close()

