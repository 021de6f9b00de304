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
  (analyze keys are the archive cache's own ``(trace digest,
  detector fingerprint)`` pair, so coalesced responses are identical
  by construction);
* **drain** -- :meth:`drain` stops intake (:class:`ServiceDraining`,
  surfaced as 503) and waits for the queue and in-flight jobs to
  empty, the graceful half of shutdown.

Simulation-running jobs (``run``, ``campaign``, ``synth``) serialize
on one internal lock: the simulator's worker-pool handoff protocol assumes
one simulation at a time per process.  Pure host-side jobs (analyze,
diff, history) run fully concurrently.

Request tracing: every job carries its submission's request id, and
the service records ``queue-wait`` / ``execute`` / ``archive-cache``
obs spans tagged with it, completing the HTTP-accept span the HTTP
layer records.  One Chrome-trace export shows a request's whole life.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..archive import Archive, ArchiveError, ArchivedRun, CacheStats
from ..archive.fingerprint import detector_set_fingerprint
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
        try:
            self.breaker.check(self._cell_key(kind, params))
        except BreakerOpen:
            self._count("evicted")
            raise

        key = self._coalesce_key(kind, params)
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
                else len(job.params.get("_specs", ()))
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

    def _cell_key(self, kind: str, params: Dict[str, Any]) -> str:
        """The executor-cell identity the circuit breaker trips on.

        Deterministic simulation means a crash is a property of the
        cell, not of the moment -- so eviction keys on what would
        recompute (program/size/seed, archived run, synth spec), not
        on tenant or request.
        """
        if kind == "run":
            return (
                f"run:{params.get('property')}"
                f":{params.get('size', 8)}:{params.get('threads', 4)}"
                f":{params.get('seed', 0)}"
            )
        if kind == "analyze":
            return f"analyze:{params.get('run')}"
        if kind == "diff":
            return f"diff:{params.get('before')}:{params.get('after')}"
        if kind == "synth":
            spec = params.get("spec")
            name = spec.get("name") if isinstance(spec, dict) else None
            return f"synth:{name}"
        return kind

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

    def _checkpoint_path(self, job: Job) -> Optional[str]:
        """Where a campaign/synth job checkpoints its cells.

        Keyed by job id, which recovery preserves -- so a resumed job
        replays exactly the cells its pre-crash incarnation finished.
        """
        if self.state_dir is None:
            return None
        return str(self.state_dir / "checkpoints" / f"{job.id}.jsonl")

    def _coalesce_key(
        self, kind: str, params: Dict[str, Any]
    ) -> Optional[Tuple]:
        """Derive the dedup key; resolves archive refs as a side effect.

        Unknown refs surface here, at submit time, as
        :class:`JobError` -- a 404 the client gets immediately rather
        than a failed job it would have to poll for.
        """
        if kind == "analyze":
            run = self._resolve_ref(params.get("run"))
            params["_run"] = run
            return (
                "analyze",
                run.trace_digest,
                detector_set_fingerprint(_default_detectors()),
            )
        if kind == "diff":
            before = self._resolve_ref(params.get("before"), "before")
            after = self._resolve_ref(params.get("after"), "after")
            params["_before"] = before
            params["_after"] = after
            return (
                "diff",
                before.trace_digest,
                after.trace_digest,
                detector_set_fingerprint(_default_detectors()),
                float(params.get("threshold", self.threshold)),
            )
        if kind == "run":
            spec, run_kwargs = self._resolve_run_params(params)
            params["_spec"] = spec
            params["_kwargs"] = run_kwargs
            return (
                "run",
                spec.name,
                run_kwargs["size"],
                run_kwargs["num_threads"],
                run_kwargs["seed"],
            )
        if kind == "campaign":
            params["_specs"] = self._resolve_campaign_specs(params)
        if kind == "synth":
            params["_campaign"] = self._resolve_synth_spec(params)
        if kind == "export":
            params["_runs"] = self._resolve_export_runs(params)
        return None

    def _resolve_ref(self, ref, label: str = "run") -> ArchivedRun:
        if not ref or not isinstance(ref, str):
            raise JobError(f"missing {label!r} run reference")
        try:
            return self.archive.resolve(ref)
        except ArchiveError as exc:
            raise JobError(str(exc)) from None

    def _resolve_run_params(self, params: Dict[str, Any]):
        from ..core import get_property

        name = params.get("property")
        if not name or not isinstance(name, str):
            raise JobError("missing 'property' name")
        try:
            spec = get_property(name)
        except KeyError:
            raise JobError(
                f"unknown property function {name!r}"
            ) from None
        run_kwargs = {
            "size": int(params.get("size", 8)),
            "num_threads": int(params.get("threads", 4)),
            "seed": int(params.get("seed", 0)),
        }
        scale = params.get("severity_scale")
        if scale is not None:
            run_kwargs["severity_scale"] = float(scale)
        return spec, run_kwargs

    def _resolve_campaign_specs(self, params: Dict[str, Any]):
        from ..core import get_property, list_properties

        names = params.get("properties")
        if not names:
            return list_properties()
        specs = []
        for name in names:
            try:
                specs.append(get_property(name))
            except KeyError:
                raise JobError(
                    f"unknown property function {name!r}"
                ) from None
        return specs

    def _resolve_synth_spec(self, params: Dict[str, Any]):
        from ..synth import CampaignSpec, SynthError

        spec = params.get("spec")
        if not isinstance(spec, dict):
            raise JobError(
                "synth jobs need a 'spec' object (a CampaignSpec dict)"
            )
        try:
            return CampaignSpec.from_dict(spec)
        except SynthError as exc:
            raise JobError(str(exc)) from None

    def _resolve_export_runs(self, params: Dict[str, Any]):
        """Resolve an export job's run filter at submit time.

        ``runs`` is an optional list of archive run refs (id prefixes);
        unknown refs surface as an immediate 400 instead of a failed
        job.  ``None`` means export every labeled run in the archive.
        """
        refs = params.get("runs")
        if not refs:
            return None
        if not isinstance(refs, list):
            raise JobError("'runs' must be a list of run references")
        records = []
        for ref in refs:
            if not ref or not isinstance(ref, str):
                raise JobError("'runs' entries must be run references")
            try:
                records.append(self.archive.resolve(ref))
            except ArchiveError as exc:
                raise JobError(str(exc)) from None
        return records

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
        cell = self._cell_key(job.kind, job.params)
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
        spec = job.params["_spec"]
        kwargs = job.params["_kwargs"]
        with self._sim_lock:
            run = self.archive.archive_run(spec, **kwargs)
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
        threshold = float(job.params.get("threshold", self.threshold))
        return {
            "run_id": job.params.get("run"),
            "program": run.program,
            "severities": analysis.severities_by_property(),
            "detected": list(analysis.detected(threshold)),
            "findings": len(analysis.findings),
            "total_time": analysis.total_time,
            "cache": {"hits": stats.hits, "misses": stats.misses},
        }

    def _job_diff(self, job: Job) -> dict:
        stats = CacheStats()
        report = self.archive.diff(
            job.params["_before"],
            job.params["_after"],
            threshold=float(job.params.get("threshold", self.threshold)),
            stats=stats,
        )
        self._count_cache(job, stats)
        return {
            "before": job.params.get("before"),
            "after": job.params.get("after"),
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

    def _job_campaign(self, job: Job) -> dict:
        from ..resilience import Supervisor
        from ..validation import run_validation_matrix

        specs = job.params["_specs"]
        progress: CampaignProgress = job.params["_progress"]
        supervisor = Supervisor(
            timeout=job.params.get("timeout"),
            retries=int(job.params.get("retries", 0)),
            on_event=progress.on_event,
            checkpoint=self._checkpoint_path(job),
        )
        try:
            with self._sim_lock:
                matrix = run_validation_matrix(
                    specs,
                    size=int(job.params.get("size", 8)),
                    num_threads=int(job.params.get("threads", 4)),
                    seed=int(job.params.get("seed", 0)),
                    supervisor=supervisor,
                    archive=self.archive,
                )
        finally:
            supervisor.close()
        return {
            "rows": [row.to_dict() for row in matrix.rows],
            "all_passed": matrix.all_passed,
            "positive_detection_rate": matrix.positive_detection_rate,
            "false_positive_rate": matrix.false_positive_rate,
            "progress": progress.snapshot(),
        }

    def _job_synth(self, job: Job) -> dict:
        from ..resilience import Supervisor
        from ..synth import CampaignError, run_campaign, score_result

        spec = job.params["_campaign"]
        progress: CampaignProgress = job.params["_progress"]
        supervisor = Supervisor(
            timeout=job.params.get("timeout"),
            retries=int(job.params.get("retries", spec.max_retries)),
            on_event=progress.on_event,
            checkpoint=self._checkpoint_path(job),
        )
        aborted = None
        try:
            with self._sim_lock:
                result = run_campaign(
                    spec,
                    threshold=float(
                        job.params.get("threshold", self.threshold)
                    ),
                    supervisor=supervisor,
                    archive=self.archive,
                )
        except CampaignError as exc:
            result = exc.result
            aborted = str(exc)
        finally:
            supervisor.close()
        score = score_result(result)
        return {
            "campaign": result.to_json_dict(),
            "score": score.to_json_dict(),
            "aborted": aborted,
            "progress": progress.snapshot(),
        }

    def _job_export(self, job: Job) -> dict:
        from ..stats import dataset_rows, rows_to_csv, rows_to_jsonl

        stats = CacheStats()
        rows = dataset_rows(
            self.archive, runs=job.params.get("_runs"), stats=stats
        )
        self._count_cache(job, stats)
        result = {
            "rows": len(rows),
            "runs": len({row.run_id for row in rows}),
            "jsonl": rows_to_jsonl(rows),
            "cache": {"hits": stats.hits, "misses": stats.misses},
        }
        if job.params.get("csv"):
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
            key = self._coalesce_key(kind, params)
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


def _default_detectors():
    from ..analysis import DEFAULT_DETECTORS

    return DEFAULT_DETECTORS
