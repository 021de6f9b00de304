"""The durable job journal behind ``ats serve --state-dir``.

Every job the service *acknowledges* is journaled -- its spec when it
is accepted, then its terminal state -- through the same append-only,
partial-tail-healing machinery supervised sweeps checkpoint with
(:class:`repro.resilience.checkpoint.CheckpointJournal`), under its own
format name and with ``fsync`` on: a record is forced to stable
storage before the submission is answered, so "the client got a job
id" implies "a restart will still know about that job".  An analyze
answered from stored cells at submit is accepted and finished at
once, so it writes one ``done`` record carrying its result, which
recovery restores like any terminal record.  The start of execution
is not journaled: recovery re-enqueues a queued job and an
interrupted running one alike.  ``running`` records that older
journals hold still load and are treated as ``queued``.

One line per record, keyed by job id; the journal's last-wins
replay semantics mean :meth:`load` yields each job's most recent
state in original acceptance order.  Specs are sanitized before
journaling: resolved runtime objects (the ``_``-prefixed params the
service attaches at submit time) are stripped, leaving exactly the
JSON the client sent -- which is what recovery re-resolves, catching
refs that stopped existing while the service was down (those jobs are
marked ``orphaned`` rather than silently dropped).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..resilience.checkpoint import CheckpointError, CheckpointJournal

__all__ = [
    "SERVICE_JOURNAL_FORMAT",
    "ServiceJournalError",
    "ServiceJournal",
    "sanitize_params",
]

SERVICE_JOURNAL_FORMAT = "ats-service-journal"


class ServiceJournalError(Exception):
    """The job journal is corrupt beyond the tolerated partial tail."""


def sanitize_params(params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The journal-safe subset of a job's params.

    Submit-time resolution attaches live objects under ``_``-prefixed
    keys (``_spec``, ``_run``, ``_progress``...); the journal keeps
    only the client-supplied JSON so recovery re-resolves from scratch.
    """
    return {
        k: v for k, v in (params or {}).items()
        if not k.startswith("_")
    }


class ServiceJournal:
    """Durable per-job state journal (see module docstring)."""

    def __init__(self, path: Union[str, Path], fsync: bool = True):
        self.path = Path(path)
        self._journal = CheckpointJournal(
            self.path, fmt=SERVICE_JOURNAL_FORMAT, fsync=fsync
        )

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def record_state(self, job) -> None:
        """Journal one job's current state (flushed + fsync'd).

        Raises on IO failure -- callers must treat that as "the job was
        never acknowledged" and roll the submission back.
        """
        payload: Dict[str, Any] = {
            "kind": job.kind,
            "params": sanitize_params(job.params),
            "tenant": job.tenant,
            "request_id": job.request_id,
            "state": job.state,
        }
        if job.error is not None:
            payload["error"] = job.error
        if job.state == "done" and job.result is not None:
            payload["result"] = job.result
        self._journal.record(job.id, payload)

    def flush(self) -> None:
        self._journal.flush()

    def close(self) -> None:
        self._journal.close()

    # ------------------------------------------------------------------
    # reading (recovery)
    # ------------------------------------------------------------------

    def load(self) -> Dict[str, dict]:
        """``job_id -> latest journaled payload``, acceptance order.

        A partial final line (torn write from a kill) heals away; any
        deeper corruption raises :class:`ServiceJournalError`.
        """
        try:
            return self._journal.load()
        except CheckpointError as exc:
            raise ServiceJournalError(str(exc)) from exc

    def __enter__(self) -> "ServiceJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
