"""Supervised fork-per-cell sweep execution.

:func:`run_cells_forked` is the multiprocess twin of calling
:meth:`Supervisor.run_cell` in a loop: the same cell lifecycle --
checkpoint replay, wall-clock timeout, failure classification, retry
with deterministic backoff, quarantine, journaling, metrics -- but with
cell *attempts* fanned out over ``os.fork`` children via
:mod:`repro.work.forkexec` instead of running inline.

Division of labour:

* the **child** runs the cell callable, classifies any exception with
  the same :func:`classify_failure` taxonomy the serial path uses
  (structured watchdog reports ride along), and ships a JSON envelope;
* the **parent** merges each child's obs-metrics delta, decides
  retries, and resolves outcomes in cell order: a cell is journaled
  (and its deferred archive records replayed) once every earlier cell
  has resolved.

Because records are journaled in cell order with the serial path's
payloads, the journal and archive manifest are byte-identical to a
serial sweep's regardless of completion order, and a sweep
checkpointed under ``--workers N`` can resume serially and vice
versa.  Timeouts are *stronger* here than in serial supervision: the
child is ``SIGKILL``\\ ed, reclaiming the CPU a stuck cell was burning,
where the serial path can only abandon the stuck thread.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..obs.merge import merge_state
from ..work.forkexec import run_forked_tasks
from .supervisor import (
    CellFailure,
    CellOutcome,
    Supervisor,
    classify_failure,
    failure_report_of,
)

__all__ = ["run_cells_forked"]


def _child_cell(fn: Callable[[], Any]) -> Callable[[], dict]:
    """Wrap a cell callable for in-child classification.

    Classification happens in the child, where the live exception (and
    its watchdog report) still exists; only the classified record
    crosses the pipe.
    """

    def run() -> dict:
        try:
            return {"ok": True, "cell": fn()}
        except Exception as exc:  # noqa: BLE001 - classified, shipped
            return {
                "ok": False,
                "kind": classify_failure(exc),
                "error": f"{type(exc).__name__}: {exc}",
                "report": failure_report_of(exc),
            }

    return run


def _to_outcome(
    key: str, attempt: int, out, timeout: Optional[float]
) -> CellOutcome:
    """Map one fork-executor outcome to the supervisor's vocabulary."""
    if out.status == "ok":
        env = out.payload or {}
        if env.get("ok"):
            return CellOutcome(
                key=key, status="ok", value=env.get("cell"),
                attempts=attempt,
            )
        failure = CellFailure(
            key=key,
            kind=env.get("kind", "crash"),
            error=env.get("error", "cell failed"),
            attempts=attempt,
            report=env.get("report"),
        )
    elif out.status == "timeout":
        # Same record a serial CellTimeout would have produced, so
        # failure artifacts and journals stay path-independent.
        failure = CellFailure(
            key=key,
            kind="timeout",
            error=f"CellTimeout: wall-clock timeout after {timeout:g}s",
            attempts=attempt,
        )
    else:
        failure = CellFailure(
            key=key,
            kind="crash",
            error=out.error or "child process crashed",
            attempts=attempt,
        )
    return CellOutcome(
        key=key, status="failed", failure=failure, attempts=attempt
    )


def run_cells_forked(
    cells: Iterable[Tuple[str, Callable[[], Any]]],
    workers: int,
    supervisor: Optional[Supervisor] = None,
    decode: Optional[Callable[[dict], Any]] = None,
    extras_fn: Optional[Callable[[], Any]] = None,
    on_extras: Optional[Callable[[str, Any], None]] = None,
    echo_output: bool = True,
) -> List[CellOutcome]:
    """Run ``(key, fn)`` cells in forked children; cell-order results.

    Cell callables must return JSON-serializable values (they cross a
    pipe); ``decode`` turns each value, fresh or replayed, into the
    returned outcome's value.  Journaled cells are replayed instead of
    re-run, transient failures are retried with the supervisor's
    deterministic backoff, and persistent ones are quarantined -- all
    with the exact payloads the serial path writes.  A missing
    ``supervisor`` becomes a default :class:`Supervisor`.

    Outcomes resolve in cell order, never completion order: once every
    earlier cell has resolved, a cell's ``on_extras(key, value)``
    calls run -- one per attempt, with what ``extras_fn`` returned in
    that attempt's child (deferred archive-manifest records) -- and
    then the cell is journaled.  So the journal and the archive
    manifest match a serial sweep's byte for byte.  ``echo_output``
    re-emits each child's captured stdout+stderr on the parent's
    stdout as it completes.
    """
    cells = list(cells)
    if supervisor is None:
        supervisor = Supervisor()
    done: List[Optional[CellOutcome]] = [None] * len(cells)
    extras: List[list] = [[] for _ in cells]
    pending: List[Tuple[int, Callable[[], Any], int]] = []
    for index, (key, fn) in enumerate(cells):
        done[index] = supervisor.replay(key, decode)
        if done[index] is None:
            pending.append((index, fn, 1))
    metrics = supervisor._metrics
    resolved = 0

    def resolve_in_order() -> None:
        nonlocal resolved
        while resolved < len(cells) and done[resolved] is not None:
            outcome = done[resolved]
            if not outcome.from_checkpoint:
                for value in extras[resolved]:
                    on_extras(outcome.key, value)
                supervisor.finalize(outcome)
                if outcome.ok and decode is not None:
                    outcome.value = decode(outcome.value)
            resolved += 1

    while pending:
        batch = pending
        pending = []
        retry_delay = 0.0

        def handle(position: int, out, batch=batch) -> None:
            nonlocal retry_delay
            index, fn, attempt = batch[position]
            key = cells[index][0]
            merge_state(out.metrics)
            if echo_output and out.output:
                sys.stdout.write(out.output)
            if out.extras is not None and on_extras is not None:
                extras[index].append(out.extras)
            if out.status == "timeout" and metrics is not None:
                metrics.timeouts.inc()
            outcome = _to_outcome(key, attempt, out, supervisor.timeout)
            if (
                not outcome.ok
                and outcome.failure.kind in supervisor.transient
                and attempt <= supervisor.retries
            ):
                delay = supervisor.backoff_delay(key, attempt)
                if metrics is not None:
                    metrics.retries.inc()
                    metrics.backoff_seconds.inc(delay)
                supervisor._emit(
                    "cell-retry", key, attempt=attempt,
                    kind=outcome.failure.kind, delay=delay,
                )
                retry_delay = max(retry_delay, delay)
                pending.append((index, fn, attempt + 1))
                return
            done[index] = outcome
            resolve_in_order()

        for index, _fn, attempt in batch:
            supervisor._emit("cell-started", cells[index][0], attempt=attempt)
        run_forked_tasks(
            [_child_cell(fn) for _index, fn, _attempt in batch],
            workers=workers,
            timeout=supervisor.timeout,
            extras_fn=extras_fn,
            on_outcome=handle,
        )
        if pending and retry_delay > 0.0:
            # One consolidated pause covering the round's longest
            # backoff; per-cell delays still feed the metrics above.
            supervisor._sleep(retry_delay)

    return done
