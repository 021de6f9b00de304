"""The sweep engine: one loop over the cells of every sweep.

The validation matrix, the robustness grid and a synthesis campaign
are each a cell generator, a record builder and a renderer;
:func:`run_cells` is the loop they share.  Every cell goes through a
:class:`Supervisor` -- checkpoint replay, wall-clock timeout, failure
classification, retry, quarantine, journaling -- and comes back as
its record: the one the cell built, or, for a failing cell, the one
its ``failed`` builder makes from the error.  A failing cell never
aborts the sweep.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from .supervisor import Supervisor

__all__ = ["run_cells"]


def _encode(value: Any) -> dict:
    return value.to_dict()


def run_cells(
    cells: Iterable[Tuple[str, Callable[[], Any], Callable[..., Any]]],
    decode: Callable[[dict], Any],
    settings: dict,
    supervisor: Optional[Supervisor] = None,
    archive=None,
    workers: int = 1,
) -> List[Any]:
    """Resolve ``(key, fn, failed)`` cells in cell order; one record each.

    ``fn`` returns the cell's record, whose ``to_dict()`` is the JSON
    payload journaled for resume; ``decode`` turns a payload back into
    a record.  A cell that fails (or was journaled as failed) comes
    back as ``failed(error=...)``, the failure's error text.  A
    missing ``supervisor`` becomes a default :class:`Supervisor` (no
    timeout, no retries, no journal); the supervisor's
    :meth:`~Supervisor.failure_report` lists the quarantined cells.

    ``settings`` holds what changes a cell's result but not its key
    (program size, threshold, fault plan, ...).  A checkpoint journal
    records its digest and refuses to resume under other settings
    with :class:`~repro.resilience.CheckpointError`.

    ``workers > 1`` runs cell attempts in forked children
    (:func:`repro.resilience.forked.run_cells_forked`).  Each child
    returns its record encoded and, with an ``archive``, queues its
    manifest records instead of appending them; the parent replays
    them in cell order before journaling the cell.  Records, journal
    and manifest are byte-identical to a serial sweep's.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if supervisor is None:
        supervisor = Supervisor()
    if supervisor.journal is not None:
        supervisor.journal.bind_settings(settings)
    cells = list(cells)
    if workers == 1:
        outcomes = [
            supervisor.run_cell(key, fn, encode=_encode, decode=decode)
            for key, fn, _failed in cells
        ]
    else:
        from .forked import run_cells_forked

        def child(fn: Callable[[], Any]) -> Callable[[], dict]:
            def run() -> dict:
                if archive is not None:
                    archive.store.begin_deferred()
                return fn().to_dict()

            return run

        extras_fn = on_extras = None
        if archive is not None:
            extras_fn = archive.store.drain_deferred

            def on_extras(key: str, records: list) -> None:
                for run_id, payload in records:
                    archive.store.record_run(run_id, payload)

        outcomes = run_cells_forked(
            [(key, child(fn)) for key, fn, _failed in cells],
            workers=workers,
            supervisor=supervisor,
            decode=decode,
            extras_fn=extras_fn,
            on_extras=on_extras,
        )
    return [
        outcome.value if outcome.ok else failed(error=outcome.failure.error)
        for (_key, _fn, failed), outcome in zip(cells, outcomes)
    ]
