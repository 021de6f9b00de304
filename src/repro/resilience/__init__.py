"""Supervision and recovery layer for long-running sweeps.

The counterpart to :mod:`repro.faults`: that package makes programs
misbehave on purpose; this one keeps the harness alive while they do.
Three cooperating pieces:

* the kernel watchdog (:mod:`repro.simkernel.watchdog`) turns
  no-progress states into structured ``DeadlockReport``/``HangReport``,
* the :class:`Supervisor` runs each sweep cell with wall-clock
  timeouts, failure classification, seed-deterministic retry and
  quarantine,
* the :class:`CheckpointJournal` makes completed cells durable so an
  interrupted sweep resumes instead of restarting.

:func:`run_cells` (:mod:`repro.resilience.sweep`) is the one loop over
sweep cells that the validation matrix, the robustness grid and
synthesis campaigns share.  With ``workers > 1`` it hands the cells to
:func:`run_cells_forked` (:mod:`repro.resilience.forked`), which runs
the same lifecycle on the fork-per-cell executor with identical
journals and artifacts.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointJournal,
    coerce_journal,
)
from .forked import run_cells_forked
from .sweep import run_cells
from .supervisor import (
    FAILURE_KINDS,
    PROGRESS_EVENTS,
    CellFailure,
    CellOutcome,
    CellTimeout,
    FailureReport,
    Supervisor,
    classify_failure,
)

__all__ = [
    "FAILURE_KINDS",
    "CellFailure",
    "CellOutcome",
    "CellTimeout",
    "CheckpointError",
    "CheckpointJournal",
    "FailureReport",
    "PROGRESS_EVENTS",
    "Supervisor",
    "classify_failure",
    "coerce_journal",
    "run_cells",
    "run_cells_forked",
]
