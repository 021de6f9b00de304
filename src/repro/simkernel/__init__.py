"""Deterministic discrete-event simulation kernel.

This is the bottom layer of the ATS reproduction: simulated processes
with a virtual clock on which the MPI runtime (:mod:`repro.simmpi`) and
the OpenMP runtime (:mod:`repro.simomp`) are built.  User code runs in
plain blocking style; determinism comes from running exactly one
process at a time and breaking time ties in scheduling order.
"""

from .errors import (
    DeadlockError,
    HangError,
    NotInProcessError,
    ProcessKilled,
    SimError,
    SimulationCrashed,
)
from .process import (
    ProcState,
    SimProcess,
    WorkerPool,
    current_process,
    maybe_current_process,
    submit_host_task,
    worker_pool,
)
from .rng import Lcg64, derive_seed
from .scheduler import (
    Simulator,
    activate,
    current_sim,
    hold,
    now,
    passivate,
)
from .sync import (
    Mailbox,
    SimBarrier,
    SimCondition,
    SimEvent,
    SimMutex,
    SimSemaphore,
)
from .watchdog import (
    DeadlockReport,
    HangReport,
    PendingCall,
)

__all__ = [
    "DeadlockError",
    "DeadlockReport",
    "HangError",
    "HangReport",
    "Lcg64",
    "derive_seed",
    "Mailbox",
    "NotInProcessError",
    "PendingCall",
    "ProcState",
    "ProcessKilled",
    "SimBarrier",
    "SimCondition",
    "SimError",
    "SimEvent",
    "SimMutex",
    "SimProcess",
    "SimSemaphore",
    "SimulationCrashed",
    "Simulator",
    "WorkerPool",
    "activate",
    "current_process",
    "current_sim",
    "hold",
    "maybe_current_process",
    "now",
    "passivate",
    "submit_host_task",
    "worker_pool",
]
