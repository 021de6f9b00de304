"""Synchronization primitives for simulated processes.

Everything here is built on ``passivate``/``activate`` and therefore
costs zero virtual time by itself; higher layers (the MPI transport,
the OpenMP barrier) add explicit cost-model delays around these
primitives.  All wake-ups are FIFO, which keeps simulations
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .errors import SimError
from .process import SimProcess, current_process


class SimMutex:
    """A non-reentrant mutual-exclusion lock with FIFO handoff."""

    def __init__(self, name: str = "mutex"):
        self.name = name
        self.owner: Optional[SimProcess] = None
        self._waiters: Deque[SimProcess] = deque()
        self._wait_reason = f"lock({name})"

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def acquire(self) -> None:
        proc = current_process()
        if self.owner is proc:
            raise SimError(f"mutex {self.name} is not reentrant")
        while self.owner is not None:
            self._waiters.append(proc)
            proc.sim.passivate(self._wait_reason)
        self.owner = proc

    def release(self) -> None:
        proc = current_process()
        if self.owner is not proc:
            raise SimError(
                f"mutex {self.name} released by non-owner {proc.name}"
            )
        self.owner = None
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.sim.activate(waiter)

    def __enter__(self) -> "SimMutex":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class SimBarrier:
    """An N-party reusable barrier.

    All parties leave at the virtual time the *last* party arrives,
    which is exactly the semantics the imbalance-at-barrier performance
    properties rely on.
    """

    def __init__(self, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.parties = parties
        self.name = name
        self._wait_reason = f"barrier({name})"
        self._arrived: list[SimProcess] = []
        self._generation = 0
        #: arrival timestamps of the current generation (diagnostics)
        self.last_arrivals: list[float] = []

    def wait(self) -> int:
        """Block until all parties have arrived; returns arrival index."""
        proc = current_process()
        index = len(self._arrived)
        self._arrived.append(proc)
        gen = self._generation
        if len(self._arrived) == self.parties:
            self.last_arrivals = [proc.sim.now]
            self._generation += 1
            waiters, self._arrived = self._arrived[:-1], []
            for waiter in waiters:
                waiter.sim.activate(waiter)
            return index
        proc.sim.passivate(self._wait_reason)
        if self._generation == gen:  # pragma: no cover - defensive
            raise SimError(f"barrier {self.name} woke a waiter early")
        return index
