"""Circuit breaker over repeatedly-crashing executor cells.

The analysis service executes *cells* -- a run of one property at one
size, a campaign, a synth spec.  A cell that crashes its executor will
usually crash it again on the next identical submission: the simulator
is deterministic.  Without a breaker, a client retry loop turns one
poisonous cell into a worker-thread denial of service.

:class:`CircuitBreaker` keeps one tiny state machine per cell key:

* **closed** -- submissions flow; consecutive failures are counted
  and a success resets the count;
* **open** -- after ``threshold`` consecutive failures the cell is
  evicted: submissions are rejected immediately (HTTP 503 with a
  ``Retry-After``) for ``cooldown`` seconds;
* **half-open** -- once the cooldown elapses, exactly one probe
  submission is let through; success closes the breaker, failure
  re-opens it for another cooldown.

The clock is injectable so tests can walk the state machine without
sleeping.  All transitions are counted into ``ats_service_breaker_*``
metrics and surfaced on ``/status`` and the dashboards.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["BreakerOpen", "CircuitBreaker"]


class BreakerOpen(Exception):
    """Submission rejected: the cell's breaker is open."""

    def __init__(self, key: str, retry_after: float):
        super().__init__(
            f"executor cell {key!r} evicted after repeated crashes; "
            f"retry in {retry_after:.1f}s"
        )
        self.key = key
        self.retry_after = retry_after


class _Cell:
    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-cell eviction with half-open probes (see module doc)."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        #: optional observer ``(key, new_state)`` for metrics.
        self._on_transition = on_transition
        self._cells: Dict[str, _Cell] = {}
        self._lock = threading.Lock()

    def _notify(self, key: str, state: str) -> None:
        """Tell the observer ``key`` moved to ``state``, lock released.

        The observer may call back into the breaker (the service's
        reads :meth:`open_count`), so it never runs under the lock.
        """
        if self._on_transition is not None:
            self._on_transition(key, state)

    # ------------------------------------------------------------------
    # the submission path
    # ------------------------------------------------------------------

    def check(self, key: str) -> None:
        """Raise :class:`BreakerOpen` when ``key`` may not submit.

        An open cell whose cooldown has elapsed admits exactly one
        half-open probe; concurrent submissions behind the probe stay
        rejected until the probe resolves.
        """
        with self._lock:
            cell = self._cells.get(key)
            if cell is None or cell.state == "closed":
                return
            elapsed = self._clock() - cell.opened_at
            if cell.state == "half-open" and not cell.probing:
                cell.probing = True
                return
            if cell.state != "open" or elapsed < self.cooldown:
                raise BreakerOpen(key, max(0.1, self.cooldown - elapsed))
            cell.state = "half-open"
            cell.probing = True
        self._notify(key, "half-open")

    # ------------------------------------------------------------------
    # outcome accounting
    # ------------------------------------------------------------------

    def record_success(self, key: str) -> None:
        with self._lock:
            cell = self._cells.pop(key, None)
        if cell is not None and cell.state != "closed":
            self._notify(key, "closed")

    def record_failure(self, key: str) -> None:
        with self._lock:
            cell = self._cells.setdefault(key, _Cell())
            cell.failures += 1
            cell.probing = False
            opens = cell.state == "half-open" or (
                cell.state == "closed"
                and cell.failures >= self.threshold
            )
            if opens:
                cell.opened_at = self._clock()
                cell.state = "open"
        if opens:
            self._notify(key, "open")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def open_count(self) -> int:
        with self._lock:
            return sum(
                1 for c in self._cells.values() if c.state != "closed"
            )

    def snapshot(self) -> List[dict]:
        """Evicted cells for ``/status`` (closed cells are omitted)."""
        with self._lock:
            now = self._clock()
            out = []
            for key, cell in sorted(self._cells.items()):
                if cell.state == "closed":
                    continue
                out.append(
                    {
                        "cell": key,
                        "state": cell.state,
                        "failures": cell.failures,
                        "retry_after": max(
                            0.0,
                            self.cooldown - (now - cell.opened_at),
                        ),
                    }
                )
            return out
