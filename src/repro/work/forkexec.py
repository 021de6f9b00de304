"""Fork-per-cell task executor: true multicore fan-out for sweeps.

Sweep, matrix and robustness cells are independent and deterministic,
but they are pure-Python compute, so threads cannot parallelize them
-- the GIL serializes everything that is not I/O.  This module escapes
the GIL the classic POSIX way: ``os.fork`` one child per task.

Each child:

* redirects its stdout/stderr (at the fd level, so C-level writes and
  the simulator's worker threads are caught too) into a capture pipe,
* snapshots the obs metrics registry it inherited, so it can ship only
  the *delta* it produced (:mod:`repro.obs.merge`),
* runs its task callable and writes one JSON envelope -- payload or
  classified failure, plus captured extras and the metrics delta -- to
  a result pipe, then ``os._exit``\\ s without touching the parent's
  buffered state.

The parent multiplexes all live pipes through ``select`` (nonblocking
reads, no thread per child), enforces a per-task wall-clock deadline
with ``SIGKILL``, reaps with ``waitpid``, and returns
:class:`ForkOutcome` records **in submission order** -- results are
deterministic regardless of completion order.  A child that dies
without delivering an envelope (segfault, ``os._exit`` in user code,
OOM kill) is reported as ``crashed`` rather than hanging the sweep.

Task callables must return JSON-serializable payloads; they travel
through a pipe, not shared memory.  Fork safety for the simulation
kernel's worker-thread pool is handled in
:mod:`repro.simkernel.process` via ``os.register_at_fork``.
"""

from __future__ import annotations

import errno
import json
import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "ForkOutcome",
    "fork_available",
    "run_forked_tasks",
]

_READ_CHUNK = 65536


def fork_available() -> bool:
    """Whether this platform supports the fork executor."""
    return hasattr(os, "fork") and hasattr(select, "select")


@dataclass
class ForkOutcome:
    """What one forked task produced.

    ``status`` is one of:

    * ``"ok"`` -- the callable returned; ``payload`` holds its value.
    * ``"failed"`` -- the callable raised; ``error``/``kind``/``report``
      describe the exception (``kind`` via the caller's classifier).
    * ``"timeout"`` -- the child exceeded the wall-clock deadline and
      was killed.
    * ``"crashed"`` -- the child died without delivering an envelope.

    ``output`` carries the child's combined stdout+stderr, ``metrics``
    the obs registry delta (merge with
    :func:`repro.obs.merge.merge_state`), and ``extras`` whatever the
    ``extras_fn`` side channel collected (deferred archive manifest
    records, for instance).
    """

    status: str
    payload: Any = None
    error: str = ""
    kind: str = ""
    report: str = ""
    output: str = ""
    elapsed: float = 0.0
    metrics: Dict[str, dict] = field(default_factory=dict)
    extras: Any = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Child:
    """Parent-side bookkeeping for one in-flight forked task."""

    __slots__ = (
        "index", "pid", "result_fd", "output_fd",
        "result_buf", "output_buf", "deadline", "started", "killed",
    )

    def __init__(self, index, pid, result_fd, output_fd, deadline):
        self.index = index
        self.pid = pid
        self.result_fd = result_fd
        self.output_fd = output_fd
        self.result_buf = bytearray()
        self.output_buf = bytearray()
        self.deadline = deadline
        self.started = time.monotonic()
        self.killed = False


def _child_main(fn, extras_fn, result_w, output_w) -> None:
    """Everything the forked child does; never returns."""
    status = 1
    try:
        os.dup2(output_w, 1)
        os.dup2(output_w, 2)
        os.close(output_w)
        # Rebind the Python-level streams too: the parent may have
        # redirected sys.stdout away from fd 1 (pytest's capture, an
        # io.StringIO shim), and child prints must land in the pipe.
        sys.stdout = os.fdopen(1, "w", buffering=1, closefd=False)
        sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)

        from ..obs.merge import registry_state, state_delta

        baseline = registry_state()
        envelope: Dict[str, Any]
        try:
            payload = fn()
            envelope = {"status": "ok", "payload": payload}
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            envelope = {
                "status": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "exc_type": type(exc).__name__,
                "report": traceback.format_exc(),
            }
        if extras_fn is not None:
            try:
                envelope["extras"] = extras_fn()
            except BaseException as exc:  # noqa: BLE001
                envelope.setdefault(
                    "error", f"{type(exc).__name__}: {exc}"
                )
        try:
            envelope["metrics"] = state_delta(baseline, registry_state())
        except BaseException:  # noqa: BLE001 - metrics are best-effort
            pass
        sys.stdout.flush()
        sys.stderr.flush()
        data = json.dumps(envelope).encode("utf-8")
        written = 0
        while written < len(data):
            written += os.write(result_w, data[written:])
        os.close(result_w)
        status = 0
    except BaseException:  # noqa: BLE001 - nothing else may escape a fork
        try:
            traceback.print_exc()
            sys.stderr.flush()
        except BaseException:  # noqa: BLE001
            pass
    finally:
        os._exit(status)


def _spawn(index, fn, extras_fn, timeout) -> _Child:
    result_r, result_w = os.pipe()
    output_r, output_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        # -- child --
        os.close(result_r)
        os.close(output_r)
        _child_main(fn, extras_fn, result_w, output_w)
        os._exit(1)  # pragma: no cover - _child_main never returns
    # -- parent --
    os.close(result_w)
    os.close(output_w)
    os.set_blocking(result_r, False)
    os.set_blocking(output_r, False)
    deadline = None if timeout is None else time.monotonic() + timeout
    return _Child(index, pid, result_r, output_r, deadline)


def _drain_fd(fd: int, buf: bytearray) -> bool:
    """Read until EAGAIN; True once the fd hit EOF and was closed."""
    while True:
        try:
            chunk = os.read(fd, _READ_CHUNK)
        except BlockingIOError:
            return False
        except OSError as exc:  # pragma: no cover - defensive
            if exc.errno == errno.EINTR:
                continue
            chunk = b""
        if chunk:
            buf.extend(chunk)
        else:
            os.close(fd)
            return True


def _finish(child: _Child, outcomes: List[Optional[ForkOutcome]]) -> None:
    """Reap a child whose pipes both hit EOF; record its outcome."""
    _pid, wait_status = os.waitpid(child.pid, 0)
    elapsed = time.monotonic() - child.started
    output = child.output_buf.decode("utf-8", "replace")
    if child.killed:
        outcomes[child.index] = ForkOutcome(
            status="timeout",
            error="wall-clock deadline exceeded",
            kind="timeout",
            output=output,
            elapsed=elapsed,
        )
        return
    envelope = None
    if child.result_buf:
        try:
            envelope = json.loads(child.result_buf.decode("utf-8"))
        except ValueError:
            envelope = None
    if envelope is None:
        if os.WIFSIGNALED(wait_status):
            detail = f"killed by signal {os.WTERMSIG(wait_status)}"
        else:
            detail = f"exited with status {os.WEXITSTATUS(wait_status)}"
        outcomes[child.index] = ForkOutcome(
            status="crashed",
            error=f"child delivered no result ({detail})",
            kind="crash",
            output=output,
            elapsed=elapsed,
        )
        return
    outcomes[child.index] = ForkOutcome(
        status=envelope.get("status", "crashed"),
        payload=envelope.get("payload"),
        error=envelope.get("error", ""),
        kind=envelope.get("exc_type", ""),
        report=envelope.get("report", ""),
        output=output,
        elapsed=elapsed,
        metrics=envelope.get("metrics") or {},
        extras=envelope.get("extras"),
    )


def run_forked_tasks(
    fns: Sequence[Callable[[], Any]],
    workers: int,
    timeout: Optional[float] = None,
    extras_fn: Optional[Callable[[], Any]] = None,
    on_outcome: Optional[Callable[[int, ForkOutcome], None]] = None,
) -> List[ForkOutcome]:
    """Run zero-argument callables in forked children; ordered results.

    At most ``workers`` children run at once; the returned list matches
    ``fns`` by index regardless of completion order.  ``timeout`` is a
    per-task wall-clock deadline (``SIGKILL``; the outcome's status
    becomes ``"timeout"``).  ``extras_fn`` runs in each child after its
    task and its JSON-safe return value rides back on the envelope.
    ``on_outcome(index, outcome)`` fires in the parent as each child
    completes -- in *completion* order -- for incremental checkpoint
    journaling.

    Exceptions inside a task never propagate; they come back as
    ``failed`` outcomes.  The ``kind`` field carries the exception type
    name so callers can run their own failure classification.
    """
    fns = list(fns)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not fork_available():  # pragma: no cover - POSIX-only repo
        raise RuntimeError("fork executor unavailable on this platform")
    if not fns:
        return []

    outcomes: List[Optional[ForkOutcome]] = [None] * len(fns)
    live: Dict[int, _Child] = {}
    next_index = 0

    def launch() -> None:
        nonlocal next_index
        while next_index < len(fns) and len(live) < workers:
            child = _spawn(next_index, fns[next_index], extras_fn, timeout)
            live[child.pid] = child
            next_index += 1

    launch()
    while live:
        fds = []
        for child in live.values():
            if child.result_fd >= 0:
                fds.append(child.result_fd)
            if child.output_fd >= 0:
                fds.append(child.output_fd)
        now = time.monotonic()
        wait = None
        for child in live.values():
            if child.deadline is not None and not child.killed:
                wait = (
                    child.deadline - now
                    if wait is None
                    else min(wait, child.deadline - now)
                )
        if wait is not None:
            wait = max(0.0, wait)
        try:
            readable, _, _ = select.select(fds, [], [], wait)
        except InterruptedError:  # pragma: no cover - EINTR retry
            continue
        readable = set(readable)
        finished = []
        for child in live.values():
            if child.result_fd >= 0 and child.result_fd in readable:
                if _drain_fd(child.result_fd, child.result_buf):
                    child.result_fd = -1
            if child.output_fd >= 0 and child.output_fd in readable:
                if _drain_fd(child.output_fd, child.output_buf):
                    child.output_fd = -1
            if child.result_fd < 0 and child.output_fd < 0:
                finished.append(child)
                continue
            if (
                child.deadline is not None
                and not child.killed
                and time.monotonic() >= child.deadline
            ):
                child.killed = True
                try:
                    os.kill(child.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover
                    pass
        for child in finished:
            del live[child.pid]
            _finish(child, outcomes)
            if on_outcome is not None:
                on_outcome(child.index, outcomes[child.index])
        launch()
    return outcomes  # type: ignore[return-value]
