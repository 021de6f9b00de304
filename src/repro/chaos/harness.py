"""The chaos harness: run a real service under a fault plan, assert
the crash-safety invariants.

One :func:`run_chaos` call is a full crash/recover cycle against a
**real** ``ats serve`` subprocess:

1. start the server with ``--state-dir`` (durable mode); injected
   faults ride in via the ``ATS_CHAOS`` environment variable;
2. submit a seeded workload (property runs + a validation campaign)
   and record which job ids the service *acknowledged*;
3. apply the plan's external faults -- SIGKILL once ``/status`` shows
   enough resolved jobs, then optional file surgery tearing the
   journal tail;
4. restart with ``--recover`` (chaos disarmed -- faults are one-shot,
   pre-crash) and wait for every acknowledged job to reach a terminal
   state;
5. assert the invariants:

   * **no acknowledged job lost** -- every acknowledged id answers on
     ``GET /jobs/<id>`` after the restart and reaches a terminal
     state;
   * **no archive corruption** -- the manifest journal loads, every
     referenced trace blob decompresses to its recorded digest, and
     every run's cached analysis is byte-identical to a fresh analysis
     of that blob (a torn or lost cell file may cost a miss, never a
     wrong answer);
   * **recovery determinism** -- the recovered campaign result is
     byte-identical (canonical JSON, live ``progress`` block excluded)
     to an uninterrupted in-process baseline run, whenever the plan
     contains no result-perturbing IO faults;
   * **metrics consistency** -- ``/metrics`` parses, reports journal
     activity, and ``/status`` stays structurally sound.

Everything is seeded: the same ``(seed, index)`` reproduces the same
plan, the same workload, and the same fault points (the injector's
call-site counters are deterministic given the workload).
:func:`run_chaos_battery` runs :func:`~repro.chaos.spec.mixed_plans`
and aggregates a :class:`ChaosReport` -- the acceptance gate is a
battery with zero violations.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..simkernel.rng import Lcg64
from .spec import (
    ArchiveWriteFault,
    ChaosPlan,
    JournalWriteFault,
    KillServer,
    TornJournalTail,
    mixed_plans,
)

__all__ = [
    "ChaosReport",
    "ChaosRunResult",
    "run_chaos",
    "run_chaos_battery",
]

#: fast, deterministic workload properties (small sims).
WORKLOAD_PROPERTIES = (
    "balanced_omp_loop",
    "balanced_omp_region",
    "early_gather",
)

_WORKLOAD_SIZE = 6
_WORKLOAD_THREADS = 2


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _strip_progress(result: Optional[dict]) -> Optional[dict]:
    if not isinstance(result, dict):
        return result
    return {k: v for k, v in result.items() if k != "progress"}


# ----------------------------------------------------------------------
# the supervised server subprocess
# ----------------------------------------------------------------------

class _ServerProc:
    """One ``ats serve`` subprocess with captured output."""

    def __init__(self, argv: List[str], env: dict, log_path: Path):
        self.log_path = log_path
        self.proc = subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._lines: List[str] = []
        self._lock = threading.Lock()
        self._reader = threading.Thread(
            target=self._pump, name="chaos-server-log", daemon=True
        )
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        with open(self.log_path, "a", encoding="utf-8") as log:
            for line in self.proc.stdout:
                log.write(line)
                log.flush()
                with self._lock:
                    self._lines.append(line)

    def wait_url(self, deadline: float) -> Optional[str]:
        """The advertised base URL, or None on timeout/early death."""
        while time.monotonic() < deadline:
            with self._lock:
                for line in self._lines:
                    if "listening on " in line:
                        return (
                            line.split("listening on ", 1)[1]
                            .split()[0]
                        )
            if self.proc.poll() is not None:
                return None
            time.sleep(0.02)
        return None

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL -- the crash under test, no cleanup of any kind."""
        if self.alive():
            self.proc.kill()
        self.proc.wait()

    def terminate(self, timeout: float = 30.0) -> Optional[int]:
        """SIGTERM and wait: the graceful drain-then-exit path."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None

    def tail(self, n: int = 12) -> str:
        with self._lock:
            return "".join(self._lines[-n:])


def _server_argv(
    archive: Path, state: Path, recover: bool
) -> List[str]:
    argv = [
        sys.executable,
        "-u",
        "-c",
        "import sys; from repro.cli import main; "
        "sys.exit(main(sys.argv[1:]))",
        "serve",
        "--archive", str(archive),
        "--state-dir", str(state),
        "--port", "0",
        "--workers", "4",
    ]
    if recover:
        argv.append("--recover")
    return argv


def _server_env(plan: Optional[ChaosPlan]) -> dict:
    from .inject import ENV_VAR

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src + (os.pathsep + existing if existing else "")
    )
    env.pop(ENV_VAR, None)
    if plan is not None and plan.injected_faults:
        env[ENV_VAR] = json.dumps(
            ChaosPlan(plan.injected_faults, seed=plan.seed).to_dict()
        )
    return env


def _client(url: str):
    from ..service.client import ServiceClient

    # generous retries: the harness's own polls must ride through the
    # restart window and any DropConnection faults.
    return ServiceClient(url, timeout=30.0, retries=6)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class ChaosRunResult:
    """One crash/recover cycle's verdict."""

    index: int
    seed: int
    plan: str
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    acknowledged: int = 0
    recovered_states: Dict[str, str] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "plan": self.plan,
            "ok": self.ok,
            "violations": list(self.violations),
            "notes": list(self.notes),
            "acknowledged": self.acknowledged,
            "recovered_states": dict(self.recovered_states),
            "duration": self.duration,
        }


@dataclass
class ChaosReport:
    """A battery of chaos runs."""

    seed: int
    results: List[ChaosRunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[ChaosRunResult]:
        return [r for r in self.results if not r.ok]

    def to_dict(self) -> dict:
        return {
            "format": "ats-chaos-report",
            "seed": self.seed,
            "runs": len(self.results),
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
        }

    def format(self) -> str:
        lines = [
            f"chaos battery: seed {self.seed}, "
            f"{len(self.results)} run(s), "
            + ("ALL INVARIANTS HELD" if self.ok
               else f"{len(self.failures)} FAILED"),
        ]
        for r in self.results:
            mark = "ok  " if r.ok else "FAIL"
            lines.append(
                f"  [{mark}] run {r.index}: {r.plan} "
                f"({r.acknowledged} acked, {r.duration:.1f}s)"
            )
            for v in r.violations:
                lines.append(f"         violation: {v}")
            for n in r.notes:
                lines.append(f"         note: {n}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------

def _workload_params(plan: ChaosPlan) -> Tuple[int, list]:
    """Deterministic workload derived from the plan seed.

    Returns ``(campaign_seed, run_specs)`` where each run spec is a
    ``(property, seed)`` pair.
    """
    rng = Lcg64(plan.seed)
    base = rng.randrange(10_000)
    runs = [
        (prop, base + i)
        for i, prop in enumerate(WORKLOAD_PROPERTIES)
    ]
    return base, runs


def _submit_workload(
    client, plan: ChaosPlan, result: ChaosRunResult
) -> Dict[str, str]:
    """Submit runs + campaign; returns ``job_id -> label`` for every
    submission the service acknowledged."""
    base, runs = _workload_params(plan)
    acked: Dict[str, str] = {}

    def _submit(label, fn):
        try:
            response = fn()
        except Exception as exc:  # noqa: BLE001 - fault-injected I/O
            result.notes.append(
                f"submission {label} not acknowledged: "
                f"{type(exc).__name__}"
            )
            return
        job_id = response.get("job")
        if job_id:
            acked[job_id] = label

    for prop, seed in runs:
        _submit(
            f"run:{prop}",
            lambda prop=prop, seed=seed: client.submit_run(
                prop,
                size=_WORKLOAD_SIZE,
                threads=_WORKLOAD_THREADS,
                seed=seed,
            ),
        )
    _submit(
        "campaign",
        lambda: client.campaign(
            properties=list(WORKLOAD_PROPERTIES),
            size=_WORKLOAD_SIZE,
            threads=_WORKLOAD_THREADS,
            seed=base,
        ),
    )
    result.acknowledged = len(acked)
    return acked


def _baseline_results(plan: ChaosPlan, scratch: Path) -> dict:
    """Uninterrupted in-process reference results for the workload.

    label -> result dict (``progress`` stripped) -- the byte-identity
    oracle the recovered service is compared against.
    """
    from ..archive import Archive
    from ..service.server import AnalysisService

    base, runs = _workload_params(plan)
    service = AnalysisService(
        Archive(scratch / "baseline-archive"), max_workers=2
    )
    out: Dict[str, dict] = {}
    try:
        jobs = []
        for prop, seed in runs:
            job, _ = service.submit(
                "run",
                {
                    "property": prop,
                    "size": _WORKLOAD_SIZE,
                    "threads": _WORKLOAD_THREADS,
                    "seed": seed,
                },
            )
            jobs.append((f"run:{prop}", job))
        job, _ = service.submit(
            "campaign",
            {
                "properties": list(WORKLOAD_PROPERTIES),
                "size": _WORKLOAD_SIZE,
                "threads": _WORKLOAD_THREADS,
                "seed": base,
            },
        )
        jobs.append(("campaign", job))
        for label, job in jobs:
            if not job.wait(120):
                raise RuntimeError(f"baseline {label} did not finish")
            if job.state != "done":
                raise RuntimeError(
                    f"baseline {label} failed: {job.error}"
                )
            out[label] = _strip_progress(job.result)
    finally:
        service.close()
    return out


# ----------------------------------------------------------------------
# external faults
# ----------------------------------------------------------------------

def _await_kill_point(
    client, fault: KillServer, acked: Dict[str, str], deadline: float
) -> None:
    """Block until ``after_resolved`` jobs resolved -- or progress
    stalls (a stuck cell can make the threshold unreachable; killing
    early is always a valid crash point)."""
    sub_deadline = min(deadline, time.monotonic() + 30.0)
    last_resolved = -1
    last_change = time.monotonic()
    while time.monotonic() < sub_deadline:
        try:
            status = client.status()
        except Exception:  # noqa: BLE001 - server may be wedged
            return
        counts = status.get("counts", {})
        resolved = counts.get("done", 0) + counts.get("failed", 0)
        if resolved >= fault.after_resolved:
            return
        if acked and resolved >= len(acked):
            return
        now = time.monotonic()
        if resolved != last_resolved:
            last_resolved = resolved
            last_change = now
        elif now - last_change > 5.0:
            return
        time.sleep(0.05)


def _tear_journal_tail(state: Path, fault: TornJournalTail) -> str:
    """Cut bytes off the journal tail (never into the header line)."""
    journal = state / "jobs.jsonl"
    try:
        raw = journal.read_bytes()
    except OSError as exc:
        return f"torn-tail skipped: {exc}"
    header_end = raw.find(b"\n") + 1
    if header_end <= 0 or len(raw) <= header_end:
        return "torn-tail skipped: journal has no records"
    new_size = max(header_end, len(raw) - fault.drop_bytes)
    with open(journal, "r+b") as fh:
        fh.truncate(new_size)
    return (
        f"tore {len(raw) - new_size} byte(s) off the journal tail"
    )


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

def _await_terminal(
    client,
    acked: Dict[str, str],
    result: ChaosRunResult,
    deadline: float,
) -> Dict[str, dict]:
    """Poll every acknowledged job to a terminal state."""
    from ..service.jobs import TERMINAL_STATES

    final: Dict[str, dict] = {}
    pending = dict(acked)
    while pending and time.monotonic() < deadline:
        for job_id in list(pending):
            try:
                payload = client.job(job_id)
            except Exception as exc:  # noqa: BLE001
                result.violations.append(
                    f"acknowledged job lost: {pending[job_id]} "
                    f"({job_id}) -> {exc}"
                )
                del pending[job_id]
                continue
            if payload.get("state") in TERMINAL_STATES:
                final[job_id] = payload
                result.recovered_states[acked[job_id]] = (
                    payload["state"]
                )
                del pending[job_id]
        if pending:
            time.sleep(0.1)
    for job_id, label in pending.items():
        result.violations.append(
            f"acknowledged job never reached a terminal state: "
            f"{label} ({job_id})"
        )
    return final


def _check_archive(archive: Path, result: ChaosRunResult) -> None:
    """Manifest loads; every referenced trace blob digest-checks; every
    run's cached analysis matches a fresh one over that blob."""
    from ..analysis import AnalysisConfig, analyze_events
    from ..archive import Archive, ArchiveError, result_to_json_bytes
    from ..archive.cache import archived_events

    try:
        opened = Archive(archive)
    except Exception as exc:  # noqa: BLE001
        result.violations.append(f"archive corrupt: {exc}")
        return
    store = opened.store
    try:
        manifest = store.load_manifest()
        checked = 0
        for run_id, payload in manifest.items():
            digest = payload.get("trace_digest")
            if not digest:
                continue
            try:
                events = archived_events(store, digest)
                checked += 1
            except ArchiveError as exc:
                result.violations.append(
                    f"archive corrupt: run {run_id}: {exc}"
                )
                continue
            # a torn or lost cell file may cost a miss, never a wrong
            # answer: the cache must agree with the blob it came from
            eager = payload.get("eager_threshold")
            fresh = analyze_events(
                events,
                total_time=payload["final_time"],
                config=(
                    AnalysisConfig(eager_threshold=eager)
                    if eager is not None
                    else AnalysisConfig()
                ),
            )
            cached = opened.analyze(run_id)
            if result_to_json_bytes(cached) != result_to_json_bytes(fresh):
                result.violations.append(
                    f"archive cache wrong: run {run_id}: cached "
                    "analysis differs from a fresh one"
                )
        result.notes.append(
            f"archive scrub: {checked} blob(s) and their cached "
            "analyses verified"
        )
    except Exception as exc:  # noqa: BLE001
        result.violations.append(f"archive corrupt: {exc}")
    finally:
        store.close()


def _check_results(
    plan: ChaosPlan,
    baseline: dict,
    final: Dict[str, dict],
    acked: Dict[str, str],
    result: ChaosRunResult,
) -> None:
    """Recovered results vs the uninterrupted baseline.

    Byte-identity only applies when the plan carried no IO faults that
    legitimately perturb results (a quarantined cell from an injected
    ENOSPC *should* change the campaign report -- visibly).
    """
    perturbing = tuple(
        f for f in plan.faults
        if isinstance(f, (ArchiveWriteFault, JournalWriteFault))
    )
    if perturbing:
        result.notes.append(
            "byte-identity skipped: plan carries "
            + " + ".join(f.kind for f in perturbing)
        )
        return
    compared = 0
    for job_id, payload in final.items():
        label = acked[job_id]
        expected = baseline.get(label)
        if expected is None:
            continue
        if payload.get("state") != "done":
            result.violations.append(
                f"{label} ({job_id}) ended {payload.get('state')!r} "
                f"under a non-perturbing plan: {payload.get('error')}"
            )
            continue
        got = _strip_progress(payload.get("result"))
        if _canonical(got) != _canonical(expected):
            result.violations.append(
                f"recovery divergence: {label} ({job_id}) result "
                "differs from the uninterrupted baseline"
            )
        else:
            compared += 1
    result.notes.append(
        f"byte-identity: {compared} result(s) matched baseline"
    )


def _check_metrics(client, result: ChaosRunResult) -> None:
    """/metrics parses and reflects the durable path; /status sane."""
    from ..service.jobs import JOB_STATES

    try:
        text = client.metrics()
    except Exception as exc:  # noqa: BLE001
        result.violations.append(f"/metrics unavailable: {exc}")
        return
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
        except ValueError:
            result.violations.append(
                f"/metrics line does not parse: {line!r}"
            )
            return
    if not any(
        name.startswith("ats_service_journal_records_total")
        for name in values
    ):
        result.violations.append(
            "/metrics is missing ats_service_journal_records_total "
            "on a durable service"
        )
    try:
        status = client.status()
    except Exception as exc:  # noqa: BLE001
        result.violations.append(f"/status unavailable: {exc}")
        return
    if not status.get("durable"):
        result.violations.append(
            "/status does not report durable mode"
        )
    for state in status.get("jobs_by_state", {}):
        if state not in JOB_STATES:
            result.violations.append(
                f"/status reports unknown job state {state!r}"
            )


# ----------------------------------------------------------------------
# the harness proper
# ----------------------------------------------------------------------

def run_chaos(
    plan: ChaosPlan,
    workdir: Union[str, Path],
    index: int = 0,
    timeout: float = 180.0,
) -> ChaosRunResult:
    """One full crash/recover cycle under ``plan`` (see module doc).

    ``workdir`` must be an empty/fresh scratch directory; the caller
    owns cleanup (``ats chaos`` keeps it on failure or ``--keep``).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    archive = workdir / "archive"
    state = workdir / "state"
    log = workdir / "server.log"

    result = ChaosRunResult(
        index=index, seed=plan.seed, plan=plan.describe()
    )
    t0 = time.monotonic()
    deadline = t0 + timeout
    kill_faults = [
        f for f in plan.faults if isinstance(f, KillServer)
    ]
    tear_faults = [
        f for f in plan.faults if isinstance(f, TornJournalTail)
    ]

    baseline = _baseline_results(plan, workdir)

    # --- incarnation 1: faults armed ---------------------------------
    server = _ServerProc(
        _server_argv(archive, state, recover=False),
        _server_env(plan),
        log,
    )
    acked: Dict[str, str] = {}
    try:
        url = server.wait_url(deadline)
        if url is None:
            result.violations.append(
                "server failed to start: " + server.tail()
            )
            return result
        client = _client(url)
        acked = _submit_workload(client, plan, result)
        if not acked:
            result.violations.append(
                "no submission was acknowledged; nothing to test"
            )
            return result
        if kill_faults:
            _await_kill_point(client, kill_faults[0], acked, deadline)
            server.kill()
            result.notes.append("SIGKILL delivered")
        else:
            code = server.terminate()
            result.notes.append(f"SIGTERM exit code {code}")
            if code != 0:
                result.violations.append(
                    f"graceful shutdown exited {code}"
                )
    finally:
        server.kill()

    for fault in tear_faults:
        result.notes.append(_tear_journal_tail(state, fault))

    # --- incarnation 2: recovery, chaos disarmed ---------------------
    # fresh budget: a wedged first incarnation must not starve the
    # recovery assertions of wall-clock.
    deadline = time.monotonic() + timeout
    server = _ServerProc(
        _server_argv(archive, state, recover=True),
        _server_env(None),
        log,
    )
    try:
        url = server.wait_url(deadline)
        if url is None:
            result.violations.append(
                "recovery failed to start: " + server.tail()
            )
            return result
        client = _client(url)
        final = _await_terminal(client, acked, result, deadline)
        _check_results(plan, baseline, final, acked, result)
        _check_metrics(client, result)
        code = server.terminate()
        if code != 0:
            result.violations.append(
                f"post-recovery shutdown exited {code}"
            )
    finally:
        server.kill()
        result.duration = time.monotonic() - t0

    _check_archive(archive, result)
    return result


def run_chaos_battery(
    seed: int = 0,
    runs: int = 5,
    workdir: Optional[Union[str, Path]] = None,
    timeout: float = 180.0,
    keep: bool = False,
    progress=None,
) -> ChaosReport:
    """Run ``runs`` seeded plans; aggregate into a :class:`ChaosReport`.

    ``progress`` (optional callable) receives each finished
    :class:`ChaosRunResult` -- the CLI streams the verdict lines.
    Scratch dirs for passing runs are removed unless ``keep``.
    """
    owned = workdir is None
    root = Path(
        tempfile.mkdtemp(prefix="ats-chaos-")
        if owned else workdir
    )
    root.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(seed=seed)
    for index, plan in enumerate(mixed_plans(seed, runs)):
        rundir = root / f"run-{index:03d}"
        result = run_chaos(
            plan, rundir, index=index, timeout=timeout
        )
        report.results.append(result)
        if progress is not None:
            progress(result)
        if result.ok and not keep:
            shutil.rmtree(rundir, ignore_errors=True)
    if owned and report.ok and not keep:
        shutil.rmtree(root, ignore_errors=True)
    else:
        report_path = root / "chaos-report.json"
        report_path.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n",
            encoding="utf-8",
        )
    return report
