"""The ``service`` workload: ``ats serve`` under a closed-loop client mix.

The server runs durable (``--state-dir``: fsync'd journal and archive)
in its own process pinned to one CPU, with a rate limit high enough
that it never refuses.  ``nproc`` keep-alive clients, threads of this
process pinned to another CPU, each send their next request only when
the previous one has been answered.  Per 10 requests a client sends 8
analyzes of pre-warmed runs (cache hits), one ``submit-run`` of a new
run and one analyze of that new run (a cold analyze).  New runs get a
fresh seed and a seeded severity scale: program traces do not depend
on the seed alone, and an identical trace would hit the cache.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from common import HERE, Tally, median, tail
from procs import Child

#: programs of every run the clients touch (size 8, 2 threads)
PROGRAMS = (
    "late_sender",
    "late_receiver",
    "imbalance_at_mpi_barrier",
    "imbalance_at_mpi_alltoall",
    "late_broadcast",
    "late_scatter",
    "early_reduce",
    "early_gather",
)
SIZE = 8
THREADS = 2
BLOCK = 10
#: requests per client in each pass of a traced run
TRACED_REQUESTS = 600
#: width of the windows the end-to-end figures are taken over
WINDOW_S = 1.0


class Conn:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int, tenant: str) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.tenant = tenant

    def call(self, method: str, path: str, body=None) -> Tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"X-Tenant": self.tenant}
        if data is not None:
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw)

    def close(self) -> None:
        self.conn.close()


def _findings(result: dict) -> str:
    return json.dumps(
        {"detected": result.get("detected"),
         "severities": result.get("severities")},
        sort_keys=True,
    )


class Server:
    """One server process plus the pre-warmed runs clients analyze."""

    def __init__(self, root: Path, cpu: int, deadline: float,
                 trace_out: Optional[str] = None) -> None:
        root.mkdir(parents=True, exist_ok=True)
        args = [str(HERE / "serve.py"), "--cpu", str(cpu)]
        if trace_out:
            args += ["--trace-out", trace_out]
        args += [
            "--", "serve",
            "--archive", str(root / "archive"),
            "--state-dir", str(root / "state"),
            "--port", "0",
            "--rate", "1000000",
            "--burst", "1000000",
        ]
        if trace_out:
            args.append("--spans")
        self.child = Child(args, root, stdin=False)
        url = self.child.match(r"listening on (http://\S+)", deadline)[1]
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        #: run id -> (program, canonical findings of its cold analyze)
        self.warm: Dict[str, Tuple[str, str]] = {}

    def prewarm(self, seed: int, tally: Tally) -> None:
        conn = Conn(self.host, self.port, "setup")
        try:
            for i, program in enumerate(PROGRAMS):
                run = submit(conn, program, seed * 1000 + i, 1.0, tally)
                if run is None:
                    continue
                cold = analyze(conn, run["run_id"], tally)
                again = analyze(conn, run["run_id"], tally)
                if cold is None or again is None:
                    continue
                tally.check(
                    _findings(cold) == _findings(again),
                    f"prewarm {program}: repeat analyze differs",
                )
                self.warm[run["run_id"]] = (program, _findings(cold))
        finally:
            conn.close()

    def metrics_json(self) -> dict:
        conn = Conn(self.host, self.port, "bench")
        try:
            return conn.call("GET", "/metrics.json")[1]
        finally:
            conn.close()

    def stop(self) -> int:
        return self.child.stop(grace=60.0)


def submit(conn: Conn, program: str, seed: int, scale: float,
           tally: Tally) -> Optional[dict]:
    status, body = conn.call("POST", "/submit-run", {
        "property": program, "size": SIZE, "threads": THREADS,
        "seed": seed, "severity_scale": scale, "wait": True,
    })
    ok = 200 <= status < 300 and body.get("state") == "done"
    tally.check(ok, f"submit-run {program}: {status} {body.get('state')}"
                    f" {body.get('error', '')}")
    return body["result"] if ok else None


def analyze(conn: Conn, run_id: str, tally: Tally) -> Optional[dict]:
    status, body = conn.call("POST", "/analyze",
                             {"run": run_id, "wait": True})
    ok = 200 <= status < 300 and body.get("state") == "done"
    if not ok:
        tally.fail(f"analyze {run_id}: {status} {body.get('state')} "
                   f"{body.get('error', '')}")
        return None
    return body["result"]


class Client(threading.Thread):
    """One closed-loop client: the next request waits for the last."""

    def __init__(self, server: Server, index: int, seed: int,
                 until: Optional[float], requests: Optional[int],
                 expected: Dict[str, Tuple[set, set]]) -> None:
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.server = server
        self.rng = random.Random(f"perfbench-service-{seed}-{index}")
        self.index = index
        self.seed = seed
        self.until = until
        self.requests = requests
        self.expected = expected
        self.tally = Tally()
        #: (completion time, kind, latency, trace events) per request
        self.records: List[Tuple[float, str, float, int]] = []
        self.confusion = [0, 0, 0]  # tp, fn, fp
        self.error: Optional[BaseException] = None

    def _plan(self) -> List[str]:
        plan = ["warm"] * (BLOCK - 2)
        at = self.rng.randrange(BLOCK - 1)
        plan[at:at] = ["write", "cold"]
        return plan

    def _grade(self, program: str, result: dict) -> None:
        expected, allowed = self.expected[program]
        detected = set(result.get("detected") or ())
        self.confusion[0] += len(expected & detected)
        self.confusion[1] += len(expected - detected)
        self.confusion[2] += len(detected - expected - allowed)

    def _done(self, sent: int) -> bool:
        if self.requests is not None:
            return sent >= self.requests
        return perf_counter() >= self.until

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # reported by the caller
            self.error = exc

    def _loop(self) -> None:
        server = self.server
        conn = Conn(server.host, server.port, f"client-{self.index}")
        warm_ids = sorted(server.warm)
        sent = 0
        serial = 0
        new_run = None
        try:
            while not self._done(sent):
                for kind in self._plan():
                    if self._done(sent):
                        break
                    t0 = perf_counter()
                    if kind == "warm":
                        run_id = self.rng.choice(warm_ids)
                        result = analyze(conn, run_id, self.tally)
                        program, reference = server.warm[run_id]
                        if result is not None and self.tally.check(
                            _findings(result) == reference
                            and result["cache"]["misses"] == 0,
                            f"warm analyze {run_id} differs from cold",
                        ):
                            self._grade(program, result)
                    elif kind == "write":
                        serial += 1
                        program = self.rng.choice(PROGRAMS)
                        scale = round(self.rng.uniform(1.0, 2.0), 6)
                        run_seed = (
                            10_000_000 + self.seed * 100_000
                            + self.index * 10_000 + serial
                        )
                        result = submit(conn, program, run_seed, scale,
                                        self.tally)
                        new_run = None
                        events = 0
                        if result is not None:
                            new_run = (result["run_id"], program,
                                       result["events"])
                            events = result["events"]
                    else:
                        if new_run is None:
                            continue
                        run_id, program, events = new_run
                        result = analyze(conn, run_id, self.tally)
                        if result is not None and self.tally.check(
                            result["cache"]["misses"] > 0,
                            f"cold analyze {run_id} hit the cache",
                        ):
                            self._grade(program, result)
                    t1 = perf_counter()
                    self.records.append(
                        (t1, kind, t1 - t0, events if kind != "warm" else 0)
                    )
                    sent += 1
        finally:
            conn.close()


def expected_table() -> Dict[str, Tuple[set, set]]:
    from repro.core import get_property

    out = {}
    for program in PROGRAMS:
        spec = get_property(program)
        out[program] = (set(spec.expected), set(spec.allowed))
    return out


def drive(server: Server, nclients: int, seed: int,
          seconds: Optional[float] = None,
          requests: Optional[int] = None) -> dict:
    """Run the closed loop; returns the merged client measurements."""
    expected = expected_table()
    start = perf_counter()
    until = start + seconds if seconds is not None else None
    clients = [
        Client(server, i, seed, until, requests, expected)
        for i in range(nclients)
    ]
    for c in clients:
        c.start()
    for c in clients:
        c.join(170.0)
        if c.is_alive():
            raise RuntimeError(f"{c.name} did not finish")
        if c.error is not None:
            raise c.error
    end = perf_counter()
    tally = Tally()
    confusion = [0, 0, 0]
    records = []
    for c in clients:
        tally.merge(c.tally)
        for i in range(3):
            confusion[i] += c.confusion[i]
        records.extend(c.records)
    return {"start": start, "end": end, "wall": end - start,
            "tally": tally, "confusion": confusion,
            "records": sorted(records)}


def fast_windows(load: dict) -> List[list]:
    """The fastest quarter of the run's 1-s windows, by warm median.

    Contention from other tenants comes and goes in spells of seconds
    and only ever slows work down; the windows it hit are set aside.
    Warm analyzes rank the windows because they are all the same work.
    """
    start = load["start"]
    n = int((load["end"] - start) // WINDOW_S)
    windows: List[list] = [[] for _ in range(n)]
    for record in load["records"]:
        k = int((record[0] - start) // WINDOW_S)
        if 0 <= k < n:
            windows[k].append(record)

    def warm_median(window) -> float:
        warm = [lat for _, kind, lat, _ in window if kind == "warm"]
        return median(warm) if warm else float("inf")

    windows.sort(key=warm_median)
    return windows[: max(1, (n + 3) // 4)]


def e2e_metrics(load: dict) -> Dict[str, float]:
    """Latency percentiles and rates over the run's fast windows."""
    kept = fast_windows(load)
    records = [r for window in kept for r in window]
    span = len(kept) * WINDOW_S
    lat: Dict[str, List[float]] = {"warm": [], "cold": [], "write": []}
    for _, kind, latency, _ in records:
        lat[kind].append(latency)
    cells = lat["write"] + lat["cold"]
    tp, fn, fp = load["confusion"]
    return {
        "req_per_s": len(records) / span,
        "cells_per_s": len(cells) / span,
        "cell_p50_ms": median(cells) * 1e3,
        "cell_p95_ms": tail(cells, 95) * 1e3,
        "recall": tp / (tp + fn),
        "precision": tp / (tp + fp),
        "events_per_s": sum(r[3] for r in records) / span,
        "warm_p50_ms": median(lat["warm"]) * 1e3,
        "warm_p99_ms": tail(lat["warm"], 99) * 1e3,
        "cold_p50_ms": median(lat["cold"]) * 1e3,
        "write_p50_ms": median(lat["write"]) * 1e3,
    }


def request_seconds(snapshot: dict) -> Tuple[float, int]:
    """Summed server-side latency and count of analyze/submit requests."""
    total, count = 0.0, 0
    for family in snapshot.get("metrics", ()):
        if family["name"] != "ats_service_request_seconds":
            continue
        for sample in family["samples"]:
            if sample["labels"].get("endpoint") in ("analyze",
                                                    "submit-run"):
                total += sample["sum"]
                count += sample["count"]
    return total, count


def stand_up(root: Path, cpu: int, seed: int, deadline: float,
             tally: Tally, trace_out: Optional[str] = None
             ) -> Tuple[Server, float]:
    """Start a server and pre-warm it; returns it and the set-up time."""
    t0 = perf_counter()
    server = Server(root, cpu, deadline, trace_out)
    try:
        server.prewarm(seed, tally)
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


