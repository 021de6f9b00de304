"""One cache-cell file per trace: what a cold and a warm analyze touch,
torn files, and concurrent writers."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import DEFAULT_DETECTORS, AnalysisConfig, analyze_events
from repro.archive import Archive, CacheStats, result_to_json_bytes
from repro.core import get_property
from repro.stats import feature_cell_key, features_for_run
from repro.trace.io import events_from_jsonl
from tests.resilience.test_crash_fuzz import _cut_points

#: cache lookups of one default analyze: one per detector plus the meta
CELLS = len(DEFAULT_DETECTORS) + 1


@pytest.fixture(scope="module")
def spec():
    return get_property("late_sender")


def _fresh_bytes(archive, run) -> bytes:
    events, _ = events_from_jsonl(
        archive.store.get_blob(run.trace_digest).decode("utf-8")
    )
    return result_to_json_bytes(
        analyze_events(
            events,
            total_time=run.final_time,
            config=AnalysisConfig(eager_threshold=run.eager_threshold),
        )
    )


def _files(root: Path) -> set:
    return {p for p in root.rglob("*") if p.is_file()}


def test_durable_cold_analyze_creates_one_unsynced_file(
    tmp_path, spec, monkeypatch
):
    archive = Archive(tmp_path, fsync=True)
    run = archive.archive_run(spec, size=4, seed=3)
    before = _files(tmp_path)
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    cold = CacheStats()
    archive.analyze(run, stats=cold)
    assert cold.misses == CELLS
    cell_file = archive.store._cells_path(run.trace_digest)
    assert _files(tmp_path) - before == {cell_file}
    assert fsyncs == []


def test_warm_analyze_opens_only_the_cell_file(tmp_path, spec, monkeypatch):
    archive = Archive(tmp_path, fsync=True)
    run = archive.archive_run(spec, size=4, seed=3)
    archive.analyze(run)  # populate
    opened = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording_open)
    warm = CacheStats()
    archive.analyze(run, stats=warm)
    assert warm.hits == CELLS
    assert opened == [archive.store._cells_path(run.trace_digest)]


def test_torn_cell_file_costs_a_miss_never_a_wrong_result(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    fresh = _fresh_bytes(archive, run)
    archive.analyze(run)
    path = archive.store._cells_path(run.trace_digest)
    intact = path.read_bytes()
    damaged = [intact[:cut] for cut in _cut_points(intact)][:-1]
    damaged += [b"\x00\xff\x1f\x8b not json", b"[1, 2]", b"null"]
    assert b"" in damaged
    for data in damaged:
        path.write_bytes(data)
        torn = CacheStats()
        result = archive.analyze(run, stats=torn)
        assert result_to_json_bytes(result) == fresh, data[:40]
        assert (torn.hits, torn.misses) == (0, CELLS)
        json.loads(path.read_bytes())  # rewritten whole
        warm = CacheStats()
        result = archive.analyze(run, stats=warm)
        assert result_to_json_bytes(result) == fresh
        assert (warm.hits, warm.misses) == (CELLS, 0)


def test_concurrent_writers_keep_every_cell(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    # each thread adds its own cells to the same cold file: one
    # detector's findings plus the meta cell, or the feature matrix
    calls = [
        lambda d=detector: archive.analyze(run, detectors=[d])
        for detector in DEFAULT_DETECTORS
    ] + [lambda: features_for_run(archive, run)] * 3
    gate = threading.Barrier(len(calls))
    errors = []

    def worker(call):
        try:
            gate.wait(timeout=30)
            call()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(call,)) for call in calls
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    warm = CacheStats()
    result = archive.analyze(run, stats=warm)
    assert (warm.hits, warm.misses) == (CELLS, 0)
    assert result_to_json_bytes(result) == _fresh_bytes(archive, run)
    export = CacheStats()
    features_for_run(archive, run, stats=export)
    assert (export.hits, export.misses) == (1, 0)
    cells = archive.store.get_named(run.trace_digest)
    assert feature_cell_key(run.trace_digest) in cells
    assert len(cells) == CELLS + 1


_ANALYZE_WHEN_GO = """
import sys, time
from pathlib import Path
from repro.archive import Archive, result_to_json_bytes
root, run_id, go = sys.argv[1:]
archive = Archive(root)
run = archive.resolve(run_id)
deadline = time.monotonic() + 60
while not Path(go).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
sys.stdout.write(result_to_json_bytes(archive.analyze(run)).decode())
"""


def test_two_processes_cold_analyze_one_archive(tmp_path, spec):
    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(spec, size=4, seed=3)
    go = tmp_path / "go"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [
        sys.executable, "-c", _ANALYZE_WHEN_GO,
        str(archive.root), run.run_id, str(go),
    ]
    procs = [
        subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
        for _ in range(2)
    ]
    try:
        go.touch()
        fresh = _fresh_bytes(archive, run)
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert out == fresh
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=30)
    warm = CacheStats()
    assert result_to_json_bytes(archive.analyze(run, stats=warm)) == fresh
    assert (warm.hits, warm.misses) == (CELLS, 0)
