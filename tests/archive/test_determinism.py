"""Archive determinism: identical identity -> identical bytes.

The archive's dedupe and the diff gate both assume that one
``(program, params, size, threads, seed, plan)`` identity always
produces the same trace blob, regardless of incidental process state:
how many pooled workers exist or whether metrics are on.
"""

import pytest

from repro.archive import Archive
from repro.core import get_property
from repro.simkernel import worker_pool


def _archive_once(root, seed=7):
    archive = Archive(root)
    spec = get_property("late_sender")
    return archive.archive_run(spec, size=4, seed=seed)


def test_trace_digest_stable_across_pool_sizes(tmp_path):
    worker_pool().drain()  # cold pool: workers created on demand
    a = _archive_once(tmp_path / "a")
    # Grow the pool past the 4-rank run's needs with a 16-rank run.
    get_property("late_sender").run(size=16)
    b = _archive_once(tmp_path / "b")
    assert a.run_id == b.run_id
    assert a.trace_digest == b.trace_digest


def test_trace_digest_stable_under_metrics(tmp_path):
    from repro.obs import reset_metrics, set_metrics_enabled

    a = _archive_once(tmp_path / "a")
    set_metrics_enabled(True)
    reset_metrics()
    try:
        b = _archive_once(tmp_path / "b")
    finally:
        set_metrics_enabled(False)
        reset_metrics()
    assert a.trace_digest == b.trace_digest


def test_rearchiving_is_idempotent(tmp_path):
    archive = Archive(tmp_path)
    spec = get_property("late_sender")
    first = archive.archive_run(spec, size=4, seed=9)
    second = archive.archive_run(spec, size=4, seed=9)
    assert first == second
    assert len(archive.history()) == 1


@pytest.mark.parametrize(
    "program", ["late_sender", "imbalance_in_omp_pregion"]
)
def test_matrix_and_archive_run_record_the_same_run(tmp_path, program):
    from repro.validation import validate_spec

    archive = Archive(tmp_path)
    spec = get_property(program)
    validate_spec(spec, size=4, num_threads=2, archive=archive)
    (via_matrix,) = archive.history()
    via_archive = archive.archive_run(spec, size=4, num_threads=2)
    assert via_archive.run_id == via_matrix.run_id
    assert via_archive.to_payload() == via_matrix.to_payload()
    assert len(archive.history()) == 1
