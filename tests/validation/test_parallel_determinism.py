"""Parallel sweeps must be byte-identical to the serial path.

The fork-per-cell executor (``workers > 1``) changes *when* cells run,
never *what* they produce: robustness JSON and matrix rows must match
the serial artifacts byte for byte at any worker count, supervised or
not, and checkpoint journals written by either path must resume under
the other.
"""

import dataclasses
import json
import time

import pytest

from repro.archive import Archive
from repro.core import get_property
from repro.core.registry import PropertySpec
from repro.resilience import Supervisor
from repro.validation import run_robustness, run_validation_matrix
from repro.work.forkexec import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork executor needs POSIX"
)

SPECS = ("imbalance_at_mpi_barrier", "balanced_mpi_barrier")
MAGNITUDES = (0.0, 0.7)
SEEDS = (0, 1)


def _specs():
    return [get_property(name) for name in SPECS]


def _robustness(workers, supervisor=None, archive=None):
    return run_robustness(
        specs=_specs(),
        magnitudes=MAGNITUDES,
        seeds=SEEDS,
        size=6,
        num_threads=2,
        supervisor=supervisor,
        archive=archive,
        workers=workers,
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_robustness_json_byte_identical(workers):
    serial = _robustness(workers=1).to_json_str()
    parallel = _robustness(workers=workers).to_json_str()
    assert parallel == serial


def test_matrix_rows_identical_across_workers():
    serial = run_validation_matrix(
        specs=_specs(), size=6, num_threads=2, workers=1
    )
    parallel = run_validation_matrix(
        specs=_specs(), size=6, num_threads=2, workers=3
    )
    assert [r.to_dict() for r in parallel.rows] == [
        r.to_dict() for r in serial.rows
    ]


def _journal_payloads(path):
    entries = {}
    for line in path.read_text().splitlines()[1:]:
        record = json.loads(line)
        entries[record["key"]] = record["payload"]
    return entries


def _supervised_campaign(root, workers):
    """Checkpointed, archived robustness sweep; returns its artifacts."""
    checkpoint = root / "sweep.ckpt"
    sup = Supervisor(checkpoint=checkpoint)
    archive = Archive(root / "archive")
    result = _robustness(workers=workers, supervisor=sup, archive=archive)
    sup.close()
    return (
        result.to_json_str(),
        _journal_payloads(checkpoint),
        archive.store.load_manifest(),
    )


def test_supervised_archived_campaign_parity(tmp_path):
    serial = _supervised_campaign(tmp_path / "serial", workers=1)
    forked = _supervised_campaign(tmp_path / "forked", workers=2)
    assert forked[0] == serial[0]  # robustness JSON
    assert forked[1] == serial[1]  # checkpoint journal payloads
    assert forked[2] == serial[2]  # archive manifest records


@pytest.mark.parametrize(
    "first_workers,resume_workers", [(1, 2), (2, 1)]
)
def test_checkpoints_resume_across_executors(
    tmp_path, first_workers, resume_workers
):
    """A journal written by one executor resumes under the other."""
    checkpoint = tmp_path / "cross.ckpt"
    sup = Supervisor(checkpoint=checkpoint)
    first = _robustness(workers=first_workers, supervisor=sup)
    sup.close()

    sup2 = Supervisor(checkpoint=checkpoint)
    resumed = _robustness(workers=resume_workers, supervisor=sup2)
    sup2.close()
    assert resumed.to_json_str() == first.to_json_str()


@dataclasses.dataclass(frozen=True)
class _SlowFirstSeed(PropertySpec):
    """A spec whose seed-0 run takes a wall-clock second longer."""

    def run(self, *args, **kwargs):
        if kwargs.get("seed") == 0:
            time.sleep(1.0)
        return super().run(*args, **kwargs)


def test_forked_files_are_serial_bytes_when_first_cell_is_slowest(
    tmp_path,
):
    """Forked cells resolve in cell order, not completion order."""
    base = get_property("late_sender")
    slow = _SlowFirstSeed(
        **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    )
    specs = [slow, get_property("balanced_mpi_barrier")]

    def files(root, workers):
        sup = Supervisor(checkpoint=root / "ck.jsonl")
        archive = Archive(root / "archive")
        run_robustness(
            specs=specs, magnitudes=(0.0,), seeds=(0, 1, 2), size=4,
            num_threads=2, supervisor=sup, archive=archive,
            workers=workers,
        )
        sup.close()
        archive.close()
        return (
            (root / "ck.jsonl").read_bytes(),
            (root / "archive" / "manifest.jsonl").read_bytes(),
        )

    serial = files(tmp_path / "serial", workers=1)
    forked = files(tmp_path / "forked", workers=2)
    assert forked[0] == serial[0]  # checkpoint journal
    assert forked[1] == serial[1]  # archive manifest
