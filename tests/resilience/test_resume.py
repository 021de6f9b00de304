"""Checkpoint/resume: a resumed sweep reproduces the uninterrupted artifact."""

import json

import pytest

from repro.core.registry import get_property
from repro.resilience import CheckpointJournal, Supervisor
from repro.validation import run_robustness, run_validation_matrix


@pytest.fixture(scope="module")
def specs():
    return [get_property("late_sender")]


def _sweep(specs, supervisor=None):
    return run_robustness(
        specs=specs,
        magnitudes=(0.0, 1.0),
        seeds=(0,),
        size=4,
        num_threads=2,
        supervisor=supervisor,
    )


def test_supervised_sweep_matches_direct_sweep(specs):
    direct = _sweep(specs)
    supervised = _sweep(specs, supervisor=Supervisor())
    assert supervised.to_json_str() == direct.to_json_str()


def test_resume_from_complete_journal_never_reruns(tmp_path, specs):
    path = tmp_path / "ck.jsonl"
    sup = Supervisor(checkpoint=path)
    baseline = _sweep(specs, supervisor=sup)
    sup.close()

    resumed_sup = Supervisor(checkpoint=path)
    assert len(resumed_sup.completed_keys) == len(baseline.cells)

    # every cell must replay from the journal: poison the run path
    calls = {"n": 0}
    real_run_cell = resumed_sup.run_cell

    def counting_run_cell(key, fn, **kwargs):
        def poisoned():
            calls["n"] += 1
            return fn()

        return real_run_cell(key, poisoned, **kwargs)

    resumed_sup.run_cell = counting_run_cell
    resumed = _sweep(specs, supervisor=resumed_sup)
    resumed_sup.close()
    assert calls["n"] == 0
    assert resumed.to_json_str() == baseline.to_json_str()


def test_resume_after_partial_journal_is_byte_identical(tmp_path, specs):
    baseline = _sweep(specs)

    path = tmp_path / "ck.jsonl"
    sup = Supervisor(checkpoint=path)
    _sweep(specs, supervisor=sup)
    sup.close()

    # simulate a kill: keep the header + first record, cut the second
    # record mid-line (the interrupted write)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 3  # header + 2 cells
    path.write_text(lines[0] + lines[1] + lines[2][: len(lines[2]) // 2])

    resumed_sup = Supervisor(checkpoint=path)
    assert len(resumed_sup.completed_keys) == 1
    resumed = _sweep(specs, supervisor=resumed_sup)
    resumed_sup.close()
    assert resumed.to_json_str() == baseline.to_json_str()
    # the journal healed: both cells journaled again, loadable
    assert len(CheckpointJournal(path).load()) == 2


def test_validation_matrix_supervised_matches_direct(tmp_path, specs):
    direct = run_validation_matrix(
        specs=specs, size=4, num_threads=2
    )
    path = tmp_path / "ck.jsonl"
    sup = Supervisor(checkpoint=path)
    supervised = run_validation_matrix(
        specs=specs, size=4, num_threads=2, supervisor=sup
    )
    sup.close()
    assert [r.to_dict() for r in supervised.rows] == [
        r.to_dict() for r in direct.rows
    ]
    # and resuming replays the journaled rows
    resumed_sup = Supervisor(checkpoint=path)
    resumed = run_validation_matrix(
        specs=specs, size=4, num_threads=2, supervisor=resumed_sup
    )
    resumed_sup.close()
    assert [r.to_dict() for r in resumed.rows] == [
        r.to_dict() for r in direct.rows
    ]


def test_journal_without_settings_digest_still_resumes(tmp_path, specs):
    """Journals written before headers carried a digest keep resuming."""
    path = tmp_path / "ck.jsonl"
    sup = Supervisor(checkpoint=path)
    baseline = _sweep(specs, supervisor=sup)
    sup.close()
    header, *records = path.read_text().splitlines(keepends=True)
    legacy = json.loads(header)
    assert legacy.pop("settings")
    path.write_text(json.dumps(legacy) + "\n" + "".join(records))

    resumed_sup = Supervisor(checkpoint=path)
    resumed = _sweep(specs, supervisor=resumed_sup)
    resumed_sup.close()
    assert resumed.to_json_str() == baseline.to_json_str()
