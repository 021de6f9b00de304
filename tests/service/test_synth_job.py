"""The ``synth`` job kind: campaign execution as a service job."""

import pytest

from repro.archive import Archive
from repro.service import AnalysisService
from repro.service.jobs import JOB_KINDS
from repro.service.server import JobError


@pytest.fixture
def service(tmp_path):
    archive = Archive(tmp_path / "archive")
    return AnalysisService(archive, max_workers=1)


def _spec_dict(**over):
    spec = {
        "name": "svc-camp", "scenarios": 5, "sizes": [4],
        "threads": 2, "seed": 4,
    }
    spec.update(over)
    return spec


def test_synth_is_a_registered_job_kind():
    assert "synth" in JOB_KINDS


def test_synth_job_runs_campaign_and_scores(service):
    job, coalesced = service.submit("synth", {"spec": _spec_dict()})
    assert not coalesced
    assert job.wait(timeout=60)
    assert job.state == "done"
    result = job.result
    assert result["aborted"] is None
    assert result["campaign"]["format"] == "ats-synth-campaign"
    assert len(result["campaign"]["cells"]) == 5
    assert result["score"]["format"] == "ats-synth-score"
    progress = result["progress"]
    assert progress["total"] == 5
    assert progress["done"] == 5


def test_synth_job_archives_cells_with_manifests(service):
    job, _ = service.submit("synth", {"spec": _spec_dict()})
    assert job.wait(timeout=60)
    manifest = service.archive.store.load_manifest()
    archived = [
        p for p in manifest.values()
        if p["program"].startswith("svc-camp/")
    ]
    assert len(archived) == 5
    assert all(p.get("manifest") for p in archived)


def test_synth_rejects_missing_or_invalid_spec(service):
    with pytest.raises(JobError):
        service.submit("synth", {})
    with pytest.raises(JobError):
        service.submit("synth", {"spec": "not-a-dict"})
    with pytest.raises(JobError):
        service.submit("synth", {"spec": {"name": "late_sender"}})
    with pytest.raises(JobError):
        service.submit("synth", {"spec": {"name": "x", "bogus": 1}})
    for over, key in [
        ({"scenarios": "x"}, "scenarios"),
        ({"sizes": "x"}, "sizes"),
        ({"threads": None}, "threads"),
        ({"bands": 3}, "bands"),
        ({"name": 5}, "name"),
        ({"noise": "x"}, "noise"),
        ({"noise": {"plan": "x"}}, "plan"),
    ]:
        with pytest.raises(JobError, match=key):
            service.submit("synth", {"spec": _spec_dict(**over)})
