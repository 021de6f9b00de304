"""Campaign execution: parity across modes, archiving, scoring."""

import gc
import json
import weakref

import pytest

from repro.archive import Archive
from repro.faults import FaultPlan
from repro.resilience import CheckpointError, Supervisor
from repro.synth import (
    CampaignError,
    CampaignSpec,
    NoiseConfig,
    generate_scenarios,
    run_campaign,
    score_campaign_json,
    score_result,
)
from repro.work.forkexec import fork_available


def _spec(**over):
    kwargs = dict(
        name="camp", strategy="grid", scenarios=10,
        sizes=(4,), threads=2, seed=9,
        noise=NoiseConfig(
            plan=FaultPlan.default(), magnitudes=(0.0, 0.6)
        ),
    )
    kwargs.update(over)
    return CampaignSpec(**kwargs)


def test_campaign_runs_and_grades_against_manifests():
    result = run_campaign(_spec())
    assert len(result.cells) == 10
    assert not result.errors
    for cell in result.cells:
        assert cell.manifest.scenario == cell.scenario.name
        assert set(cell.missing) <= set(cell.manifest.expected)
    report = score_result(result)
    assert report.cells == 10
    total = sum(d.tp + d.fn for d in report.detectors)
    assert total == sum(
        len(c.manifest.expected) for c in result.cells
    )


def test_campaign_is_deterministic():
    a = run_campaign(_spec())
    b = run_campaign(_spec())
    assert a.to_json_str() == b.to_json_str()
    assert score_result(a).to_json_str() == score_result(b).to_json_str()


def test_score_round_trips_through_json_artifact():
    result = run_campaign(_spec(scenarios=6))
    payload = json.loads(result.to_json_str())
    assert payload["format"] == "ats-synth-campaign"
    from_artifact = score_campaign_json(payload)
    assert from_artifact.to_json_str() == score_result(result).to_json_str()


def test_archive_records_carry_ground_truth_manifests(tmp_path):
    archive = Archive(tmp_path / "arch")
    result = run_campaign(_spec(scenarios=6), archive=archive)
    manifest = archive.store.load_manifest()
    assert len(manifest) == 6
    for cell in result.cells:
        assert cell.run_id in manifest
        payload = manifest[cell.run_id]
        assert payload["manifest"] == cell.manifest.to_dict()
        run = archive.resolve(cell.run_id)
        assert run.manifest == cell.manifest.to_dict()
        assert run.program == cell.scenario.name


def test_a_cell_closure_dies_with_its_cell():
    """Nothing process-wide keeps a synthesized spec's closure (and
    with it the cell's steps and params) alive after the cell ran."""
    funcs = []
    for scenario in generate_scenarios(_spec(scenarios=48)):
        pspec = scenario.build_spec()
        pspec.run(
            size=scenario.size,
            num_threads=scenario.threads,
            seed=scenario.seed,
        )
        funcs.append(weakref.ref(pspec.func))
    del pspec
    gc.collect()
    assert len(funcs) == 48
    # a few stay referenced from pooled worker threads' last frames
    assert sum(ref() is not None for ref in funcs) <= 8


def test_adversarial_strategy_extends_disagreement_cells():
    # Noise makes disagreements likely; the adversarial loop must stay
    # deterministic whether or not any appear.
    spec = _spec(
        strategy="adversarial",
        scenarios=8,
        adversarial_rounds=1,
        adversarial_top=2,
        noise=NoiseConfig(
            plan=FaultPlan.default(), magnitudes=(1.5,)
        ),
    )
    a = run_campaign(spec)
    b = run_campaign(spec)
    assert a.to_json_str() == b.to_json_str()
    assert len(a.cells) >= 8
    if a.disagreements():
        assert len(a.cells) > 8


def test_max_failures_aborts_with_partial_result():
    # An impossible time budget fails every cell.
    spec = _spec(scenarios=6, max_failures=1)
    with pytest.raises(CampaignError) as exc:
        run_campaign(spec, time_budget=1e-9)
    partial = exc.value.result
    assert len(partial.errors) >= 2
    assert len(partial.cells) < 6 or partial.errors


@pytest.mark.skipif(
    not fork_available(), reason="fork executor needs POSIX"
)
def test_forked_campaign_byte_identical_to_serial():
    serial = run_campaign(_spec())
    forked = run_campaign(_spec(), workers=3)
    assert serial.to_json_str() == forked.to_json_str()


@pytest.mark.skipif(
    not fork_available(), reason="fork executor needs POSIX"
)
def test_supervised_archived_parity_serial_vs_forked(tmp_path):
    a1 = Archive(tmp_path / "a1")
    a2 = Archive(tmp_path / "a2")
    s1 = run_campaign(
        _spec(), supervisor=Supervisor(timeout=120.0), archive=a1
    )
    s2 = run_campaign(
        _spec(),
        supervisor=Supervisor(timeout=120.0),
        archive=a2,
        workers=3,
    )
    assert s1.to_json_str() == s2.to_json_str()
    assert a1.store.load_manifest() == a2.store.load_manifest()


def test_resume_is_byte_identical(tmp_path):
    spec = _spec(scenarios=8)
    baseline = run_campaign(spec)

    # First run writes a checkpoint; a fresh supervisor resumes from it
    # and must replay recorded cells instead of recomputing.
    checkpoint = tmp_path / "cells.ckpt"
    first = run_campaign(
        spec, supervisor=Supervisor(checkpoint=str(checkpoint))
    )
    assert first.to_json_str() == baseline.to_json_str()

    # A fresh supervisor pointed at the populated journal replays
    # recorded cells instead of recomputing them.
    resumed_sup = Supervisor(checkpoint=str(checkpoint))
    resumed = run_campaign(spec, supervisor=resumed_sup)
    assert resumed_sup.completed_keys
    assert resumed.to_json_str() == baseline.to_json_str()


@pytest.mark.skipif(
    not fork_available(), reason="fork executor needs POSIX"
)
def test_resume_crosses_executors(tmp_path):
    spec = _spec(scenarios=8)
    baseline = run_campaign(spec)
    checkpoint = tmp_path / "cells.ckpt"
    run_campaign(spec, supervisor=Supervisor(checkpoint=str(checkpoint)))
    resumed = run_campaign(
        spec,
        supervisor=Supervisor(checkpoint=str(checkpoint)),
        workers=3,
    )
    assert resumed.to_json_str() == baseline.to_json_str()


def test_resume_under_other_families_is_refused(tmp_path):
    """A rule-only journal must not replay into a two-family campaign."""
    checkpoint = str(tmp_path / "cells.ckpt")
    spec = _spec(scenarios=3)
    sup = Supervisor(checkpoint=checkpoint)
    run_campaign(spec, supervisor=sup)
    sup.close()
    resumed = Supervisor(checkpoint=checkpoint)
    with pytest.raises(CheckpointError, match="other sweep settings"):
        run_campaign(
            spec, supervisor=resumed, families=("rule", "similarity")
        )
    resumed.close()
