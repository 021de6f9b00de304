"""Dataset export: ground-truth labels, caching, serialization."""

import json

import pytest

from repro.archive import Archive, CacheStats
from repro.stats import (
    ROW_REQUIRED_KEYS,
    dataset_rows,
    feature_cell_key,
    rows_to_csv,
    rows_to_jsonl,
    validate_row,
)
from repro.synth import CampaignSpec, run_campaign


@pytest.fixture(scope="module")
def campaign_archive(tmp_path_factory):
    archive = Archive(tmp_path_factory.mktemp("ds") / "archive")
    spec = CampaignSpec(
        name="ds-test", scenarios=6, sizes=(4,), seed=3
    )
    run_campaign(spec, archive=archive)
    return archive


def _labeled(archive):
    return [r for r in archive.history() if r.manifest is not None]


def test_cold_then_warm_export_byte_identical(campaign_archive):
    # runs first: the module-scoped archive has no feature cells yet
    cold = CacheStats()
    cold_rows = dataset_rows(campaign_archive, stats=cold)
    assert cold.misses == len(_labeled(campaign_archive))
    assert cold.hits == 0
    warm = CacheStats()
    warm_rows = dataset_rows(campaign_archive, stats=warm)
    assert warm.misses == 0
    assert warm.hits == len(_labeled(campaign_archive))
    assert rows_to_jsonl(warm_rows) == rows_to_jsonl(cold_rows)
    assert rows_to_csv(warm_rows) == rows_to_csv(cold_rows)


def test_rows_join_manifest_ground_truth(campaign_archive):
    rows = dataset_rows(campaign_archive)
    assert rows
    runs = {run.run_id: run for run in campaign_archive.history()}
    by_run = {}
    for row in rows:
        by_run.setdefault(row.run_id, []).append(row)
    for run_id, run_rows in by_run.items():
        manifest = runs[run_id].manifest
        expected = tuple(manifest["expected"])
        # cell labels round-trip the manifest's expected set exactly
        assert all(r.cell_labels == expected for r in run_rows)
        # per-rank labels honor the manifest's localized ground truth
        localized = {}
        for loc in manifest.get("locations", ()):
            for rank in loc["ranks"]:
                localized.setdefault(rank, set()).add(loc["property"])
        for row in run_rows:
            assert set(row.labels) == localized.get(row.rank, set())
        # every localized label names an expected property
        assert set().union(
            set(), *(set(r.labels) for r in run_rows)
        ) <= set(expected)


def test_rows_skip_unlabeled_runs(tmp_path):
    from repro.core import get_property

    archive = Archive(tmp_path / "plain")
    archive.archive_run(get_property("late_sender"), size=4, seed=1)
    assert dataset_rows(archive) == []


def test_jsonl_rows_validate_against_schema(campaign_archive):
    rows = dataset_rows(campaign_archive)
    for line in rows_to_jsonl(rows).splitlines():
        payload = json.loads(line)
        validate_row(payload)
        assert set(ROW_REQUIRED_KEYS) <= set(payload)


def test_csv_has_one_dense_column_per_feature(campaign_archive):
    rows = dataset_rows(campaign_archive)
    lines = rows_to_csv(rows).splitlines()
    header = lines[0].split(",")
    names = sorted({name for row in rows for name, _ in row.features})
    assert header[-len(names):] == names
    assert len(lines) == len(rows) + 1
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_warm_export_never_reads_the_trace_blob(campaign_archive):
    # runs last: it destroys one trace blob of the shared archive
    dataset_rows(campaign_archive)  # populate feature cells
    run = _labeled(campaign_archive)[0]
    assert feature_cell_key(run.trace_digest) in (
        campaign_archive.store.get_named(run.trace_digest)
    )
    campaign_archive.store._blob_path(run.trace_digest).unlink()
    rows = dataset_rows(campaign_archive)  # assembles from cells alone
    assert any(r.run_id == run.run_id for r in rows)


def test_validate_row_rejects_bad_payloads():
    with pytest.raises(ValueError, match="missing key"):
        validate_row({"format": "ats-dataset-row"})
    good = {key: 0 for key in ROW_REQUIRED_KEYS}
    good.update(format="ats-dataset-row", features={"x": 0.5})
    validate_row(good)
    with pytest.raises(ValueError, match="not a dataset row"):
        validate_row(dict(good, format="other"))
    with pytest.raises(ValueError, match="not numeric"):
        validate_row(dict(good, features={"x": "high"}))
