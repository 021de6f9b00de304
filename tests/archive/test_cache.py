"""The incremental analysis cache: hits, misses, invalidation."""

import pytest

from repro.analysis import (
    AnalysisConfig,
    DEFAULT_DETECTORS,
    analyze_events,
)
from repro.archive import (
    Archive,
    CacheStats,
    detector_fingerprint,
    result_to_json_bytes,
)
from repro.core import get_property, list_properties
from repro.trace.io import events_from_jsonl


@pytest.fixture(scope="module")
def spec():
    return get_property("late_sender")


def _fresh_reference(archive, run):
    events, _ = events_from_jsonl(
        archive.store.get_blob(run.trace_digest).decode("utf-8")
    )
    return analyze_events(
        events,
        total_time=run.final_time,
        config=AnalysisConfig(eager_threshold=run.eager_threshold),
    )


def test_cold_then_warm(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)

    cold = CacheStats()
    r1 = archive.analyze(run, stats=cold)
    # one lookup per detector plus the meta cell, all missing
    assert cold.misses == len(DEFAULT_DETECTORS) + 1
    assert cold.hits == 0

    warm = CacheStats()
    r2 = archive.analyze(run, stats=warm)
    assert warm.hits == len(DEFAULT_DETECTORS) + 1
    assert warm.misses == 0

    assert result_to_json_bytes(r1) == result_to_json_bytes(r2)


def test_cached_result_byte_identical_to_fresh(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    archive.analyze(run)  # populate
    cached = archive.analyze(run)
    fresh = _fresh_reference(archive, run)
    assert result_to_json_bytes(cached) == result_to_json_bytes(fresh)


class _TunableDetector:
    """A detector whose instance state is part of its fingerprint."""

    produces = ()

    def __init__(self, cutoff: float):
        self.cutoff = cutoff

    def detect(self, index, config):
        return []


def test_registry_warm_pass_hits_every_cell_and_matches_fresh(tmp_path):
    archive = Archive(tmp_path)
    specs = list_properties()
    for spec in specs:
        archive.archive_run(spec, size=4, num_threads=2)
    archive.analyze_many()  # cold pass populates every cell

    warm = CacheStats()
    results = archive.analyze_many(stats=warm)
    assert warm.hits == len(specs) * (len(DEFAULT_DETECTORS) + 1)
    assert warm.misses == 0
    for run in archive.history():
        assert result_to_json_bytes(results[run.run_id]) == (
            result_to_json_bytes(_fresh_reference(archive, run))
        ), run.program


def test_detector_change_recomputes_only_its_cell(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    battery = list(DEFAULT_DETECTORS) + [_TunableDetector(cutoff=0.5)]

    cold = CacheStats()
    archive.analyze(run, detectors=battery, stats=cold)
    assert cold.misses == len(battery) + 1

    # Reconfiguring one detector invalidates exactly its own cell.
    battery[-1] = _TunableDetector(cutoff=0.9)
    partial = CacheStats()
    archive.analyze(run, detectors=battery, stats=partial)
    assert partial.misses == 1
    assert partial.hits == len(DEFAULT_DETECTORS) + 1


def test_detector_fingerprint_sees_instance_state():
    a = detector_fingerprint(_TunableDetector(cutoff=0.5))
    b = detector_fingerprint(_TunableDetector(cutoff=0.9))
    c = detector_fingerprint(_TunableDetector(cutoff=0.5))
    assert a != b
    assert a == c


def test_similarity_config_change_invalidates_only_its_cell(
    tmp_path, spec
):
    """Satellite of the stats layer: retuning one statistical detector
    (k, metric, threshold -- plain instance state) must recompute
    exactly that detector's cell, never the rule battery's."""
    from repro.stats import PhaseAnomalyDetector, SimilarityDetector

    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    battery = list(DEFAULT_DETECTORS) + [
        SimilarityDetector(),
        PhaseAnomalyDetector(),
    ]
    cold = CacheStats()
    archive.analyze(run, detectors=battery, stats=cold)
    assert cold.misses == len(battery) + 1

    for variant in (
        SimilarityDetector(k=3),
        SimilarityDetector(metric="manhattan"),
        SimilarityDetector(threshold=0.5),
    ):
        battery[-2] = variant
        partial = CacheStats()
        archive.analyze(run, detectors=battery, stats=partial)
        assert partial.misses == 1
        assert partial.hits == len(battery)


def test_similarity_fingerprint_stable_and_state_sensitive():
    from repro.stats import SimilarityDetector

    fp = detector_fingerprint(SimilarityDetector())
    assert fp == detector_fingerprint(SimilarityDetector())
    assert fp != detector_fingerprint(SimilarityDetector(k=3))
    assert fp != detector_fingerprint(
        SimilarityDetector(metric="manhattan")
    )


def _delegating_detector(modules):
    """Same name, same (empty) state -- only the delegate list varies."""
    cls = type(
        "Delegating",
        (),
        {
            "produces": (),
            "fingerprint_modules": modules,
            "detect": lambda self, index, config: [],
        },
    )
    return cls()


def test_fingerprint_digests_declared_delegate_modules():
    """Detectors that compute in helper modules (the statistical
    family) digest those modules' source into their cache key."""
    one = _delegating_detector(("repro.stats.features",))
    both = _delegating_detector(
        ("repro.stats.features", "repro.stats.similarity")
    )
    again = _delegating_detector(("repro.stats.features",))
    assert detector_fingerprint(one) != detector_fingerprint(both)
    assert detector_fingerprint(one) == detector_fingerprint(again)


def test_config_change_invalidates(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    archive.analyze(run)  # populate under the recorded config
    other = CacheStats()
    archive.analyze(
        run, config=AnalysisConfig(noise_floor=1e-3), stats=other
    )
    # every detector cell misses; the meta cell is config-independent
    assert other.misses == len(DEFAULT_DETECTORS)
    assert other.hits == 1


def test_warm_path_never_reads_the_trace_blob(tmp_path, spec):
    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    archive.analyze(run)  # populate
    # Destroy the trace blob: a fully warm analysis must not notice.
    archive.store._blob_path(run.trace_digest).unlink()
    result = archive.analyze(run)
    assert result.findings


def test_obs_counters_wired(tmp_path, spec):
    from repro.obs import reset_metrics, set_metrics_enabled, to_json

    set_metrics_enabled(True)
    reset_metrics()
    try:
        archive = Archive(tmp_path)
        run = archive.archive_run(spec, size=4, seed=3)
        archive.analyze(run)
        archive.analyze(run)
        families = {
            m["name"]: m["samples"]
            for m in to_json()["metrics"]
            if m["name"].startswith("ats_archive")
        }
        total = lambda name: sum(  # noqa: E731
            s["value"] for s in families.get(name, [])
        )
        assert total("ats_archive_runs_total") == 1
        assert total("ats_archive_misses_total") == (
            len(DEFAULT_DETECTORS) + 1
        )
        assert total("ats_archive_hits_total") == (
            len(DEFAULT_DETECTORS) + 1
        )
        assert total("ats_archive_blob_bytes_total") > 0
    finally:
        set_metrics_enabled(False)
        reset_metrics()


def test_default_battery_fingerprint_is_memoized_exactly():
    from repro.archive.fingerprint import (
        default_set_fingerprint,
        detector_set_fingerprint,
    )

    assert default_set_fingerprint() == detector_set_fingerprint(
        DEFAULT_DETECTORS
    )
    assert default_set_fingerprint() is default_set_fingerprint()


#: ``default_set_fingerprint()`` as every archived run has recorded it
#: since the detectors' sources last changed; the golden sweep digests
#: pin the same value inside their archive manifests.
DEFAULT_SET_FINGERPRINT = (
    "bd14330deefac9cf4bb97968225ec02a6406528fc050fd16430b3bc355db7986"
)


@pytest.mark.parametrize("config", [
    AnalysisConfig(), AnalysisConfig(eager_threshold=65536),
])
def test_default_battery_keys_are_memoized_per_config(config):
    from repro.archive.fingerprint import default_detector_fingerprints

    keys = default_detector_fingerprints(config)
    assert list(keys) == [
        detector_fingerprint(d, config) for d in DEFAULT_DETECTORS
    ]
    assert default_detector_fingerprints(config) is keys
    assert default_detector_fingerprints(
        AnalysisConfig(eager_threshold=config.eager_threshold)
    ) is keys


def test_default_set_fingerprint_is_unchanged():
    from repro.archive.fingerprint import (
        default_set_fingerprint,
        detector_set_fingerprint,
    )

    assert default_set_fingerprint() == DEFAULT_SET_FINGERPRINT
    assert detector_set_fingerprint(
        list(DEFAULT_DETECTORS)
    ) == DEFAULT_SET_FINGERPRINT


def test_reconfigured_default_instance_is_not_served_from_the_memo(
    tmp_path, spec
):
    import copy

    from repro.archive import cell_key
    from repro.archive.fingerprint import default_detector_fingerprints

    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    archive.analyze(run)  # every default cell stored
    config = AnalysisConfig(eager_threshold=run.eager_threshold)
    retuned = copy.copy(DEFAULT_DETECTORS[0])
    retuned.cutoff = 0.5  # instance state the fingerprint sees
    battery = (retuned,) + DEFAULT_DETECTORS[1:]

    stats = CacheStats()
    archive.analyze(run, detectors=battery, stats=stats)
    # the retuned instance keys its own cell; the other ten still hit
    assert (stats.hits, stats.misses) == (len(DEFAULT_DETECTORS), 1)
    memo = default_detector_fingerprints(config)
    own = detector_fingerprint(retuned, config)
    assert own != memo[0]
    cells = archive.store.get_named(run.trace_digest)
    assert cell_key(run.trace_digest, own) in cells
    assert cell_key(run.trace_digest, memo[0]) in cells


def test_lookup_half_assembles_stored_cells_and_counts_no_miss(
    tmp_path, spec
):
    import json

    from repro.archive.cache import lookup_archived

    archive = Archive(tmp_path)
    run = archive.archive_run(spec, size=4, seed=3)
    record = run.to_payload()
    stats = CacheStats()
    # cold: nothing stored, nothing counted, nothing computed
    assert lookup_archived(archive.store, record, stats=stats) is None
    assert stats.lookups == 0
    assert archive.store.get_named(run.trace_digest) == {}

    full = archive.analyze(run)
    archive.store._blob_path(run.trace_digest).unlink()  # never read
    warm = lookup_archived(archive.store, record, stats=stats)
    assert (stats.hits, stats.misses) == (len(DEFAULT_DETECTORS) + 1, 0)
    assert result_to_json_bytes(warm) == result_to_json_bytes(full)

    # one cell lost: a miss again, still uncounted
    path = archive.store._cells_path(run.trace_digest)
    cells = json.loads(path.read_text())
    cells.pop(min(k for k in cells if k.startswith("findings|")))
    path.write_text(json.dumps(cells))
    again = CacheStats()
    assert lookup_archived(archive.store, record, stats=again) is None
    assert again.lookups == 0
