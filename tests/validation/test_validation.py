"""Tests for the validation harness, semantics and overhead checks."""

import pytest

from repro.apps import JacobiConfig, jacobi
from repro.core import get_property, list_properties
from repro.validation import (
    MatrixResult,
    check_semantics,
    find_suites,
    format_catalog,
    intrusion_sweep,
    measure_overhead,
    run_validation_matrix,
    validate_spec,
)


# ----------------------------------------------------------------------
# detection matrix
# ----------------------------------------------------------------------

def test_validate_single_positive_spec():
    row = validate_spec(get_property("late_sender"), size=4)
    assert row.passed
    assert row.missing == ()
    assert row.spurious == ()
    assert "late_sender" in row.detected
    assert row.severity > 0.1


def test_validate_single_negative_spec():
    row = validate_spec(get_property("balanced_mpi_barrier"), size=4)
    assert row.passed
    assert row.detected == ()


def test_validation_matrix_subset():
    specs = [
        get_property("late_sender"),
        get_property("late_broadcast"),
        get_property("balanced_mpi_barrier"),
    ]
    matrix = run_validation_matrix(specs=specs, size=4)
    assert matrix.all_passed
    assert matrix.positive_detection_rate == 1.0
    assert matrix.false_positive_rate == 0.0
    table = matrix.format_table()
    assert "late_sender" in table
    assert "positive detection rate: 100%" in table


def test_matrix_analyzes_each_row_once(monkeypatch):
    # matrix rows are analyzed in the one cell pipeline
    from repro.synth import campaign

    calls = []
    real = campaign.analyze_run

    def counting(run, *args, **kwargs):
        calls.append(run)
        return real(run, *args, **kwargs)

    monkeypatch.setattr(campaign, "analyze_run", counting)
    specs = [
        get_property("late_sender"),
        get_property("balanced_mpi_barrier"),
    ]
    matrix = run_validation_matrix(specs=specs, size=4)
    assert matrix.all_passed
    assert len(calls) == len(specs)


def test_matrix_detects_a_broken_tool():
    """A tool that reports nothing must fail positive correctness."""

    def blind_tool(run):
        return ()

    specs = [get_property("late_sender")]
    matrix = run_validation_matrix(specs=specs, tool=blind_tool, size=4)
    assert not matrix.all_passed
    assert matrix.positive_detection_rate == 0.0


def test_matrix_detects_an_overeager_tool():
    """A tool that always cries wolf must fail negative correctness."""

    def wolf_tool(run):
        return ("late_sender", "wait_at_barrier")

    specs = [get_property("balanced_mpi_barrier")]
    matrix = run_validation_matrix(specs=specs, tool=wolf_tool, size=4)
    assert not matrix.all_passed
    assert matrix.false_positive_rate == 1.0


def test_matrix_row_properties():
    result = MatrixResult(rows=[])
    assert result.all_passed
    assert result.positive_detection_rate == 1.0
    assert result.false_positive_rate == 0.0


# ----------------------------------------------------------------------
# semantics preservation (paper chapter 2 procedure)
# ----------------------------------------------------------------------

def test_jacobi_semantics_preserved_under_tracing():
    report = check_semantics(
        jacobi, size=4, model_init_overhead=False
    )
    assert report.semantics_preserved
    assert report.timing_distortion == pytest.approx(0.0)
    assert report.events_recorded > 0
    assert "PASS" in report.format()


def test_intrusive_tracing_distorts_timing_but_not_results():
    report = check_semantics(
        jacobi, size=4, intrusion=1e-4, model_init_overhead=False
    )
    assert report.semantics_preserved  # results identical
    assert report.timing_distortion > 0  # but the run got slower


def test_semantics_check_catches_result_changes():
    """A program whose result depends on tracing must FAIL."""

    def naughty(comm):
        from repro.trace.api import current_instrumentation

        rec, _ = current_instrumentation()
        return 1 if rec is not None else 0

    report = check_semantics(naughty, size=2, model_init_overhead=False)
    assert not report.semantics_preserved


# ----------------------------------------------------------------------
# overhead
# ----------------------------------------------------------------------

def test_overhead_zero_intrusion_has_no_dilation():
    report = measure_overhead(
        jacobi, size=4, model_init_overhead=False
    )
    assert report.virtual_dilation == pytest.approx(0.0)
    assert report.events > 0
    assert report.traced_wall_time > 0


def test_overhead_grows_with_intrusion():
    reports = intrusion_sweep(
        jacobi, [0.0, 1e-5, 1e-4], size=4, model_init_overhead=False
    )
    dilations = [r.virtual_dilation for r in reports]
    assert dilations[0] == pytest.approx(0.0)
    assert dilations[0] < dilations[1] < dilations[2]
    # stronger intrusion shifts measured severities further
    assert reports[2].max_severity_shift >= reports[1].max_severity_shift


# ----------------------------------------------------------------------
# the chapter 2/4 catalog
# ----------------------------------------------------------------------

def test_catalog_contains_paper_entries():
    names = {e.name for e in find_suites()}
    assert "SKaMPI" in names
    assert "Grindstone" in names
    assert "NAS Parallel Benchmarks" in names
    assert "EPCC OpenMP Microbenchmarks" in names


def test_catalog_filters():
    mpi_validation = find_suites(category="validation", paradigm="mpi")
    assert len(mpi_validation) == 5  # the paper lists five MPI suites
    assert all(e.category == "validation" for e in mpi_validation)
    with pytest.raises(ValueError):
        find_suites(category="bogus")


def test_catalog_formatting():
    text = format_catalog()
    assert "validation suites" in text
    assert "PARKBENCH" in text
