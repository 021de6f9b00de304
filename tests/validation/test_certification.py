"""Tool certification and localization-aspect tests."""

import pytest

from repro.analysis import analyze_run
from repro.analysis.detectors import LateSenderDetector
from repro.analysis.tools import battery_without, pattern_tool
from repro.core import get_property
from repro.validation import (
    ToolCertificate,
    certify_tool,
    run_validation_matrix,
    validate_spec,
)


def test_bundled_analyzer_is_certified():
    cert = certify_tool(size=8)
    assert cert.certified
    assert cert.positive_detection_rate == 1.0
    assert cert.false_positive_rate == 0.0
    assert cert.localization_rate == 1.0
    assert cert.programs >= 30
    assert cert.errors == 0
    assert "CERTIFIED" in cert.format()


def test_crippled_tool_not_certified():
    broken = battery_without(LateSenderDetector)
    cert = certify_tool(broken, size=8)
    assert not cert.certified
    assert cert.positive_detection_rate < 1.0
    assert "NOT certified" in cert.format()


def test_tool_that_crashes_on_quiet_traces_not_certified():
    """An errored negative row detects nothing; it must not pass."""

    def quiet_crasher(run):
        detected = analyze_run(run).detected(0.01)
        if not set(detected) - {"mpi_init_overhead"}:
            raise RuntimeError("nothing to report")
        return detected

    cert = certify_tool(quiet_crasher, size=8)
    assert cert.false_positive_rate == 0.0
    assert cert.errors > 0
    assert not cert.certified
    assert f"errors {cert.errors}" in cert.format()


def test_certificate_carries_tool_name():
    cert = certify_tool(pattern_tool(0.01), size=4)
    assert "pattern_tool" in cert.tool_name


def test_localization_field_none_for_negatives():
    row = validate_spec(get_property("balanced_mpi_barrier"), size=4)
    assert row.localized is None
    assert row.passed


def test_localization_true_for_positive():
    row = validate_spec(get_property("late_broadcast"), size=4)
    assert row.localized is True


def test_localization_rate_in_table():
    matrix = run_validation_matrix(
        specs=[get_property("late_sender"),
               get_property("balanced_mpi_barrier")],
        size=4,
    )
    table = matrix.format_table()
    assert "localization rate: 100%" in table
    assert matrix.localization_rate == 1.0


def test_mislocalizing_tool_detected():
    """A hypothetical analyzer that detects properties but attributes
    them to the wrong call path would fail the localized check.

    We emulate it by validating a spec whose property fires under a
    *different* function: run late_sender's trace through the matrix
    under the name of another spec is not constructible directly, so
    instead check the failure wiring: a row with localized False fails.
    """
    from repro.validation import MatrixRow

    row = MatrixRow(
        name="x", paradigm="mpi", negative=False,
        expected=("late_sender",), detected=("late_sender",),
        missing=(), spurious=(), severity=0.5, final_time=1.0,
        localized=False,
    )
    assert not row.passed
