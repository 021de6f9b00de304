"""CLI error paths: every expected failure is one stderr line, exit 2.

Regression tests for the crash reports: missing trace file, empty or
header-corrupt trace, unknown property name and unknown distribution
name used to surface as raw tracebacks.
"""

import json

import pytest

from repro.cli import main


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _write_trace(tmp_path, *cli_args):
    trace = tmp_path / "t.jsonl"
    assert main([
        "run", "late_sender", "--size", "4", "--no-analyze",
        "--trace-out", str(trace), *cli_args,
    ]) == 0
    return trace


def assert_clean_error(rc, err, needle):
    assert rc == 2
    assert err.count("\n") == 1, f"expected one stderr line, got: {err!r}"
    assert err.startswith("ats: error: ")
    assert needle in err
    assert "Traceback" not in err


def test_analyze_missing_file(capsys):
    rc, _, err = _run(capsys, "analyze", "/missing/file.trace")
    assert_clean_error(rc, err, "trace file not found: /missing/file.trace")


def test_analyze_empty_directory(tmp_path, capsys):
    # Directories expand to their *.jsonl / *.jsonl.gz traces; an
    # empty one is an error rather than a silent no-op.
    rc, _, err = _run(capsys, "analyze", str(tmp_path))
    assert_clean_error(rc, err, "no trace files")


def test_analyze_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.touch()
    rc, _, err = _run(capsys, "analyze", str(empty))
    assert_clean_error(rc, err, f"{empty}: empty trace file")


def test_analyze_corrupt_header(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("this is not json\n")
    rc, _, err = _run(capsys, "analyze", str(bad))
    assert_clean_error(rc, err, f"{bad}:1: corrupt header")


def test_analyze_wrong_format(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"format": "something-else"}\n')
    rc, _, err = _run(capsys, "analyze", str(bad))
    assert_clean_error(rc, err, "not an ats-trace file")


def test_run_unknown_program_suggests(capsys):
    rc, _, err = _run(capsys, "run", "late_sneder")
    assert_clean_error(rc, err, "unknown property function 'late_sneder'")
    assert "did you mean 'late_sender'?" in err


def test_metrics_and_sweep_unknown_program(capsys):
    for argv in (["metrics", "nope"], ["sweep", "nope"]):
        rc, _, err = _run(capsys, *argv)
        assert_clean_error(rc, err, "unknown property function 'nope'")


@pytest.mark.parametrize("argv,needle", [
    (["metrics", "nope"], "unknown property function 'nope'"),
    (["metrics", "late_sender", "--size", "1"], "late_sender"),
])
def test_rejected_metrics_leaves_obs_as_it_was(capsys, argv, needle):
    from repro.obs import (
        metrics_enabled,
        set_metrics_enabled,
        set_spans_enabled,
        spans_enabled,
    )

    before = (metrics_enabled(), spans_enabled())
    set_metrics_enabled(False)
    set_spans_enabled(False)
    try:
        rc, _, err = _run(capsys, *argv)
        assert_clean_error(rc, err, needle)
        assert (metrics_enabled(), spans_enabled()) == (False, False)
    finally:
        set_metrics_enabled(before[0])
        set_spans_enabled(before[1])


def test_run_unknown_distribution_suggests(capsys):
    rc, _, err = _run(
        capsys, "run", "imbalance_at_mpi_barrier", "--dist", "blok2"
    )
    assert_clean_error(rc, err, "unknown distribution 'blok2'")
    assert "did you mean 'block2'?" in err


def test_run_dist_on_distless_property(capsys):
    rc, _, err = _run(capsys, "run", "late_sender", "--dist", "block2")
    assert_clean_error(rc, err, "takes no distribution parameter")


def test_run_dist_bad_values(capsys):
    rc, _, err = _run(
        capsys, "run", "imbalance_at_mpi_barrier", "--dist", "block2:x,y"
    )
    assert_clean_error(rc, err, "expected SHAPE:V1,V2,...")


def test_run_dist_wrong_arity(capsys):
    rc, _, err = _run(
        capsys, "run", "imbalance_at_mpi_barrier",
        "--dist", "peak:0.01,0.02",
    )
    assert_clean_error(rc, err, "does not take 2 value(s)")


def test_run_dist_override_works(capsys):
    rc, out, _ = _run(
        capsys, "run", "imbalance_at_mpi_barrier", "--size", "4",
        "--no-analyze", "--dist", "linear:0.002,0.02",
    )
    assert rc == 0
    assert "finished in" in out


def test_analyze_salvage_recovers_truncated_trace(tmp_path, capsys):
    trace = _write_trace(tmp_path)
    capsys.readouterr()
    data = trace.read_bytes()
    trace.write_bytes(data[: int(len(data) * 0.8)])
    rc, _, err = _run(capsys, "analyze", str(trace))
    assert_clean_error(rc, err, "bad event")
    rc, out, err = _run(capsys, "analyze", str(trace), "--salvage")
    assert rc == 0
    assert "trace truncated mid-record" in err
    assert "ANALYSIS REPORT" in out


def test_robustness_cli_smoke(tmp_path, capsys):
    out_json = tmp_path / "rob.json"
    rc, out, _ = _run(
        capsys,
        "robustness", "--program", "late_sender",
        "--magnitudes", "0,0.5,1", "--seeds", "2", "--size", "4",
        "--threads", "2", "--json", str(out_json),
    )
    assert rc == 0
    assert "late_sender" in out
    data = json.loads(out_json.read_text())
    assert data["format"] == "ats-robustness"
    assert data["magnitudes"] == [0.0, 0.5, 1.0]
    assert len(data["curves"]["late_sender"]) == 3


def test_analyze_zero_event_trace_is_clean(tmp_path, capsys):
    # a header-only trace is legal: a run that recorded nothing
    trace = tmp_path / "empty-events.trace"
    trace.write_text('{"format": "ats-trace", "version": 1}\n')
    rc, out, err = _run(capsys, "analyze", str(trace))
    assert rc == 0
    assert "trace contains no event records; no findings" in out
    assert err == ""
    assert "Traceback" not in out
    # the profile path must not crash on zero events either
    rc, out, _ = _run(capsys, "analyze", str(trace), "--profile")
    assert rc == 0
    assert "no findings" in out


def test_run_time_budget_hang_reports_and_exits_2(capsys):
    rc, out, err = _run(
        capsys,
        "run", "late_sender", "--size", "4", "--no-analyze",
        "--time-budget", "0.0001",
    )
    assert_clean_error(rc, err, "simulation hang")
    assert "HANG at" in out
    assert "rank 0" in out


def test_resume_requires_checkpoint(capsys):
    rc, _, err = _run(
        capsys, "robustness", "--program", "late_sender", "--resume"
    )
    assert_clean_error(rc, err, "--resume requires --checkpoint")


def test_existing_checkpoint_requires_resume(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    ck.write_text('{"format": "ats-checkpoint", "version": 1}\n')
    rc, _, err = _run(
        capsys,
        "robustness", "--program", "late_sender",
        "--checkpoint", str(ck),
    )
    assert_clean_error(rc, err, "pass --resume")


def test_robustness_checkpoint_resume_round_trip(tmp_path, capsys):
    argv = [
        "robustness", "--program", "late_sender",
        "--magnitudes", "0,1", "--seeds", "1", "--size", "4",
        "--threads", "2",
    ]
    full = tmp_path / "full.json"
    assert main([*argv, "--json", str(full)]) == 0
    ck = tmp_path / "ck.jsonl"
    first = tmp_path / "first.json"
    assert main([
        *argv, "--json", str(first), "--checkpoint", str(ck),
    ]) == 0
    resumed = tmp_path / "resumed.json"
    assert main([
        *argv, "--json", str(resumed),
        "--checkpoint", str(ck), "--resume",
    ]) == 0
    capsys.readouterr()
    assert first.read_bytes() == full.read_bytes()
    assert resumed.read_bytes() == full.read_bytes()


def test_resume_under_other_settings_is_refused(tmp_path, capsys):
    """A journal computed at one size must not replay at another."""
    argv = [
        "robustness", "--program", "late_sender", "--magnitudes", "0",
        "--seeds", "1", "--threads", "2",
        "--checkpoint", str(tmp_path / "ck.jsonl"),
    ]
    assert main([*argv, "--size", "4"]) == 0
    capsys.readouterr()
    rc, _, err = _run(capsys, *argv, "--size", "8", "--resume")
    assert_clean_error(rc, err, "other sweep settings")


def test_robustness_cli_rejects_bad_args(capsys):
    rc, _, err = _run(capsys, "robustness", "--magnitudes", "0,zap")
    assert_clean_error(rc, err, "bad --magnitudes value")
    rc, _, err = _run(capsys, "robustness", "--seeds", "0")
    assert_clean_error(rc, err, "--seeds must be >= 1")
    rc, _, err = _run(capsys, "robustness", "--program", "nope")
    assert_clean_error(rc, err, "unknown property function 'nope'")


@pytest.mark.parametrize("argv,needle", [
    (["run", "late_sender", "--size", "1"],
     "'size' must be at least 2 for late_sender, got 1"),
    (["run", "imbalance_in_omp_pregion", "--threads", "0"],
     "'threads' must be at least 1, got 0"),
    (["metrics", "late_sender", "--size", "1"],
     "'size' must be at least 2 for late_sender"),
    (["stats", "late_sender", "--size", "1"],
     "'size' must be at least 2 for late_sender"),
    (["sweep", "late_sender", "--factors", "x"], "bad --factors value"),
    (["sweep", "late_sender", "--sizes", "x"], "bad --sizes value"),
    (["sweep", "late_sender", "--sizes", "1"],
     "'size' must be at least 2 for late_sender"),
    (["chain", "--size", "0"], "world size must be >= 1, got 0"),
    (["split", "--size", "1"], "split program needs an even size >= 4"),
    (["split", "--lower", "nope"], "unknown property function 'nope'"),
    (["stats", "late_sender", "--k", "0"], "--k must be >= 1, got 0"),
    (["stats", "late_sender", "--k", "-1"], "--k must be >= 1, got -1"),
    (["stats", "late_sender", "--silhouette", "nan"],
     "--silhouette must be a finite number, got nan"),
    (["stats", "late_sender", "--silhouette", "inf"],
     "--silhouette must be a finite number, got inf"),
])
def test_bad_sizes_threads_and_lists_are_clean_errors(capsys, argv, needle):
    rc, _, err = _run(capsys, *argv)
    assert_clean_error(rc, err, needle)


def test_archive_run_bad_size_is_clean_error(tmp_path, capsys):
    rc, _, err = _run(
        capsys, "archive", "run", "late_sender", "--size", "1",
        "--archive", str(tmp_path / "archive"),
    )
    assert_clean_error(rc, err, "'size' must be at least 2 for late_sender")
    assert not (tmp_path / "archive").exists()
