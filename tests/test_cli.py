"""CLI tests (in-process via main(argv))."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    reset_metrics,
    reset_spans,
    set_metrics_enabled,
    set_spans_enabled,
)


@pytest.fixture
def obs_reset():
    """Restore observability globals around tests that enable them."""
    yield
    set_metrics_enabled(False)
    set_spans_enabled(False)
    reset_metrics()
    reset_spans()


def test_list_shows_positive_properties(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "late_sender" in out
    assert "balanced_mpi_barrier" not in out  # negatives need --all


def test_list_all_includes_negatives(capsys):
    main(["list", "--all"])
    out = capsys.readouterr().out
    assert "balanced_mpi_barrier" in out


def test_list_paradigm_filter(capsys):
    main(["list", "--paradigm", "omp"])
    out = capsys.readouterr().out
    assert "imbalance_at_omp_barrier" in out
    assert "late_sender" not in out


def test_run_property_with_analysis(capsys):
    assert main(["run", "late_sender", "--size", "4"]) == 0
    out = capsys.readouterr().out
    assert "finished in" in out
    assert "late_sender" in out
    assert "ANALYSIS REPORT" in out


def test_run_with_timeline(capsys):
    main(["run", "late_sender", "--size", "4", "--timeline",
          "--no-analyze"])
    out = capsys.readouterr().out
    assert "legend" in out
    assert "ANALYSIS REPORT" not in out


def test_run_unknown_property_exits_cleanly(capsys):
    assert main(["run", "not_a_property"]) == 2
    err = capsys.readouterr().err
    assert "ats: error: unknown property function 'not_a_property'" in err


def test_chain_command(capsys):
    assert main(["chain", "--size", "4", "--no-analyze"]) == 0
    assert "finished in" in capsys.readouterr().out


def test_split_command(capsys):
    assert main(["split", "--size", "8", "--no-analyze"]) == 0
    assert "finished in" in capsys.readouterr().out


def test_generate_command(tmp_path, capsys):
    assert main(["generate", str(tmp_path), "--paradigm", "omp"]) == 0
    out = capsys.readouterr().out
    assert "programs generated" in out
    assert list(tmp_path.glob("test_*.py"))


def test_trace_roundtrip_through_cli(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main([
        "run", "late_broadcast", "--size", "4", "--no-analyze",
        "--trace-out", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["analyze", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "late_broadcast" in out


def test_matrix_command_subset_passes(capsys):
    # full matrix is exercised elsewhere; here just the exit path
    rc = main(["matrix", "--size", "4", "--threads", "2"])
    out = capsys.readouterr().out
    assert "positive detection rate" in out
    assert rc == 0


def test_matrix_reports_quarantined_rows(capsys):
    # every sweep runs supervised, so a hung row's reason is printed
    rc = main([
        "matrix", "--size", "4", "--threads", "2", "--time-budget", "0.05",
    ])
    out = capsys.readouterr().out
    assert "24 quarantined (24 hang)" in out
    assert rc == 1


def test_certify_command(capsys):
    rc = main(["certify", "--size", "4", "--threads", "2"])
    out = capsys.readouterr().out
    assert "CERTIFIED" in out
    assert rc == 0


def test_suites_command(capsys):
    assert main(["suites"]) == 0
    assert "SKaMPI" in capsys.readouterr().out


def test_run_with_tree_prints_hierarchy(capsys):
    assert main(["run", "late_sender", "--size", "4", "--tree"]) == 0
    out = capsys.readouterr().out
    assert "property tree" in out
    assert "p2p_communication" in out


def test_run_metrics_out_stdout(obs_reset, capsys):
    assert main([
        "run", "late_sender", "--size", "4", "--no-analyze",
        "--metrics-out", "-",
    ]) == 0
    out = capsys.readouterr().out
    assert "# HELP ats_sim_dispatches_total" in out
    assert "# TYPE ats_mpi_messages_total counter" in out


def test_run_metrics_out_json_file(obs_reset, tmp_path, capsys):
    dest = tmp_path / "metrics.json"
    assert main([
        "run", "late_sender", "--size", "4", "--no-analyze",
        "--metrics-out", str(dest),
    ]) == 0
    doc = json.loads(dest.read_text())  # auto-detected JSON by suffix
    assert doc["format"] == "ats-metrics"
    names = {m["name"] for m in doc["metrics"]}
    assert "ats_trace_events_total" in names


def test_run_chrome_trace(obs_reset, tmp_path, capsys):
    dest = tmp_path / "chrome.json"
    assert main([
        "run", "late_sender", "--size", "4",
        "--chrome-trace", str(dest),
    ]) == 0
    doc = json.loads(dest.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "X" in phases          # slices on both timelines
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert 0 in pids and 1 in pids  # host track + at least rank 0


def test_metrics_command(obs_reset, capsys):
    assert main(["metrics", "--size", "4", "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "ats_sim_dispatches_total" in out
    assert "ats_analysis_runs_total" in out


def test_metrics_command_json_to_file(obs_reset, tmp_path, capsys):
    dest = tmp_path / "m.json"
    assert main([
        "metrics", "late_broadcast", "--size", "4",
        "--out", str(dest), "--format", "json",
    ]) == 0
    doc = json.loads(dest.read_text())
    assert any(
        m["name"] == "ats_mpi_bytes_total" for m in doc["metrics"]
    )


def test_analyze_profile_flag(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main([
        "run", "late_sender", "--size", "4", "--no-analyze",
        "--trace-out", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["analyze", str(trace), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "incl(s)" in out        # the profile table
    assert "ANALYSIS REPORT" in out


def test_analyze_skip_bad_lines(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main([
        "run", "late_sender", "--size", "4", "--no-analyze",
        "--trace-out", str(trace),
    ]) == 0
    with trace.open("a") as fh:
        fh.write("{not json at all\n")
    capsys.readouterr()
    assert main(["analyze", str(trace)]) == 2
    assert "bad event" in capsys.readouterr().err
    assert main(["analyze", str(trace), "--skip-bad-lines"]) == 0
    captured = capsys.readouterr()
    assert "skipped 1 corrupt trace line" in captured.err
    assert "ANALYSIS REPORT" in captured.out


def test_sweep_command_outputs_csv(capsys):
    assert main([
        "sweep", "late_sender", "--factors", "1,2", "--sizes", "4",
    ]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l]
    assert lines[0].startswith("property,")
    assert len(lines) == 3  # header + 2 factor rows
    assert "sev:late_sender" in lines[0]
