"""CLI service commands: serve wiring, submit, watch (via main(argv))."""

import json

import pytest

from repro.archive import Archive
from repro.cli import main
from repro.core import get_property
from repro.obs import (
    reset_metrics,
    reset_spans,
    set_metrics_enabled,
    set_spans_enabled,
)
from repro.service import AnalysisService, run_service_in_thread


@pytest.fixture
def served(tmp_path):
    """A live service (thread-hosted) with one archived run."""
    set_metrics_enabled(True)
    archive = Archive(tmp_path / "archive")
    run = archive.archive_run(
        get_property("late_sender"), size=4, num_threads=2, seed=1
    )
    service = AnalysisService(archive, max_workers=2)
    handle = run_service_in_thread(service)
    handle.seeded_run = run
    yield handle
    handle.stop(drain=False)
    set_metrics_enabled(False)
    set_spans_enabled(False)
    reset_metrics()
    reset_spans()


def test_submit_run_wait_prints_result(served, capsys):
    code = main([
        "submit", "run", "late_sender", "--size", "4",
        "--threads", "2", "--seed", "5",
        "--server", served.url, "--wait",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == "done"
    assert payload["result"]["program"] == "late_sender"


def test_submit_analyze_then_poll_job(served, capsys):
    assert main([
        "submit", "analyze", served.seeded_run.run_id,
        "--server", served.url,
    ]) == 0
    out = capsys.readouterr().out
    assert "submitted job-" in out
    job_id = out.split("submitted ", 1)[1].split(";", 1)[0].split()[0]
    assert main([
        "submit", "job", job_id, "--server", served.url, "--wait",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == "done"
    assert "late_sender" in payload["result"]["detected"]


def test_submit_history(served, capsys):
    assert main(["submit", "history", "--server", served.url]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["count"] == 1


def test_submit_diff(served, capsys):
    main([
        "submit", "run", "late_sender", "--size", "4",
        "--threads", "2", "--seed", "6",
        "--server", served.url, "--wait",
    ])
    first = json.loads(capsys.readouterr().out)["result"]["run_id"]
    assert main([
        "submit", "diff", served.seeded_run.run_id, first,
        "--server", served.url, "--wait",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["report"]["is_regression"] is False


def test_watch_renders_dashboard_frames(served, capsys):
    assert main([
        "watch", "--server", served.url,
        "--count", "2", "--interval", "0.01", "--plain",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("ats analysis service") == 2
    assert "jobs:" in out


def test_unreachable_server_is_cli_error(capsys):
    code = main([
        "submit", "history",
        "--server", "http://127.0.0.1:1",  # nothing listens here
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "ats: error: cannot reach service" in err


def test_unknown_property_is_clean_error(served, capsys):
    code = main([
        "submit", "run", "not_a_property",
        "--server", served.url, "--wait",
    ])
    assert code == 2
    assert "unknown property function" in capsys.readouterr().err


def test_run_under_min_size_is_clean_error(served, capsys):
    code = main([
        "submit", "run", "late_sender", "--size", "1",
        "--server", served.url, "--wait",
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ats: error:")
    assert "'size'" in err[0]
