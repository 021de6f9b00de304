"""CLI tests for ``ats synth`` (in-process via main(argv))."""

import json

import pytest

from repro.cli import main


def _args(sub, name, *extra):
    return [
        "synth", sub, name,
        "--scenarios", "6", "--sizes", "4", "--threads", "2",
        "--seed", "3", *extra,
    ]


def test_synth_generate_prints_table(capsys):
    assert main(_args("generate", "cli-gen")) == 0
    out = capsys.readouterr().out
    assert "cli-gen/00000" in out
    assert "cli-gen/00005" in out


def test_synth_generate_json_artifact(tmp_path, capsys):
    dest = tmp_path / "scenarios.json"
    assert main(_args("generate", "cli-gen", "--json", str(dest))) == 0
    payload = json.loads(dest.read_text())
    assert payload["format"] == "ats-synth-scenarios"
    assert len(payload["scenarios"]) == 6
    for entry in payload["scenarios"]:
        expected_name = f"cli-gen/{entry['index']:05d}"
        assert entry["manifest"]["scenario"] == expected_name


def test_synth_campaign_runs_scores_and_archives(tmp_path, capsys):
    dest = tmp_path / "campaign.json"
    arch = tmp_path / "arch"
    code = main(_args(
        "campaign", "cli-camp",
        "--json", str(dest), "--archive", str(arch),
    ))
    out = capsys.readouterr().out
    assert code == 0
    assert "cli-camp" in out
    assert "recall" in out
    payload = json.loads(dest.read_text())
    assert payload["format"] == "ats-synth-campaign"
    assert len(payload["cells"]) == 6
    assert (arch / "manifest.json").exists() or any(arch.iterdir())


def test_synth_score_reads_campaign_artifact(tmp_path, capsys):
    dest = tmp_path / "campaign.json"
    main(_args("campaign", "cli-camp", "--json", str(dest)))
    capsys.readouterr()
    assert main(["synth", "score", str(dest)]) == 0
    out = capsys.readouterr().out
    assert "cli-camp" in out


def test_synth_campaign_spec_file_round_trip(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "name": "cli-spec", "scenarios": 4, "sizes": [4],
        "threads": 2, "seed": 1,
    }))
    assert main(["synth", "generate", "--spec", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "cli-spec/00000" in out


def test_synth_name_collision_exits_2_with_one_stderr_line(capsys):
    assert main(_args("generate", "late_sender")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ats: error:")
    assert "collides" in err


def test_synth_unknown_property_suggests_alternative(capsys):
    assert main(
        _args("generate", "cli-gen", "--properties", "late_snder")
    ) == 2
    err = capsys.readouterr().err
    assert "late_sender" in err


def test_synth_bad_spec_file_rejected(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["synth", "generate", "--spec", str(missing)]) == 2

    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["synth", "generate", "--spec", str(garbled)]) == 2

    # a mistyped field exits 2 with one error line naming the key
    mistyped = tmp_path / "mistyped.json"
    for spec, key in [
        ({"name": "x", "scenarios": "x"}, "scenarios"),
        ({"name": "x", "sizes": "x"}, "sizes"),
        ({"name": "x", "threads": None}, "threads"),
        ({"name": "x", "bands": 3}, "bands"),
        ({"name": 5}, "name"),
        ({"name": "x", "noise": "x"}, "noise"),
        ({"name": "x", "noise": {"plan": "x"}}, "plan"),
    ]:
        mistyped.write_text(json.dumps(spec))
        capsys.readouterr()
        assert main(["synth", "campaign", "--spec", str(mistyped)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ats: error:") and err.count("\n") == 1
        assert key in err


def test_synth_score_rejects_non_campaign_artifact(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}))
    assert main(["synth", "score", str(other)]) == 2
