"""Robustness harness: magnitude-0 parity, determinism, curve math."""

import json

import pytest

from repro.cli import main
from repro.core.registry import get_property
from repro.faults import FaultPlan, TimingJitter
from repro.validation import (
    default_tool,
    run_robustness,
    validate_spec,
)

SPECS = [get_property(n) for n in ("late_sender", "balanced_sendrecv")]


@pytest.fixture(scope="module")
def sweep():
    return run_robustness(
        specs=SPECS,
        magnitudes=(0.0, 0.5, 1.0),
        seeds=(0, 1),
        size=6,
        num_threads=2,
    )


def test_magnitude_zero_matches_clean_matrix(sweep):
    tool = default_tool()
    for spec in SPECS:
        for seed in (0, 1):
            clean = validate_spec(
                spec, tool=tool, size=6, num_threads=2, seed=seed
            )
            cell = next(
                c
                for c in sweep.cells
                if c.program == spec.name
                and c.magnitude == 0.0
                and c.seed == seed
            )
            assert cell.detected == tuple(clean.detected)
            assert cell.error is None


def test_sweep_is_deterministic(sweep):
    again = run_robustness(
        specs=SPECS,
        magnitudes=(0.0, 0.5, 1.0),
        seeds=(0, 1),
        size=6,
        num_threads=2,
    )
    assert sweep.to_json_str() == again.to_json_str()


def test_curves_cover_grid_and_rates_are_sane(sweep):
    curves = sweep.curves()
    assert "late_sender" in curves
    for points in curves.values():
        assert [p.magnitude for p in points] == [0.0, 0.5, 1.0]
        for p in points:
            if p.true_positive_rate is not None:
                assert 0.0 <= p.true_positive_rate <= 1.0
            if p.false_positive_rate is not None:
                assert 0.0 <= p.false_positive_rate <= 1.0
    # the positive program is detected on the clean anchor point
    anchor = curves["late_sender"][0]
    assert anchor.true_positive_rate == 1.0


def test_json_shape(sweep):
    d = sweep.to_json_dict()
    assert d["format"] == "ats-robustness"
    assert d["magnitudes"] == [0.0, 0.5, 1.0]
    assert set(d["programs"]) == {s.name for s in SPECS}
    assert len(d["cells"]) == len(SPECS) * 3 * 2
    for points in d["curves"].values():
        assert len(points) == 3


def test_table_mentions_every_property(sweep):
    table = sweep.format_table()
    for prop in sweep.properties():
        assert prop in table


def test_custom_plan_and_validation():
    result = run_robustness(
        specs=[SPECS[0]],
        magnitudes=(0.0, 1.0),
        seeds=(0,),
        plan=FaultPlan.of(TimingJitter(0.3)),
        size=4,
        num_threads=2,
    )
    assert len(result.cells) == 2
    assert all(c.error is None for c in result.cells)
    with pytest.raises(ValueError):
        run_robustness(specs=SPECS, magnitudes=())
    with pytest.raises(ValueError):
        run_robustness(specs=SPECS, seeds=())


def test_header_cut_sweep_is_byte_identical(tmp_path, capsys):
    # Magnitude 20 scales the default plan's truncation to its cap, so
    # the cut lands inside the header line.  The cell must salvage to
    # no events rather than fail with the sweep's random temp path in
    # its error text, which made two identical sweeps differ.
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main([
            "robustness", "--program", "late_sender",
            "--magnitudes", "0,20", "--seeds", "1", "--size", "4",
            "--threads", "2", "--json", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    cut = json.loads(outs[0])["cells"][1]
    assert cut["magnitude"] == 20
    assert cut["error"] is None
    assert cut["salvaged"] is True
    assert cut["events"] == 0
