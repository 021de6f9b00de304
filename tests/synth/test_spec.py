"""CampaignSpec validation and (hypothesis) round-trip invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.synth import (
    BANDS,
    PLACEMENTS,
    STRATEGIES,
    CampaignSpec,
    NoiseConfig,
    SynthError,
)

# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_name_collision_with_registered_program_rejected():
    with pytest.raises(SynthError, match="collides"):
        CampaignSpec(name="late_sender")


def test_bad_names_rejected():
    for bad in ("", "a/b", "a|b", "a b", "/x"):
        with pytest.raises(SynthError):
            CampaignSpec(name=bad)


def test_bad_strategy_generator_band_placement_rejected():
    with pytest.raises(SynthError, match="strategy"):
        CampaignSpec(name="c1", strategy="exhaustive")
    with pytest.raises(SynthError, match="generator"):
        CampaignSpec(name="c1", generator="llm")
    with pytest.raises(SynthError, match="band"):
        CampaignSpec(name="c1", bands=("extreme",))
    with pytest.raises(SynthError, match="placement"):
        CampaignSpec(name="c1", placements=("middle",))


def test_bad_counts_rejected():
    with pytest.raises(SynthError):
        CampaignSpec(name="c1", scenarios=0)
    with pytest.raises(SynthError):
        CampaignSpec(name="c1", max_properties=0)
    with pytest.raises(SynthError):
        CampaignSpec(name="c1", sizes=())
    with pytest.raises(SynthError):
        CampaignSpec(name="c1", noise=NoiseConfig(magnitudes=()))


def test_from_dict_requires_name_and_rejects_unknown_keys():
    with pytest.raises(SynthError, match="name"):
        CampaignSpec.from_dict({})
    with pytest.raises(SynthError, match="unknown"):
        CampaignSpec.from_dict({"name": "c1", "surprise": 1})
    # a mistyped field is a SynthError naming its key, never a raw
    # TypeError or AttributeError from deeper validation
    for spec, key in [
        ({"name": "x", "scenarios": "x"}, "scenarios"),
        ({"name": "x", "sizes": "x"}, "sizes"),
        ({"name": "x", "threads": None}, "threads"),
        ({"name": "x", "bands": 3}, "bands"),
        ({"name": 5}, "name"),
        ({"name": "x", "noise": "x"}, "noise"),
        ({"name": "x", "noise": {"plan": "x"}}, "plan"),
    ]:
        with pytest.raises(SynthError, match=key):
            CampaignSpec.from_dict(spec)


def test_scenario_names_carry_campaign_prefix():
    spec = CampaignSpec(name="c1")
    assert spec.scenario_name(7) == "c1/00007"


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------

_spec_strategy = st.builds(
    CampaignSpec,
    name=st.from_regex(r"[a-z][a-z0-9_-]{0,12}", fullmatch=True),
    strategy=st.sampled_from(STRATEGIES),
    scenarios=st.integers(min_value=1, max_value=500),
    skeletons=st.lists(
        st.sampled_from(("none", "jacobi", "pipeline")),
        min_size=1, max_size=2, unique=True,
    ).map(tuple),
    sizes=st.lists(
        st.integers(min_value=2, max_value=16),
        min_size=1, max_size=3, unique=True,
    ).map(tuple),
    threads=st.integers(min_value=1, max_value=4),
    bands=st.lists(
        st.sampled_from(BANDS), min_size=1, max_size=3, unique=True
    ).map(tuple),
    placements=st.lists(
        st.sampled_from(PLACEMENTS), min_size=1, max_size=3, unique=True
    ).map(tuple),
    max_properties=st.integers(min_value=1, max_value=3),
    noise=st.builds(
        NoiseConfig,
        plan=st.sampled_from((FaultPlan(), FaultPlan.default())),
        magnitudes=st.lists(
            st.floats(
                min_value=0.0, max_value=2.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=3,
        ).map(tuple),
    ),
    max_failures=st.integers(min_value=-1, max_value=10),
    max_retries=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**63),
    adversarial_rounds=st.integers(min_value=0, max_value=3),
    adversarial_top=st.integers(min_value=1, max_value=5),
)


@settings(max_examples=60, deadline=None)
@given(spec=_spec_strategy)
def test_campaign_spec_round_trips(spec):
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.to_dict() == spec.to_dict()


@settings(max_examples=30, deadline=None)
@given(spec=_spec_strategy)
def test_campaign_spec_dict_is_json_safe(spec):
    import json

    assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()
