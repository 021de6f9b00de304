"""Declarative campaign specs for the scenario synthesis engine.

A :class:`CampaignSpec` is the whole experiment in one (JSON-safe)
value: which property pool to sample, how severe, where the pathology
lands (rank placement), which benign app skeleton surrounds it, under
how much injected noise, and with which sampling strategy -- grid,
random, or adversarial.  Everything downstream (scenario generation,
execution, archiving, scoring) is a pure function of the spec and its
seed, which is what makes synthesized ground truth trustworthy: the
manifest and the program are derived from the *same* sampling
decisions, so the oracle cannot drift from the workload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Tuple

from ..core.registry import has_property
from ..faults import FaultPlan

#: severity bands and the scale factor applied to a property's
#: severity parameters (via PropertySpec.scaled_params)
BAND_FACTORS = {"low": 0.6, "medium": 1.0, "high": 1.8}
BANDS: Tuple[str, ...] = ("low", "medium", "high")
STRATEGIES: Tuple[str, ...] = ("grid", "random", "adversarial")
GENERATORS: Tuple[str, ...] = ("mix",)
PLACEMENTS: Tuple[str, ...] = ("all", "lower", "upper")

#: campaign names may not contain "/" (reserved for scenario names) or
#: "|" (reserved for checkpoint cell keys)
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


class SynthError(ValueError):
    """An invalid campaign spec or synthesis request."""


#: JSON type checks for spec values read by ``from_dict`` (a JSON
#: ``true`` is not a number here, although ``bool`` subclasses ``int``)
_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
}


def _read(where: str, key: str, value, kind: str, many: bool = False):
    """``value`` checked against ``kind``; lists come back as tuples."""
    ok = _JSON_KINDS[kind]
    if many:
        if isinstance(value, (list, tuple)) and all(map(ok, value)):
            return tuple(value)
        kind = f"a list of {kind.split(' ', 1)[1]}s"
    elif ok(value):
        return value
    raise SynthError(f"{where} {key!r} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Fault-plan noise applied to synthesized scenarios.

    ``magnitudes`` is the pool of plan scale factors scenarios sample
    from; the default is noiseless (a single 0.0 entry, which
    :meth:`~repro.faults.FaultInjector.coerce` resolves to the exact
    clean path).
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    magnitudes: Tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not self.magnitudes:
            raise SynthError("noise config needs at least one magnitude")
        for m in self.magnitudes:
            if m < 0:
                raise SynthError(f"negative noise magnitude {m!r}")

    @classmethod
    def default(cls) -> "NoiseConfig":
        """The robustness sweep's default plan at three magnitudes."""
        return cls(plan=FaultPlan.default(), magnitudes=(0.0, 0.35, 0.7))

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "magnitudes": list(self.magnitudes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseConfig":
        if not isinstance(d, dict):
            raise SynthError(
                f"campaign spec 'noise' must be an object, got {d!r}"
            )
        plan = d.get("plan", {})
        if not isinstance(plan, dict):
            raise SynthError(f"noise 'plan' must be an object, got {plan!r}")
        try:
            plan = FaultPlan.from_dict(plan)
        except (KeyError, TypeError, ValueError) as exc:
            raise SynthError(f"bad noise 'plan': {exc!r}") from None
        magnitudes = _read(
            "noise", "magnitudes", d.get("magnitudes", (0.0,)),
            "a number", many=True,
        )
        return cls(plan=plan, magnitudes=magnitudes)


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative synthesis campaign (see module docstring)."""

    name: str
    generator: str = "mix"
    strategy: str = "grid"
    #: number of base scenarios (adversarial rounds add more on top)
    scenarios: int = 100
    #: property pool to sample doses from; empty = every registered
    #: program (positives and negatives -- negatives yield clean cells)
    properties: Tuple[str, ...] = ()
    #: benign app skeletons run before the property phase
    skeletons: Tuple[str, ...] = ("none",)
    sizes: Tuple[int, ...] = (4,)
    threads: int = 2
    bands: Tuple[str, ...] = BANDS
    placements: Tuple[str, ...] = PLACEMENTS
    #: maximum property doses mixed into one scenario
    max_properties: int = 2
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    #: abort the campaign after this many errored cells (-1: unlimited)
    max_failures: int = -1
    #: supervisor retries per cell (consumed by the CLI/service layer)
    max_retries: int = 0
    seed: int = 0
    #: adversarial strategy: how many refinement rounds, and how many
    #: top-disagreement cells each round perturbs
    adversarial_rounds: int = 2
    adversarial_top: int = 4

    def __post_init__(self) -> None:
        if not self.name or not _NAME_RE.fullmatch(self.name):
            raise SynthError(
                f"bad campaign name {self.name!r} "
                "(letters, digits, '_', '.', '-' only)"
            )
        if has_property(self.name):
            # A synthesized scenario family must never shadow a
            # hand-written registry program: lookups and archive
            # records key on the name.
            raise SynthError(
                f"campaign name {self.name!r} collides with a "
                "registered property program; pick a distinct name"
            )
        if self.generator not in GENERATORS:
            raise SynthError(
                f"unknown generator {self.generator!r} "
                f"(choose from {', '.join(GENERATORS)})"
            )
        if self.strategy not in STRATEGIES:
            raise SynthError(
                f"unknown strategy {self.strategy!r} "
                f"(choose from {', '.join(STRATEGIES)})"
            )
        if self.scenarios < 1:
            raise SynthError("scenarios must be >= 1")
        if self.max_properties < 1:
            raise SynthError("max_properties must be >= 1")
        if self.threads < 1:
            raise SynthError("threads must be >= 1")
        if self.max_retries < 0:
            raise SynthError("max_retries must be >= 0")
        if self.adversarial_rounds < 0 or self.adversarial_top < 1:
            raise SynthError("bad adversarial configuration")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise SynthError("sizes must be a non-empty tuple of >= 1")
        if not self.bands:
            raise SynthError("need at least one severity band")
        for band in self.bands:
            if band not in BAND_FACTORS:
                raise SynthError(
                    f"unknown severity band {band!r} "
                    f"(choose from {', '.join(BANDS)})"
                )
        if not self.placements:
            raise SynthError("need at least one placement")
        for placement in self.placements:
            if placement not in PLACEMENTS:
                raise SynthError(
                    f"unknown placement {placement!r} "
                    f"(choose from {', '.join(PLACEMENTS)})"
                )
        if not self.skeletons:
            raise SynthError("need at least one skeleton")

    def scenario_name(self, index: int) -> str:
        return f"{self.name}/{index:05d}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "generator": self.generator,
            "strategy": self.strategy,
            "scenarios": self.scenarios,
            "properties": list(self.properties),
            "skeletons": list(self.skeletons),
            "sizes": list(self.sizes),
            "threads": self.threads,
            "bands": list(self.bands),
            "placements": list(self.placements),
            "max_properties": self.max_properties,
            "noise": self.noise.to_dict(),
            "max_failures": self.max_failures,
            "max_retries": self.max_retries,
            "seed": self.seed,
            "adversarial_rounds": self.adversarial_rounds,
            "adversarial_top": self.adversarial_top,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        if not isinstance(d, dict):
            raise SynthError(f"campaign spec must be an object, got {d!r}")
        if "name" not in d:
            raise SynthError("campaign spec needs a 'name'")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise SynthError(
                f"unknown campaign spec key(s): {sorted(unknown)}"
            )
        kwargs = {}
        for key, value in d.items():
            if key == "noise":
                kwargs[key] = NoiseConfig.from_dict(value)
            else:
                kind, many = _SPEC_KEYS[key]
                kwargs[key] = _read(
                    "campaign spec", key, value, kind, many
                )
        return cls(**kwargs)


#: the JSON type of every campaign-spec key but ``noise``, and whether
#: it holds a list of that type
_SPEC_KEYS = {
    "name": ("a string", False),
    "generator": ("a string", False),
    "strategy": ("a string", False),
    "scenarios": ("an integer", False),
    "properties": ("a string", True),
    "skeletons": ("a string", True),
    "sizes": ("an integer", True),
    "threads": ("an integer", False),
    "bands": ("a string", True),
    "placements": ("a string", True),
    "max_properties": ("an integer", False),
    "max_failures": ("an integer", False),
    "max_retries": ("an integer", False),
    "seed": ("an integer", False),
    "adversarial_rounds": ("an integer", False),
    "adversarial_top": ("an integer", False),
}
