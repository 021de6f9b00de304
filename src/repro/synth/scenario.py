"""Synthesized scenarios and their ground-truth manifests.

A :class:`Scenario` is one fully-sampled point of the campaign space:
which property doses (property function + severity band) run, on which
rank half, behind which benign app skeleton, at which size/thread
count, under how much fault-plan noise, with which seed.  Both the
executable program (:meth:`Scenario.build_spec` returns an ordinary
:class:`~repro.core.registry.PropertySpec`) and the machine-checkable
:class:`GroundTruthManifest` are derived from the same frozen sampling
decisions, so the oracle cannot drift from the workload -- the paper's
known-property principle applied generatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..asl.catalog import ANALYZER_PROPERTY_IDS
from ..core.composite import Step
from ..core.registry import GLOBALLY_ALLOWED, PropertySpec, get_property
from ..simmpi.communicator import Communicator
from .spec import BAND_FACTORS, SynthError

#: benign app skeletons (repro.apps) usable as the surrounding program,
#: mapped to the property ids their own communication may legitimately
#: trip at low severity (tolerated, never required)
SKELETONS: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "jacobi": ("late_sender", "late_receiver", "wait_at_nxn"),
    "pipeline": ("late_sender", "late_receiver"),
    "master_worker": ("late_sender", "late_receiver"),
}


def run_skeleton(name: str, comm: Communicator) -> None:
    """Run one benign skeleton phase on the world communicator."""
    if name == "none":
        return
    if name == "jacobi":
        from ..apps import JacobiConfig, jacobi

        jacobi(comm, JacobiConfig(total_cells=256, iterations=2))
    elif name == "pipeline":
        from ..apps import PipelineConfig, pipeline

        pipeline(comm, PipelineConfig(nitems=8, stage_time=0.001))
    elif name == "master_worker":
        from ..apps import FarmConfig, master_worker

        master_worker(
            comm,
            FarmConfig(
                ntasks=2 * comm.size(), task_time=0.001, task_spread=0.0
            ),
        )
    else:  # pragma: no cover - generation validates skeleton names
        raise SynthError(f"unknown skeleton {name!r}")


@dataclass(frozen=True)
class PropertyDose:
    """One property function at one severity band inside a scenario."""

    property: str
    band: str

    def __post_init__(self) -> None:
        if self.band not in BAND_FACTORS:
            raise SynthError(f"unknown severity band {self.band!r}")

    @property
    def factor(self) -> float:
        return BAND_FACTORS[self.band]

    def spec(self) -> PropertySpec:
        return get_property(self.property)

    def to_dict(self) -> dict:
        return {"property": self.property, "band": self.band}

    @classmethod
    def from_dict(cls, d: dict) -> "PropertyDose":
        return cls(property=d["property"], band=d["band"])


@dataclass(frozen=True)
class GroundTruthManifest:
    """Machine-checkable expected findings of one scenario.

    ``locations`` are (analyzer property id, trace region, pathological
    ranks) triples; ``severity_bands`` maps each expected property id
    to the strongest band any dose contributes it at.
    """

    scenario: str
    seed: int
    expected: Tuple[str, ...]
    allowed: Tuple[str, ...]
    severity_bands: Tuple[Tuple[str, str], ...]
    locations: Tuple[Tuple[str, str, Tuple[int, ...]], ...]
    noise_magnitude: float

    def validate(self) -> None:
        """Every id must exist in the ASL analyzer catalog."""
        known = set(ANALYZER_PROPERTY_IDS)
        for pid in (*self.expected, *self.allowed):
            if pid not in known:
                raise SynthError(
                    f"{self.scenario}: manifest property {pid!r} is "
                    "not an analyzer property id"
                )
        banded = {pid for pid, _ in self.severity_bands}
        if banded != set(self.expected):
            raise SynthError(
                f"{self.scenario}: severity bands must cover exactly "
                "the expected properties"
            )
        for band in dict(self.severity_bands).values():
            if band not in BAND_FACTORS:
                raise SynthError(
                    f"{self.scenario}: unknown severity band {band!r}"
                )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "expected": list(self.expected),
            "allowed": list(self.allowed),
            "severity_bands": dict(self.severity_bands),
            "locations": [
                {"property": pid, "region": region, "ranks": list(ranks)}
                for pid, region, ranks in self.locations
            ],
            "noise_magnitude": self.noise_magnitude,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruthManifest":
        return cls(
            scenario=d["scenario"],
            seed=d["seed"],
            expected=tuple(d["expected"]),
            allowed=tuple(d["allowed"]),
            severity_bands=tuple(
                sorted(d.get("severity_bands", {}).items())
            ),
            locations=tuple(
                (loc["property"], loc["region"], tuple(loc["ranks"]))
                for loc in d.get("locations", ())
            ),
            noise_magnitude=d.get("noise_magnitude", 0.0),
        )


@dataclass(frozen=True)
class Scenario:
    """One fully-sampled synthesized program (see module docstring)."""

    campaign: str
    index: int
    doses: Tuple[PropertyDose, ...]
    #: which ranks run the property doses: "all", or the "lower" /
    #: "upper" communicator half (the other half runs benign filler)
    placement: str
    skeleton: str
    size: int
    threads: int
    #: splitmix-derived from the campaign seed and the scenario index
    seed: int
    noise_magnitude: float

    @property
    def name(self) -> str:
        return f"{self.campaign}/{self.index:05d}"

    @property
    def paradigm(self) -> str:
        if (
            self.placement == "all"
            and self.skeleton == "none"
            and self.doses
            and all(d.spec().paradigm == "omp" for d in self.doses)
        ):
            return "omp"
        return "mpi"

    def pathological_ranks(self) -> Tuple[int, ...]:
        if self.paradigm == "omp":
            return (0,)
        if self.placement == "lower":
            return tuple(range(self.size // 2))
        if self.placement == "upper":
            return tuple(range(self.size // 2, self.size))
        return tuple(range(self.size))

    def min_size(self) -> int:
        if self.paradigm == "omp":
            return 1
        floors = [2] + [
            d.spec().min_size
            for d in self.doses
            if d.spec().paradigm != "omp"
        ]
        required = max(floors)
        if self.placement in ("lower", "upper"):
            # Each communicator half must satisfy every step's floor.
            return 2 * required
        return required

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------

    def manifest(self) -> GroundTruthManifest:
        expected: set = set()
        allowed = set(GLOBALLY_ALLOWED) | set(
            SKELETONS.get(self.skeleton, ())
        )
        bands: Dict[str, str] = {}
        locations = []
        ranks = self.pathological_ranks()
        for dose in self.doses:
            spec = dose.spec()
            expected.update(spec.expected)
            allowed.update(spec.allowed)
            for pid in spec.expected:
                held = bands.get(pid)
                if held is None or dose.factor > BAND_FACTORS[held]:
                    bands[pid] = dose.band
            if spec.expected:
                for pid in spec.expected:
                    # Property functions open a trace region named
                    # after themselves; that is the localization truth.
                    locations.append((pid, dose.property, ranks))
        return GroundTruthManifest(
            scenario=self.name,
            seed=self.seed,
            expected=tuple(sorted(expected)),
            allowed=tuple(sorted(allowed - expected)),
            severity_bands=tuple(sorted(bands.items())),
            locations=tuple(sorted(locations)),
            noise_magnitude=self.noise_magnitude,
        )

    # ------------------------------------------------------------------
    # the executable program
    # ------------------------------------------------------------------

    def build_spec(self) -> PropertySpec:
        """The scenario as an ordinary registry-shaped PropertySpec.

        Not registered -- scenario names carry a ``/`` so they can
        never shadow a hand-written program -- but runnable by
        everything that takes a spec (supervised sweeps, the archive,
        the validation harness).
        """
        manifest = self.manifest()
        steps = tuple(
            Step(d.property, params=d.spec().scaled_params(d.factor))
            for d in self.doses
        )
        filler = (Step("balanced_sendrecv"),)
        threads = self.threads
        paradigm = self.paradigm
        if paradigm == "omp":
            def func() -> None:
                for step in steps:
                    step.execute(None, num_threads=threads)
        else:
            placement = self.placement
            skeleton = self.skeleton

            def func(comm: Communicator) -> None:
                run_skeleton(skeleton, comm)
                if placement == "all":
                    for step in steps:
                        step.execute(comm, num_threads=threads)
                    return
                me = comm.rank()
                in_lower = me < comm.size() // 2
                half = comm.split(0 if in_lower else 1)
                mine = (
                    steps
                    if in_lower == (placement == "lower")
                    else filler
                )
                for step in mine:
                    step.execute(half, num_threads=threads)

        doses = ", ".join(f"{d.property}@{d.band}" for d in self.doses)
        return PropertySpec(
            name=self.name,
            func=func,
            paradigm=paradigm,
            expected=manifest.expected,
            allowed=manifest.allowed,
            negative=not manifest.expected,
            description=(
                f"synthesized ({doses or 'clean'}; "
                f"placement={self.placement}, skeleton={self.skeleton})"
            ),
            min_size=self.min_size(),
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "index": self.index,
            "doses": [d.to_dict() for d in self.doses],
            "placement": self.placement,
            "skeleton": self.skeleton,
            "size": self.size,
            "threads": self.threads,
            "seed": self.seed,
            "noise_magnitude": self.noise_magnitude,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            campaign=d["campaign"],
            index=d["index"],
            doses=tuple(
                PropertyDose.from_dict(x) for x in d.get("doses", ())
            ),
            placement=d["placement"],
            skeleton=d["skeleton"],
            size=d["size"],
            threads=d["threads"],
            seed=d["seed"],
            noise_magnitude=d.get("noise_magnitude", 0.0),
        )
