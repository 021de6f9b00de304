"""Registry of ATS property functions.

Each :class:`PropertySpec` records everything the test-suite machinery
needs to use a property function without bespoke glue: which paradigm
it belongs to, its default (severity-controlling) parameters, and the
ground truth -- the analyzer property ids the function is *designed* to
exhibit (empty for negative test programs).  The validation harness,
the program generator and the benchmarks all drive off this registry.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..distributions import get_distribution
from ..simmpi.runtime import RunResult, run_mpi
from ..simmpi.transport import TransportParams
from ..simomp.runtime import OmpRunResult, run_omp

#: properties tolerated in any program (framework overhead, paper fig
#: 3.2): every sweep cell's grading adds them to its tolerated set
GLOBALLY_ALLOWED = ("mpi_init_overhead",)


@dataclass(frozen=True)
class DistParam:
    """A distribution-valued parameter: shape name + descriptor values.

    Expands to the ``df``/``dd`` argument pair of a property function,
    and to ``--dist``/value options in generated programs.
    """

    shape: str
    values: Tuple[float, ...]

    def resolve(self):
        spec = get_distribution(self.shape)
        return spec.func, spec.make_descriptor(*self.values)

    def scaled(self, factor: float) -> "DistParam":
        """Scale every descriptor value (severity-parameter sweeps)."""
        return DistParam(self.shape, tuple(v * factor for v in self.values))


ParamValue = Union[int, float, DistParam]


@dataclass(frozen=True)
class PropertySpec:
    """Metadata and launcher for one ATS property function."""

    name: str
    func: Callable[..., None]
    paradigm: str  # "mpi" | "omp" | "hybrid"
    #: analyzer property ids this program is designed to exhibit
    expected: Tuple[str, ...]
    #: additional ids that may legitimately co-occur (e.g. critical
    #: contention also skews the enclosing region's join) -- tolerated
    #: by the validation harness but not required
    allowed: Tuple[str, ...] = ()
    default_params: Dict[str, ParamValue] = field(default_factory=dict)
    negative: bool = False
    description: str = ""
    min_size: int = 2
    #: params whose value scales the property's severity (for sweeps)
    severity_params: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.paradigm not in ("mpi", "omp", "hybrid"):
            raise ValueError(f"bad paradigm {self.paradigm!r}")

    # ------------------------------------------------------------------
    # parameter handling
    # ------------------------------------------------------------------

    def materialize(
        self, overrides: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Merge overrides into defaults and expand DistParams."""
        merged: Dict[str, Any] = dict(self.default_params)
        if overrides:
            unknown = set(overrides) - set(merged) - {"num_threads"}
            if unknown:
                raise KeyError(
                    f"{self.name}: unknown parameter(s) {sorted(unknown)}"
                )
            merged.update(overrides)
        out: Dict[str, Any] = {}
        for key, value in merged.items():
            if isinstance(value, DistParam):
                df, dd = value.resolve()
                out["df"] = df
                out["dd"] = dd
            else:
                out[key] = value
        return out

    def scaled_params(self, factor: float) -> Dict[str, ParamValue]:
        """Defaults with every severity parameter scaled by ``factor``."""
        out = dict(self.default_params)
        for key in self.severity_params:
            value = out[key]
            if isinstance(value, DistParam):
                out[key] = value.scaled(factor)
            else:
                out[key] = value * factor
        return out

    def accepts_num_threads(self) -> bool:
        # Signature introspection is slow (~0.1 ms), so the flag is
        # computed once per spec and kept on the instance, where it
        # dies with the spec: a synthesized cell's closure must not
        # outlive the cell.
        cached = self.__dict__.get("_accepts_threads")
        if cached is None:
            cached = "num_threads" in inspect.signature(self.func).parameters
            object.__setattr__(self, "_accepts_threads", cached)
        return cached

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def check_grid(self, size: int, num_threads: int) -> None:
        """The one size/thread rule; :meth:`run`, CLI and service use it.

        ``size >= 1``, and ``>= min_size`` for MPI and hybrid programs;
        ``num_threads >= 1``.  Raises ValueError otherwise.
        """
        floor = 1 if self.paradigm == "omp" else max(1, self.min_size)
        if size < floor:
            raise ValueError(
                f"'size' must be at least {floor} for {self.name}, "
                f"got {size}"
            )
        if num_threads < 1:
            raise ValueError(
                f"'threads' must be at least 1, got {num_threads}"
            )

    def run(
        self,
        size: int = 8,
        num_threads: int = 4,
        params: Optional[Dict[str, Any]] = None,
        transport: Optional[TransportParams] = None,
        trace: bool = True,
        seed: int = 0,
        model_init_overhead: bool = False,
        faults=None,
        time_budget: Optional[float] = None,
    ) -> Union[RunResult, OmpRunResult]:
        """Run the property function as a standalone program.

        MPI/hybrid specs launch ``size`` simulated ranks; OpenMP specs
        run standalone with ``num_threads``.  Returns the usual run
        result whose trace feeds the analyzer.  ``faults`` takes a
        :class:`~repro.faults.FaultPlan` or
        :class:`~repro.faults.FaultInjector` to run the program under
        injected noise (the robustness harness's pipeline).
        ``time_budget`` arms the kernel watchdog: a program whose
        virtual clock exceeds it is torn down with a
        :class:`~repro.simkernel.HangError` instead of running forever.
        """
        self.check_grid(size, num_threads)
        kwargs = self.materialize(params)
        if self.paradigm == "omp":
            def main() -> None:
                self.func(**kwargs)

            return run_omp(
                main,
                num_threads=num_threads,
                trace=trace,
                seed=seed,
                faults=faults,
                time_budget=time_budget,
            )
        if self.accepts_num_threads():
            kwargs.setdefault("num_threads", num_threads)

        def mpi_main(comm) -> None:
            self.func(**kwargs, comm=comm)

        return run_mpi(
            mpi_main,
            size,
            transport=transport,
            trace=trace,
            seed=seed,
            model_init_overhead=model_init_overhead,
            faults=faults,
            time_budget=time_budget,
        )


_REGISTRY: Dict[str, PropertySpec] = {}


class DuplicatePropertyError(ValueError):
    """A registration would shadow an already-registered program.

    Raised instead of silently replacing the existing spec: lookups by
    name must never be ambiguous between a hand-written program and a
    later (e.g. synthesized) one.  ``existing`` carries the spec that
    holds the name.
    """

    def __init__(self, spec: PropertySpec, existing: PropertySpec):
        super().__init__(
            f"property {spec.name!r} already registered "
            f"({existing.paradigm} program: {existing.description or 'no description'}); "
            "registered names are unique -- pick a distinct name"
        )
        self.spec = spec
        self.existing = existing


def register_property(spec: PropertySpec) -> PropertySpec:
    """Add a spec to the registry; duplicate names are an error."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None:
        raise DuplicatePropertyError(spec, existing)
    _REGISTRY[spec.name] = spec
    return spec


def has_property(name: str) -> bool:
    """True when ``name`` is a registered property program."""
    return name in _REGISTRY


def get_property(name: str) -> PropertySpec:
    """Look up a registered property function by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown property function {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def list_properties(
    paradigm: Optional[str] = None,
    negative: Optional[bool] = None,
) -> list[PropertySpec]:
    """Registered specs, optionally filtered, sorted by name."""
    specs = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if paradigm is not None:
        specs = [s for s in specs if s.paradigm == paradigm]
    if negative is not None:
        specs = [s for s in specs if s.negative == negative]
    return specs


# ----------------------------------------------------------------------
# the built-in catalog
# ----------------------------------------------------------------------

def _populate() -> None:
    from .properties import collective as c
    from .properties import hybrid as h
    from .properties import negative as n
    from .properties import omp as o
    from .properties import p2p as p
    from .properties import sequential as q

    # -- MPI point-to-point (paper 3.1.5) ------------------------------
    register_property(PropertySpec(
        name="late_sender",
        func=p.late_sender,
        paradigm="mpi",
        expected=("late_sender",),
        default_params=dict(basework=0.005, extrawork=0.02, r=3),
        severity_params=("extrawork",),
        description="receiver blocks on a send executed too late",
    ))
    register_property(PropertySpec(
        name="late_receiver",
        func=p.late_receiver,
        paradigm="mpi",
        expected=("late_receiver",),
        default_params=dict(basework=0.005, extrawork=0.02, r=3),
        severity_params=("extrawork",),
        description="rendezvous sender blocks on a receive posted late",
    ))
    register_property(PropertySpec(
        name="messages_in_wrong_order",
        func=p.messages_in_wrong_order,
        paradigm="mpi",
        expected=("late_sender", "messages_in_wrong_order"),
        default_params=dict(basework=0.002, msgwork=0.004, nmsg=4, r=2),
        severity_params=("msgwork",),
        description="receives posted against the send order",
    ))
    register_property(PropertySpec(
        name="late_sender_bottleneck",
        func=p.late_sender_bottleneck,
        paradigm="mpi",
        expected=("late_sender",),
        default_params=dict(basework=0.002, extrawork=0.01, r=3),
        severity_params=("extrawork",),
        description="wildcard receiver drained by many late senders",
    ))

    # -- MPI collectives (paper 3.1.5) ---------------------------------
    register_property(PropertySpec(
        name="imbalance_at_mpi_barrier",
        func=c.imbalance_at_mpi_barrier,
        paradigm="mpi",
        expected=("wait_at_barrier",),
        default_params=dict(dist=DistParam("block2", (0.005, 0.025)), r=3),
        severity_params=("dist",),
        description="uneven work before MPI_Barrier",
    ))
    register_property(PropertySpec(
        name="growing_imbalance_at_mpi_barrier",
        func=c.growing_imbalance_at_mpi_barrier,
        paradigm="mpi",
        expected=("wait_at_barrier",),
        default_params=dict(dist=DistParam("block2", (0.005, 0.03)), r=4),
        severity_params=("dist",),
        description="barrier imbalance growing with the iteration "
        "number (paper 3.1.5 closing remark)",
    ))
    register_property(PropertySpec(
        name="imbalance_at_mpi_alltoall",
        func=c.imbalance_at_mpi_alltoall,
        paradigm="mpi",
        expected=("wait_at_nxn",),
        default_params=dict(dist=DistParam("block2", (0.005, 0.025)), r=3),
        severity_params=("dist",),
        description="uneven work before MPI_Alltoall",
    ))
    register_property(PropertySpec(
        name="imbalance_at_mpi_allreduce",
        func=c.imbalance_at_mpi_allreduce,
        paradigm="mpi",
        expected=("wait_at_nxn",),
        default_params=dict(dist=DistParam("linear", (0.005, 0.025)), r=3),
        severity_params=("dist",),
        description="uneven work before MPI_Allreduce",
    ))
    register_property(PropertySpec(
        name="imbalance_at_mpi_allgather",
        func=c.imbalance_at_mpi_allgather,
        paradigm="mpi",
        expected=("wait_at_nxn",),
        default_params=dict(dist=DistParam("peak", (0.005, 0.03, 0)), r=3),
        severity_params=("dist",),
        description="uneven work before MPI_Allgather",
    ))
    register_property(PropertySpec(
        name="imbalance_at_mpi_reduce_scatter",
        func=c.imbalance_at_mpi_reduce_scatter,
        paradigm="mpi",
        expected=("wait_at_nxn",),
        default_params=dict(dist=DistParam("cyclic3",
                                           (0.005, 0.025, 0.015)), r=3),
        severity_params=("dist",),
        description="uneven work before MPI_Reduce_scatter",
    ))
    register_property(PropertySpec(
        name="late_broadcast",
        func=c.late_broadcast,
        paradigm="mpi",
        expected=("late_broadcast",),
        default_params=dict(
            basework=0.005, rootextrawork=0.02, root=1, r=3
        ),
        severity_params=("rootextrawork",),
        description="broadcast root enters late; non-roots wait",
    ))
    register_property(PropertySpec(
        name="late_scatter",
        func=c.late_scatter,
        paradigm="mpi",
        expected=("late_scatter",),
        default_params=dict(
            basework=0.005, rootextrawork=0.02, root=0, r=3
        ),
        severity_params=("rootextrawork",),
        description="scatter root enters late; receivers wait",
    ))
    register_property(PropertySpec(
        name="late_scatterv",
        func=c.late_scatterv,
        paradigm="mpi",
        expected=("late_scatterv",),
        default_params=dict(
            basework=0.005, rootextrawork=0.02, root=0, r=3
        ),
        severity_params=("rootextrawork",),
        description="irregular scatter root enters late",
    ))
    register_property(PropertySpec(
        name="early_reduce",
        func=c.early_reduce,
        paradigm="mpi",
        expected=("early_reduce",),
        default_params=dict(
            rootwork=0.005, baseextrawork=0.02, root=0, r=3
        ),
        severity_params=("baseextrawork",),
        description="reduce root enters early and waits for data",
    ))
    register_property(PropertySpec(
        name="early_gather",
        func=c.early_gather,
        paradigm="mpi",
        expected=("early_gather",),
        default_params=dict(
            rootwork=0.005, baseextrawork=0.02, root=0, r=3
        ),
        severity_params=("baseextrawork",),
        description="gather root enters early and waits for data",
    ))
    register_property(PropertySpec(
        name="early_gatherv",
        func=c.early_gatherv,
        paradigm="mpi",
        expected=("early_gatherv",),
        default_params=dict(
            rootwork=0.005, baseextrawork=0.02, root=0, r=3
        ),
        severity_params=("baseextrawork",),
        description="irregular gather root enters early",
    ))

    # -- OpenMP (paper 3.1.5) -------------------------------------------
    register_property(PropertySpec(
        name="imbalance_in_omp_pregion",
        func=o.imbalance_in_omp_pregion,
        paradigm="omp",
        expected=("imbalance_in_omp_pregion",),
        default_params=dict(dist=DistParam("linear", (0.002, 0.02)), r=3),
        severity_params=("dist",),
        min_size=1,
        description="uneven thread work in a parallel region",
    ))
    register_property(PropertySpec(
        name="imbalance_at_omp_barrier",
        func=o.imbalance_at_omp_barrier,
        paradigm="omp",
        expected=("imbalance_at_omp_barrier",),
        default_params=dict(dist=DistParam("block2", (0.002, 0.02)), r=3),
        severity_params=("dist",),
        min_size=1,
        description="the paper's worked example (section 3.1.5)",
    ))
    register_property(PropertySpec(
        name="imbalance_in_omp_loop",
        func=o.imbalance_in_omp_loop,
        paradigm="omp",
        expected=("imbalance_in_omp_loop",),
        default_params=dict(
            dist=DistParam("cyclic2", (0.002, 0.02)),
            r=3,
            iterations_per_thread=1,
        ),
        severity_params=("dist",),
        min_size=1,
        description="statically scheduled loop with uneven iterations",
    ))
    register_property(PropertySpec(
        name="imbalance_in_omp_sections",
        func=o.imbalance_in_omp_sections,
        paradigm="omp",
        expected=("imbalance_in_omp_sections",),
        default_params=dict(
            dist=DistParam("linear", (0.001, 0.02)), nsections=8, r=2
        ),
        severity_params=("dist",),
        min_size=1,
        description="sections of widely different cost",
    ))
    register_property(PropertySpec(
        name="nested_omp_imbalance",
        func=o.nested_omp_imbalance,
        paradigm="omp",
        expected=("imbalance_in_omp_pregion",),
        default_params=dict(
            dist=DistParam("linear", (0.002, 0.015)), r=2,
            outer_threads=2,
        ),
        severity_params=("dist",),
        min_size=1,
        description="nested thread teams with uneven inner work "
        "(paper 3.3 nesting scenario)",
    ))
    register_property(PropertySpec(
        name="omp_critical_contention",
        func=o.omp_critical_contention,
        paradigm="omp",
        expected=("omp_critical_contention",),
        # serialization also staggers thread finish times, so the
        # region join legitimately shows imbalance as well
        allowed=("imbalance_in_omp_pregion",),
        default_params=dict(inside_work=0.004, outside_work=0.004, r=4),
        severity_params=("inside_work",),
        min_size=1,
        description="serialized work inside a critical section",
    ))

    register_property(PropertySpec(
        name="imbalance_at_omp_single",
        func=q.imbalance_at_omp_single,
        paradigm="omp",
        expected=("imbalance_at_omp_single",),
        default_params=dict(singlework=0.02, r=3),
        severity_params=("singlework",),
        min_size=1,
        description="one thread works in single; the team waits",
    ))
    register_property(PropertySpec(
        name="imbalance_at_omp_reduce",
        func=q.imbalance_at_omp_reduce,
        paradigm="omp",
        expected=("imbalance_at_omp_reduce",),
        default_params=dict(basework=0.003, extrawork=0.015, r=3),
        severity_params=("extrawork",),
        min_size=1,
        description="uneven arrival at a team reduction",
    ))

    # -- sequential (paper future-work item) ------------------------------
    register_property(PropertySpec(
        name="io_bound_phases",
        func=q.io_bound_phases,
        paradigm="omp",  # runs standalone on the master process
        expected=("io_bound",),
        default_params=dict(iotime=0.02, cputime=0.005, r=4),
        severity_params=("iotime",),
        min_size=1,
        description="alternating I/O and compute, I/O dominating",
    ))

    # -- hybrid (paper 3.3) ---------------------------------------------
    register_property(PropertySpec(
        name="hybrid_imbalance_then_barrier",
        func=h.hybrid_imbalance_then_barrier,
        paradigm="hybrid",
        expected=("imbalance_in_omp_pregion", "wait_at_barrier"),
        default_params=dict(dist=DistParam("linear", (0.002, 0.01)), r=3),
        severity_params=("dist",),
        description="OpenMP imbalance compounding into MPI barrier waits",
    ))
    register_property(PropertySpec(
        name="hybrid_late_sender_omp_work",
        func=h.hybrid_late_sender_omp_work,
        paradigm="hybrid",
        expected=("late_sender",),
        default_params=dict(basework=0.004, extrawork=0.015, r=3),
        severity_params=("extrawork",),
        description="late sender whose delay is an OpenMP region",
    ))
    register_property(PropertySpec(
        name="hybrid_alternating_paradigms",
        func=h.hybrid_alternating_paradigms,
        paradigm="hybrid",
        expected=("imbalance_in_omp_pregion", "late_sender"),
        default_params=dict(basework=0.003, extrawork=0.012, r=3),
        severity_params=("extrawork",),
        description="interleaved OpenMP and MPI pathologies",
    ))

    # -- negative programs (well-tuned) ----------------------------------
    register_property(PropertySpec(
        name="balanced_mpi_barrier",
        func=n.balanced_mpi_barrier,
        paradigm="mpi",
        expected=(),
        negative=True,
        default_params=dict(work=0.01, r=3),
        description="balanced work before barriers",
    ))
    register_property(PropertySpec(
        name="balanced_sendrecv",
        func=n.balanced_sendrecv,
        paradigm="mpi",
        expected=(),
        negative=True,
        default_params=dict(work=0.01, r=3),
        description="balanced even-odd message exchange",
    ))
    register_property(PropertySpec(
        name="balanced_shift_ring",
        func=n.balanced_shift_ring,
        paradigm="mpi",
        expected=(),
        negative=True,
        default_params=dict(work=0.01, r=3),
        description="balanced cyclic shift",
    ))
    register_property(PropertySpec(
        name="balanced_collectives",
        func=n.balanced_collectives,
        paradigm="mpi",
        expected=(),
        negative=True,
        default_params=dict(work=0.008, r=2),
        description="balanced bcast/allreduce/alltoall mix",
    ))
    register_property(PropertySpec(
        name="balanced_omp_region",
        func=n.balanced_omp_region,
        paradigm="omp",
        expected=(),
        negative=True,
        default_params=dict(work=0.01, r=3),
        min_size=1,
        description="balanced parallel regions",
    ))
    register_property(PropertySpec(
        name="balanced_omp_barrier_loop",
        func=n.balanced_omp_barrier_loop,
        paradigm="omp",
        expected=(),
        negative=True,
        default_params=dict(work=0.01, r=3),
        min_size=1,
        description="balanced explicit-barrier loop",
    ))
    register_property(PropertySpec(
        name="balanced_omp_loop",
        func=n.balanced_omp_loop,
        paradigm="omp",
        expected=(),
        negative=True,
        default_params=dict(work=0.004, iterations_per_thread=3, r=2),
        min_size=1,
        description="balanced static worksharing loop",
    ))


_populate()
