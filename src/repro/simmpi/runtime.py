"""The MPI world runtime: process launch, init/finalize, run results.

``MpiWorld`` plays the role of ``mpiexec`` plus the MPI library
bootstrap: it spawns one simulated process per rank, binds tracing and
per-rank RNG streams, models the ``MPI_Init``/``MPI_Finalize`` costs
(the "High MPI Initialization/Finalization Overhead" the paper observes
in figure 3.2), runs the program and packages the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..simkernel import Simulator, current_process
from ..trace.api import bind_instrumentation, region
from ..trace.events import Event, Location
from ..trace.recorder import TraceRecorder
from ..trace.stats import TraceProfile, profile_trace
from ..trace.timeline import render_timeline
from . import collectives as _coll
from .communicator import Communicator
from .errors import MpiError
from .transport import P2PEngine, TransportParams


@dataclass(frozen=True)
class CollectiveTuning:
    """Which algorithm each tunable collective uses.

    Lets benchmarks ablate implementation choices (the paper's section
    3.3 portability question): e.g. a linear broadcast serializes at
    the root, a binomial one pipelines down a tree -- but the *late
    broadcast* property must be visible under either.
    """

    bcast: str = "binomial"        # "binomial" | "linear"
    reduce: str = "binomial"       # "binomial" | "linear"
    barrier: str = "dissemination"  # "dissemination" | "linear"

    def __post_init__(self) -> None:
        if self.bcast not in ("binomial", "linear"):
            raise ValueError(f"unknown bcast algorithm {self.bcast!r}")
        if self.reduce not in ("binomial", "linear"):
            raise ValueError(f"unknown reduce algorithm {self.reduce!r}")
        if self.barrier not in ("dissemination", "linear"):
            raise ValueError(
                f"unknown barrier algorithm {self.barrier!r}"
            )


class MpiWorld:
    """One simulated MPI execution environment."""

    def __init__(
        self,
        size: int,
        transport: Optional[TransportParams] = None,
        recorder: Optional[TraceRecorder] = None,
        seed: int = 0,
        model_init_overhead: bool = True,
        collectives: Optional[CollectiveTuning] = None,
        faults=None,
    ):
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.transport = transport or TransportParams()
        self.collectives = collectives or CollectiveTuning()
        self.sim = Simulator(seed=seed)
        #: active fault injector (see :mod:`repro.faults`), or None;
        #: shared by the scheduler hook and the transport hook so one
        #: seed tree drives every perturbation domain.
        self.faults = faults
        if faults is not None:
            self.sim.fault_injector = faults
        self.engine = P2PEngine(self.transport, faults=faults)
        self.recorder = recorder
        self.model_init_overhead = model_init_overhead
        self._next_comm_id = 0
        self._comm_id_memo: dict[Any, int] = {}
        self._msg_counter = 0
        self.comm_world = Communicator(
            self,
            tuple(range(size)),
            self._alloc_comm_id(tuple(range(size))),
            "MPI_COMM_WORLD",
        )
        self._launched = False

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------

    def _alloc_comm_id(self, ranks: tuple[int, ...]) -> int:
        comm_id = self._next_comm_id
        self._next_comm_id += 1
        if self.recorder is not None:
            self.recorder.register_comm(comm_id, ranks)
        return comm_id

    def comm_id_for(self, key: Any, ranks: tuple[int, ...]) -> int:
        """Memoized context-id allocation for collective comm creation.

        All members of a new communicator compute the same ``key``
        (parent id, collective instance, color); the first caller
        allocates, the rest look up -- so every member agrees on the
        context id without extra communication.
        """
        if key not in self._comm_id_memo:
            self._comm_id_memo[key] = self._alloc_comm_id(ranks)
        return self._comm_id_memo[key]

    def new_msg_id(self) -> int:
        self._msg_counter += 1
        return self._msg_counter

    # ------------------------------------------------------------------
    # rank lifecycle
    # ------------------------------------------------------------------

    def _mpi_init(self) -> None:
        with region("MPI_Init"):
            if self.model_init_overhead:
                # Per-rank jitter makes init realistic (daemon contact,
                # connection setup) while staying deterministic.
                proc = current_process()
                rng = proc.context["rng"]
                cost = self.transport.init_cost(self.size)
                proc.sim.hold(cost * (0.8 + 0.4 * rng.random()))
                _coll.barrier(
                    self.comm_world, self.comm_world._next_instance()
                )

    def _mpi_finalize(self) -> None:
        with region("MPI_Finalize"):
            if self.model_init_overhead:
                _coll.barrier(
                    self.comm_world, self.comm_world._next_instance()
                )
                proc = current_process()
                rng = proc.context["rng"]
                cost = self.transport.finalize_cost(self.size)
                proc.sim.hold(cost * (0.8 + 0.4 * rng.random()))

    def _rank_body(
        self,
        rank: int,
        main: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> Any:
        proc = current_process()
        proc.context["mpi_rank"] = rank
        proc.context["mpi_world"] = self
        proc.context["rng"] = self.sim.rng.spawn(rank)
        bind_instrumentation(self.recorder, Location(rank, 0))
        self._mpi_init()
        result = main(self.comm_world, *args, **kwargs)
        self._mpi_finalize()
        return result

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------

    def launch(
        self, main: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> None:
        """Spawn one process per rank, each running ``main(comm, ...)``."""
        if self._launched:
            raise MpiError("world already launched")
        self._launched = True
        for rank in range(self.size):
            self.sim.spawn(
                self._rank_body,
                rank,
                main,
                args,
                kwargs,
                name=f"rank{rank}",
            )

    def run(
        self,
        strict: bool = True,
        time_budget: float | None = None,
    ) -> "RunResult":
        """Run to completion and return the packaged result.

        With ``strict`` (default) a program that leaks unmatched
        messages or unbalanced trace regions fails loudly -- the test
        suite should never silently accept a malformed synthetic
        program.  ``time_budget`` arms the kernel watchdog: a program
        still running past that virtual time is torn down with a
        :class:`~repro.simkernel.HangError`.
        """
        final_time = self.sim.run(budget=time_budget)
        leftovers = self.engine.unmatched()
        if strict and (leftovers["sends"] or leftovers["recvs"]):
            raise MpiError(
                "run finished with unmatched messages: "
                + "; ".join(self.engine.unmatched_details())
            )
        if self.recorder is not None:
            self.recorder.finish()
        results = [None] * self.size
        by_name = self.sim.results()
        for rank in range(self.size):
            results[rank] = by_name.get(f"rank{rank}")
        return RunResult(
            size=self.size,
            final_time=final_time,
            results=results,
            recorder=self.recorder,
            transport=self.transport,
            world=self,
        )


@dataclass
class RunResult:
    """Everything a test or analyzer needs from one program run."""

    size: int
    final_time: float
    results: list
    recorder: Optional[TraceRecorder]
    transport: TransportParams
    world: MpiWorld = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def events(self) -> list[Event]:
        return self.recorder.events if self.recorder is not None else []

    def timeline(self, width: int = 100, title: str = "") -> str:
        """ASCII timeline of the run (the Vampir-display stand-in)."""
        return render_timeline(
            self.events, width=width, t_end=self.final_time, title=title
        )

    def profile(self) -> TraceProfile:
        """Region time profile of the run."""
        return profile_trace(self.events)


def run_mpi(
    main: Callable[..., Any],
    size: int = 4,
    *args: Any,
    transport: Optional[TransportParams] = None,
    trace: bool = True,
    intrusion: float = 0.0,
    seed: int = 0,
    model_init_overhead: bool = True,
    strict: bool = True,
    collectives: Optional[CollectiveTuning] = None,
    faults=None,
    time_budget: Optional[float] = None,
    **kwargs: Any,
) -> RunResult:
    """Run ``main(comm, *args, **kwargs)`` on ``size`` simulated ranks.

    The one-call entry point used by examples, tests and the generated
    single-property programs.  ``faults`` accepts a
    :class:`~repro.faults.FaultPlan` (bound to ``seed``) or a prebuilt
    :class:`~repro.faults.FaultInjector`; no-op plans resolve to the
    clean path.  ``time_budget`` caps virtual time (see
    :meth:`MpiWorld.run`).
    """
    from ..faults.inject import FaultInjector

    recorder = (
        TraceRecorder(intrusion_per_event=intrusion) if trace else None
    )
    world = MpiWorld(
        size,
        transport=transport,
        recorder=recorder,
        seed=seed,
        model_init_overhead=model_init_overhead,
        collectives=collectives,
        faults=FaultInjector.coerce(faults, seed=seed),
    )
    world.launch(main, *args, **kwargs)
    return world.run(strict=strict, time_budget=time_budget)
