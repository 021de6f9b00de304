"""User-region API tests."""

import pytest

from repro.simkernel import HangError, Simulator, current_process
from repro.simmpi import MPI_INT, alloc_mpi_buf, run_mpi
from repro.simomp import omp_get_thread_num, omp_parallel, run_omp
from repro.trace import (
    Location,
    TraceRecorder,
    bind_instrumentation,
    current_instrumentation,
    region,
)
from repro.work import do_work


def test_current_instrumentation_outside_process():
    rec, loc = current_instrumentation()
    assert rec is None
    assert loc == Location(0, 0)


def test_region_without_recorder_is_noop():
    sim = Simulator()

    def body():
        with region("anything"):
            do_work(0.1)

    sim.spawn(body)
    assert sim.run() == pytest.approx(0.1)


def test_region_records_and_nests():
    rec = TraceRecorder()
    sim = Simulator()

    def body():
        bind_instrumentation(rec, Location(3, 1))
        with region("outer"):
            with region("inner"):
                do_work(0.5)

    sim.spawn(body)
    sim.run()
    regions = [(e.kind, e.region) for e in rec.events]
    assert regions == [
        ("enter", "outer"),
        ("enter", "inner"),
        ("enter", "work"),
        ("exit", "work"),
        ("exit", "inner"),
        ("exit", "outer"),
    ]
    assert all(e.loc == Location(3, 1) for e in rec.events)


def test_region_intrusion_costs_virtual_time():
    rec = TraceRecorder(intrusion_per_event=0.01)
    sim = Simulator()

    def body():
        bind_instrumentation(rec, Location(0, 0))
        with region("r"):
            pass

    sim.spawn(body)
    # enter + exit each cost one intrusion unit
    assert sim.run() == pytest.approx(0.02)


def test_region_closes_on_exception():
    rec = TraceRecorder()
    sim = Simulator()

    def body():
        bind_instrumentation(rec, Location(0, 0))
        try:
            with region("r"):
                raise ValueError("inside")
        except ValueError:
            pass

    sim.spawn(body)
    sim.run()
    rec.finish()  # balanced despite the exception
    assert [e.kind for e in rec.events] == ["enter", "exit"]


def test_runtime_regions_charge_the_intrusion_cost():
    # Runtime regions cost what user regions cost: one intrusion unit
    # on enter and one on exit.  An empty 2-thread parallel region is
    # omp_parallel around its implicit barrier, and an empty MPI
    # program is MPI_Init then MPI_Finalize: four region events on
    # every path, and nothing else costs virtual time.
    cost = 1e-3
    omp = run_omp(
        lambda: omp_parallel(lambda: None, num_threads=2), intrusion=cost
    )
    assert omp.final_time == pytest.approx(4 * cost)
    mpi = run_mpi(
        lambda comm: None, 2, intrusion=cost, model_init_overhead=False
    )
    assert mpi.final_time == pytest.approx(4 * cost)


def test_budget_kill_inside_runtime_regions_under_intrusion():
    # The watchdog tears rank 1 down inside MPI_Recv and the team
    # threads inside their barrier region; region() skips the exit
    # record and the intrusion hold while a process is being torn
    # down, so the kill completes and the next run still works.
    def mpi_main(comm):
        buf = alloc_mpi_buf(MPI_INT, 1)
        if comm.rank() == 0:
            while True:
                current_process().sim.hold(0.01)
        comm.recv(buf, source=0)

    def omp_body():
        while omp_get_thread_num() == 0:
            current_process().sim.hold(0.01)

    with pytest.raises(HangError):
        run_mpi(
            mpi_main, 2, intrusion=1e-3, model_init_overhead=False,
            time_budget=0.05,
        )
    with pytest.raises(HangError):
        run_omp(
            lambda: omp_parallel(omp_body, num_threads=2),
            intrusion=1e-3, time_budget=0.05,
        )
    # run() raises on unbalanced regions, so returning is the check
    assert run_mpi(lambda comm: comm.barrier(), 2, intrusion=1e-3).events
