"""Unit tests for kernel synchronization primitives."""

import pytest

from repro.simkernel import (
    SimBarrier,
    SimError,
    SimMutex,
    SimulationCrashed,
    Simulator,
    hold,
    now,
)


def test_mutex_mutual_exclusion_and_fifo():
    sim = Simulator()
    mtx = SimMutex()
    order = []

    def worker(tag):
        with mtx:
            order.append((tag, now()))
            hold(1.0)

    for tag in ("a", "b", "c"):
        sim.spawn(worker, tag)
    sim.run()
    assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]


def test_mutex_release_by_non_owner_is_error():
    sim = Simulator()
    mtx = SimMutex()

    def owner():
        mtx.acquire()
        hold(10.0)
        mtx.release()

    def thief():
        hold(1.0)
        mtx.release()

    sim.spawn(owner)
    sim.spawn(thief)
    with pytest.raises(SimulationCrashed) as info:
        sim.run()
    assert isinstance(info.value.original, SimError)


def test_mutex_not_reentrant():
    sim = Simulator()
    mtx = SimMutex()

    def body():
        mtx.acquire()
        mtx.acquire()

    sim.spawn(body)
    with pytest.raises(SimulationCrashed):
        sim.run()


def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    bar = SimBarrier(3)
    log = []

    def worker(dt):
        hold(dt)
        bar.wait()
        log.append((dt, now()))

    for dt in (1.0, 5.0, 3.0):
        sim.spawn(worker, dt)
    sim.run()
    assert sorted(log) == [(1.0, 5.0), (3.0, 5.0), (5.0, 5.0)]


def test_barrier_is_reusable():
    sim = Simulator()
    bar = SimBarrier(2)
    log = []

    def worker(tag, dts):
        for dt in dts:
            hold(dt)
            bar.wait()
            log.append((tag, now()))

    sim.spawn(worker, "a", [1.0, 1.0])
    sim.spawn(worker, "b", [2.0, 2.0])
    sim.run()
    assert log == [("a", 2.0), ("b", 2.0), ("b", 4.0), ("a", 4.0)] or sorted(
        log
    ) == [("a", 2.0), ("a", 4.0), ("b", 2.0), ("b", 4.0)]


def test_barrier_single_party_never_blocks():
    sim = Simulator()
    bar = SimBarrier(1)

    def body():
        for _ in range(3):
            bar.wait()

    sim.spawn(body)
    sim.run()  # must not deadlock


def test_barrier_rejects_zero_parties():
    with pytest.raises(ValueError):
        SimBarrier(0)
