"""Behavioural tests of the simulator's event heap.

Ordering, FIFO ties, lazy cancellation, time validation and clearing,
driven through :class:`~repro.sim.kernel.Simulator`'s public API.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


def test_push_pop_orders_by_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "late")
    sim.schedule_at(1.0, fired.append, "early")
    sim.schedule_at(2.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_pop_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(5.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_len_counts_live_events():
    sim = Simulator()
    assert sim.pending == 0
    handles = [sim.schedule_at(float(i), lambda: None) for i in range(4)]
    assert sim.pending == 4
    sim.cancel(handles[0])
    assert sim.pending == 3
    sim.run(max_events=1)
    assert sim.pending == 2


def test_cancelled_events_are_skipped_on_pop():
    sim = Simulator()
    fired = []
    first = sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(2.0, fired.append, "b")
    sim.cancel(first)
    assert sim.run() == 1
    assert fired == ["b"]
    assert sim.events_processed == 1


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.pending == 1
    sim.run()
    sim.cancel(handle)
    assert sim.pending == 0


def test_cancel_after_fire_is_ignored():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.run()
    sim.cancel(handle)
    sim.schedule_at(2.0, lambda: None)
    assert sim.pending == 1
    assert sim.run() == 1


def test_run_on_empty_heap_fires_nothing():
    sim = Simulator()
    assert sim.run() == 0
    assert sim.now == 0.0
    assert sim.events_processed == 0


def test_run_with_all_cancelled_fires_nothing():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, fired.append, "x")
    sim.cancel(handle)
    assert sim.run() == 0
    assert fired == []
    assert sim.now == 0.0
    assert sim.pending == 0


def test_clock_moves_to_earliest_live_event():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    sim.schedule_at(3.0, lambda: None)
    sim.cancel(handle)
    assert sim.run(max_events=1) == 1
    assert sim.now == 2.0


def test_push_nan_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending == 0


def test_push_negative_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(-0.5, lambda: None)
    assert sim.pending == 0


def test_clear_empties_queue():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "a")
    handle = sim.schedule_at(2.0, fired.append, "b")
    sim.cancel(handle)
    sim.reset()
    assert sim.pending == 0
    assert sim.run() == 0
    assert fired == []
