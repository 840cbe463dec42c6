"""Property-based tests of the substrate invariants."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.fidelity import violation_time
from repro.sim.kernel import Simulator
from repro.sim.queueing import FifoStation


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=200, deadline=None)
def test_event_queue_pops_sorted_and_stable(times):
    sim = Simulator()
    fired = []
    for i, t in enumerate(times):
        sim.schedule_at(t, lambda label: fired.append((sim.now, label)), i)
    assert sim.run() == len(times)
    # Sorted by time...
    assert all(a[0] <= b[0] for a, b in zip(fired, fired[1:]))
    # ...and stable within equal times.
    for a, b in zip(fired, fired[1:]):
        if a[0] == b[0]:
            assert a[1] < b[1]


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=200, deadline=None)
def test_fifo_station_completions_monotone(jobs):
    # Arrivals must be non-decreasing (as the kernel guarantees).
    jobs = sorted(jobs, key=lambda j: j[0])
    station = FifoStation()
    completions = []
    for arrival, service in jobs:
        done = station.submit(arrival, service)
        assert done >= arrival + service  # never finish early
        completions.append(done)
    assert completions == sorted(completions)
    assert station.busy_time <= completions[-1]


@given(
    src=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    recv=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    c=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_violation_time_bounded_by_window(src, recv, c):
    window = 100.0
    src_t = np.linspace(0.0, 90.0, len(src))
    recv_t = np.linspace(0.0, 90.0, len(recv))
    violated = violation_time(
        src_t, np.array(src), recv_t, np.array(recv), c, 0.0, window
    )
    assert 0.0 <= violated <= window


@given(
    src=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    c=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_violation_time_zero_when_receiving_own_source(src, c):
    src_t = np.linspace(0.0, 90.0, len(src))
    src_v = np.array(src)
    assert violation_time(src_t, src_v, src_t, src_v, c, 0.0, 100.0) == 0.0


@given(
    c_small=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    scale=st.floats(min_value=1.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_violation_time_monotone_in_tolerance(c_small, scale):
    # A laxer tolerance can only shrink the violated time.
    src_t = np.array([0.0, 10.0, 20.0, 30.0])
    src_v = np.array([0.0, 1.0, -1.0, 2.0])
    recv_t = np.array([0.0])
    recv_v = np.array([0.0])
    tight = violation_time(src_t, src_v, recv_t, recv_v, c_small, 0.0, 40.0)
    lax = violation_time(src_t, src_v, recv_t, recv_v, c_small * scale, 0.0, 40.0)
    assert lax <= tight
