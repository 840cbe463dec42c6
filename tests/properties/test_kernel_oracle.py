"""The tuple-heap ``Simulator`` against a reference copy of its predecessor.

``_ReferenceSimulator`` below is the kernel as it was before the heap
held plain tuples: one ``Event`` dataclass per schedule, ordered by a
Python ``__lt__`` on ``(time, seq)``, in an ``EventQueue`` with a cancel
flag and a live count.  The property drives both kernels through the
same generated program -- relative and absolute schedules on a coarse
time grid (so exact ties are common), cancels and repeated cancels,
callbacks that schedule at ``now`` or cancel other events, ``run``
slices cut by ``until`` and ``max_events``, and resets -- and requires
the identical trace: which callback fired, at what ``now``, with what
``events_processed`` and ``pending``, and what every ``run`` returned.

The reference decrements its live count on *any* cancel, including of
an event that already fired or was cleared, so the program cancels only
events that are still scheduled; cancel-after-fire is pinned by the
unit tests instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


@dataclass(order=False)
class _Event:
    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple = field(default_factory=tuple)
    cancelled: bool = False

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _EventQueue:
    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback, *args) -> _Event:
        if time != time:
            raise SimulationError("cannot schedule an event at NaN time")
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time!r}")
        event = _Event(time=time, seq=self._next_seq, callback=callback, args=args)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self) -> _Event:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise SimulationError("pop from an empty event queue")

    def cancel(self, event: _Event) -> None:
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def peek_time(self) -> float:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            raise SimulationError("peek on an empty event queue")
        return self._heap[0].time

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0


class _ReferenceSimulator:
    def __init__(self) -> None:
        self._queue = _EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, callback, *args) -> _Event:
        if delay != delay or delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self._queue.push(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback, *args) -> _Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}: clock is already at {self._now!r}"
            )
        return self._queue.push(time, callback, *args)

    def cancel(self, event: _Event) -> None:
        self._queue.cancel(event)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._queue:
                next_time = self._queue.peek_time()
                if until is not None and next_time > until:
                    self._now = max(self._now, until)
                    break
                if max_events is not None and executed >= max_events:
                    break
                event = self._queue.pop()
                self._now = event.time
                event.callback(*event.args)
                executed += 1
                self._events_processed += 1
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
        return executed

    def reset(self) -> None:
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

# Coarse grids make exact timestamp ties the common case.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, -1.0, float("nan")])
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0, -0.5, float("nan")])

#: An action a program or a callback performs on the kernel.
_ACTION = st.one_of(
    st.tuples(st.just("after"), _DELAYS),
    st.tuples(st.just("at"), _TIMES),
    st.tuples(st.just("at_now"), st.just(0.0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
)

_TOP_OP = st.one_of(
    _ACTION,
    st.tuples(
        st.just("run"),
        st.tuples(
            st.sampled_from([None, None, 0.0, 0.5, 1.0, 1.5, 2.5]),
            st.sampled_from([None, None, 0, 1, 2, 3, 5]),
        ),
    ),
    st.tuples(st.just("reset"), st.just(None)),
)

programs = st.tuples(
    st.lists(_TOP_OP, min_size=1, max_size=40),
    # spawns[label]: what the callback of the label-th schedule does.
    st.lists(st.lists(_ACTION, max_size=3), max_size=30),
)


def _execute(kernel_cls, program) -> list[tuple]:
    """Drive one kernel through ``program`` and return its trace."""
    top_ops, spawns = program
    sim = kernel_cls()
    trace: list[tuple] = []
    handles: list = []  # label -> handle (None when rejected)
    done: set[int] = set()  # labels that fired or were cleared

    def fire(label: int) -> None:
        done.add(label)
        trace.append(("fire", label, sim.now, sim.events_processed, sim.pending))
        if label < len(spawns):
            for action in spawns[label]:
                act(action)

    def schedule(method, when) -> None:
        label = len(handles)
        try:
            handles.append(method(when, fire, label))
        except SimulationError:
            handles.append(None)
            done.add(label)
            trace.append(("rejected", label))

    def act(action) -> None:
        kind, arg = action
        if kind == "after":
            schedule(sim.schedule, arg)
        elif kind == "at":
            schedule(sim.schedule_at, arg)
        elif kind == "at_now":
            schedule(sim.schedule_at, sim.now)
        elif handles:
            label = arg % len(handles)
            if label not in done:
                sim.cancel(handles[label])
                trace.append(("cancel", label, sim.pending))

    for kind, arg in top_ops:
        if kind == "run":
            until, max_events = arg
            executed = sim.run(until=until, max_events=max_events)
            trace.append(("run", executed, sim.now, sim.events_processed, sim.pending))
        elif kind == "reset":
            sim.reset()
            done.update(range(len(handles)))
            trace.append(("reset", sim.now, sim.pending))
        else:
            act((kind, arg))
    executed = sim.run()
    trace.append(("drain", executed, sim.now, sim.events_processed, sim.pending))
    return trace


@given(program=programs)
@settings(max_examples=400, deadline=None)
def test_tuple_heap_fires_identically_to_event_queue_reference(program):
    assert _execute(Simulator, program) == _execute(_ReferenceSimulator, program)


def test_reference_agrees_on_a_hand_built_tie_storm():
    """A fixed program dense in ties, cancels and same-instant spawns."""
    top = [("at", 1.0)] * 4 + [("after", 1.0), ("cancel", 1), ("cancel", 1)]
    top += [("run", (1.0, 2)), ("at_now", 0.0), ("run", (None, None))]
    spawns = [[("at_now", 0.0), ("cancel", 3)], [], [("after", 0.0)] * 2]
    program = (top, spawns)
    trace = _execute(Simulator, program)
    assert trace == _execute(_ReferenceSimulator, program)
    fired = [entry[1] for entry in trace if entry[0] == "fire"]
    assert fired[:2] == [0, 2]
