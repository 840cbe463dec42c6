"""Outside-in wall-time spans around the program's layer functions.

The benchmark never edits the program to time it.  Instead
:class:`SpanRecorder` replaces each layer function with a timing wrapper
at the reference its caller looks up -- the module attribute (for
``from x import f`` callers, the importing module's copy) or the class
attribute (for methods) -- and records one span per call: name, start,
end and the index of the enclosing span.  Spans stay in memory and are
written out once, at the end of the traced answer.

A layer's *self* time is its spans' total duration minus the part its
child spans cover, so nested layers (routing inside setup, scoring
inside the kernel) are never counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Callable

#: ``(module, attribute path, span name)``.  Each row names the lookup a
#: caller performs; a function imported into several modules is wrapped
#: in each of them.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.builder", "build_setup", "engine.setup"),
    ("repro.engine.sweep", "build_setup", "engine.setup"),
    ("repro.fleet.supervisor", "build_setup", "engine.setup"),
    ("repro.network.model", "generate_topology", "network.topology"),
    ("repro.network.model", "build_routing", "network.routing"),
    ("repro.workloads.table1", "Table1Workload.make_traces", "traces.generate"),
    ("repro.traces.schedule", "UpdateSchedule.from_traces", "traces.schedule"),
    ("repro.engine.builder", "generate_interests", "core.interests"),
    ("repro.engine.builder", "build_d3g", "core.lela"),
    ("repro.engine.builder", "_generate_client_tolerances", "engine.clients.setup"),
    ("repro.engine.simulation", "DisseminationSimulation.__init__", "engine.prepare"),
    ("repro.engine.vectorized", "VectorizedSimulation.__init__", "engine.prepare"),
    ("repro.engine.simulation", "DisseminationSimulation.run", "engine.kernel.scalar"),
    ("repro.engine.vectorized", "VectorizedSimulation.run", "engine.kernel.vectorized"),
    ("repro.engine.simulation", "segmented_loss", "core.fidelity"),
    ("repro.core.dynamics", "DynamicMembership.join", "core.dynamics"),
    ("repro.core.dynamics", "DynamicMembership.leave", "core.dynamics"),
    ("repro.core.dynamics", "DynamicMembership.update_requirements", "core.dynamics"),
    ("repro.experiments.api", "run_sweep", "engine.sweep"),
    ("repro.experiments.cache", "ResultCache.put", "experiments.cache.put"),
    ("repro.fleet.supervisor", "plan_shards", "fleet.plan"),
    ("repro.fleet.supervisor", "merge_reports", "fleet.merge"),
    # The supervisor's control-channel reads, named by the reply awaited
    # (ready / stats / report): the first ``stats`` poll is issued only
    # once the source replay has finished, which dates the replay from
    # outside.
    ("repro.fleet.supervisor", "_expect", "fleet.expect"),
)


class SpanRecorder:
    """Records nested wall-time spans of wrapped calls (one thread)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` per call; ``parent`` is the
        #: index of the enclosing span, or -1 at top level.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr_path, name in LAYERS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, owner, attr: str, name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._timed(raw.__func__, name))
        else:
            wrapped = self._timed(raw, name)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _timed(self, func: Callable, name: str) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        # ``_expect(conn, wanted, ...)``: label the span with the reply.
        label = (lambda args: f"{name}.{args[1]}") if name == "fleet.expect" else None

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([label(args) if label else name, clock(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return timed

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _parent), child_s in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s
            entry["total_s"] += end - start
        return out

    def top_level_s(self) -> float:
        """Wall time covered by spans that have no enclosing span."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def first(self, name: str) -> list | None:
        return next((s for s in self.spans if s[0] == name), None)

    def last(self, name: str) -> list | None:
        return next((s for s in reversed(self.spans) if s[0] == name), None)

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSON, times in seconds since ``origin``."""
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps(rows))
