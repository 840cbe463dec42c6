"""The "all updates" baseline (Figure 8).

Every distinct source value is pushed to every repository interested in
the item, ignoring coherency tolerances.  The paper emulates this with a
maximally stringent tolerance (its T=100% curve); we implement it
directly.  Filtering's benefit (Figure 8) is the gap between this policy
and the coherency-aware ones: flooding wastes network and computational
resources, and the induced queueing *reduces* fidelity.
"""

from __future__ import annotations

from repro.core.dissemination.base import (
    DisseminationPolicy,
    FORWARD,
    HOLD,
    ForwardDecision,
    SourceDecision,
)
from repro.core.dissemination.filtering import forward_flooding

__all__ = ["FloodingPolicy"]


class FloodingPolicy(DisseminationPolicy):
    """Push every update to every interested dependent."""

    name = "flooding"

    def __init__(self) -> None:
        self._edges: set[tuple[int, int, int]] = set()
        self._last_value: dict[tuple[int, int, int], float] = {}

    def register_edge(
        self, parent: int, child: int, item_id: int, c_serve: float, initial_value: float
    ) -> None:
        key = (parent, child, item_id)
        self._edges.add(key)
        self._last_value[key] = initial_value

    def unregister_edge(self, parent: int, child: int, item_id: int) -> None:
        key = (parent, child, item_id)
        self._edges.discard(key)
        self._last_value.pop(key, None)

    def at_source(self, item_id: int, value: float) -> SourceDecision:
        return SourceDecision(disseminate=True, tag=None, checks=0)

    def decide(
        self,
        parent: int,
        child: int,
        item_id: int,
        value: float,
        parent_receive_c: float,
        tag: float | None,
    ) -> ForwardDecision:
        key = (parent, child, item_id)
        # Identical consecutive values carry no information even for
        # flooding (the paper's traces are *changes*); skip pure repeats.
        if not forward_flooding(value, self._last_value.get(key)):
            return HOLD
        self._last_value[key] = value
        return FORWARD
