"""Eq. (3) without the Eq. (7) guard -- the provably insufficient policy.

Section 5 shows that forwarding only when the dependent's own tolerance
is violated (Eq. 3) lets intermediate repositories swallow updates their
dependents will later need: the "missed updates" problem of Figure 4.
This policy exists so the reproduction can *demonstrate* that failure --
tests drive the Figure 4 scenario through it and observe the permanently
stale dependent, and property tests show it fails the 100%-fidelity
theorem that the full distributed policy satisfies.
"""

from __future__ import annotations

from repro.errors import DisseminationError
from repro.core.dissemination.base import (
    DisseminationPolicy,
    FORWARD,
    HOLD,
    ForwardDecision,
    SourceDecision,
)
from repro.core.dissemination.filtering import forward_eq3_only

__all__ = ["Eq3OnlyPolicy"]


class Eq3OnlyPolicy(DisseminationPolicy):
    """Forward only on Eq. (3): ``|v - last_sent| > c_serve``."""

    name = "eq3_only"

    def __init__(self) -> None:
        self._last_sent: dict[tuple[int, int, int], float] = {}
        self._c_serve: dict[tuple[int, int, int], float] = {}

    def register_edge(
        self, parent: int, child: int, item_id: int, c_serve: float, initial_value: float
    ) -> None:
        key = (parent, child, item_id)
        self._last_sent[key] = initial_value
        self._c_serve[key] = c_serve

    def unregister_edge(self, parent: int, child: int, item_id: int) -> None:
        key = (parent, child, item_id)
        self._last_sent.pop(key, None)
        self._c_serve.pop(key, None)

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
        try:
            last_sent = self._last_sent[key]
        except KeyError:
            raise DisseminationError(
                f"edge {parent}->{child} for item {item_id} was never registered"
            ) from None
        forward = forward_eq3_only(value, last_sent, self._c_serve[key])
        if forward:
            self._last_sent[key] = value
        return FORWARD if forward else HOLD
