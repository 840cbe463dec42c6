"""The distributed (repository-based) dissemination policy (Section 5.1).

Each node keeps, per dependent and item, the last value it forwarded to
that dependent.  An incoming update ``v`` is forwarded to dependent ``q``
(serving coherency ``c_q``) when either

- Eq. (3):  ``|v - last_sent(q)| > c_q``  (q's tolerance is violated), or
- Eq. (7):  ``c_q - |v - last_sent(q)| < c_p``  (q's remaining slack has
  shrunk below ``c_p``, the coherency at which this node itself receives
  the item -- so the *next* update could violate q's tolerance without
  this node ever seeing it).

Eq. (3) alone is necessary but not sufficient: the paper's Figure 4 shows
a source sequence 1 -> 1.2 -> 1.4 -> 1.5 with ``c_p = 0.3, c_q = 0.5``
where dropping the 1.4 at P makes Q miss the 1.5 forever.  Eq. (7)
forwards the 1.4 and restores 100% fidelity under zero delays.

Note that at the source ``c_p = 0`` and Eq. (7) degenerates to Eq. (3).
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
from repro.core.dissemination.filtering import forward_distributed

__all__ = ["DistributedPolicy", "should_forward_distributed"]

#: The pure Eq. (3)-or-Eq. (7) test.  Lives in
#: :mod:`repro.core.dissemination.filtering` so the live repository
#: servers share the exact code path; re-exported here under its
#: historical name.
should_forward_distributed = forward_distributed


class DistributedPolicy(DisseminationPolicy):
    """Repository-based dissemination: Eq. (3) + Eq. (7)."""

    name = "distributed"

    def __init__(self) -> None:
        # (parent, child, item) -> last value forwarded over that edge.
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
        # The distributed policy has no source-global state: the source
        # treats its dependents exactly like any repository does.
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
        forward = should_forward_distributed(
            value, last_sent, self._c_serve[key], parent_receive_c
        )
        if forward:
            self._last_sent[key] = value
        return FORWARD if forward else HOLD
