"""The centralised (source-based) dissemination policy (Section 5.2).

The source maintains the list of all *unique* coherency tolerances that
exist for each item anywhere in the repository network, together with the
last value disseminated for each tolerance.  On a fresh update it checks
every unique tolerance (these checks are the Figure 11(a) overhead),
finds the violated ones, tags the update with the *largest* violated
tolerance ``c_max``, records the value as last-sent for every tolerance
``<= c_max``, and pushes the tagged update into the tree.

A repository receiving a tagged update forwards it to each dependent that
(i) is interested in the item and (ii) has a serving coherency ``<=`` the
tag.  Because Eq. (1) makes coherencies non-increasing in stringency
toward the leaves, the tag cleanly prunes whole subtrees.

The source-side state machine lives in
:class:`~repro.core.dissemination.filtering.SourceTagger` and the tag
pruning test in :func:`~repro.core.dissemination.filtering.
forward_centralized`, shared verbatim with the live
:class:`~repro.live.nodes.SourceNode` / repository servers.
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
from repro.core.dissemination.filtering import (
    SourceTagger,
    forward_centralized,
    quantise_tolerance,
)
from repro.core.dissemination.filtering import tag_for_update  # noqa: F401  (re-export)

__all__ = ["CentralizedPolicy", "tag_for_update"]


class CentralizedPolicy(DisseminationPolicy):
    """Source-based dissemination with tolerance tagging."""

    name = "centralized"

    def __init__(self) -> None:
        self._tagger = SourceTagger()
        self._edge_c: dict[tuple[int, int, int], float] = {}
        # (item, quantised c) -> number of registered edges serving the
        # item at c.  The source tracks tolerances that exist *anywhere*
        # in the network, so a tolerance leaves its list only when its
        # last edge goes.
        self._c_refs: dict[tuple[int, float], int] = {}

    def register_edge(
        self, parent: int, child: int, item_id: int, c_serve: float, initial_value: float
    ) -> None:
        c = quantise_tolerance(c_serve)
        key = (parent, child, item_id)
        old = self._edge_c.get(key)
        if old == c:
            return
        if old is not None:
            self._release(item_id, old)
        self._edge_c[key] = c
        self._c_refs[(item_id, c)] = self._c_refs.get((item_id, c), 0) + 1
        self._tagger.add_tolerance(item_id, c, initial_value)

    def unregister_edge(self, parent: int, child: int, item_id: int) -> None:
        c = self._edge_c.pop((parent, child, item_id), None)
        if c is not None:
            self._release(item_id, c)

    def _release(self, item_id: int, c: float) -> None:
        """Drop one edge's reference to ``(item_id, c)``."""
        refs = self._c_refs[(item_id, c)] - 1
        if refs:
            self._c_refs[(item_id, c)] = refs
        else:
            del self._c_refs[(item_id, c)]
            self._tagger.remove_tolerance(item_id, c)

    def unique_tolerances(self, item_id: int) -> list[float]:
        """The source's per-item state (ascending unique tolerances)."""
        return self._tagger.unique_tolerances(item_id)

    def at_source(self, item_id: int, value: float) -> SourceDecision:
        return self._tagger.examine(item_id, value)

    def decide(
        self,
        parent: int,
        child: int,
        item_id: int,
        value: float,
        parent_receive_c: float,
        tag: float | None,
    ) -> ForwardDecision:
        if tag is None:
            raise DisseminationError(
                "centralised dissemination requires a source tag on every update"
            )
        try:
            c_serve = self._edge_c[(parent, child, item_id)]
        except KeyError:
            raise DisseminationError(
                f"edge {parent}->{child} for item {item_id} was never registered"
            ) from None
        return FORWARD if forward_centralized(c_serve, tag) else HOLD
