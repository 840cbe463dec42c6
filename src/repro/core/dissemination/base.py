"""Policy interface shared by all dissemination algorithms.

The engine drives a policy with two hooks:

- :meth:`DisseminationPolicy.at_source` runs once per source update and
  may veto dissemination entirely (the centralised policy's tagging);
- :meth:`DisseminationPolicy.decide` runs per (node, dependent) pair and
  answers "does this dependent need this update?".

Updates carry an opaque ``tag`` produced at the source (``None`` for
policies that do not use one); the engine threads it through unchanged
as the update flows down the tree -- mirroring how the paper's
centralised approach piggybacks the maximum violated tolerance on the
message.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "ForwardDecision",
    "FORWARD",
    "HOLD",
    "SourceDecision",
    "DisseminationPolicy",
]


@dataclass(frozen=True)
class SourceDecision:
    """Outcome of the source-side examination of one update.

    Attributes:
        disseminate: When false the update is dropped at the source
            (no dependent can need it).
        tag: Opaque value forwarded with the update (the centralised
            policy's maximum violated tolerance).
        checks: Number of source-side checks this examination cost;
            feeds the Figure 11(a) metric.
    """

    disseminate: bool
    tag: float | None = None
    checks: int = 0


@dataclass(frozen=True)
class ForwardDecision:
    """Outcome of one (node, dependent) coherency check."""

    forward: bool
    checks: int = 1


#: The two one-check outcomes.  Decisions are immutable, so policies
#: return these shared instances instead of building one per check.
FORWARD = ForwardDecision(forward=True)
HOLD = ForwardDecision(forward=False)


class DisseminationPolicy(ABC):
    """Decides which dependents receive which updates."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def register_edge(
        self, parent: int, child: int, item_id: int, c_serve: float, initial_value: float
    ) -> None:
        """Declare one service edge of the ``d3g`` before simulation.

        Args:
            parent: Serving node.
            child: Dependent node.
            item_id: Item flowing over the edge.
            c_serve: Coherency the child must be kept within (its
                receive coherency for the item).
            initial_value: Priming value; every copy in the system starts
                coherent at this value.
        """

    def unregister_edge(self, parent: int, child: int, item_id: int) -> None:
        """Tear down one service edge at reconfiguration time (churn).

        The engine calls this when a mid-run membership change removes
        an edge from the dissemination graph; the policy must forget any
        per-edge state so the edge can later be re-registered (possibly
        at a different coherency) without leaking the old subscription.
        Unknown edges are ignored (idempotent teardown).

        Policies that do not support live reconfiguration may keep this
        default, which refuses loudly rather than silently corrupting
        per-edge state.
        """
        raise NotImplementedError(
            f"policy {self.name!r} does not support churn reconfiguration"
        )

    @abstractmethod
    def at_source(self, item_id: int, value: float) -> SourceDecision:
        """Examine a fresh source update before any dissemination."""

    @abstractmethod
    def decide(
        self,
        parent: int,
        child: int,
        item_id: int,
        value: float,
        parent_receive_c: float,
        tag: float | None,
    ) -> ForwardDecision:
        """Does ``child`` need ``value``, given it last got what we sent it?

        Args:
            parent: Node holding the update.
            child: Candidate dependent.
            item_id: The item.
            value: The update's value.
            parent_receive_c: Coherency at which ``parent`` itself
                receives the item (0 at the source) -- the ``c_p`` of
                Eq. (7).
            tag: The source tag threaded with this update.
        """
