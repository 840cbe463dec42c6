"""All-pairs shortest-path routing.

The paper generates routing tables for every node with the Floyd-Warshall
all-pairs shortest-path algorithm (Section 6.1, citing Cormen et al.).
We implement Floyd-Warshall here with a numpy-blocked inner loop: the
classic O(n^3) recurrence, with the k-loop in Python and the (i, j)
relaxation vectorised into one preallocated buffer.

The build computes only what the engine reads:

- ``dist_ms``: minimal end-to-end delay between every node pair.

Hop counts along those paths are off the build path: :func:`hop_counts`
computes them on demand, breaking exact delay ties toward fewer hops.
That tie-break only fires where the candidate delay *equals* the current
one, so it never moves a distance: the dist-only build is bit-identical
to the lexicographic (delay, then hops) recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.network.topology import Topology

__all__ = ["RoutingTables", "floyd_warshall", "build_routing", "hop_counts"]

_INF = np.inf


@dataclass
class RoutingTables:
    """Dense all-pairs routing state.

    Attributes:
        dist_ms: (n, n) minimal path delay in milliseconds.
    """

    dist_ms: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.dist_ms.shape[0])


def floyd_warshall(dist: np.ndarray) -> None:
    """Run the Floyd-Warshall distance recurrence in place.

    ``dist`` must be initialised with direct-link weights (inf where no
    link, 0 on the diagonal).  After the call it holds minimal path
    delays.  Each step adds into one reused buffer, so the loop
    allocates nothing per ``k``.
    """
    via = np.empty_like(dist)
    for k in range(dist.shape[0]):
        np.add(dist[:, k, None], dist[None, k, :], out=via)
        np.minimum(dist, via, out=dist)


def _link_delays(topology: Topology) -> np.ndarray:
    """Direct-link delay matrix: inf where no link, 0 on the diagonal.

    A multi-edge keeps its cheapest link.
    """
    n = topology.n_nodes
    dist = np.full((n, n), _INF)
    np.fill_diagonal(dist, 0.0)
    u, v = topology.edges[:, 0], topology.edges[:, 1]
    np.minimum.at(dist, (u, v), topology.delays_ms)
    np.minimum.at(dist, (v, u), topology.delays_ms)
    return dist


def build_routing(topology: Topology) -> RoutingTables:
    """Compute all-pairs routing tables for a topology.

    Raises:
        TopologyError: if the topology is disconnected.
    """
    dist = _link_delays(topology)
    floyd_warshall(dist)
    if not np.isfinite(dist).all():
        raise TopologyError("topology is disconnected; routing undefined")
    return RoutingTables(dist_ms=dist)


def hop_counts(topology: Topology) -> np.ndarray:
    """(n, n) hop counts along the minimal-delay paths of a topology.

    Runs the lexicographic recurrence: minimal delay first, then fewer
    hops among exactly equal delays, so hop counts are well defined.
    The distances it passes through equal :func:`build_routing`'s.

    Raises:
        TopologyError: if the topology is disconnected.
    """
    dist = _link_delays(topology)
    hops = np.where(np.isfinite(dist), 1.0, _INF)
    np.fill_diagonal(hops, 0.0)
    for k in range(dist.shape[0]):
        via_dist = dist[:, k, None] + dist[None, k, :]
        via_hops = hops[:, k, None] + hops[None, k, :]
        update = (via_dist < dist) | ((via_dist == dist) & (via_hops < hops))
        np.copyto(dist, via_dist, where=update)
        np.copyto(hops, via_hops, where=update)
    if not np.isfinite(hops).all():
        raise TopologyError("topology is disconnected; hop counts undefined")
    return hops.astype(np.int64)
