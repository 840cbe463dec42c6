"""Physical-network substrate.

The paper evaluates on a randomly generated physical network of routers
and repositories with Pareto-distributed link delays, routed with the
Floyd-Warshall all-pairs shortest-path algorithm (Section 6.1).  This
subpackage implements that substrate from scratch:

- :mod:`repro.network.delays` -- the bounded Pareto link-delay model
  (mean 15 ms, minimum 2 ms by default).
- :mod:`repro.network.topology` -- random connected topologies with one
  source, N repositories and M routers.
- :mod:`repro.network.routing` -- Floyd-Warshall minimal-delay tables,
  plus on-demand hop counts along those paths.
- :mod:`repro.network.model` -- the :class:`~repro.network.model.NetworkModel`
  facade the engine queries for end-to-end delays.
"""

from repro.network.delays import ParetoDelayModel
from repro.network.model import NetworkModel, build_network
from repro.network.routing import RoutingTables, floyd_warshall, hop_counts
from repro.network.topology import Topology, generate_topology

__all__ = [
    "ParetoDelayModel",
    "NetworkModel",
    "build_network",
    "RoutingTables",
    "floyd_warshall",
    "hop_counts",
    "Topology",
    "generate_topology",
]
