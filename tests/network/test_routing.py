"""Unit tests for Floyd-Warshall routing, validated against networkx.

The property tests hold the dist-only build to a reference copy of the
three-array recurrence (delay, hop tie-break and next hop): distances
must match it bit for bit and :func:`hop_counts` must match its hop
counts, including on integer delays that force exact ties.
"""

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import TopologyError
from repro.network.delays import ParetoDelayModel
from repro.network.routing import build_routing, hop_counts
from repro.network.topology import Topology, generate_topology


def _oracle_floyd_warshall(
    dist: np.ndarray, hops: np.ndarray, next_hop: np.ndarray
) -> None:
    n = dist.shape[0]
    for k in range(n):
        via_dist = dist[:, k, None] + dist[None, k, :]
        via_hops = hops[:, k, None] + hops[None, k, :]
        better = via_dist < dist
        tie = (via_dist == dist) & (via_hops < hops)
        update = better | tie
        if not update.any():
            continue
        dist[update] = via_dist[update]
        hops[update] = via_hops[update]
        rows = np.nonzero(update.any(axis=1))[0]
        for i in rows:
            cols = update[i]
            next_hop[i, cols] = next_hop[i, k]


def _oracle_routing(topology):
    """(dist_ms, hops) from the three-array recurrence."""
    n = topology.n_nodes
    dist = np.full((n, n), np.inf)
    hops = np.full((n, n), np.inf)
    next_hop = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(hops, 0.0)

    for (u, v), delay in zip(topology.edges, topology.delays_ms):
        u, v = int(u), int(v)
        # Keep the cheaper link if the generator produced a multi-edge.
        if delay < dist[u, v]:
            dist[u, v] = dist[v, u] = float(delay)
            hops[u, v] = hops[v, u] = 1.0
            next_hop[u, v] = v
            next_hop[v, u] = u

    _oracle_floyd_warshall(dist, hops, next_hop)
    return dist, hops.astype(np.int64)


@st.composite
def connected_topologies(draw, tie_free=False):
    """Random connected graphs: a spanning tree plus extra links.

    Extra links may repeat a pair (multi-edges).  Delays are small
    integers (exact ties everywhere) or arbitrary floats; ``tie_free``
    instead gives each link a distinct power of two, so every pair has
    exactly one minimal-delay path.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    edges += draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    if tie_free:
        order = draw(st.permutations(range(len(edges))))
        delays = [2.0**i for i in order]
    else:
        delay = st.one_of(
            st.integers(0, 4).map(float),
            st.floats(min_value=0.0, max_value=100.0),
        )
        delays = draw(st.lists(delay, min_size=len(edges), max_size=len(edges)))
    return Topology(
        n_repositories=1,
        n_routers=n - 2,
        edges=np.array(edges, dtype=np.int64),
        delays_ms=np.array(delays),
    )


def small_topology():
    #   0 --1ms-- 1 --1ms-- 2
    #    \------10ms-------/
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    delays = np.array([1.0, 1.0, 10.0])
    return Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)


def test_shortest_path_prefers_cheap_two_hop():
    routing = build_routing(small_topology())
    assert routing.dist_ms[0, 2] == 2.0
    assert hop_counts(small_topology())[0, 2] == 2


def test_distance_matrix_symmetric_for_undirected_graph():
    topo = generate_topology(
        10, 30, np.random.default_rng(0), ParetoDelayModel()
    )
    routing = build_routing(topo)
    assert np.allclose(routing.dist_ms, routing.dist_ms.T)


def test_diagonal_is_zero():
    routing = build_routing(small_topology())
    assert (np.diag(routing.dist_ms) == 0).all()
    assert (np.diag(hop_counts(small_topology())) == 0).all()


def test_triangle_inequality_holds():
    topo = generate_topology(
        10, 30, np.random.default_rng(1), ParetoDelayModel()
    )
    d = build_routing(topo).dist_ms
    via = d[:, :, None] + d[None, :, :]  # via[i, k, j] = d[i,k] + d[k,j]
    assert (d <= via.min(axis=1) + 1e-9).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distances_match_networkx_dijkstra(seed):
    topo = generate_topology(
        8, 20, np.random.default_rng(seed), ParetoDelayModel()
    )
    routing = build_routing(topo)
    graph = nx.Graph()
    for (u, v), w in zip(topo.edges, topo.delays_ms):
        graph.add_edge(int(u), int(v), weight=float(w))
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
    for u in range(topo.n_nodes):
        for v in range(topo.n_nodes):
            assert routing.dist_ms[u, v] == pytest.approx(lengths[u][v])


@given(topo=connected_topologies())
@settings(max_examples=200, deadline=None)
def test_build_is_bit_identical_to_three_array_recurrence(topo):
    oracle_dist, oracle_hops = _oracle_routing(topo)
    dist = build_routing(topo).dist_ms
    assert np.array_equal(dist, oracle_dist)
    assert np.array_equal(hop_counts(topo), oracle_hops)
    assert np.array_equal(dist, dist.T)


@given(topo=connected_topologies(tie_free=True))
@settings(max_examples=100, deadline=None)
def test_hop_counts_match_networkx_dijkstra_path(topo):
    graph = nx.Graph()
    graph.add_nodes_from(range(topo.n_nodes))
    for (u, v), w in zip(topo.edges, topo.delays_ms):
        u, v = int(u), int(v)
        if not graph.has_edge(u, v) or w < graph[u][v]["weight"]:
            graph.add_edge(u, v, weight=float(w))
    hops = hop_counts(topo)
    for s in range(topo.n_nodes):
        for t in range(topo.n_nodes):
            path = nx.dijkstra_path(graph, s, t)
            assert hops[s, t] == len(path) - 1


def _link_weights(topology):
    weight = {}
    for (u, v), w in zip(topology.edges, topology.delays_ms):
        u, v, w = int(u), int(v), float(w)
        weight[(u, v)] = weight[(v, u)] = min(w, weight.get((u, v), np.inf))
    return weight


def _walk_path(dist, hops, weight, src, dst):
    """Follow links that stay on a minimal-delay, minimal-hop route."""
    path = [src]
    while path[-1] != dst:
        u = path[-1]
        step = [
            v
            for (a, v), w in weight.items()
            if a == u
            and hops[v, dst] == hops[u, dst] - 1
            and w + dist[v, dst] == pytest.approx(dist[u, dst])
        ]
        assert step, f"no minimal next hop from {u} toward {dst}"
        path.append(step[0])
    return path


def test_path_reconstruction_matches_distance():
    topo = generate_topology(
        8, 20, np.random.default_rng(3), ParetoDelayModel()
    )
    routing = build_routing(topo)
    hops = hop_counts(topo)
    weight = _link_weights(topo)
    for dst in (1, 5, topo.n_nodes - 1):
        path = _walk_path(routing.dist_ms, hops, weight, 0, dst)
        assert path[0] == 0 and path[-1] == dst
        total = sum(weight[(a, b)] for a, b in zip(path, path[1:]))
        assert total == pytest.approx(routing.dist_ms[0, dst])
        assert len(path) - 1 == hops[0, dst]


def test_path_to_self_is_single_node():
    topo = small_topology()
    routing = build_routing(topo)
    hops = hop_counts(topo)
    assert _walk_path(routing.dist_ms, hops, _link_weights(topo), 1, 1) == [1]
    assert routing.dist_ms[1, 1] == 0.0 and hops[1, 1] == 0


def test_hops_break_delay_ties_minimally():
    # Two equal-delay routes 0->2: direct (1 hop, 2ms) vs via 1 (2 hops, 2ms).
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    delays = np.array([1.0, 1.0, 2.0])
    topo = Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)
    routing = build_routing(topo)
    assert routing.dist_ms[0, 2] == 2.0
    assert hop_counts(topo)[0, 2] == 1


def test_disconnected_graph_rejected():
    edges = np.array([[0, 1]])
    delays = np.array([1.0])
    topo = Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)
    with pytest.raises(TopologyError):
        build_routing(topo)
    with pytest.raises(TopologyError):
        hop_counts(topo)


def test_diameter_and_mean_hops():
    hops = hop_counts(small_topology())
    assert hops.max() == 2
    assert hops[~np.eye(3, dtype=bool)].mean() > 1.0


def test_multi_edge_keeps_cheapest():
    edges = np.array([[0, 1], [0, 1], [1, 2]])
    delays = np.array([5.0, 1.0, 1.0])
    topo = Topology(n_repositories=2, n_routers=0, edges=edges, delays_ms=delays)
    routing = build_routing(topo)
    assert routing.dist_ms[0, 1] == 1.0
