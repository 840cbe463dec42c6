"""Turn a :class:`~repro.engine.config.SimulationConfig` into a running
live network and collect a simulator-shaped result.

:func:`build_live_network` reuses the engine's builder verbatim -- the
same seeded topology, workload traces, interest profiles and LeLA-built
``d3g`` a simulation run would use -- and wires them into sans-io nodes
(:mod:`repro.live.nodes`).  :func:`run_live` drives the network with a
transport (:mod:`repro.live.transport`) and scores *observed* fidelity
from the delivery logs with the same
:func:`~repro.core.fidelity.loss_of_fidelity` computation the simulator
uses, returning a :class:`LiveRunResult` shaped like
:class:`~repro.engine.results.SimulationResult` so experiments can
compare the two planes field by field (the ``live_crosscheck``
experiment does exactly that).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.clients import ClientPopulation
from repro.core.dissemination.filtering import (
    EdgeFilter,
    SourceTagger,
    quantise_tolerance,
)
from repro.core.fidelity import FidelityAccumulator, loss_of_fidelity, segmented_loss
from repro.core.metrics import CostCounters
from repro.core.tree import TreeStats
from repro.engine.builder import SimulationSetup, build_setup, make_adaptive_controller
from repro.engine.config import SimulationConfig
from repro.engine.failures import FailureEvent, FailureSchedule
from repro.errors import ConfigurationError
from repro.live.nodes import ClientNode, RepositoryNode, SourceNode
from repro.live.transport import (
    InProcessTransport,
    TransportStats,
    make_transport,
)

__all__ = [
    "LiveNetwork",
    "LiveAdaptiveController",
    "LiveFailureController",
    "LiveRunResult",
    "build_live_network",
    "run_live",
]


@dataclass
class LiveRunResult:
    """Everything one live run produced, simulator-shaped.

    The first block of attributes mirrors
    :class:`~repro.engine.results.SimulationResult` field for field so
    sim and live runs can be compared directly; the second block adds
    the wire-level accounting only a real network has.

    Attributes:
        loss_of_fidelity: System-wide mean *observed* loss of fidelity,
            percent (0 is perfect).
        per_repository_loss: Mean observed loss per repository.
        counters: Repository-plane message/check accounting (client
            traffic is tallied separately in ``extras``).
        tree_stats: Shape of the ``d3g`` the network ran.
        effective_degree: Degree of cooperation enforced by the build.
        avg_comm_delay_ms: Mean node-to-node delay of the topology.
        sim_span_s: Observation-window length in simulated seconds.
        transport: Transport name (``inprocess`` or ``tcp``).
        wall_seconds: Wall-clock duration of the run.
        sent / delivered / dropped: Wire-level message conservation
            (``sent == delivered + dropped`` always holds at rest).
        extras: Free-form additions (client-plane observations).
    """

    loss_of_fidelity: float
    per_repository_loss: dict[int, float]
    counters: CostCounters
    tree_stats: TreeStats
    effective_degree: int
    avg_comm_delay_ms: float
    sim_span_s: float
    transport: str
    wall_seconds: float
    sent: int
    delivered: int
    dropped: int
    extras: dict = field(default_factory=dict)

    @property
    def fidelity(self) -> float:
        """System observed fidelity in percent (100 = perfect)."""
        return 100.0 - self.loss_of_fidelity

    @property
    def messages(self) -> int:
        """Repository-plane update messages sent (sim-comparable)."""
        return self.counters.messages

    @property
    def conserved(self) -> bool:
        """Message conservation: every send was delivered or dropped."""
        return self.sent == self.delivered + self.dropped

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"loss={self.loss_of_fidelity:.2f}% "
            f"messages={self.counters.messages} "
            f"delivered={self.delivered} dropped={self.dropped} "
            f"transport={self.transport} wall={self.wall_seconds:.2f}s"
        )


class LiveNetwork:
    """A built-but-not-yet-running live network.

    Holds the engine setup, the sans-io nodes, and the lookup tables a
    transport needs (node handlers, edge pairs, the source schedule).
    """

    def __init__(
        self,
        setup: SimulationSetup,
        counters: CostCounters,
        source_node: SourceNode,
        repositories: dict[int, RepositoryNode],
        clients: dict[int, ClientNode],
    ) -> None:
        self.setup = setup
        self.counters = counters
        self.source_node = source_node
        self.repositories = repositories
        #: transport node id -> client node.
        self.clients = clients
        #: Set by :func:`build_live_network` when the config carries a
        #: failure schedule; transports consult it for fault hooks.
        self.failures: LiveFailureController | None = None
        #: Set by :func:`build_live_network` when the config carries an
        #: adaptive policy; the in-process transport schedules its ticks.
        self.adaptive: LiveAdaptiveController | None = None
        #: Out-of-band trace observer (see :meth:`attach_observer`);
        #: transports consult it at their drop sites.
        self.observer = None

    def attach_observer(self, observer) -> None:
        """Attach a trace observer to the network and every node.

        Out-of-band like the engine's ``observer=`` keyword: the
        observer only records decisions, so an observed run stays
        bit-identical to an unobserved one.  Call before handing the
        network to ``run_live(..., network=network)``.
        """
        self.observer = observer
        self.source_node.observer = observer
        for repo in self.repositories.values():
            repo.observer = observer

    def node(self, node_id: int):
        """The message handler for one destination node id."""
        repo = self.repositories.get(node_id)
        if repo is not None:
            return repo
        return self.clients[node_id]

    def all_node_ids(self) -> list[int]:
        """Every transport endpoint: source, repositories, clients."""
        return [self.source_node.node, *self.repositories, *self.clients]

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Every (sender, receiver) pair a message can flow over."""
        pairs: set[tuple[int, int]] = set()
        for sender in (self.source_node, *self.repositories.values()):
            for edges in sender.edges.values():
                for edge in edges:
                    pairs.add((sender.node, edge.child))
        return sorted(pairs)

    def source_schedule(self, duration: float | None = None) -> list[tuple[float, int, float]]:
        """The workload replay: (time, item, value), time-ordered.

        The sort is stable over the per-item generation order, so
        same-instant updates replay in exactly the order the simulation
        kernel's FIFO tie-break executes them.

        Args:
            duration: When set, truncate the replay to the first
                ``duration`` simulated seconds of each trace.
        """
        schedule: list[tuple[float, int, float]] = []
        for item_id, trace in self.setup.traces.items():
            changes = trace.changes()
            t_end = (
                float(trace.times[0]) + duration if duration is not None else None
            )
            # Index 0 is the priming value everyone already holds.
            for t, v in zip(changes.times[1:], changes.values[1:]):
                if t_end is not None and float(t) > t_end:
                    break
                schedule.append((float(t), item_id, float(v)))
        schedule.sort(key=lambda entry: entry[0])
        return schedule


class LiveFailureController:
    """Executes a :class:`~repro.engine.failures.FailureSchedule` against
    a built live network, mirroring the engine's failure semantics.

    The controller is the live twin of the scalar engine's
    ``_apply_failure``: a crash closes the repository's fidelity-scoring
    segments and fails its dependents over to the nearest live ancestor
    (same sorted rewiring order, same reconfiguration-cost charge); a
    recovery reopens the segments, anti-entropy-resyncs only the copies
    that diverged while the repository was down, and re-homes its
    dependents.  Transports consult it two ways:

    - the virtual-time transport schedules :meth:`apply_event` on its
      kernel (before the source replay, reproducing the engine's
      same-instant tie-break) and reads the mutable :attr:`crashed` /
      :attr:`down` sets, making an in-process failure run bit-identical
      to the simulation;
    - the TCP transport applies events from a wall-clock task and uses
      the precomputed half-open availability windows
      (:meth:`crashed_at` / :meth:`link_down_at`) so racing frames are
      judged by their logical times, not by mutable-set timing.
    """

    def __init__(self, network: LiveNetwork, schedule: FailureSchedule) -> None:
        self.network = network
        self.schedule = schedule
        #: Currently crashed repositories / currently down service links
        #: (kept current by :meth:`apply_event`).
        self.crashed: set[int] = set()
        self.down: set[tuple[int, int]] = set()
        setup = network.setup
        self._policy = setup.config.policy
        graph = setup.graph
        # Who serves whom, per item -- walked past crashed nodes to find
        # failover targets, and restored on recovery.
        self._parent_of: dict[tuple[int, int], int] = {}
        for item_id in setup.traces:
            for node in graph.nodes:
                for child, _c in graph.children_for_item(node, item_id):
                    self._parent_of[(child, item_id)] = node
        self._home_parent = dict(self._parent_of)
        #: Per (repository, item): fidelity-scoring availability segments
        #: ``[start, end-or-None, c_own]``, same shape the engine scores.
        self.segments: dict[tuple[int, int], list[list]] = {}
        for repo, profile in setup.profiles.items():
            for item_id, c_own in profile.requirements.items():
                self.segments[(repo, item_id)] = [[0.0, None, c_own]]
        self._crash_windows = schedule.crash_windows()
        self._link_windows = schedule.link_windows()
        if self._policy == "centralized":
            # (item, quantised tolerance) -> number of serving edges;
            # replays the sim policy's refcounted SourceTagger
            # transitions during failover rewiring.
            self._tol_count: dict[tuple[int, float], int] = {}
            for item_id in setup.traces:
                for node in graph.nodes:
                    for _child, c in graph.children_for_item(node, item_id):
                        key = (item_id, quantise_tolerance(c))
                        self._tol_count[key] = self._tol_count.get(key, 0) + 1

    # -- logical-time availability predicates (for the TCP transport) --

    def crashed_at(self, node: int, t: float) -> bool:
        """Was ``node`` inside a crash window at simulated time ``t``?

        Windows are half-open ``[crash, recover)``, reproducing the
        engine's tie-break: a message arriving exactly at the recovery
        instant is delivered, one at the crash instant is dropped.
        """
        for start, end in self._crash_windows.get(node, ()):
            if t >= start and (end is None or t < end):
                return True
        return False

    def link_down_at(self, sender: int, receiver: int, t: float) -> bool:
        """Was the (sender, receiver) service link down at time ``t``?"""
        for start, end in self._link_windows.get((sender, receiver), ()):
            if t >= start and (end is None or t < end):
                return True
        return False

    # -- event execution (mirrors the engine's _apply_failure) --

    def apply_event(self, event: FailureEvent, now: float) -> None:
        """Apply one crash/recover/link event to the running network."""
        if event.kind == "link_down":
            self.down.add(event.link)
            return
        if event.kind == "link_up":
            self.down.discard(event.link)
            return
        repo = event.repository
        if event.kind == "crash":
            self.crashed.add(repo)
            for (r, _item_id), segments in self.segments.items():
                if r == repo and segments and segments[-1][1] is None:
                    segments[-1][1] = now
            self._fail_over(repo, now)
        else:  # recover
            self.crashed.discard(repo)
            for (r, _item_id), segments in self.segments.items():
                if r == repo and segments and segments[-1][1] is not None:
                    segments.append([now, None, segments[-1][2]])
            self._resync(repo, now)
            self._restore_home(repo, now)

    # -- internals --

    def _sender(self, node: int):
        if node == self.network.source_node.node:
            return self.network.source_node
        return self.network.repositories[node]

    def _live_parent(self, node: int, item_id: int) -> int | None:
        parent = self._parent_of.get((node, item_id))
        while parent is not None and parent in self.crashed:
            parent = self._parent_of.get((parent, item_id))
        return parent

    def _current_value(self, node: int, item_id: int) -> float:
        if node == self.network.source_node.node:
            return self.network.source_node.values.get(
                item_id, self.network.setup.traces[item_id].initial_value
            )
        return self.network.repositories[node].deliveries[item_id][-1][1]

    def _fail_over(self, repo: int, now: float) -> None:
        """Re-home the crashed repository's dependents to backup parents.

        Client edges stay put: attached clients ride out the crash stale
        (the engine's modeled-client plane behaves identically).
        """
        sender = self.network.repositories[repo]
        moved: list[tuple[int, int, int, float, int]] = []
        for item_id, edges in sender.edges.items():
            backup = self._live_parent(repo, item_id)
            if backup is None:
                continue  # no live ancestor: dependents wait for recovery
            for edge in edges:
                if edge.is_client:
                    continue
                moved.append((repo, edge.child, item_id, edge.c_serve, backup))
        if not moved:
            return
        self._apply_moves(
            removed={(p, ch, it, c) for p, ch, it, c, _b in moved},
            added={(b, ch, it, c) for _p, ch, it, c, b in moved},
        )
        for _parent, child, item_id, _c, backup in moved:
            self._parent_of[(child, item_id)] = backup

    def _restore_home(self, repo: int, now: float) -> None:
        """Wire re-homed dependents back to their recovered home parent."""
        moved: list[tuple[int, int, int, float]] = []
        for (child, item_id), home in self._home_parent.items():
            if home != repo:
                continue
            current = self._parent_of.get((child, item_id))
            if current is None or current == repo:
                continue
            c_serve = self.network.repositories[child].receive_c.get(item_id)
            if c_serve is None:
                continue
            moved.append((current, child, item_id, c_serve))
        if not moved:
            return
        self._apply_moves(
            removed=set(moved),
            added={(repo, ch, it, c) for _cur, ch, it, c in moved},
        )
        for _current, child, item_id, _c in moved:
            self._parent_of[(child, item_id)] = repo

    def _apply_moves(self, removed: set, added: set) -> None:
        """Tear down and wire service edges, engine-identically.

        Removals run in sorted-tuple order, additions root-downward per
        item tree -- the exact orders the engine's ``_apply_diff`` uses,
        so the centralised tagger transitions and the edge-list order
        (which fixes FIFO send order) match the simulation.
        """
        network = self.network
        setup = network.setup
        network.counters.record_reconfiguration(
            n_added=len(added), n_removed=len(removed)
        )
        tagger = network.source_node.tagger
        for parent, child, item_id, c in sorted(removed):
            sender = self._sender(parent)
            edges = sender.edges.get(item_id)
            if edges is not None:
                edges[:] = [
                    e for e in edges if e.is_client or e.child != child
                ]
                if not edges:
                    del sender.edges[item_id]
            if tagger is not None:
                tau = quantise_tolerance(c)
                key = (item_id, tau)
                count = self._tol_count[key] - 1
                if count:
                    self._tol_count[key] = count
                else:
                    del self._tol_count[key]
                    tagger.remove_tolerance(item_id, tau)
        graph = setup.graph
        ordered = sorted(
            added, key=lambda e: (e[2], graph.item_depth(e[1], e[2]), e)
        )
        for parent, child, item_id, c in ordered:
            sender = self._sender(parent)
            # A re-homed child keeps its own copy: prime the fresh edge
            # filter with the child's current value, like the engine.
            initial = network.repositories[child].deliveries[item_id][-1][1]
            if tagger is not None:
                tau = quantise_tolerance(c)
                count = self._tol_count.get((item_id, tau), 0)
                self._tol_count[(item_id, tau)] = count + 1
                if count == 0:
                    tagger.add_tolerance(item_id, tau, initial)
            sender.add_edge(
                item_id,
                child,
                c,
                EdgeFilter(self._policy, c, initial),
                setup.network.delay_s(parent, child),
            )

    def _resync(self, repo: int, now: float) -> None:
        """Anti-entropy resync of a recovered repository's stale copies.

        Setdiscovery-style: one comparison against the live parent per
        subscribed item, one transfer only for items whose copy actually
        diverged while the repository was down.
        """
        node = self.network.repositories[repo]
        checks = 0
        messages = 0
        for item_id in sorted(node.receive_c):
            provider = self._live_parent(repo, item_id)
            if provider is None:
                continue  # whole ancestry down: nothing fresher to pull
            checks += 1
            value = self._current_value(provider, item_id)
            log = node.deliveries[item_id]
            if value != log[-1][1]:
                log.append((now, value))
                messages += 1
        if checks:
            self.network.counters.record_resync(checks, messages)


class LiveAdaptiveController:
    """Runs the engine's drift-triggered re-optimization on a live network.

    The decision-making is the engine's own
    :class:`~repro.engine.adaptive.AdaptiveController`, fed the live
    :class:`~repro.core.metrics.CostCounters` per-node message tallies at
    the same virtual-time tick instants both simulation kernels use --
    the live network counts messages with the same counters the engine
    charges, so the drift estimator sees identical numbers and makes
    identical rewiring decisions.  This wrapper only *executes* the
    resulting edge diffs against the sans-io nodes, in the engine's
    exact orders (removals in sorted-tuple order, additions
    root-downward per item tree of the *re-optimized* graph) with the
    engine's exact state semantics: a re-homed child keeps its own
    copy, a brand-new subscription initial-syncs the parent's current
    value (charged as reconfiguration cost, not as an update message),
    and a child the rebuild dropped entirely stops receiving but keeps
    its delivery log for fidelity scoring.

    Adaptive runs are in-process only: the virtual-time transport
    schedules :meth:`apply_tick` on its kernel before the source replay
    (ticks win same-instant ties, the engine's ordering), which makes a
    live adaptive run bit-identical to the simulation.  The wall-clock
    TCP transport cannot pin counter snapshots to exact virtual
    instants, so :func:`run_live` rejects the combination.
    """

    def __init__(self, network: LiveNetwork) -> None:
        self.network = network
        #: The engine controller that owns the drift estimator, the
        #: policy gates and the current (rebound-on-rewire) graph.
        self.controller = make_adaptive_controller(network.setup)
        setup = network.setup
        self._policy = setup.config.policy
        if self._policy == "centralized":
            # Same refcounted SourceTagger replay the failure controller
            # keeps: (item, quantised tolerance) -> number of serving
            # edges, so tagger add/remove transitions match the engine's
            # register/unregister sequence during rewiring.
            self._tol_count: dict[tuple[int, float], int] = {}
            graph = setup.graph
            for item_id in setup.traces:
                for node in graph.nodes:
                    for _child, c in graph.children_for_item(node, item_id):
                        key = (item_id, quantise_tolerance(c))
                        self._tol_count[key] = self._tol_count.get(key, 0) + 1

    def tick_times(self, duration: float | None = None) -> list[float]:
        """The run's drift-evaluation instants (``window, 2*window...``).

        Delegates to the engine controller over the same scoring span
        the engines use (the longest trace's), truncated to ``duration``
        when the replay is.
        """
        setup = self.network.setup
        if setup.update_schedule is not None:
            span = setup.update_schedule.span
        else:
            span = max(
                (trace.span for trace in setup.traces.values()), default=0.0
            )
        if duration is not None:
            span = min(span, duration)
        return self.controller.tick_times(span)

    def apply_tick(self, now: float) -> None:
        """One drift evaluation against the live counters; rewire if told."""
        diff = self.controller.on_tick(
            now, dict(self.network.counters.per_node_messages)
        )
        if diff is not None:
            self._apply_diff(diff, now)

    # -- internals (mirror the engine's _apply_diff, edge for edge) --

    def _sender(self, node: int):
        if node == self.network.source_node.node:
            return self.network.source_node
        return self.network.repositories[node]

    def _current_value(self, node: int, item_id: int) -> float:
        if node == self.network.source_node.node:
            return self.network.source_node.values.get(
                item_id, self.network.setup.traces[item_id].initial_value
            )
        return self.network.repositories[node].deliveries[item_id][-1][1]

    def _apply_diff(self, diff, now: float) -> None:
        network = self.network
        setup = network.setup
        network.counters.record_reconfiguration(
            n_added=len(diff.added), n_removed=len(diff.removed)
        )
        # on_tick rebinds the controller graph before returning the
        # diff, so this is the *re-optimized* graph -- the same one the
        # engine's _apply_diff reads for drop checks and add ordering.
        graph = self.controller.graph
        tagger = network.source_node.tagger
        for parent, child, item_id, c in sorted(diff.removed):
            sender = self._sender(parent)
            edges = sender.edges.get(item_id)
            if edges is not None:
                edges[:] = [
                    e for e in edges if e.is_client or e.child != child
                ]
                if not edges:
                    del sender.edges[item_id]
            if tagger is not None:
                tau = quantise_tolerance(c)
                key = (item_id, tau)
                count = self._tol_count[key] - 1
                if count:
                    self._tol_count[key] = count
                else:
                    del self._tol_count[key]
                    tagger.remove_tolerance(item_id, tau)
            state = graph.nodes.get(child)
            if state is None or item_id not in state.receive_c:
                # The rebuild dropped the pair entirely: the child stops
                # receiving the item (its log is kept for scoring).
                network.repositories[child].receive_c.pop(item_id, None)
        ordered = sorted(
            diff.added, key=lambda e: (e[2], graph.item_depth(e[1], e[2]), e)
        )
        for parent, child, item_id, c in ordered:
            sender = self._sender(parent)
            repo = network.repositories[child]
            value = self._current_value(parent, item_id)
            log = repo.deliveries.get(item_id)
            if log is None:
                # New subscription: initial-sync the parent's current
                # copy (reconfiguration cost, not an update message).
                repo.deliveries[item_id] = [(now, value)]
                initial = value
            else:
                # Re-homed subscription: the child keeps its own copy.
                initial = log[-1][1]
            repo.receive_c[item_id] = c
            if tagger is not None:
                tau = quantise_tolerance(c)
                count = self._tol_count.get((item_id, tau), 0)
                self._tol_count[(item_id, tau)] = count + 1
                if count == 0:
                    tagger.add_tolerance(item_id, tau, initial)
            sender.add_edge(
                item_id,
                child,
                c,
                EdgeFilter(self._policy, c, initial),
                setup.network.delay_s(parent, child),
            )


def _client_node_base(setup: SimulationSetup) -> int:
    """First transport node id free for clients (above the topology)."""
    return setup.network.topology.n_nodes


def build_live_network(
    config: SimulationConfig,
    clients: ClientPopulation | None = None,
    setup: SimulationSetup | None = None,
) -> LiveNetwork:
    """Assemble the live network for an unchanged simulation config.

    The build reuses :func:`~repro.engine.builder.build_setup` -- same
    topology, traces, profiles and LeLA ``d3g`` as a simulation of the
    same config -- then instantiates one sans-io node per graph member
    with a shared :class:`~repro.core.dissemination.filtering.EdgeFilter`
    per service edge (and the
    :class:`~repro.core.dissemination.filtering.SourceTagger` when the
    centralised policy runs).

    Args:
        config: The run's full parameterisation.  Must be churn-free
            (live membership is static for now); a failure schedule
            (``config.failures``) and seeded message loss
            (``config.message_loss_probability``) are both supported --
            the transports execute them through the attached
            :class:`LiveFailureController` and their own seeded
            Bernoulli streams.
        clients: Optional end-client population to attach; each client
            becomes a dependent of its repository, filtered at its own
            tolerance.
        setup: Optional prebuilt setup for exactly this config (skips
            rebuilding the topology/traces/``d3g``; the loadgen path
            shares one build across population generation and the run).

    Raises:
        ConfigurationError: on churn configs, or clients attached to
            unknown repositories.
    """
    if config.churn is not None:
        raise ConfigurationError(
            "the live network runs static membership; strip the churn "
            "schedule from the config before running live"
        )
    if config.adaptive is not None and clients is not None and len(clients):
        # A rewire that drops a (repository, item) pair stops the
        # engine's client service for it, but a live client edge is
        # attached state; until client re-attachment is wired through
        # the rewiring path the combination would silently diverge.
        raise ConfigurationError(
            "adaptive re-optimization does not support an attached live "
            "client population yet; drop the clients or the adaptive policy"
        )
    if setup is None:
        setup = build_setup(config)
    counters = CostCounters()
    comp_delay_s = config.comp_delay_ms / 1000.0
    graph = setup.graph
    source = setup.source

    tagger: SourceTagger | None = None
    if config.policy == "centralized":
        tagger = SourceTagger()

    source_node = SourceNode(source, comp_delay_s, counters, tagger=tagger)
    repositories: dict[int, RepositoryNode] = {
        node: RepositoryNode(
            node, comp_delay_s, counters, receive_c=dict(state.receive_c)
        )
        for node, state in graph.nodes.items()
        if node != source
    }

    # Wire the d3g exactly as the engine's _prepare does: items in trace
    # order, nodes in graph order, children in child-table order.
    for item_id in setup.traces:
        initial = setup.traces[item_id].initial_value
        for node in graph.nodes:
            children = graph.children_for_item(node, item_id)
            if not children:
                continue
            sender = source_node if node == source else repositories[node]
            for child, c_serve in children:
                if tagger is not None:
                    tagger.add_tolerance(item_id, c_serve, initial)
                sender.add_edge(
                    item_id,
                    child,
                    c_serve,
                    EdgeFilter(config.policy, c_serve, initial),
                    setup.network.delay_s(node, child),
                )
        for node, repo in repositories.items():
            if item_id in repo.receive_c:
                repo.deliveries[item_id] = [(0.0, initial)]

    client_nodes: dict[int, ClientNode] = {}
    if clients is not None and len(clients):
        base = _client_node_base(setup)
        for offset, client in enumerate(clients.clients):
            repo = repositories.get(client.repository)
            if repo is None:
                raise ConfigurationError(
                    f"client {client.client_id} attaches to unknown "
                    f"repository {client.repository}"
                )
            node_id = base + offset
            client_node = ClientNode(
                node=node_id,
                client_id=client.client_id,
                repository=client.repository,
                requirements=dict(client.requirements),
            )
            for item_id, tolerance in sorted(client.requirements.items()):
                trace = setup.traces.get(item_id)
                if trace is None:
                    raise ConfigurationError(
                        f"client {client.client_id} wants unknown item {item_id}"
                    )
                client_node.deliveries[item_id] = [(0.0, trace.initial_value)]
                if item_id not in repo.receive_c:
                    # The repository does not carry the item; the client
                    # stays on the priming value and the requirement-met
                    # report will flag it.
                    continue
                repo.add_edge(
                    item_id,
                    node_id,
                    tolerance,
                    # Client service is repository-local filtering: the
                    # Eq. (3) + Eq. (7) test at the client's tolerance,
                    # whatever policy runs in the repository plane
                    # (clients are invisible to the source's tagging).
                    EdgeFilter("distributed", tolerance, trace.initial_value),
                    link_delay_s=0.0,
                    is_client=True,
                )
            client_nodes[node_id] = client_node
    network = LiveNetwork(setup, counters, source_node, repositories, client_nodes)
    if config.failures is not None:
        network.failures = LiveFailureController(network, config.failures)
    if config.adaptive is not None:
        network.adaptive = LiveAdaptiveController(network)
    return network


def _score(
    network: LiveNetwork,
    duration: float | None,
    only: set[int] | None = None,
) -> tuple[FidelityAccumulator, dict[tuple[int, int], float], float]:
    """Observed fidelity from the delivery logs, sim-identically.

    ``only`` restricts scoring to a subset of repositories -- fleet
    workers score just their own shard and the supervisor re-merges the
    per-pair losses.
    """
    accumulator = FidelityAccumulator()
    per_pair: dict[tuple[int, int], float] = {}
    span = 0.0
    for item_id, trace in network.setup.traces.items():
        item_span = float(trace.times[-1] - trace.times[0])
        if duration is not None:
            item_span = min(item_span, duration)
        span = max(span, item_span)
    controller = network.failures
    for repo, profile in network.setup.profiles.items():
        if only is not None and repo not in only:
            continue
        node = network.repositories[repo]
        for item_id, c_own in profile.requirements.items():
            trace = network.setup.traces[item_id]
            log = node.deliveries[item_id]
            t0 = float(trace.times[0])
            t1 = float(trace.times[-1])
            if duration is not None:
                t1 = min(t1, t0 + duration)
            recv_times = [entry[0] for entry in log]
            recv_values = [entry[1] for entry in log]
            if controller is not None:
                # Duration-weight the loss over the intervals the
                # repository was actually up -- the same segments, same
                # arithmetic, the engine scores failure runs with.
                loss = segmented_loss(
                    trace.times,
                    trace.values,
                    recv_times,
                    recv_values,
                    controller.segments.get(
                        (repo, item_id), [[0.0, None, c_own]]
                    ),
                    t0,
                    t1,
                )
                if loss is None:
                    continue  # never up inside the window: nothing owed
            else:
                loss = loss_of_fidelity(
                    trace.times,
                    trace.values,
                    recv_times,
                    recv_values,
                    c_own,
                    t_start=t0,
                    t_end=t1,
                )
            accumulator.add(repo, item_id, loss)
            per_pair[(repo, item_id)] = loss
    return accumulator, per_pair, span


def _score_clients(
    network: LiveNetwork,
    duration: float | None,
    only: set[int] | None = None,
) -> dict[int, dict[int, float]]:
    """Observed per-client loss at each client's own tolerance.

    ``only`` restricts scoring to a subset of client *node ids* (fleet
    workers score the clients attached to their shard's repositories).
    """
    observed: dict[int, dict[int, float]] = {}
    for client_node in network.clients.values():
        if only is not None and client_node.node not in only:
            continue
        per_item: dict[int, float] = {}
        for item_id, tolerance in sorted(client_node.requirements.items()):
            trace = network.setup.traces[item_id]
            log = client_node.deliveries[item_id]
            t0 = float(trace.times[0])
            t1 = float(trace.times[-1])
            if duration is not None:
                t1 = min(t1, t0 + duration)
            per_item[item_id] = loss_of_fidelity(
                trace.times,
                trace.values,
                [entry[0] for entry in log],
                [entry[1] for entry in log],
                tolerance,
                t_start=t0,
                t_end=t1,
            )
        observed[client_node.client_id] = per_item
    return observed


def run_live(
    config: SimulationConfig,
    transport: str = "inprocess",
    *,
    duration: float | None = None,
    time_scale: float = 60.0,
    jitter_ms: float = 0.0,
    quiesce_timeout_s: float = 30.0,
    heartbeat_interval_s: float = 0.5,
    reconnect_backoff_s: float = 0.05,
    reconnect_attempts: int = 5,
    drain_timeout_s: float = 2.0,
    wall_stretch_cap: float = 20.0,
    clients: ClientPopulation | None = None,
    network: LiveNetwork | None = None,
) -> LiveRunResult:
    """Build, run and score one live network end to end.

    Failure schedules (``config.failures``) and seeded message loss
    (``config.message_loss_probability``) run for real: both transports
    drop by schedule and by their seeded Bernoulli streams, the TCP
    transport additionally heartbeats its connections and reconnects
    severed ones with exponential backoff, and fidelity is scored over
    the availability segments exactly like the engine.

    Args:
        config: The run's full parameterisation (identical to what a
            simulation takes).
        transport: ``inprocess`` (deterministic virtual time) or
            ``tcp`` (localhost sockets).
        duration: Optional truncation of the replay to the first
            ``duration`` simulated seconds (fidelity is scored over the
            truncated window).
        time_scale: Simulated seconds per wall second (TCP only).
        jitter_ms: Seeded per-delivery jitter bound (in-process only).
        quiesce_timeout_s: Wall seconds TCP waits for in-flight
            messages after the replay before counting them as drops
            (scaled up internally when ``time_scale`` runs slower than
            the 60x default).
        heartbeat_interval_s: Wall seconds between TCP liveness probes
            per connection (failure runs only; 0 disables).
        reconnect_backoff_s: Base of the TCP reconnect exponential
            backoff.
        reconnect_attempts: Reconnect attempts before a frame is
            dropped.
        drain_timeout_s: Wall seconds TCP grants its connection
            handlers to flush buffered frames at teardown (also scaled
            by the wall-stretch factor).
        wall_stretch_cap: Upper bound on the internal slow-``time_scale``
            budget stretch factor; raise it on slow CI machines where
            the 20x cap still flakes.
        clients: Optional end-client population to attach (ignored when
            ``network`` is given).
        network: Optional prebuilt network for exactly this config.
    """
    if duration is not None and duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration!r}")
    if config.adaptive is not None and transport != InProcessTransport.name:
        raise ConfigurationError(
            "adaptive re-optimization needs virtual-time counter "
            "snapshots; run it on the inprocess transport"
        )
    if network is None:
        network = build_live_network(config, clients=clients)
    driver = make_transport(
        transport,
        seed=config.seed,
        jitter_ms=jitter_ms,
        time_scale=time_scale,
        quiesce_timeout_s=quiesce_timeout_s,
        loss_probability=config.message_loss_probability,
        heartbeat_interval_s=heartbeat_interval_s,
        reconnect_backoff_s=reconnect_backoff_s,
        reconnect_attempts=reconnect_attempts,
        drain_timeout_s=drain_timeout_s,
        wall_stretch_cap=wall_stretch_cap,
    )
    start = time.perf_counter()
    stats: TransportStats = driver.run(network, duration=duration)
    wall = time.perf_counter() - start

    accumulator, per_pair, span = _score(network, duration)
    extras: dict = {
        "per_pair_loss": per_pair,
        "workload": config.workload.name,
        "policy": config.policy,
    }
    if network.clients:
        extras["client_loss"] = _score_clients(network, duration)
        extras["client_messages"] = sum(
            node.client_messages
            for node in (network.source_node, *network.repositories.values())
        )
    if network.failures is not None:
        schedule = network.failures.schedule
        extras["failure_events"] = len(schedule)
        extras["crashes"] = schedule.count("crash")
        extras["partitions"] = schedule.count("link_down")
        heartbeats = getattr(stats, "heartbeats", 0)
        if heartbeats:
            extras["heartbeats"] = heartbeats
        reconnects = getattr(stats, "reconnects", 0)
        if reconnects:
            extras["reconnects"] = reconnects
    # Adaptive runs report the graph they *ended* on, like the engine.
    final_graph = network.setup.graph
    if network.adaptive is not None:
        inner = network.adaptive.controller
        extras["adaptive_ticks"] = inner.ticks
        extras["adaptive_triggered"] = inner.triggered
        extras["adaptive_rewires"] = inner.rewires
        final_graph = inner.graph
    return LiveRunResult(
        loss_of_fidelity=accumulator.system_loss(),
        per_repository_loss=accumulator.per_repository(),
        counters=network.counters,
        tree_stats=final_graph.stats(),
        effective_degree=network.setup.effective_degree,
        avg_comm_delay_ms=network.setup.avg_comm_delay_ms,
        sim_span_s=span,
        transport=driver.name,
        wall_seconds=wall,
        sent=stats.sent,
        delivered=stats.delivered,
        dropped=stats.dropped,
        extras=extras,
    )
