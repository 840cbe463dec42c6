"""The event-driven dissemination simulation.

Semantics (DESIGN.md §5):

- Source updates fire at trace timestamps; only *changes* are simulated
  (polling repeats carry no information).  The traces themselves come
  from the config's workload (:mod:`repro.workloads`), so the same
  engine serves stationary Table 1 dynamics, flash crowds, diurnal
  cycles, or replayed recordings unchanged.
- When an update reaches a node, the node's local copy refreshes
  immediately, then the node checks each dependent registered for the
  item.  Checks are instantaneous bookkeeping; a *forwarded* copy costs
  ``comp_delay`` of serialised server time at the node (the paper's
  12.5 ms covers the check plus preparing the transmission) before it
  leaves, then travels the precomputed end-to-end network delay.
- The per-node serialisation is what makes a node with many dependents a
  bottleneck -- the mechanism behind the U-curve's rising arm and the
  no-cooperation saturation of Figures 5/6.

Churn (Section 4's "the algorithm is reapplied"): when the config
carries a :class:`~repro.engine.churn.ChurnSchedule`, its events run
inside the kernel at their scheduled times.  Each event applies
:class:`~repro.core.dynamics.DynamicMembership` (join incrementally;
depart/coherency-change rebuild in join order), and the resulting
:class:`~repro.core.dynamics.ReconfigurationDiff` is applied to the
*live* run: removed service edges are torn down (policy state dropped),
added edges are wired up (the new subscriber is primed with its
parent's current copy), and the diff's cost is charged into
:class:`~repro.core.metrics.CostCounters`.  Updates still in flight
toward a departed repository count as drops; fidelity is scored only
over the intervals a (repository, item, tolerance) requirement was
actually live.

Unplanned failures (:mod:`repro.engine.failures`): when the config
carries a :class:`~repro.engine.failures.FailureSchedule`, crash /
recover / link events likewise run in-kernel.  Messages toward a
crashed repository or over a down link count as drops; a crash fails
the orphaned dependents over to the nearest live ancestor (charged as
reconfiguration cost through the same
:class:`~repro.core.dynamics.ReconfigurationDiff` machinery churn
uses); a recovery anti-entropy-resyncs only the repository's missed
update-set and then re-homes its dependents.  Fidelity is scored over
availability segments, exactly like churn.
"""

from __future__ import annotations

import numpy as np

from repro.core.dissemination import DisseminationPolicy, make_policy
from repro.core.dissemination.filtering import FILTERED_POLICIES, forward_distributed
from repro.core.dynamics import ReconfigurationDiff
from repro.core.fidelity import FidelityAccumulator, segmented_loss
from repro.core.interests import InterestProfile
from repro.core.metrics import CostCounters
from repro.engine.builder import (
    SimulationSetup,
    build_setup,
    make_adaptive_controller,
    make_membership,
)
from repro.engine.churn import ChurnEvent
from repro.engine.failures import FailureEvent
from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.queueing import FifoStation
from repro.sim.rng import RandomStreams
from repro.traces.schedule import UpdateSchedule

__all__ = ["DisseminationSimulation", "make_simulation", "run_simulation"]

#: One fidelity-scoring segment: [t_start, t_end or None (still open),
#: the own-tolerance live over the segment].
_Segment = list


class DisseminationSimulation:
    """Drives one dissemination policy over one built setup."""

    def __init__(
        self,
        setup: SimulationSetup,
        policy: DisseminationPolicy | None = None,
        observer=None,
    ):
        self.setup = setup
        self.policy = policy if policy is not None else make_policy(setup.config.policy)
        # Out-of-band observability hook (repro.obs.trace.TraceRecorder
        # or compatible).  Never part of the config -- result-cache keys
        # and fingerprints are unaffected -- and consulted only behind
        # `is not None` guards, so an unobserved run does no extra work
        # and an observed run is bit-identical (the observer records
        # decisions; it never makes them).
        self.observer = observer
        self.kernel = Simulator()
        self.counters = CostCounters()
        self._comp_delay_s = setup.config.comp_delay_ms / 1000.0
        self._source = setup.source
        self._loss_probability = setup.config.message_loss_probability
        self._loss_rng = (
            RandomStreams(setup.config.seed).stream("message-loss")
            if self._loss_probability > 0.0
            else None
        )
        # Churn state: the membership is rebuilt fresh per simulation (a
        # shared setup must stay read-only; the replay is deterministic,
        # so its graph is bit-identical to setup.graph).
        self._churn = setup.config.churn
        self._membership = make_membership(setup) if self._churn is not None else None
        self._departed: set[int] = set()
        # Unplanned-failure state (mutually exclusive with churn): the
        # currently crashed repositories, the currently down service
        # links, and -- when a schedule is present -- per-(child, item)
        # parent maps so orphans can fail over and recoverers re-home.
        self._failures = setup.config.failures
        self._crashed: set[int] = set()
        self._down_links: set[tuple[int, int]] = set()
        # Adaptive re-optimization state (mutually exclusive with both
        # churn and failures): the per-run drift controller owns the
        # live graph once a rewire is applied.  Built before _prepare()
        # because _graph already resolves through it.
        self._adaptive = setup.config.adaptive
        self._adaptive_controller = (
            make_adaptive_controller(setup) if self._adaptive is not None else None
        )
        self._source_value: dict[int, float] = {}
        self._stations: dict[int, FifoStation] = {}
        # Per (node, item): list of (child, c_serve); precomputed for speed.
        self._children: dict[tuple[int, int], list[tuple[int, float]]] = {}
        self._receive_c: dict[tuple[int, int], float] = {}
        # Per (node, child): end-to-end delay in seconds, memoised on
        # first forward (the network is fixed for the run).
        self._edge_delay_s: dict[tuple[int, int], float] = {}
        # Per (repo, item): delivery log [(time, value), ...].
        self._deliveries: dict[tuple[int, int], list[tuple[float, float]]] = {}
        # Per (repo, item): fidelity-scoring segments (see _Segment).
        self._segments: dict[tuple[int, int], list[_Segment]] = {}
        # Modeled-client plane: per (repo, item), the clients' tolerance
        # array (read-only, from the setup) and this run's own mutable
        # last-served array, primed with the item's initial value.
        self._client_tols: dict[tuple[int, int], np.ndarray] = {}
        self._client_last: dict[tuple[int, int], np.ndarray] = {}
        client_tolerances = getattr(setup, "client_tolerances", None)
        if client_tolerances:
            for key, tols in client_tolerances.items():
                self._client_tols[key] = tols
                self._client_last[key] = np.full(
                    tols.shape, setup.traces[key[1]].initial_value
                )
        self._prepare()

    # ------------------------------------------------------------------

    @property
    def _graph(self):
        """The live dissemination graph (rebound by churn rebuilds and
        adaptive re-optimizations)."""
        if self._membership is not None:
            return self._membership.graph
        if self._adaptive_controller is not None:
            return self._adaptive_controller.graph
        return self.setup.graph

    def _graphs(self):
        """(graph, root, item ids) triples to wire up.

        The single-source engine serves every item from one graph; the
        multi-source extension overrides this with one triple per source.
        """
        return [(self._graph, self._source, list(self.setup.traces))]

    def _prepare(self) -> None:
        self._root_of: dict[int, int] = {}
        self._parent_of: dict[tuple[int, int], int] = {}
        for graph, root, item_ids in self._graphs():
            for node in graph.nodes:
                if node not in self._stations:
                    self._stations[node] = FifoStation(name=f"node{node}")
            for item_id in item_ids:
                self._root_of[item_id] = root
                initial = self.setup.traces[item_id].initial_value
                for node in graph.nodes:
                    children = graph.children_for_item(node, item_id)
                    if children:
                        self._children[(node, item_id)] = children
                        for child, c_serve in children:
                            self._parent_of[(child, item_id)] = node
                            self.policy.register_edge(
                                node, child, item_id, c_serve, initial
                            )
                    if node != root:
                        state = graph.nodes[node]
                        if item_id in state.receive_c:
                            self._receive_c[(node, item_id)] = state.receive_c[item_id]
                            self._deliveries[(node, item_id)] = [(0.0, initial)]
        initial_members = (
            set(self._membership.members) if self._membership is not None else None
        )
        for repo, profile in self.setup.profiles.items():
            if initial_members is not None and repo not in initial_members:
                continue  # late joiner: scoring starts at its join event
            for item_id, c_own in profile.requirements.items():
                self._segments[(repo, item_id)] = [[0.0, None, c_own]]
        # Failover re-homes dependents, so remember where they started.
        self._home_parent = (
            dict(self._parent_of) if self._failures is not None else {}
        )

    # ------------------------------------------------------------------

    def _on_source_update(
        self, item_id: int, value: float, update_id: int = -1
    ) -> None:
        self._source_value[item_id] = value
        root = self._root_of[item_id]
        decision = self.policy.at_source(item_id, value)
        if decision.checks:
            self.counters.record_check(root, is_source=True, count=decision.checks)
        if self.observer is not None:
            self.observer.on_source(
                update_id, item_id, self.kernel.now, root,
                decision.checks, decision.disseminate,
            )
        if not decision.disseminate:
            return
        self._process_at_node(root, item_id, value, decision.tag, update_id)

    def _on_delivery(
        self,
        node: int,
        item_id: int,
        value: float,
        tag,
        update_id: int = -1,
        src: int = -1,
    ) -> None:
        now = self.kernel.now
        if node in self._departed or node in self._crashed:
            # The sender paid for the message, but the repository left
            # (or crashed) while it was in flight: a drop.
            self.counters.record_drop()
            if self.observer is not None:
                reason = "departed" if node in self._departed else "crash"
                self.observer.on_drop(update_id, item_id, now, src, node, reason)
            return
        self.counters.record_delivery()
        if self.observer is not None:
            self.observer.on_deliver(update_id, item_id, now, node)
        log = self._deliveries.get((node, item_id))
        if log is not None:
            log.append((now, value))
        if self._client_tols:
            self._serve_clients(node, item_id, value)
        self._process_at_node(node, item_id, value, tag, update_id)

    def _serve_clients(self, node: int, item_id: int, value: float) -> None:
        """Filter one fresh copy to the repository's modeled clients.

        Mirrors the live layer: every client is served by the
        repository-local Eq. (3) + Eq. (7) test at the client's own
        tolerance, regardless of the repository-plane policy, and client
        traffic stays out of the repository-plane counters.  This scalar
        per-client loop is the oracle the vectorized kernel's one-call
        batch must agree with, client for client.
        """
        tols = self._client_tols.get((node, item_id))
        if tols is None:
            return
        receive_c = self._receive_c.get((node, item_id))
        if receive_c is None:
            # The pair is mid-teardown (churn removed the subscription
            # while this message was in flight): nobody to serve from.
            return
        last = self._client_last[(node, item_id)]
        sent = 0
        for index in range(len(tols)):
            if forward_distributed(value, last[index], tols[index], receive_c):
                last[index] = value
                sent += 1
        self.counters.record_client_serving(checks=len(tols), messages=sent)

    def _process_at_node(
        self, node: int, item_id: int, value: float, tag, update_id: int = -1
    ) -> None:
        children = self._children.get((node, item_id))
        if not children:
            return
        now = self.kernel.now
        is_source = node == self._root_of[item_id]
        parent_receive_c = 0.0 if is_source else self._receive_c[(node, item_id)]
        station = self._stations[node]
        comp_delay_s = self._comp_delay_s
        observer = self.observer
        decide = self.policy.decide
        edge_delay_s = self._edge_delay_s
        down_links = self._down_links
        loss_rng = self._loss_rng
        schedule_at = self.kernel.schedule_at
        on_delivery = self._on_delivery
        # Checks and forwarded messages are summed here and counted once
        # per call: integer sums, so the counters come out identical.
        checks = 0
        forwarded = 0
        for child, _c_serve in children:
            decision = decide(node, child, item_id, value, parent_receive_c, tag)
            checks += decision.checks
            if observer is not None:
                observer.on_check(
                    update_id, item_id, now, node, child,
                    decision.checks, decision.forward, is_source,
                )
            if not decision.forward:
                continue
            departure = station.submit(now, comp_delay_s)
            delay = edge_delay_s.get((node, child))
            if delay is None:
                delay = edge_delay_s[(node, child)] = self.setup.network.delay_s(
                    node, child
                )
            arrival = departure + delay
            forwarded += 1
            if observer is not None:
                observer.on_forward(update_id, item_id, now, node, child, arrival - now)
            if down_links and (node, child) in down_links:
                # Partition: the sender paid (queueing included) but the
                # link ate the message.  Decided before the Bernoulli
                # loss draw, so the loss stream is only consumed for
                # messages that actually enter the network.
                self.counters.record_drop()
                if observer is not None:
                    observer.on_drop(update_id, item_id, now, node, child, "partition")
                continue
            if loss_rng is not None and loss_rng.random() < self._loss_probability:
                # Failure injection: the sender paid for the message but
                # the network ate it; the child stays stale until the
                # next update for it is forwarded.
                self.counters.record_drop()
                if observer is not None:
                    observer.on_drop(update_id, item_id, now, node, child, "loss")
                continue
            schedule_at(arrival, on_delivery, child, item_id, value, tag, update_id, node)
        self.counters.record_check(node, is_source=is_source, count=checks)
        if forwarded:
            self.counters.record_message(node, is_source=is_source, count=forwarded)

    # ------------------------------------------------------------------
    # Churn execution
    # ------------------------------------------------------------------

    def _on_churn(self, event: ChurnEvent) -> None:
        """Apply one membership change to the live run."""
        now = self.kernel.now
        repo = event.repository
        resync: frozenset = frozenset()
        if event.kind == "join":
            profile = event.profile()
            if profile is None:
                profile = self.setup.profiles[repo]
            if repo in self._departed:
                # A rejoining repository comes back with stale state: it
                # must receive deliveries again and initial-sync fresh
                # copies rather than resume from its pre-departure ones.
                self._departed.discard(repo)
                resync = frozenset((repo,))
            diff = self._membership.join(profile)
            for item_id in sorted(profile.requirements):
                self._segments.setdefault((repo, item_id), []).append(
                    [now, None, profile.requirements[item_id]]
                )
        elif event.kind == "depart":
            diff = self._membership.leave(repo)
            self._departed.add(repo)
            for (r, _item_id), segments in self._segments.items():
                if r == repo and segments and segments[-1][1] is None:
                    segments[-1][1] = now
        else:  # coherency / data-needs change
            old = dict(self._membership.profile_of(repo).requirements)
            new = dict(event.requirements)
            diff = self._membership.update_requirements(
                InterestProfile(repository=repo, requirements=new)
            )
            for item_id in sorted(set(old) | set(new)):
                old_c, new_c = old.get(item_id), new.get(item_id)
                if old_c == new_c:
                    continue  # untouched requirement: segment stays open
                segments = self._segments.get((repo, item_id))
                if old_c is not None and segments and segments[-1][1] is None:
                    segments[-1][1] = now
                if new_c is not None:
                    self._segments.setdefault((repo, item_id), []).append(
                        [now, None, new_c]
                    )
        self._apply_diff(diff, now, resync=resync)

    def _apply_diff(self, diff, now: float, resync: frozenset = frozenset()) -> None:
        """Tear down removed service edges, wire up added ones.

        Args:
            diff: The membership change's edge-level diff.
            now: Simulated time the reconfiguration takes effect.
            resync: Nodes whose existing copies are stale (a rejoining
                repository) and must initial-sync even though they still
                hold a delivery log from their earlier membership.
        """
        self.counters.record_reconfiguration(
            n_added=len(diff.added), n_removed=len(diff.removed)
        )
        graph = self._graph
        for parent, child, item_id, _c in sorted(diff.removed):
            key = (parent, item_id)
            children = self._children.get(key)
            if children is not None:
                children[:] = [(ch, cc) for ch, cc in children if ch != child]
                if not children:
                    del self._children[key]
            self.policy.unregister_edge(parent, child, item_id)
            state = graph.nodes.get(child)
            if state is None or item_id not in state.receive_c:
                # The child no longer receives the item at all (departed,
                # or the rebuild dropped the relay); its delivery log is
                # kept for fidelity scoring of the elapsed interval.
                self._receive_c.pop((child, item_id), None)
        # Parents must hold a current copy before their children sync
        # from them, so wire additions root-downward per item tree.
        added = sorted(
            diff.added, key=lambda e: (e[2], graph.item_depth(e[1], e[2]), e)
        )
        for parent, child, item_id, c_serve in added:
            for node in (parent, child):
                if node not in self._stations:
                    self._stations[node] = FifoStation(name=f"node{node}")
            value = self._current_value(parent, item_id)
            log = self._deliveries.get((child, item_id))
            if log is None or child in resync:
                # New subscription (or a rejoiner with stale state): the
                # child initial-syncs the parent's current copy (charged
                # as reconfiguration cost, not as an update message).
                if log is None:
                    self._deliveries[(child, item_id)] = [(now, value)]
                else:
                    log.append((now, value))
                initial = value
            else:
                # Re-homed subscription: the child keeps its own copy.
                initial = log[-1][1]
            self._receive_c[(child, item_id)] = c_serve
            self._children.setdefault((parent, item_id), []).append((child, c_serve))
            self.policy.register_edge(parent, child, item_id, c_serve, initial)

    # ------------------------------------------------------------------
    # Adaptive re-optimization execution
    # ------------------------------------------------------------------

    def _message_counts(self) -> dict[int, int]:
        """Cumulative per-node sent-message counts right now.

        The drift signal the adaptive controller consumes; the
        vectorized kernel overrides this to sparsify its dense array
        into the identical dict.
        """
        return dict(self.counters.per_node_messages)

    def _on_adaptive_tick(self, now: float) -> None:
        """One drift evaluation; apply the rewire diff if one fires.

        Shared by the vectorized kernel (called from its drain loop at
        the tick's timestamp), so both engines make identical rewiring
        decisions from identical counter snapshots.
        """
        diff = self._adaptive_controller.on_tick(now, self._message_counts())
        observer = self.observer
        if observer is not None and getattr(observer, "metrics", None) is not None:
            metrics = observer.metrics
            metrics.counter("adaptive.ticks").inc()
            drifts = self._adaptive_controller.last_drifts
            if drifts:
                metrics.gauge("adaptive.max_drift").set(max(drifts.values()))
                hist = metrics.histogram(
                    "adaptive.drift", bounds=(0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
                )
                for value in drifts.values():
                    hist.observe(value)
            if diff is not None:
                metrics.counter("adaptive.rewires").inc()
        if diff is not None:
            self._apply_diff(diff, now)

    # ------------------------------------------------------------------
    # Unplanned-failure execution
    # ------------------------------------------------------------------

    def _on_failure(self, event: FailureEvent) -> None:
        self._apply_failure(event, self.kernel.now)

    def _apply_failure(self, event: FailureEvent, now: float) -> None:
        """Apply one crash/recover/link event to the live run.

        Shared verbatim by the vectorized kernel (which calls it from
        its drain loop at the event's timestamp), so both engines make
        identical reconfiguration and resync decisions.
        """
        if event.kind == "link_down":
            self._down_links.add(event.link)
            return
        if event.kind == "link_up":
            self._down_links.discard(event.link)
            return
        repo = event.repository
        if event.kind == "crash":
            self._crashed.add(repo)
            # The repository is unavailable: close its open scoring
            # segments (fidelity is only owed while it is up).
            for (r, _item_id), segments in self._segments.items():
                if r == repo and segments and segments[-1][1] is None:
                    segments[-1][1] = now
            self._fail_over(repo, now)
        else:  # recover
            self._crashed.discard(repo)
            for (r, _item_id), segments in self._segments.items():
                if r == repo and segments and segments[-1][1] is not None:
                    segments.append([now, None, segments[-1][2]])
            self._resync(repo, now)
            self._restore_home(repo, now)

    def _live_parent(self, node: int, item_id: int) -> int | None:
        """The nearest non-crashed ancestor serving ``item_id`` above
        ``node``, or ``None`` when the walk leaves the tree (the node
        roots the item, as multi-source roots do)."""
        parent = self._parent_of.get((node, item_id))
        while parent is not None and parent in self._crashed:
            parent = self._parent_of.get((parent, item_id))
        return parent

    def _fail_over(self, repo: int, now: float) -> None:
        """Re-home the crashed repository's dependents to backup parents."""
        moved: list[tuple[int, int, int, float, int]] = []
        for (node, item_id), children in self._children.items():
            if node != repo:
                continue
            backup = self._live_parent(repo, item_id)
            if backup is None:
                continue  # no live ancestor: dependents wait for recovery
            for child, c_serve in children:
                moved.append((repo, child, item_id, c_serve, backup))
        if not moved:
            return
        diff = ReconfigurationDiff(
            added=frozenset((b, ch, it, c) for _p, ch, it, c, b in moved),
            removed=frozenset((p, ch, it, c) for p, ch, it, c, _b in moved),
        )
        self._apply_diff(diff, now)
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
            c_serve = self._receive_c.get((child, item_id))
            if c_serve is None:
                continue
            moved.append((current, child, item_id, c_serve))
        if not moved:
            return
        diff = ReconfigurationDiff(
            added=frozenset((repo, ch, it, c) for _cur, ch, it, c in moved),
            removed=frozenset(moved),
        )
        self._apply_diff(diff, now)
        for _current, child, item_id, _c in moved:
            self._parent_of[(child, item_id)] = repo

    def _resync(self, repo: int, now: float) -> None:
        """Anti-entropy resync of a recovered repository's stale copies.

        Setdiscovery-style: one comparison against the live parent per
        subscribed item (the discovery round), one transfer only for
        items whose copy actually diverged while the repository was
        down -- the missed update-set, never a full state transfer.
        """
        checks = 0
        messages = 0
        for node, item_id in sorted(self._receive_c):
            if node != repo:
                continue
            provider = self._live_parent(repo, item_id)
            if provider is None:
                continue  # whole ancestry down: nothing fresher to pull
            checks += 1
            value = self._current_value(provider, item_id)
            log = self._deliveries[(repo, item_id)]
            if value != log[-1][1]:
                log.append((now, value))
                messages += 1
        if checks:
            self.counters.record_resync(checks, messages)

    def _current_value(self, node: int, item_id: int) -> float:
        """The copy ``node`` holds for ``item_id`` right now."""
        if node == self._root_of[item_id]:
            return self._source_value.get(
                item_id, self.setup.traces[item_id].initial_value
            )
        log = self._deliveries.get((node, item_id))
        if log is None:
            raise SimulationError(
                f"node {node} has no copy of item {item_id} to serve from"
            )
        return log[-1][1]

    # ------------------------------------------------------------------

    def _update_schedule(self) -> UpdateSchedule:
        """The run's source-update timeline (precomputed by the builder;
        recomputed here only for hand-built setups)."""
        schedule = getattr(self.setup, "update_schedule", None)
        if schedule is None:
            schedule = UpdateSchedule.from_traces(self.setup.traces)
        return schedule

    def run(self) -> SimulationResult:
        """Schedule all trace updates, run to quiescence, score fidelity."""
        if self._churn is not None:
            # Scheduled before the trace updates so that a churn event
            # and an update at the same instant apply membership first
            # (the kernel breaks time ties in scheduling order).
            for event in self._churn.events:
                self.kernel.schedule_at(float(event.time), self._on_churn, event)
        if self._failures is not None:
            # Same tie-break contract as churn: a failure event and an
            # update or delivery at the same instant apply the failure
            # first (crash at t drops the delivery at t).
            for event in self._failures.events:
                self.kernel.schedule_at(float(event.time), self._on_failure, event)
        schedule = self._update_schedule()
        if self._adaptive_controller is not None:
            # Same tie-break contract as churn and failures: a drift
            # tick and a delivery at the same instant evaluate the tick
            # first, so both kernels see identical counter snapshots.
            for t in self._adaptive_controller.tick_times(schedule.span):
                self.kernel.schedule_at(t, self._on_adaptive_tick, t)
        # tolist() yields plain Python floats/ints; scheduling the merged
        # time-sorted timeline enqueues the same (time, relative-order)
        # set the per-trace loop always produced, so heap pop order --
        # and with it every result bit -- is unchanged.
        # The enumerate index is the update's stable trace id: the same
        # numbering the vectorized drain loop and the live layer's
        # source sequence (seq - 1) reproduce.
        for update_id, (t, item_id, v) in enumerate(
            zip(
                schedule.times.tolist(),
                schedule.item_ids.tolist(),
                schedule.values.tolist(),
            )
        ):
            self.kernel.schedule_at(t, self._on_source_update, item_id, v, update_id)
        self.kernel.run()
        return self._score(schedule.span)

    def _score(self, span: float) -> SimulationResult:
        accumulator = FidelityAccumulator()
        per_pair: dict[tuple[int, int], float] = {}
        for (repo, item_id), segments in self._segments.items():
            trace = self.setup.traces[item_id]
            log = self._deliveries.get((repo, item_id))
            if log is None:
                # Never wired for the item (cannot happen after LeLA
                # validation, but fail loud rather than silently).
                raise RuntimeError(
                    f"repository {repo} has no delivery log for item {item_id}"
                )
            recv_times = [entry[0] for entry in log]
            recv_values = [entry[1] for entry in log]
            t0 = float(trace.times[0])
            t1 = float(trace.times[-1])
            # A single open segment covering t0 (static membership, no
            # failure touched the pair) scores exactly as the churn-free
            # engine always has, bit for bit; otherwise the loss is
            # duration-weighted over the live intervals.  None means the
            # requirement was never live inside the window (e.g. a join
            # past the last trace sample): nothing to score.
            loss = segmented_loss(
                trace.times,
                trace.values,
                recv_times,
                recv_values,
                segments,
                t0,
                t1,
            )
            if loss is None:
                continue
            accumulator.add(repo, item_id, loss)
            per_pair[(repo, item_id)] = loss
        extras: dict = {
            "per_pair_loss": per_pair,
            "workload": self.setup.config.workload.name,
        }
        if self._membership is not None:
            extras["churn_events"] = len(self._churn)
            extras["final_members"] = len(self._membership.members)
        if self._failures is not None:
            extras["failure_events"] = len(self._failures)
            extras["crashes"] = self._failures.count("crash")
            extras["partitions"] = self._failures.count("link_down")
        if self._adaptive_controller is not None:
            extras["adaptive_ticks"] = self._adaptive_controller.ticks
            extras["adaptive_triggered"] = self._adaptive_controller.triggered
            extras["adaptive_rewires"] = self._adaptive_controller.rewires
        return SimulationResult(
            loss_of_fidelity=accumulator.system_loss(),
            per_repository_loss=accumulator.per_repository(),
            counters=self.counters,
            tree_stats=self._graph.stats(),
            effective_degree=self.setup.effective_degree,
            avg_comm_delay_ms=self.setup.avg_comm_delay_ms,
            events_processed=self._events_processed(),
            sim_span_s=span,
            extras=extras,
        )

    def _events_processed(self) -> int:
        """Kernel-event count for the result (hook for other kernels)."""
        return self.kernel.events_processed

    def delivery_log(self, repo: int, item_id: int) -> list[tuple[float, float]]:
        """The (time, value) receive log for one repository/item pair."""
        return list(self._deliveries.get((repo, item_id), []))


def make_simulation(
    setup: SimulationSetup,
    policy: DisseminationPolicy | None = None,
    observer=None,
) -> DisseminationSimulation:
    """Instantiate the engine the setup's config asks for.

    ``kernel="auto"`` (the default) picks the vectorized array-backed
    engine whenever the run supports it -- no churn schedule and one of
    the four push policies -- and the scalar oracle otherwise.  The two
    are bit-identical wherever both apply (pinned by the golden suite),
    so the choice is purely a wall-clock matter.

    ``observer`` (e.g. a :class:`repro.obs.trace.TraceRecorder`) is
    attached out-of-band; it records trace spans without perturbing the
    run.

    Raises:
        ConfigurationError: when ``kernel="vectorized"`` is forced for a
            run the vectorized engine does not support.
    """
    # Local import: the vectorized engine subclasses
    # DisseminationSimulation, so importing it at module scope would be
    # circular.
    from repro.engine.vectorized import VectorizedSimulation

    config = setup.config
    kernel = getattr(config, "kernel", "auto")
    policy_name = policy.name if policy is not None else config.policy
    supported = config.churn is None and policy_name in FILTERED_POLICIES
    if kernel == "scalar":
        return DisseminationSimulation(setup, policy, observer=observer)
    if kernel == "vectorized":
        if not supported:
            raise ConfigurationError(
                "kernel='vectorized' cannot run this simulation "
                f"(policy={policy_name!r}, churn={'yes' if config.churn else 'no'}); "
                "supported: no churn and a policy in "
                f"{list(FILTERED_POLICIES)}"
            )
        return VectorizedSimulation(setup, policy, observer=observer)
    return (
        VectorizedSimulation(setup, policy, observer=observer)
        if supported
        else DisseminationSimulation(setup, policy, observer=observer)
    )


def run_simulation(
    config: SimulationConfig,
    setup: SimulationSetup | None = None,
    base: SimulationSetup | None = None,
    observer=None,
) -> SimulationResult:
    """Build (or reuse) a setup and run one simulation end to end.

    Args:
        config: The run's full parameterisation.
        setup: Optional prebuilt setup for exactly this config; used as
            is, without rebuilding anything.
        base: Optional setup from an earlier config in a sweep; pieces
            unaffected by the config delta (network, traces, interests)
            are recycled from it.
        observer: Optional out-of-band trace observer (see
            :mod:`repro.obs.trace`); attaching one never changes the
            result.
    """
    if setup is None:
        setup = build_setup(config, base=base)
    return make_simulation(setup, observer=observer).run()
