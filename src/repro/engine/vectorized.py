"""The vectorized array-backed dissemination engine.

Same simulation, different data layout.  The scalar engine
(:class:`~repro.engine.simulation.DisseminationSimulation`) walks one
Python object per message and one dict lookup per dependent; this engine
regroups the run into struct-of-arrays form so every hot-path step is a
handful of numpy calls over *all* dependents of an edge group at once:

- **Edge groups.**  Each (node, item) pair that sends or receives
  becomes one integer group id.  A group stores its dependents as
  parallel arrays -- child group ids, serving tolerances (quantised for
  the centralised policy, exactly as the scalar policy stores them),
  per-edge last-sent values, and precomputed end-to-end delays -- plus
  the scalars the decision needs (the node's own receive coherency,
  whether it is the source).
- **Decisions.**  One update against a group evaluates Eq. (3)/Eq. (7),
  the Eq. (3)-only test, the flooding distinct-value test, or the
  centralised tag cover over the whole dependent array via the
  ``*_many`` mirrors in :mod:`repro.core.dissemination.filtering` --
  elementwise bit-identical to the scalar functions.
- **Queueing.**  The FIFO station's chained ``busy_until`` additions
  become one ``cumsum`` whose first element carries the start offset;
  sequential accumulation reproduces the scalar chain bit for bit.
- **Events.**  A :class:`~repro.sim.kernel.BatchKernel` merges the
  precomputed source timeline with a tuple heap of in-flight
  deliveries.  Both kernels keep plain tuples on their heaps; this one
  also skips the scalar kernel's per-event callback dispatch and never
  pushes the source updates at all.
- **Counters.**  :class:`~repro.core.metrics.ArrayCounters` accumulates
  per-node tallies in dense arrays, folded into
  :class:`~repro.core.metrics.CostCounters` once at the end.

The scalar engine stays the **oracle**: this class subclasses it, reuses
its preparation (children maps, receive coherencies, delivery logs,
scoring segments, the registered scalar policy -- the single source of
truth for what exists in the network) and its scoring, and replaces only
the event loop.  ``tests/engine/test_vectorized_golden.py`` pins
bit-identical results (loss, per-pair losses, every counter field)
across policies and workloads.

Unplanned failures (:mod:`repro.engine.failures`) **are** supported:
the drain loop applies pending failure events before each unit (the
same tie-break the scalar kernel's event queue produces), arrivals at
crashed repositories and sends over down links become drops before the
Bernoulli loss stream is consumed, and failover/restore
reconfigurations patch the edge-group arrays in the exact order the
scalar ``_apply_diff`` wires them (for the centralised policy, the
:class:`~repro.core.dissemination.filtering.ArraySourceTagger` replays
the scalar tagger's remove/re-add transitions edge for edge).

Adaptive re-optimization (:mod:`repro.engine.adaptive`) is supported
the same way: drift ticks are applied inline before each unit at the
exact instants the scalar kernel schedules them, the controller reads
this engine's dense per-node message tallies sparsified into the
identical dict the scalar counters hold, and applied rewires patch the
edge-group arrays through the same ``_apply_diff`` override --
including groups that exist only in the re-optimized graph, which are
materialised on first use.

Not supported here -- the factory
(:func:`~repro.engine.simulation.make_simulation`) falls back to the
scalar engine for: churn schedules (mid-run membership rebuilds mutate
the edge structure) and policies outside the four push policies.
"""

from __future__ import annotations

import numpy as np

from repro.core.dissemination import DisseminationPolicy
from repro.core.dissemination.filtering import (
    FILTERED_POLICIES,
    ArraySourceTagger,
    forward_centralized_many,
    forward_distributed_many,
    forward_eq3_only_many,
    forward_flooding_many,
    quantise_tolerance,
)
from repro.core.metrics import ArrayCounters
from repro.engine.builder import SimulationSetup
from repro.engine.results import SimulationResult
from repro.engine.simulation import DisseminationSimulation
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import BatchKernel

__all__ = ["VectorizedSimulation"]

# Branch-free-ish policy dispatch for the hot loop.
_DISTRIBUTED, _EQ3_ONLY, _FLOODING, _CENTRALIZED = range(4)
_POLICY_KIND = {
    "distributed": _DISTRIBUTED,
    "eq3_only": _EQ3_ONLY,
    "flooding": _FLOODING,
    "centralized": _CENTRALIZED,
}


class VectorizedSimulation(DisseminationSimulation):
    """Array-backed engine, bit-identical to the scalar oracle."""

    def __init__(
        self,
        setup: SimulationSetup,
        policy: DisseminationPolicy | None = None,
        observer=None,
    ):
        super().__init__(setup, policy, observer=observer)
        if self._churn is not None:
            raise ConfigurationError(
                "VectorizedSimulation does not support churn schedules; "
                "use the scalar engine (kernel='scalar' or 'auto')"
            )
        name = getattr(self.policy, "name", None)
        if name not in FILTERED_POLICIES:
            raise ConfigurationError(
                f"VectorizedSimulation supports policies {list(FILTERED_POLICIES)}, "
                f"got {name!r}"
            )
        self._policy_kind = _POLICY_KIND[name]
        self._batch_kernel: BatchKernel | None = None
        self._build_arrays()

    # ------------------------------------------------------------------

    def _build_arrays(self) -> None:
        """Regroup the scalar preparation into struct-of-arrays form."""
        setup = self.setup
        network = setup.network
        centralized = self._policy_kind == _CENTRALIZED

        # One group per (node, item) that sends and/or receives; senders
        # first so the source groups get low ids, then pure receivers.
        gid_of: dict[tuple[int, int], int] = {}
        for key in self._children:
            gid_of[key] = len(gid_of)
        for key in self._receive_c:
            if key not in gid_of:
                gid_of[key] = len(gid_of)
        self._gid_of = gid_of

        n = len(gid_of)
        self._g_node: list[int] = [0] * n
        self._g_item: list[int] = [0] * n
        self._g_issrc: list[bool] = [False] * n
        self._g_prc: list[float] = [0.0] * n
        self._g_child_gid: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_cs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_last: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_delay: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._g_log: list[list | None] = [None] * n
        self._g_ctol: list[np.ndarray | None] = [None] * n
        self._g_clast: list[np.ndarray | None] = [None] * n

        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0)
        for key, gid in gid_of.items():
            node, item_id = key
            initial = setup.traces[item_id].initial_value
            children = self._children.get(key)
            if children:
                try:
                    child_gids = np.array(
                        [gid_of[(child, item_id)] for child, _c in children],
                        dtype=np.int64,
                    )
                except KeyError as exc:
                    raise SimulationError(
                        f"child group missing for edge from node {node}, "
                        f"item {item_id}: {exc}"
                    ) from None
                cs = np.array(
                    [
                        quantise_tolerance(c) if centralized else c
                        for _child, c in children
                    ]
                )
                delays = np.array(
                    [network.delay_s(node, child) for child, _c in children]
                )
                last = np.full(len(children), initial)
            else:
                child_gids, cs, delays, last = empty_i, empty_f, empty_f, empty_f
            self._g_node[gid] = node
            self._g_item[gid] = item_id
            self._g_issrc[gid] = node == self._root_of[item_id]
            self._g_prc[gid] = (
                0.0 if self._g_issrc[gid] else self._receive_c[key]
            )
            self._g_child_gid[gid] = child_gids
            self._g_cs[gid] = cs
            self._g_delay[gid] = delays
            self._g_last[gid] = last
            self._g_log[gid] = self._deliveries.get(key)
            self._g_ctol[gid] = self._client_tols.get(key)
            self._g_clast[gid] = self._client_last.get(key)

        self._root_gid: dict[int, int] = {
            item_id: gid_of.get((self._root_of[item_id], item_id), -1)
            for item_id in setup.traces
        }
        n_nodes = max(self._stations) + 1 if self._stations else 1
        self._busy = np.zeros(n_nodes)
        self._acounters = ArrayCounters(n_nodes)

        if centralized:
            # Populated from the *scalar* policy's registered state, so
            # the oracle stays the single source of truth for which
            # tolerances exist in the network.
            self._tagger = ArraySourceTagger()
            for item_id, trace in setup.traces.items():
                self._tagger.add_item(
                    item_id,
                    self.policy.unique_tolerances(item_id),
                    trace.initial_value,
                )
            if self._failures is not None or self._adaptive is not None:
                # (item, quantised tolerance) -> number of edges serving
                # at it; lets reconfiguration diffs (failover or adaptive
                # rewires) replay the scalar policy's refcounted
                # SourceTagger remove/re-add transitions on the array
                # tagger without peeking at policy internals.
                self._tol_count: dict[tuple[int, float], int] = {}
                for (_node, item_id), children in self._children.items():
                    for _child, c in children:
                        key = (item_id, quantise_tolerance(c))
                        self._tol_count[key] = self._tol_count.get(key, 0) + 1

    # ------------------------------------------------------------------

    def _process_group(
        self, gid: int, t: float, value: float, tag, update_id: int = -1
    ) -> None:
        """Decide, queue and dispatch one update against one edge group.

        The vectorized mirror of the scalar ``_process_at_node`` child
        loop: one decision call over all dependents, one ``cumsum`` for
        the FIFO departures, one batched loss draw, then tuple pushes.
        Span emission is batched too -- one observer call per decision
        stage, never per child.
        """
        cs = self._g_cs[gid]
        n_children = cs.size
        if not n_children:
            return
        kind = self._policy_kind
        last = self._g_last[gid]
        if kind == _DISTRIBUTED:
            mask = forward_distributed_many(value, last, cs, self._g_prc[gid])
        elif kind == _EQ3_ONLY:
            mask = forward_eq3_only_many(value, last, cs)
        elif kind == _FLOODING:
            mask = forward_flooding_many(value, last)
        else:
            mask = forward_centralized_many(cs, tag)
        node = self._g_node[gid]
        is_source = self._g_issrc[gid]
        counters = self._acounters
        counters.record_checks(node, is_source, n_children)
        observer = self.observer
        if observer is not None:
            node_of = self._g_node
            observer.on_check_batch(
                update_id, self._g_item[gid], t, node,
                [node_of[g] for g in self._g_child_gid[gid].tolist()],
                mask.tolist(), is_source,
            )
        n_forward = int(np.count_nonzero(mask))
        if not n_forward:
            return
        if kind != _CENTRALIZED:
            last[mask] = value

        # FIFO station: the scalar engine chains busy_until additions one
        # submit at a time; cumsum with the start folded into the first
        # element reproduces that chain bit for bit.
        busy = self._busy
        backlog = busy[node]
        start = t if t > backlog else backlog
        departures = np.full(n_forward, self._comp_delay_s)
        departures[0] = start + self._comp_delay_s
        np.cumsum(departures, out=departures)
        busy[node] = departures[-1]
        counters.record_messages(node, is_source, n_forward)

        arrivals = departures + self._g_delay[gid][mask]
        targets = self._g_child_gid[gid][mask]
        if observer is not None:
            observer.on_forward_batch(
                update_id, self._g_item[gid], t, node,
                [node_of[g] for g in targets.tolist()],
                (arrivals - t).tolist(),
            )
        if self._down_links:
            # Partition filter before the loss draw: the Bernoulli
            # stream is only consumed for messages that actually enter
            # the network, exactly like the scalar child loop.
            down = self._down_links
            node_of = self._g_node
            kept_link = np.fromiter(
                ((node, node_of[target]) not in down for target in targets.tolist()),
                dtype=bool,
                count=targets.size,
            )
            n_link_dropped = targets.size - int(np.count_nonzero(kept_link))
            if n_link_dropped:
                counters.drops += n_link_dropped
                if observer is not None:
                    observer.on_drop_batch(
                        update_id, self._g_item[gid], t, node,
                        [node_of[g] for g in targets[~kept_link].tolist()],
                        "partition",
                    )
                arrivals = arrivals[kept_link]
                targets = targets[kept_link]
        if self._loss_rng is not None and targets.size:
            # Same stream, same order: one batched draw consumes the
            # generator exactly like the scalar per-message draws.
            kept = self._loss_rng.random(targets.size) >= self._loss_probability
            dropped = int(targets.size) - int(np.count_nonzero(kept))
            if dropped:
                counters.drops += dropped
                if observer is not None:
                    observer.on_drop_batch(
                        update_id, self._g_item[gid], t, node,
                        [self._g_node[g] for g in targets[~kept].tolist()],
                        "loss",
                    )
                arrivals = arrivals[kept]
                targets = targets[kept]
        push = self._batch_kernel.push
        for arrival, target in zip(arrivals.tolist(), targets.tolist()):
            push(arrival, target, value, tag, update_id, node)

    def run(self) -> SimulationResult:
        """Drain the merged source/delivery timeline, then score."""
        schedule = self._update_schedule()
        kernel = BatchKernel(schedule.times)
        self._batch_kernel = kernel
        source_times = schedule.times.tolist()
        source_items = schedule.item_ids.tolist()
        source_values = schedule.values.tolist()
        centralized = self._policy_kind == _CENTRALIZED
        root_gid = self._root_gid
        counters = self._acounters
        observer = self.observer
        track = self._failures is not None or self._adaptive is not None
        fail_events = list(self._failures.events) if self._failures is not None else []
        fi, nf = 0, len(fail_events)
        tick_times = (
            self._adaptive_controller.tick_times(schedule.span)
            if self._adaptive_controller is not None
            else []
        )
        ti, nt = 0, len(tick_times)
        for unit in kernel.drain():
            if fi < nf:
                # Same tie-break as the scalar event queue (failures are
                # scheduled before everything else at run() start): a
                # failure at t applies before the update or delivery at t.
                t_unit = source_times[unit] if type(unit) is int else unit[0]
                while fi < nf and fail_events[fi].time <= t_unit:
                    event = fail_events[fi]
                    self._apply_failure(event, float(event.time))
                    fi += 1
            if ti < nt:
                # Drift ticks share the failure tie-break: a tick at t
                # evaluates before the update or delivery at t, so both
                # kernels snapshot identical counter states.
                t_unit = source_times[unit] if type(unit) is int else unit[0]
                while ti < nt and tick_times[ti] <= t_unit:
                    self._on_adaptive_tick(tick_times[ti])
                    ti += 1
            if type(unit) is int:
                # A fresh source update; the static schedule index is
                # the update's stable trace id.
                item_id = source_items[unit]
                value = source_values[unit]
                if track:
                    # Keep the root's copy current for recovery resyncs
                    # (the scalar _on_source_update does this first).
                    self._source_value[item_id] = value
                if centralized:
                    decision = self._tagger.examine(item_id, value)
                    if decision.checks:
                        counters.record_checks(
                            self._root_of[item_id], True, decision.checks
                        )
                    if observer is not None:
                        observer.on_source(
                            unit, item_id, source_times[unit],
                            self._root_of[item_id],
                            decision.checks, decision.disseminate,
                        )
                    if not decision.disseminate:
                        continue
                    tag = decision.tag
                else:
                    # The push policies' at_source is a free pass-through
                    # (no checks, always disseminate) -- mirror the
                    # scalar engine's span for it.
                    if observer is not None:
                        observer.on_source(
                            unit, item_id, source_times[unit],
                            self._root_of[item_id], 0, True,
                        )
                    tag = None
                gid = root_gid[item_id]
                if gid >= 0:
                    self._process_group(gid, source_times[unit], value, tag, unit)
            else:
                # A delivery tuple: (time, seq, gid, value, tag,
                # update_id, sender node).
                t, _seq, gid, value, tag, update_id, src = unit
                if self._crashed and self._g_node[gid] in self._crashed:
                    # The sender paid for the message, but the repository
                    # crashed while it was in flight: a drop.
                    counters.drops += 1
                    if observer is not None:
                        observer.on_drop(
                            update_id, self._g_item[gid], t,
                            src, self._g_node[gid], "crash",
                        )
                    continue
                counters.deliveries += 1
                if observer is not None:
                    observer.on_deliver(
                        update_id, self._g_item[gid], t, self._g_node[gid]
                    )
                log = self._g_log[gid]
                if log is not None:
                    log.append((t, value))
                tols = self._g_ctol[gid]
                if tols is not None:
                    clast = self._g_clast[gid]
                    mask = forward_distributed_many(
                        value, clast, tols, self._g_prc[gid]
                    )
                    served = int(np.count_nonzero(mask))
                    if served:
                        clast[mask] = value
                    counters.client_checks += int(tols.size)
                    counters.client_messages += served
                self._process_group(gid, t, value, tag, update_id)
        while fi < nf:
            # Events past the last unit still close/open scoring
            # segments; the scalar kernel runs them too.
            event = fail_events[fi]
            self._apply_failure(event, float(event.time))
            fi += 1
        while ti < nt:
            # Ticks past the last unit still evaluate (and count); the
            # scalar kernel runs them too.
            self._on_adaptive_tick(tick_times[ti])
            ti += 1
        folded = counters.to_cost_counters()
        if track:
            # _apply_failure / _on_adaptive_tick charged reconfiguration
            # and resync cost into the scalar-side CostCounters; carry
            # it over before the array totals replace them.
            pre = self.counters
            folded.reconfigurations = pre.reconfigurations
            folded.edges_added = pre.edges_added
            folded.edges_removed = pre.edges_removed
            folded.resyncs = pre.resyncs
            folded.resync_checks = pre.resync_checks
            folded.resync_messages = pre.resync_messages
        self.counters = folded
        return self._score(schedule.span)

    def _message_counts(self) -> dict[int, int]:
        """Sparsify the dense per-node message tallies into the exact
        dict the scalar ``CostCounters.per_node_messages`` holds at the
        same event boundary (all-positive entries; order is irrelevant
        to the drift estimator)."""
        node_messages = self._acounters.node_messages
        return {
            int(node): int(node_messages[node])
            for node in np.nonzero(node_messages)[0]
        }

    # ------------------------------------------------------------------
    # Live rewiring (unplanned failover and adaptive re-optimization)
    # ------------------------------------------------------------------

    def _ensure_group(self, node: int, item_id: int) -> int:
        """The edge group for ``(node, item_id)``, created if absent.

        Adaptive rebuilds can wire pairs that never sent or received in
        the original graph (a relay acquiring a new item through
        augmentation); such groups start empty and inherit the scalar
        base's authoritative per-pair state (delivery log, receive
        coherency, client plane) by reference.
        """
        key = (node, item_id)
        gid = self._gid_of.get(key)
        if gid is not None:
            return gid
        gid = len(self._gid_of)
        self._gid_of[key] = gid
        issrc = node == self._root_of[item_id]
        self._g_node.append(node)
        self._g_item.append(item_id)
        self._g_issrc.append(issrc)
        self._g_prc.append(0.0 if issrc else self._receive_c.get(key, 0.0))
        self._g_child_gid.append(np.empty(0, dtype=np.int64))
        self._g_cs.append(np.empty(0))
        self._g_last.append(np.empty(0))
        self._g_delay.append(np.empty(0))
        self._g_log.append(self._deliveries.get(key))
        self._g_ctol.append(self._client_tols.get(key))
        self._g_clast.append(self._client_last.get(key))
        if issrc:
            self._root_gid[item_id] = gid
        return gid

    def _apply_diff(self, diff, now: float, resync: frozenset = frozenset()) -> None:
        """Mirror a live rewiring into the edge-group arrays.

        The scalar base keeps the children maps, receive coherencies,
        delivery logs and the registered scalar policy current; this
        override then patches the struct-of-arrays mirrors edge for
        edge, in the exact orders the base wires them (removals in
        sorted-tuple order, additions root-downward per item tree), and
        for the centralised policy replays the scalar ``SourceTagger``'s
        refcounted remove/re-add transitions on the array tagger.
        """
        super()._apply_diff(diff, now, resync=resync)
        centralized = self._policy_kind == _CENTRALIZED
        gid_of = self._gid_of
        for parent, child, item_id, c in sorted(diff.removed):
            gid = gid_of[(parent, item_id)]
            child_gid = gid_of[(child, item_id)]
            hits = np.nonzero(self._g_child_gid[gid] == child_gid)[0]
            if not hits.size:
                raise SimulationError(
                    f"edge group for node {parent} holds no dependent for "
                    f"node {child}, item {item_id}"
                )
            i = int(hits[0])
            self._g_child_gid[gid] = np.delete(self._g_child_gid[gid], i)
            self._g_cs[gid] = np.delete(self._g_cs[gid], i)
            self._g_last[gid] = np.delete(self._g_last[gid], i)
            self._g_delay[gid] = np.delete(self._g_delay[gid], i)
            if (child, item_id) not in self._receive_c:
                # The rebuild dropped the pair entirely (the scalar base
                # popped its receive coherency): in-flight deliveries
                # still append to the kept log, but nobody is served
                # from the pair any more -- mirror the scalar
                # _serve_clients early-return by unhooking the client
                # plane until a later rewire restores the subscription.
                self._g_ctol[child_gid] = None
                self._g_clast[child_gid] = None
            if centralized:
                tau = quantise_tolerance(c)
                key = (item_id, tau)
                count = self._tol_count[key] - 1
                if count:
                    self._tol_count[key] = count
                else:
                    # Last edge serving at this tolerance is gone: the
                    # scalar policy's unregister_edge dropped it from the
                    # SourceTagger too.
                    del self._tol_count[key]
                    self._tagger.remove_tolerance(item_id, tau)
        graph = self._graph
        network = self.setup.network
        added = sorted(
            diff.added, key=lambda e: (e[2], graph.item_depth(e[1], e[2]), e)
        )
        for parent, child, item_id, c in added:
            gid = self._ensure_group(parent, item_id)
            child_gid = self._ensure_group(child, item_id)
            # After the base class ran, the child's log tail IS the
            # initial the scalar policy was primed with (re-homed
            # children keep their copy; new subscriptions and resynced
            # ones just had the parent's current value appended).
            initial = self._deliveries[(child, item_id)][-1][1]
            tol = quantise_tolerance(c) if centralized else c
            self._g_child_gid[gid] = np.append(
                self._g_child_gid[gid], np.int64(child_gid)
            )
            self._g_cs[gid] = np.append(self._g_cs[gid], tol)
            self._g_last[gid] = np.append(self._g_last[gid], initial)
            self._g_delay[gid] = np.append(
                self._g_delay[gid], network.delay_s(parent, child)
            )
            # The base class (re)set the pair's receive coherency and may
            # have created its delivery log: refresh the group's scalars
            # so in-flight and future deliveries see current state.
            self._g_prc[child_gid] = self._receive_c[(child, item_id)]
            self._g_log[child_gid] = self._deliveries.get((child, item_id))
            self._g_ctol[child_gid] = self._client_tols.get((child, item_id))
            self._g_clast[child_gid] = self._client_last.get((child, item_id))
            if centralized:
                tkey = (item_id, tol)
                count = self._tol_count.get(tkey, 0)
                self._tol_count[tkey] = count + 1
                if count == 0:
                    self._tagger.add_tolerance(item_id, tol, initial)

    def _events_processed(self) -> int:
        if self._batch_kernel is None:
            return 0
        # The scalar kernel schedules each failure event and each drift
        # tick as one discrete event; the batch drain applies them
        # inline, so they are added back here to keep the result field
        # bit-identical.
        extra = len(self._failures.events) if self._failures is not None else 0
        if self._adaptive_controller is not None:
            extra += self._adaptive_controller.ticks
        return self._batch_kernel.events_processed + extra
