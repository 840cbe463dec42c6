"""The fleet worker: one process hosting one shard of the live network.

Every worker rebuilds the *full* network from the frozen config -- the
builder is bit-reproducible, so all workers agree on every node, edge,
filter and trace without shipping a byte of state -- then activates
only the nodes its shard owns (:mod:`repro.fleet.sharding`).  A local
delivery loops through an in-process due-time heap; a remote delivery
is wrapped in a :class:`~repro.live.protocol.Forward` frame and sent
over the worker's single multiplexed TCP link to the destination's
owner, through a :class:`~repro.fleet.links.SendQueue` with watermark
backpressure.

Timing: the supervisor broadcasts one monotonic-clock epoch; every
worker paces deliveries against it (``sim_now = (monotonic - epoch) *
time_scale``), but nodes *process* each message at its logical
``arrival_s`` stamp -- the same convention the single-process TCP
transport uses for the source replay -- so coherency filtering and
fidelity scoring see the computed dissemination schedule, not the
wall-clock slop of N racing processes.  That is what lets a fleet run
agree with the single-process run on fidelity to within a fraction of
a point.

Liveness and recovery: links greet with versioned
:class:`~repro.live.protocol.Hello` frames carrying a connection
generation, heartbeat between updates, and reconnect with capped
exponential backoff.  A worker that sees a peer's generation jump knows
the previous connection died with frames possibly unsent, and starts a
sample-based anti-entropy session (:mod:`repro.fleet.antientropy`) for
each local repository whose parent lives on that peer, charged into the
run's :class:`~repro.core.metrics.CostCounters`.

The worker talks to the supervisor over a ``multiprocessing`` pipe:
``("ready", port)`` after binding, then obeys ``start`` / ``stats?`` /
``sever`` / ``finish`` commands and answers ``finish`` with its
:class:`WorkerReport`.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
import traceback
from dataclasses import dataclass, field

from repro.core.metrics import CostCounters
from repro.engine.builder import build_setup
from repro.engine.config import SimulationConfig
from repro.fleet.antientropy import ChildSession, ParentView
from repro.fleet.links import SendQueue
from repro.fleet.sharding import plan_shards
from repro.live.harness import (
    _client_node_base,
    _score,
    _score_clients,
    build_live_network,
)
from repro.live.loadgen import generate_clients
from repro.live.nodes import Outbound
from repro.live.protocol import (
    Bye,
    Forward,
    Heartbeat,
    Hello,
    ProtocolError,
    ResyncRequest,
    ResyncResponse,
    Stats,
    check_version,
    encode_message,
    read_message,
)
from repro.obs.trace import TraceRecorder

__all__ = ["FleetSpec", "WorkerReport", "worker_main"]


@dataclass(frozen=True)
class FleetSpec:
    """Everything a worker needs to rebuild and run its shard.

    Picklable by construction: it crosses the ``spawn`` boundary.
    """

    config: SimulationConfig
    n_workers: int
    duration: float | None = None
    time_scale: float = 60.0
    n_clients: int = 0
    client_seed: int | None = None
    heartbeat_interval_s: float = 0.5
    reconnect_backoff_s: float = 0.05
    reconnect_attempts: int = 5
    queue_high: int = 256
    queue_low: int = 64
    resync_sample: int = 8
    host: str = "127.0.0.1"
    #: Attach a span recorder on every worker and ship the spans plus a
    #: metrics snapshot home in the report.  Deliberately NOT part of
    #: the run's :class:`~repro.engine.config.SimulationConfig` -- the
    #: flag crosses the spawn pipe out-of-band, so cache fingerprints
    #: and dissemination behaviour are untouched (traced fleet runs are
    #: bit-identical to untraced ones).
    trace: bool = False


@dataclass
class WorkerReport:
    """One worker's slice of the fleet run, merged by the supervisor.

    ``sent`` counts messages the shard's nodes handed to the transport
    (local and cross-worker alike); ``delivered`` counts messages the
    shard's nodes processed.  A frame sent by worker A to worker B is
    in A's ``sent`` and B's ``delivered``, so only the fleet-wide sums
    obey conservation -- which is exactly the merged invariant the
    supervisor enforces.
    """

    worker: int
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    heartbeats: int = 0
    reconnects: int = 0
    resync_frames: int = 0
    queue_stalls: int = 0
    protocol_errors: int = 0
    n_local_nodes: int = 0
    client_messages: int = 0
    span_s: float = 0.0
    wall_seconds: float = 0.0
    counters: CostCounters = field(default_factory=CostCounters)
    per_pair_loss: dict = field(default_factory=dict)
    client_loss: dict = field(default_factory=dict)
    #: Trace spans recorded on this shard (empty unless ``spec.trace``);
    #: the supervisor merges them into the caller's recorder with
    #: update ids stable across shards.
    spans: list = field(default_factory=list)
    #: JSON-ready :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    #: of this worker's telemetry (empty unless ``spec.trace``).
    metrics_snapshot: dict = field(default_factory=dict)
    #: Peer :class:`~repro.live.protocol.Stats` frames absorbed.
    stats_frames: int = 0


def worker_main(worker_id: int, spec: FleetSpec, conn) -> None:
    """Process entry point: run the shard, report, exit."""
    try:
        asyncio.run(_run_worker(worker_id, spec, conn))
    except BaseException:
        try:
            conn.send(("fatal", worker_id, traceback.format_exc()))
        finally:
            raise


async def _run_worker(worker_id: int, spec: FleetSpec, conn) -> None:
    loop = asyncio.get_running_loop()
    config = spec.config
    setup = build_setup(config)
    clients = (
        generate_clients(config, spec.n_clients, seed=spec.client_seed, setup=setup)
        if spec.n_clients
        else None
    )
    network = build_live_network(config, clients=clients, setup=setup)
    plan = plan_shards(
        setup,
        spec.n_workers,
        clients=clients,
        client_node_base=_client_node_base(setup) if clients is not None else None,
    )
    local_nodes = set(plan.nodes_of(worker_id))
    local_repos = {r for r in network.repositories if r in local_nodes}
    local_clients = {c for c in network.clients if c in local_nodes}
    owns_source = plan.owner[plan.source] == worker_id

    # Who serves whom per item, for resync session grouping.
    parent_of: dict[tuple[int, int], int] = {}
    for item_id in setup.traces:
        for node in setup.graph.nodes:
            for child, _c in setup.graph.children_for_item(node, item_id):
                parent_of[(child, item_id)] = node

    report = WorkerReport(worker=worker_id, n_local_nodes=len(local_nodes))
    report.counters = network.counters

    # Out-of-band span recorder: write-only, so attaching it leaves the
    # shard's dissemination decisions bit-identical (see repro.obs.trace).
    recorder = TraceRecorder(policy=config.policy) if spec.trace else None
    if recorder is not None:
        network.attach_observer(recorder)

    epoch = 0.0
    ports: dict[int, int] = {}
    finish = asyncio.Event()
    replay_finished = asyncio.Event()

    def sim_now() -> float:
        return (time.monotonic() - epoch) * spec.time_scale

    # ---- local delivery: one due-time heap, paced by the epoch ----
    local_heap: list[tuple[float, int, Outbound]] = []
    local_wakeup = asyncio.Event()
    enqueue_counter = itertools.count()

    def schedule_local(out: Outbound) -> None:
        due_wall = epoch + out.arrival_s / spec.time_scale
        heapq.heappush(local_heap, (due_wall, next(enqueue_counter), out))
        local_wakeup.set()

    # ---- peer links ----
    class Link:
        def __init__(self, peer: int) -> None:
            self.peer = peer
            self.queue = SendQueue(high=spec.queue_high, low=spec.queue_low)
            self.writer: asyncio.StreamWriter | None = None
            self.generation = 0
            self.task: asyncio.Task | None = None
            self.heartbeat_task: asyncio.Task | None = None

        async def connect(self) -> asyncio.StreamWriter | None:
            if self.writer is not None and not self.writer.is_closing():
                return self.writer
            for attempt in range(spec.reconnect_attempts):
                try:
                    _reader, writer = await asyncio.open_connection(
                        spec.host, ports[self.peer]
                    )
                except OSError:
                    await asyncio.sleep(
                        spec.reconnect_backoff_s * (2 ** attempt)
                    )
                    continue
                self.writer = writer
                self.generation += 1
                if self.generation > 1:
                    report.reconnects += 1
                writer.write(
                    encode_message(
                        Hello(src=worker_id, generation=self.generation)
                    )
                )
                return writer
            return None

        def sever(self) -> None:
            if self.writer is not None and not self.writer.is_closing():
                self.writer.close()

        def _wire_drop(self, frame: Forward) -> None:
            report.dropped += 1
            if recorder is not None:
                recorder.on_drop(
                    frame.seq - 1, frame.item_id, frame.arrival_s,
                    frame.src, frame.dst, "wire",
                )

        async def pump(self) -> None:
            while True:
                frame = await self.queue.get()
                writer = await self.connect()
                if writer is None:
                    # Reconnect exhausted: the wire ate the frame.
                    if isinstance(frame, Forward):
                        self._wire_drop(frame)
                    continue
                writer.write(encode_message(frame))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    if isinstance(frame, Forward):
                        self._wire_drop(frame)

        async def heartbeat(self) -> None:
            while True:
                await asyncio.sleep(spec.heartbeat_interval_s)
                if recorder is not None:
                    recorder.metrics.gauge(
                        f"send_queue_depth[->{self.peer}]"
                    ).set(len(self.queue))
                if self.queue:
                    continue  # data is flowing: the link proves itself
                writer = await self.connect()
                if writer is None:
                    continue
                frames = encode_message(Heartbeat(src=worker_id))
                if recorder is not None:
                    # Traced runs piggyback a telemetry frame on the
                    # heartbeat cadence; untraced runs put nothing extra
                    # on the wire.
                    frames += encode_message(
                        Stats(
                            src=worker_id,
                            sent=report.sent,
                            delivered=report.delivered,
                            dropped=report.dropped,
                            pending=pending(),
                        )
                    )
                writer.write(frames)
                started = time.monotonic()
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    continue
                if recorder is not None:
                    # Wall-clock flush latency -- telemetry only, never
                    # part of the result's bit-identity contract.
                    recorder.metrics.histogram("heartbeat_rtt_ms").observe(
                        (time.monotonic() - started) * 1000.0
                    )
                report.heartbeats += 1

    links: dict[int, Link] = {
        peer: Link(peer) for peer in range(spec.n_workers) if peer != worker_id
    }

    async def dispatch(outs: list[Outbound]) -> None:
        for out in outs:
            report.sent += 1
            owner = plan.owner[out.dst]
            if owner == worker_id:
                schedule_local(out)
            else:
                await links[owner].queue.put(
                    Forward.from_update(out.dst, out.arrival_s, out.update)
                )

    async def deliver(out: Outbound) -> None:
        # Process at the logical arrival stamp (see the module docstring)
        # so downstream filtering and scoring are wall-jitter-free.
        outs = network.node(out.dst).on_message(out.update, out.arrival_s)
        report.delivered += 1
        await dispatch(outs)

    async def local_dispatcher() -> None:
        while True:
            while not local_heap:
                local_wakeup.clear()
                await local_wakeup.wait()
            due_wall = local_heap[0][0]
            delay = due_wall - time.monotonic()
            if delay > 0:
                local_wakeup.clear()
                try:
                    await asyncio.wait_for(local_wakeup.wait(), timeout=delay)
                except (TimeoutError, asyncio.TimeoutError):
                    pass
                continue  # re-evaluate the heap top either way
            _due, _seq, out = heapq.heappop(local_heap)
            await deliver(out)

    # ---- anti-entropy (child side state, parent side responder) ----
    sessions: dict[tuple[int, int], ChildSession] = {}

    def parent_heads_for(parent: int, child: int) -> dict[int, tuple[int, float]]:
        sender = (
            network.source_node
            if parent == network.source_node.node
            else network.repositories[parent]
        )
        heads: dict[int, tuple[int, float]] = {}
        for item_id, edges in sender.edges.items():
            for edge in edges:
                if not edge.is_client and edge.child == child:
                    heads[item_id] = (edge.last_seq, edge.last_value)
        return heads

    def start_resyncs(peer: int) -> None:
        """A peer's connection generation jumped: pull what its parents
        forwarded while the old connection was dying."""
        for child in sorted(local_repos):
            repo = network.repositories[child]
            items = [
                item_id
                for item_id in repo.receive_c
                if plan.owner.get(parent_of.get((child, item_id), -1)) == peer
            ]
            if not items:
                continue
            # One session per (child, parent) pair; a child's items can
            # split across parents, so group by parent.
            by_parent: dict[int, list[int]] = {}
            for item_id in items:
                by_parent.setdefault(parent_of[(child, item_id)], []).append(item_id)
            for parent, parent_items in sorted(by_parent.items()):
                if (child, parent) in sessions:
                    continue  # an earlier jump's session is still running
                session = ChildSession(
                    child,
                    parent,
                    {i: repo.seqs.get(i, 0) for i in parent_items},
                    sample_size=spec.resync_sample,
                )
                sessions[(child, parent)] = session
                request = session.next_request()
                assert request is not None
                report.resync_frames += 1
                links[peer].queue.put_nowait(request)

    def finish_session(key: tuple[int, int], session: ChildSession) -> None:
        child, _parent = key
        repo = network.repositories[child]
        now = sim_now()
        for item_id, seq, value in session.missing:
            if seq > repo.seqs.get(item_id, 0):
                repo.seqs[item_id] = seq
                log = repo.deliveries.get(item_id)
                if log is not None:
                    log.append((now, value))
        network.counters.record_resync(
            session.cost.checks, session.cost.transferred
        )
        del sessions[key]

    # ---- inbound server ----
    peer_generation: dict[int, int] = {}

    async def handle_peer(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError:
                    report.protocol_errors += 1
                    break  # reject the connection, not the run
                if message is None or isinstance(message, Bye):
                    break
                if isinstance(message, Hello):
                    try:
                        check_version(message)
                    except ProtocolError:
                        report.protocol_errors += 1
                        break
                    last = peer_generation.get(message.src, 0)
                    peer_generation[message.src] = message.generation
                    if message.generation > max(last, 1):
                        start_resyncs(message.src)
                elif isinstance(message, Forward):
                    schedule_local(
                        Outbound(
                            dst=message.dst,
                            update=message.to_update(),
                            arrival_s=message.arrival_s,
                        )
                    )
                elif isinstance(message, ResyncRequest):
                    view = ParentView(
                        parent_heads_for(message.parent, message.child)
                    )
                    report.resync_frames += 1
                    links[plan.owner[message.child]].queue.put_nowait(
                        view.respond(message)
                    )
                elif isinstance(message, ResyncResponse):
                    key = (message.child, message.parent)
                    session = sessions.get(key)
                    if session is None:
                        continue  # stale response from a finished session
                    report.resync_frames += 1
                    session.absorb(message)
                    if session.done:
                        finish_session(key, session)
                    else:
                        request = session.next_request()
                        if request is not None:
                            report.resync_frames += 1
                            links[plan.owner[message.parent]].queue.put_nowait(
                                request
                            )
                elif isinstance(message, Stats):
                    report.stats_frames += 1
                    if recorder is not None:
                        metrics = recorder.metrics
                        peer = message.src
                        metrics.gauge(f"peer{peer}.sent").set(message.sent)
                        metrics.gauge(f"peer{peer}.delivered").set(message.delivered)
                        metrics.gauge(f"peer{peer}.dropped").set(message.dropped)
                        metrics.gauge(f"peer{peer}.pending").set(message.pending)
                elif isinstance(message, Heartbeat):
                    continue
                else:  # pragma: no cover - all frame types handled above
                    report.protocol_errors += 1
                    break
        except asyncio.CancelledError:
            # Loop shutdown cancels still-open inbound handlers; ending
            # normally keeps the streams done-callback from re-raising.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # The shutdown cancel can also land on this close wait.
                pass

    # ---- source replay (the source's owner only) ----
    async def replay() -> None:
        for t, item_id, value in network.source_schedule(spec.duration):
            due = epoch + t / spec.time_scale
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            # The source stamps the scheduled time, not the wall reading.
            await dispatch(network.source_node.on_update(item_id, value, t))
        replay_finished.set()
        conn.send(("replay-done", worker_id))

    # ---- supervisor control channel ----
    def pending() -> int:
        return len(local_heap) + sum(len(link.queue) for link in links.values())

    async def control() -> None:
        while True:
            has = await loop.run_in_executor(None, conn.poll, 0.05)
            if not has:
                continue
            command = conn.recv()
            if command[0] == "start":
                nonlocal_start(command[1], command[2])
            elif command[0] == "stats?":
                conn.send(
                    (
                        "stats",
                        worker_id,
                        report.sent,
                        report.delivered,
                        report.dropped,
                        pending(),
                    )
                )
            elif command[0] == "sever":
                for link in links.values():
                    link.sever()
            elif command[0] == "finish":
                finish.set()
                return

    started = asyncio.Event()

    def nonlocal_start(port_map: dict[int, int], shared_epoch: float) -> None:
        nonlocal epoch
        ports.update(port_map)
        epoch = shared_epoch
        started.set()

    # ---- run ----
    server = await asyncio.start_server(handle_peer, spec.host, 0)
    port = server.sockets[0].getsockname()[1]
    conn.send(("ready", worker_id, port))

    control_task = asyncio.create_task(control(), name=f"fleet-ctl-{worker_id}")
    await started.wait()
    wall_start = time.perf_counter()

    tasks: list[asyncio.Task] = [
        asyncio.create_task(local_dispatcher(), name=f"fleet-local-{worker_id}")
    ]
    for peer, link in sorted(links.items()):
        link.task = asyncio.create_task(
            link.pump(), name=f"fleet-link-{worker_id}-{peer}"
        )
        tasks.append(link.task)
        if spec.heartbeat_interval_s > 0:
            link.heartbeat_task = asyncio.create_task(
                link.heartbeat(), name=f"fleet-hb-{worker_id}-{peer}"
            )
            tasks.append(link.heartbeat_task)
    if owns_source:
        tasks.append(asyncio.create_task(replay(), name="fleet-replay"))

    await finish.wait()
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for link in links.values():
        writer = link.writer
        if writer is None:
            continue
        if not writer.is_closing():
            writer.write(encode_message(Bye(src=worker_id)))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    server.close()
    await server.wait_closed()
    await control_task  # returned at "finish"

    report.wall_seconds = time.perf_counter() - wall_start
    report.queue_stalls = sum(link.queue.stalls for link in links.values())
    accumulator, per_pair, span = _score(network, spec.duration, only=local_repos)
    del accumulator  # the supervisor re-accumulates from the pairs
    report.per_pair_loss = per_pair
    report.span_s = span
    if local_clients:
        report.client_loss = _score_clients(
            network, spec.duration, only=local_clients
        )
    senders = [network.repositories[r] for r in local_repos]
    if owns_source:
        senders.append(network.source_node)
    report.client_messages = sum(node.client_messages for node in senders)
    if recorder is not None:
        metrics = recorder.metrics
        metrics.counter("fleet.reconnects").inc(report.reconnects)
        metrics.counter("fleet.resync_frames").inc(report.resync_frames)
        metrics.counter("fleet.heartbeats").inc(report.heartbeats)
        metrics.counter("fleet.queue_stalls").inc(report.queue_stalls)
        metrics.counter("fleet.stats_frames").inc(report.stats_frames)
        report.spans = recorder.events
        report.metrics_snapshot = metrics.snapshot()
    conn.send(("report", worker_id, report))
