"""Transports that drive the sans-io live network.

Two implementations with one contract -- ``run(network, duration)``
executes the network's workload replay and returns wire-level
:class:`TransportStats` whose conservation invariant
``sent == delivered + dropped`` always holds:

- :class:`InProcessTransport` -- deterministic virtual time.  Delivery
  events run on the same discrete-event kernel the simulator uses, with
  the seeded topology delays (plus optional seeded jitter), so a run is
  bit-reproducible for a fixed config seed.  This is the transport the
  ``live_crosscheck`` experiment validates the simulator against.
- :class:`TcpTransport` -- real localhost sockets.  Every node runs an
  asyncio server speaking the length-prefixed JSON protocol of
  :mod:`repro.live.protocol`; simulated time maps to the wall clock
  through ``time_scale`` (simulated seconds per wall second).  Messages
  still in flight when the quiescence timeout expires are counted as
  drops, keeping the conservation invariant exact.

Both transports execute unplanned failures and seeded message loss.
When the network carries a
:class:`~repro.live.harness.LiveFailureController`, repository-plane
frames toward a crashed node or over a down link become drops (charged
into the network's :class:`~repro.core.metrics.CostCounters` like the
engine's), and ``loss_probability > 0`` Bernoulli-drops frames from a
seeded stream -- the in-process transport consumes the *same*
``message-loss`` stream in the same order as the engine, so a failure
run is still bit-reproducible.  The TCP transport additionally
heartbeats every connection and transparently reconnects severed ones
with capped exponential backoff (a crash event severs the victim's
connection for real).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.live.nodes import Outbound
from repro.live.protocol import (
    Bye,
    Heartbeat,
    Hello,
    ProtocolError,
    Update,
    check_version,
    encode_message,
    read_message,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness builds us)
    from repro.live.harness import LiveNetwork

__all__ = ["TransportStats", "InProcessTransport", "TcpTransport", "make_transport"]


@dataclass
class TransportStats:
    """Wire-level accounting of one live run.

    Attributes:
        sent: Messages handed to the transport (repository plane and
            client plane alike).
        delivered: Messages that reached their destination node.
        dropped: Messages the transport gave up on: failure-schedule and
            Bernoulli-loss drops on either transport, plus whatever the
            TCP quiescence timeout abandons.
        heartbeats: TCP liveness probes written; outside the
            sent/delivered/dropped conservation (probes carry no data).
        reconnects: TCP connections re-established after a severance.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    heartbeats: int = 0
    reconnects: int = 0

    @property
    def in_flight(self) -> int:
        """Messages sent but neither delivered nor dropped yet."""
        return self.sent - self.delivered - self.dropped

    @property
    def conserved(self) -> bool:
        """The invariant every run must end with."""
        return self.sent == self.delivered + self.dropped


class InProcessTransport:
    """Virtual-time driver: deterministic, reproducible, fast.

    Replays the workload on a fresh discrete-event kernel.  Event
    ordering matches the simulation engine's (FIFO tie-breaks in
    scheduling order), and optional delivery jitter is drawn from a
    seeded stream, so two runs of the same network are bit-identical.
    """

    name = "inprocess"

    def __init__(
        self, jitter_ms: float = 0.0, seed: int = 0, loss_probability: float = 0.0
    ) -> None:
        if jitter_ms < 0:
            raise ConfigurationError(f"jitter_ms must be >= 0, got {jitter_ms!r}")
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability!r}"
            )
        self.jitter_ms = jitter_ms
        self.seed = seed
        self.loss_probability = loss_probability

    def run(self, network: "LiveNetwork", duration: float | None = None) -> TransportStats:
        stats = TransportStats()
        kernel = Simulator()
        controller = network.failures
        repo_ids = set(network.repositories)
        jitter_rng = (
            RandomStreams(self.seed).stream("live-jitter")
            if self.jitter_ms > 0.0
            else None
        )
        # The engine's stream, consumed in the engine's order (per
        # forwarded repository-plane message, child order, after the
        # link filter), so a loss run matches the simulation bit for bit.
        loss_rng = (
            RandomStreams(self.seed).stream("message-loss")
            if self.loss_probability > 0.0
            else None
        )

        observer = network.observer

        def dispatch(outs: list[Outbound]) -> None:
            for out in outs:
                stats.sent += 1
                if out.dst in repo_ids:
                    if (
                        controller is not None
                        and (out.update.src, out.dst) in controller.down
                    ):
                        # Partition: decided before the loss draw, like
                        # the engine, so the Bernoulli stream is only
                        # consumed for frames that enter the network.
                        stats.dropped += 1
                        network.counters.record_drop()
                        if observer is not None:
                            observer.on_drop(
                                out.update.seq - 1, out.update.item_id,
                                kernel.now, out.update.src, out.dst, "partition",
                            )
                        continue
                    if (
                        loss_rng is not None
                        and loss_rng.random() < self.loss_probability
                    ):
                        stats.dropped += 1
                        network.counters.record_drop()
                        if observer is not None:
                            observer.on_drop(
                                out.update.seq - 1, out.update.item_id,
                                kernel.now, out.update.src, out.dst, "loss",
                            )
                        continue
                arrival = out.arrival_s
                if jitter_rng is not None:
                    arrival += jitter_rng.random() * self.jitter_ms / 1000.0
                kernel.schedule_at(arrival, deliver, out)

        def deliver(out: Outbound) -> None:
            if controller is not None and out.dst in controller.crashed:
                # Crashed while the frame was in flight: a drop, judged
                # at arrival time exactly like the engine's _on_delivery.
                stats.dropped += 1
                network.counters.record_drop()
                if observer is not None:
                    observer.on_drop(
                        out.update.seq - 1, out.update.item_id,
                        kernel.now, out.update.src, out.dst, "crash",
                    )
                return
            stats.delivered += 1
            dispatch(network.node(out.dst).on_message(out.update, kernel.now))

        def source_update(item_id: int, value: float) -> None:
            dispatch(network.source_node.on_update(item_id, value, kernel.now))

        if controller is not None:
            # Scheduled before the replay so a failure and an update at
            # the same instant apply the failure first -- the engine's
            # tie-break, reproduced on the same kernel.
            for event in controller.schedule.events:
                kernel.schedule_at(
                    float(event.time),
                    controller.apply_event,
                    event,
                    float(event.time),
                )
        if network.adaptive is not None:
            # Like failures: ticks enqueue before the replay, so a drift
            # evaluation and an update at the same instant run the tick
            # first -- the engines' tie-break, on the same kernel.
            for t in network.adaptive.tick_times(duration):
                kernel.schedule_at(t, network.adaptive.apply_tick, t)
        for t, item_id, value in network.source_schedule(duration):
            kernel.schedule_at(t, source_update, item_id, value)
        kernel.run()
        if not stats.conserved:  # defensive: a drained kernel cannot leak
            raise SimulationError(
                f"in-process transport leaked messages: {stats}"
            )
        return stats


class TcpTransport:
    """Localhost TCP driver: one asyncio server per node, real frames.

    ``time_scale`` maps simulated seconds to wall seconds (``600`` runs
    a 600 s trace in about one wall second).  The driver replays the
    source schedule against the wall clock, realises each message's
    simulated delay as a scheduled socket write, and after the replay
    waits up to ``quiesce_timeout_s`` wall seconds for in-flight
    messages to land; whatever remains is counted as dropped.
    """

    name = "tcp"

    def __init__(
        self,
        time_scale: float = 60.0,
        quiesce_timeout_s: float = 30.0,
        host: str = "127.0.0.1",
        loss_probability: float = 0.0,
        seed: int = 0,
        heartbeat_interval_s: float = 0.5,
        reconnect_backoff_s: float = 0.05,
        reconnect_attempts: int = 5,
        drain_timeout_s: float = 2.0,
        wall_stretch_cap: float = 20.0,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {time_scale!r}"
            )
        if quiesce_timeout_s <= 0:
            raise ConfigurationError(
                f"quiesce_timeout_s must be positive, got {quiesce_timeout_s!r}"
            )
        if drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be positive, got {drain_timeout_s!r}"
            )
        if wall_stretch_cap < 1.0:
            raise ConfigurationError(
                f"wall_stretch_cap must be >= 1, got {wall_stretch_cap!r}"
            )
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability!r}"
            )
        if heartbeat_interval_s < 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be >= 0, got {heartbeat_interval_s!r}"
            )
        if reconnect_attempts < 1:
            raise ConfigurationError(
                f"reconnect_attempts must be >= 1, got {reconnect_attempts!r}"
            )
        self.time_scale = time_scale
        self.quiesce_timeout_s = quiesce_timeout_s
        self.host = host
        self.loss_probability = loss_probability
        self.seed = seed
        self.heartbeat_interval_s = heartbeat_interval_s
        self.reconnect_backoff_s = reconnect_backoff_s
        self.reconnect_attempts = reconnect_attempts
        self.drain_timeout_s = drain_timeout_s
        self.wall_stretch_cap = wall_stretch_cap
        # Wall budgets (quiescence wait, handler drain) assume the 60x
        # default pace; a slower time scale stretches in-flight wall
        # times proportionally, so stretch the budgets too (capped, so a
        # pathological scale cannot hang the run for hours).  Slow CI
        # boxes can raise the cap or the budgets themselves.
        self._wall_factor = min(wall_stretch_cap, max(1.0, 60.0 / time_scale))

    def run(self, network: "LiveNetwork", duration: float | None = None) -> TransportStats:
        return asyncio.run(self._main(network, duration))

    async def _main(
        self, network: "LiveNetwork", duration: float | None
    ) -> TransportStats:
        stats = TransportStats()
        loop = asyncio.get_running_loop()
        quiet = asyncio.Event()
        replay_done = False
        controller = network.failures
        repo_ids = set(network.repositories)
        loss_rng = (
            RandomStreams(self.seed).stream("message-loss")
            if self.loss_probability > 0.0
            else None
        )
        servers: dict[int, asyncio.Server] = {}
        ports: dict[int, int] = {}
        # (src is irrelevant to routing: one connection per destination.)
        writers: dict[int, asyncio.StreamWriter] = {}
        # Per destination: a due-time heap plus a wakeup event.  A plain
        # FIFO would let one long-delay frame head-of-line-block frames
        # from other senders that are due sooner; the heap realises each
        # frame at its own due time, with an enqueue counter breaking
        # ties in dispatch order (per-edge FIFO preserved).
        send_heaps: dict[int, list[tuple[float, int, Outbound]]] = {}
        send_wakeups: dict[int, asyncio.Event] = {}
        enqueue_counter = itertools.count()
        sender_tasks: list[asyncio.Task] = []
        aux_tasks: list[asyncio.Task] = []
        handler_tasks: set[asyncio.Task] = set()
        start_wall = loop.time()

        def sim_now() -> float:
            return (loop.time() - start_wall) * self.time_scale

        def check_quiet() -> None:
            if replay_done and stats.in_flight == 0:
                quiet.set()

        observer = network.observer

        def drop(out: Outbound, reason: str) -> None:
            """Count one schedule/loss drop, engine-comparably."""
            stats.dropped += 1
            network.counters.record_drop()
            if observer is not None:
                observer.on_drop(
                    out.update.seq - 1, out.update.item_id,
                    out.arrival_s, out.update.src, out.dst, reason,
                )
            check_quiet()

        def dispatch(outs: list[Outbound]) -> None:
            for out in outs:
                stats.sent += 1
                if (
                    loss_rng is not None
                    and out.dst in repo_ids
                    and not (
                        controller is not None
                        and controller.link_down_at(
                            out.update.src, out.dst, out.arrival_s
                        )
                    )
                    and loss_rng.random() < self.loss_probability
                ):
                    # Bernoulli loss; link-dead frames are skipped first
                    # so the stream is only consumed for frames that
                    # would enter the network (the engine's order).
                    drop(out, "loss")
                    continue
                due_wall = start_wall + out.arrival_s / self.time_scale
                heapq.heappush(
                    send_heaps[out.dst],
                    (due_wall, next(enqueue_counter), out),
                )
                send_wakeups[out.dst].set()

        async def handle_node(node_id: int, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
            task = asyncio.current_task()
            if task is not None:
                handler_tasks.add(task)
            try:
                while True:
                    try:
                        message = await read_message(reader)
                    except ProtocolError:
                        # Oversized/garbage/truncated frame: reject this
                        # connection, not the whole run.  Frames lost
                        # with it are reconciled as drops at the end.
                        break
                    if message is None or isinstance(message, Bye):
                        break
                    if isinstance(message, Hello):
                        try:
                            check_version(message)
                        except ProtocolError:
                            break  # version-mismatched peer: reject
                        continue
                    if isinstance(message, Heartbeat):
                        continue  # liveness probe: no data, no accounting
                    if not isinstance(message, Update):
                        break  # fleet-only frame on a live link: reject
                    outs = network.node(node_id).on_message(message, sim_now())
                    dispatch(outs)
                    stats.delivered += 1
                    check_quiet()
            except asyncio.CancelledError:
                # Teardown cancels handlers that outlive the drain wait;
                # ending normally keeps the streams done-callback from
                # re-raising.
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError, asyncio.CancelledError):
                    # The teardown cancel can also land on this close wait.
                    pass

        generations: dict[int, int] = {}

        def greet(dst: int, writer: asyncio.StreamWriter) -> None:
            """Open every connection with a version/generation handshake."""
            generations[dst] = generations.get(dst, 0) + 1
            writer.write(
                encode_message(
                    Hello(
                        src=network.source_node.node,
                        generation=generations[dst],
                    )
                )
            )

        async def ensure_writer(dst: int) -> asyncio.StreamWriter | None:
            """The destination's connection, reconnecting a severed one
            with capped exponential backoff."""
            writer = writers.get(dst)
            if writer is not None and not writer.is_closing():
                return writer
            for attempt in range(self.reconnect_attempts):
                try:
                    _reader, writer = await asyncio.open_connection(
                        self.host, ports[dst]
                    )
                except OSError:
                    await asyncio.sleep(
                        self.reconnect_backoff_s * (2 ** attempt)
                    )
                    continue
                writers[dst] = writer
                greet(dst, writer)
                stats.reconnects += 1
                return writer
            return None

        async def sender(dst: int) -> None:
            heap = send_heaps[dst]
            wakeup = send_wakeups[dst]
            faulty = controller is not None and dst in repo_ids
            while True:
                while not heap:
                    wakeup.clear()
                    await wakeup.wait()
                due_wall = heap[0][0]
                delay = due_wall - loop.time()
                if delay > 0:
                    # Sleep toward the earliest due frame, but wake early
                    # if a new (possibly earlier-due) frame arrives.
                    wakeup.clear()
                    try:
                        await asyncio.wait_for(wakeup.wait(), timeout=delay)
                    except (TimeoutError, asyncio.TimeoutError):
                        pass
                    continue  # re-evaluate the heap top either way
                _due, _seq, out = heapq.heappop(heap)
                if faulty and (
                    controller.crashed_at(out.dst, out.arrival_s)
                    or controller.link_down_at(
                        out.update.src, out.dst, out.arrival_s
                    )
                ):
                    # Judged by the frame's logical arrival against the
                    # precomputed availability windows -- deterministic
                    # even when the wall clock races the event task.
                    drop(
                        out,
                        "crash"
                        if controller.crashed_at(out.dst, out.arrival_s)
                        else "partition",
                    )
                    continue
                writer = await ensure_writer(dst)
                if writer is None:
                    # Reconnect exhausted: the wire ate the frame.
                    stats.dropped += 1
                    if observer is not None:
                        observer.on_drop(
                            out.update.seq - 1, out.update.item_id,
                            out.arrival_s, out.update.src, out.dst, "wire",
                        )
                    check_quiet()
                    continue
                writer.write(encode_message(out.update))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    # Severed mid-frame (crash event): the receiver never
                    # parses a partial frame, so count it as dropped.
                    stats.dropped += 1
                    if observer is not None:
                        observer.on_drop(
                            out.update.seq - 1, out.update.item_id,
                            out.arrival_s, out.update.src, out.dst, "wire",
                        )
                    check_quiet()

        async def heartbeat(dst: int) -> None:
            probe = encode_message(Heartbeat(src=network.source_node.node))
            while True:
                await asyncio.sleep(self.heartbeat_interval_s)
                if controller is not None and dst in controller.crashed:
                    continue  # peer is down by schedule: probing is moot
                writer = await ensure_writer(dst)
                if writer is None:
                    continue
                writer.write(probe)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    continue
                stats.heartbeats += 1

        async def failure_events() -> None:
            assert controller is not None
            for event in controller.schedule.events:
                due = start_wall + float(event.time) / self.time_scale
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                controller.apply_event(event, float(event.time))
                if event.kind == "crash":
                    # Sever the victim's connection for real; senders and
                    # heartbeats reconnect on demand after recovery.
                    victim = writers.get(event.repository)
                    if victim is not None and not victim.is_closing():
                        victim.close()

        try:
            # One server per node, OS-assigned ports.
            for node_id in network.all_node_ids():
                server = await asyncio.start_server(
                    lambda r, w, node_id=node_id: handle_node(node_id, r, w),
                    self.host,
                    0,
                )
                servers[node_id] = server
                ports[node_id] = server.sockets[0].getsockname()[1]

            # One eager connection + due-ordered sender task per
            # destination.  Under failures, failover can route over
            # ancestor edges the static d3g never uses, so cover every
            # repository and every client rather than just the static
            # edge pairs.
            dsts = {dst for _src, dst in network.edge_pairs()}
            if controller is not None:
                dsts.update(repo_ids)
                dsts.update(network.clients)
            for dst in sorted(dsts):
                _reader, writer = await asyncio.open_connection(
                    self.host, ports[dst]
                )
                writers[dst] = writer
                greet(dst, writer)
                send_heaps[dst] = []
                send_wakeups[dst] = asyncio.Event()
                sender_tasks.append(
                    asyncio.create_task(sender(dst), name=f"live-send-{dst}")
                )

            # Replay the workload against the wall clock.
            start_wall = loop.time()
            if controller is not None:
                aux_tasks.append(
                    asyncio.create_task(failure_events(), name="live-failures")
                )
                if self.heartbeat_interval_s > 0:
                    for dst in sorted(repo_ids & set(send_heaps)):
                        aux_tasks.append(
                            asyncio.create_task(
                                heartbeat(dst), name=f"live-heartbeat-{dst}"
                            )
                        )
            for t, item_id, value in network.source_schedule(duration):
                due = start_wall + t / self.time_scale
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                # The source replays its own schedule, so it stamps the
                # update with the scheduled time, not the (sleep-slopped)
                # wall reading -- downstream observations stay real.
                dispatch(network.source_node.on_update(item_id, value, t))

            replay_done = True
            check_quiet()
            try:
                await asyncio.wait_for(
                    quiet.wait(),
                    timeout=self.quiesce_timeout_s * self._wall_factor,
                )
            except (TimeoutError, asyncio.TimeoutError):
                pass
        finally:
            for task in (*aux_tasks, *sender_tasks):
                task.cancel()
            await asyncio.gather(
                *aux_tasks, *sender_tasks, return_exceptions=True
            )
            for writer in writers.values():
                if not writer.is_closing():
                    writer.write(encode_message(Bye(src=network.source_node.node)))
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            for server in servers.values():
                server.close()
                await server.wait_closed()
            # Handlers drain their buffered frames on EOF; wait for them
            # so the drop count below is final, not racing deliveries.
            if handler_tasks:
                done, pending = await asyncio.wait(
                    handler_tasks, timeout=self.drain_timeout_s * self._wall_factor
                )
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
        # Whatever never landed is a drop; conservation stays exact.
        stats.dropped = stats.sent - stats.delivered
        return stats


def make_transport(
    name: str,
    *,
    seed: int = 0,
    jitter_ms: float = 0.0,
    time_scale: float = 60.0,
    quiesce_timeout_s: float = 30.0,
    loss_probability: float = 0.0,
    heartbeat_interval_s: float = 0.5,
    reconnect_backoff_s: float = 0.05,
    reconnect_attempts: int = 5,
    drain_timeout_s: float = 2.0,
    wall_stretch_cap: float = 20.0,
):
    """Build a transport by registry name (``inprocess`` or ``tcp``).

    Raises:
        ConfigurationError: on an unknown transport name.
    """
    if name == InProcessTransport.name:
        return InProcessTransport(
            jitter_ms=jitter_ms, seed=seed, loss_probability=loss_probability
        )
    if name == TcpTransport.name:
        return TcpTransport(
            time_scale=time_scale,
            quiesce_timeout_s=quiesce_timeout_s,
            loss_probability=loss_probability,
            seed=seed,
            heartbeat_interval_s=heartbeat_interval_s,
            reconnect_backoff_s=reconnect_backoff_s,
            reconnect_attempts=reconnect_attempts,
            drain_timeout_s=drain_timeout_s,
            wall_stretch_cap=wall_stretch_cap,
        )
    raise ConfigurationError(
        f"unknown live transport {name!r}; choose from "
        f"{[InProcessTransport.name, TcpTransport.name]}"
    )
