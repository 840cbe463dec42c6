"""A run's answers of one workload, in one fresh process.

``run.py`` starts this script once per benchmark run, so each run pays
its own imports and reports its own peak memory.  Answers follow one
another (a closed loop) until ``--seconds`` of answering have passed;
each answer gets a fresh result-cache root and is preceded by one
timing of the calibration loop.  With ``--trace`` every
round is an untraced answer followed by a traced one (for
``churn-sweep`` also a traced ``jobs=1`` answer on the same inputs).
With ``--reference`` the reference is computed once, from the first
answer's inputs and outside the timed region.  The last stdout line is
one JSON object: every answer's record, the reference and the run's
peak memory.  Traced answers write their spans to
``<out>/answer<N>-spans.json``.

    python3 perfbench/answers.py --workload NAME --seed N --seconds S \
        --out DIR [--trace] [--reference]

``repro`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

clock = time.perf_counter

#: Layers that must record at least one call when traced, per workload
#: (for ``churn-sweep``, per sweep worker count).  ``engine.kernel`` is
#: either kernel.
EXPECTED_LAYERS = {
    "paper-base": ("engine.setup", "network.topology", "network.routing",
                   "traces.generate", "traces.schedule", "core.interests",
                   "core.lela", "engine.prepare", "engine.kernel", "core.fidelity"),
    "wide-fanout": ("engine.setup", "network.topology", "network.routing",
                    "traces.generate", "traces.schedule", "core.interests",
                    "core.lela", "engine.clients.setup", "engine.prepare",
                    "engine.kernel", "core.fidelity"),
    "churn-sweep/1": ("engine.sweep", "experiments.cache.put", "engine.setup",
                      "network.topology", "network.routing", "traces.generate",
                      "traces.schedule", "core.interests", "core.dynamics",
                      "engine.prepare", "engine.kernel", "core.fidelity"),
    "churn-sweep/2": ("engine.sweep", "experiments.cache.put"),
    "fleet-wire": ("engine.setup", "network.routing", "fleet.plan",
                   "fleet.expect.ready", "fleet.expect.stats",
                   "fleet.expect.report", "fleet.merge"),
}

#: Frames per codec timing pass, and passes (the median pass counts).
CODEC_FRAMES = 2_000
CODEC_PASSES = 5


def calibration_s() -> float:
    """Time a fixed mix of interpreter and numpy work, like the program's.

    The host's speed drifts by tens of percent over minutes (shared
    CPUs); timing this loop before every answer lets ``run.py`` rescale
    a run's times to the reference speed.
    """
    import numpy as np

    start = clock()
    total = 0
    for i in range(1_000_000):
        total += i * i
    dist = np.arange(360_000, dtype=float).reshape(600, 600) % 997.0
    for k in range(60):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return clock() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(totals: dict, answer, top_level_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced answer from its span totals."""

    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def calls(*names):
        return sum(totals[n]["calls"] for n in names if n in totals)

    kernels = ("engine.kernel.scalar", "engine.kernel.vectorized")
    setup_total = totals.get("engine.setup", {}).get("total_s", 0.0)
    metrics = {
        "network.topology.s": self_s("network.topology"),
        "network.routing.s": self_s("network.routing"),
        "network.routing.setup_share":
            self_s("network.routing") / setup_total if setup_total else 0.0,
        "traces.generate.s": self_s("traces.generate"),
        "traces.schedule.s": self_s("traces.schedule"),
        "core.interests.s": self_s("core.interests"),
        "core.lela.s": self_s("core.lela"),
        "engine.clients.setup.s": self_s("engine.clients.setup"),
        "engine.prepare.s": self_s("engine.prepare"),
        "engine.kernel.s": self_s(*kernels),
        "engine.kernel.vectorized_share":
            calls("engine.kernel.vectorized") / calls(*kernels) if calls(*kernels) else 0.0,
        "core.fidelity.s": self_s("core.fidelity"),
        "core.fidelity.calls": calls("core.fidelity"),
        "core.dynamics.s": self_s("core.dynamics"),
        "core.dynamics.calls": calls("core.dynamics"),
        "engine.sweep.s": totals.get("engine.sweep", {}).get("total_s", 0.0),
        "experiments.cache.put.s": self_s("experiments.cache.put"),
        "fleet.merge.s": self_s("fleet.merge"),
        "obs.unattributed_s": answer.result_s - top_level_s,
    }
    metrics.update(answer.counts)
    events = metrics.get("engine.kernel.events", 0)
    checks = metrics.get("engine.kernel.checks", 0)
    metrics["engine.kernel.us_per_event"] = (
        metrics["engine.kernel.s"] * 1e6 / events if events else 0.0
    )
    metrics["engine.filter.forward_ratio"] = (
        metrics.get("engine.kernel.messages", 0) / checks if checks else 0.0
    )
    return metrics


def _median_per_frame_us(func, items) -> float:
    passes = []
    for _ in range(CODEC_PASSES):
        start = clock()
        for item in items:
            func(item)
        passes.append((clock() - start) / len(items) * 1e6)
    return statistics.median(passes)


def fleet_metrics(seed: int, answer, recorder) -> dict[str, float]:
    """Fleet replay timing, wire-frame count and JSON codec cost."""
    from repro.engine import builder, simulation
    from repro.fleet.sharding import plan_shards
    from repro.live import protocol
    from repro.obs.trace import TraceRecorder

    import workloads

    extras = answer.extras
    ready = recorder.last("fleet.expect.ready")
    first_poll = recorder.first("fleet.expect.stats")
    nominal_s = extras["sim_span_s"] / workloads.FLEET_TIME_SCALE
    metrics = {
        "fleet.startup.s": answer.setup_s,
        "fleet.replay.s": extras["replay_s"],
        # From the last worker reporting ready to the first quiescence
        # poll (issued once the replay is done), past the schedule's
        # nominal length; includes the supervisor's start lead.
        "fleet.replay_lag_s": first_poll[1] - ready[2] - nominal_s,
        "fleet.queue_stalls": extras["queue_stalls"],
        "fleet.protocol_errors": extras["protocol_errors"],
        "fleet.resync_frames": extras["resync_frames"],
    }

    # The fleet sends exactly the in-process message sequence, so the
    # ``forward`` spans of a traced in-process run (untimed), split by
    # the fleet's shard plan, are the frames the workers put on the wire.
    config = workloads.fleet_config(seed)
    setup = builder.build_setup(config)
    spans = TraceRecorder(policy=config.policy)
    simulation.make_simulation(setup, observer=spans).run()
    owner = plan_shards(setup, workloads.FLEET_WORKERS).owner
    values = setup.update_schedule.values
    frames = [
        protocol.Forward(
            dst=e.dst,
            arrival_s=e.time + setup.network.delay_s(e.node, e.dst),
            item_id=e.item_id,
            value=float(values[e.update_id]),
            tag=None,
            seq=e.update_id + 1,
            src=e.node,
        )
        for e in spans.events
        if e.kind == "forward" and owner[e.node] != owner[e.dst]
    ]
    sample = frames[:CODEC_FRAMES]
    encoded = [protocol.encode_message(f) for f in sample]
    bodies = [frame[protocol._LENGTH.size:] for frame in encoded]
    encode_us = _median_per_frame_us(protocol.encode_message, sample)
    decode_us = _median_per_frame_us(protocol.decode_payload, bodies)
    metrics.update({
        "fleet.wire_frames": len(frames),
        "live.protocol.encode_us": encode_us,
        "live.protocol.decode_us": decode_us,
        "live.protocol.frame_bytes": statistics.fmean(len(f) for f in encoded),
        "fleet.codec_share": len(frames) * (encode_us + decode_us) * 1e-6
        / (workloads.FLEET_WORKERS * extras["replay_s"]),
    })
    return metrics


def traced_answer(run, workload: str, seed: int, jobs: int, spans_path: Path) -> dict:
    """One traced answer: its record plus the per-layer metrics."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    origin = clock()
    try:
        answer = run(jobs=jobs)
    finally:
        recorder.uninstall()
    record = answer_record(answer)
    recorder.write(spans_path, origin)
    totals = recorder.totals()
    totals["engine.kernel"] = {"calls": sum(
        totals.get(k, {}).get("calls", 0)
        for k in ("engine.kernel.scalar", "engine.kernel.vectorized")
    )}
    key = workload + (f"/{jobs}" if workload == "churn-sweep" else "")
    for layer in EXPECTED_LAYERS[key]:
        if not totals.get(layer, {}).get("calls"):
            record["violations"].append(f"traced layer {layer} recorded no calls")
    layers = layer_metrics(totals, answer, recorder.top_level_s())
    if workload == "fleet-wire":
        layers.update(fleet_metrics(seed, answer, recorder))
    record["layers"] = layers
    record["jobs"] = jobs
    return record


def answer_record(answer) -> dict:
    return {
        "setup_s": answer.setup_s,
        "result_s": answer.result_s,
        "msgs_per_s": answer.msgs_per_s,
        "digest": answer.digest,
        "fidelity": answer.extras.get("fidelity"),
        "violations": list(answer.violations),
        "traced": False,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    caches = itertools.count()

    def run(**kwargs):
        # A fresh cache root per answer: in-answer reuse counts, reuse
        # across answers cannot pose as a speed-up.
        cache_root = args.out / f"cache{next(caches)}"
        try:
            return workload(args.seed, cache_root=cache_root, **kwargs)
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)

    records: list[dict] = []
    reference = None
    reference_s = 0.0
    start = clock()
    while not records or clock() - start - reference_s < args.seconds:
        steps = [("untraced", None)]
        # ``jobs`` sets churn-sweep's sweep width; other workloads ignore it.
        if args.trace:
            steps.append(("traced", workloads.CHURN_JOBS))
            if args.workload == "churn-sweep":
                steps.append(("traced", 1))
        for kind, jobs in steps:
            calibration = calibration_s()
            try:
                if kind == "traced":
                    spans_path = args.out / f"answer{len(records) + 1}-spans.json"
                    record = traced_answer(run, args.workload, args.seed, jobs, spans_path)
                    record["traced"] = True
                else:
                    answer = run()
                    record = answer_record(answer)
                    if args.reference and reference is None and answer.reference:
                        began = clock()
                        reference = answer.reference()
                        reference_s += clock() - began
            except Exception:  # a crashed answer is a failed answer
                record = {"error": traceback.format_exc()}
            record["calibration_s"] = calibration
            records.append(record)

    print(json.dumps({
        "records": records,
        "reference": reference,
        "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb(),
    }))


if __name__ == "__main__":
    main()
