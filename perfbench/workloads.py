"""The benchmark's workloads, each one answer at a time.

Every workload turns the benchmark seed into the program's public
inputs (frozen :class:`~repro.engine.config.SimulationConfig` values),
calls the program through its public entry points and returns an
:class:`Answer`: wall times, the delivered work, a digest that must
repeat exactly on every answer of a run, and the invariants the answer
broke.  Program functions are always looked up through their module at
call time, so the outside-in spans of :mod:`spans` see every call.

Why these (each stresses a different layer of the stack):

- ``wide-fanout``: the scalability trim's shape -- many repositories,
  few routers, 1,000 modeled clients per repository.  Routing, LeLA
  over a large membership and the client fan-out dominate; the event
  heap does little.
- ``churn-sweep``: a cold 6-config churn grid through the cached,
  deduplicated sweep at ``jobs=2``.  Churn forces the scalar oracle and
  the membership-rebuild path, and the grid exercises sweep fan-out
  and the result cache.
- ``fleet-wire``: a 2-worker multi-process fleet at a time scale high
  enough that delivery work, not pacing, bounds the rate -- the only
  workload that runs the sans-io nodes, the JSON wire codec, fleet
  links and the report merge.
- ``paper-base``: the paper's own network (100 repositories, 600
  routers, 20 items), where routing is most of set-up and the event
  kernel most of the rest.  One answer takes about 8 s here, too few
  per run for a steady median, so it is not in ``BENCHMARK.json``; run
  it traced by hand (``answers.py --workload paper-base --trace``) for
  the kernel-versus-scoring split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.engine import SCALE_PRESETS
from repro.engine import builder, churn, simulation
from repro.experiments import api
from repro.experiments.cache import ResultCache, fingerprint
from repro.fleet import supervisor

clock = time.perf_counter

#: Trace length of ``paper-base``: long enough that the kernel is a
#: real share of an answer.
PAPER_SAMPLES = 500

#: ``wide-fanout`` is the ``bench_scalability.SPEEDUP_CONFIG`` shape with
#: 300 repositories and 1,000 clients each (not 1,000 and 2,000), so a
#: run holds enough answers for a steady median.  Its 300 update samples
#: are spread over 6 items (not 150 over 2): how much work an input
#: makes varies with its items' random profiles, and more items average
#: that out across seeds.
WIDE = dict(n_repositories=300, n_routers=120, n_items=6, trace_samples=50,
            clients_per_repository=1_000)

CHURN_POLICIES = ("distributed", "centralized")
#: Churn events per kind (joins = departs = coherency updates = k).
CHURN_INTENSITIES = (1, 3, 6)
CHURN_JOBS = 2
#: ``churn-sweep`` and ``fleet-wire`` run the ``small`` network (50
#: repositories, 200 routers) with 30 items of 200 samples -- the update
#: volume of 10 items of 600 samples, with a third of the seed-to-seed
#: spread in work.
SMALL = dict(n_items=30, trace_samples=200)

FLEET_WORKERS = 2
#: Simulated seconds per wall second: the trace replays in milliseconds,
#: so delivery work, not pacing, sets the rate.
FLEET_TIME_SCALE = 1e5


@dataclass
class Answer:
    """One timed answer of a workload."""

    setup_s: float
    result_s: float
    msgs_per_s: float
    #: Must be identical on every answer of one run and equal the
    #: reference's digest.
    digest: str
    violations: list[str] = field(default_factory=list)
    #: Deterministic work counts, reported by the traced run.
    counts: dict[str, float] = field(default_factory=dict)
    #: Computes the reference digest from this answer's inputs, outside
    #: the timed region; ``None`` when the answer is its own reference.
    reference: Callable[[], dict] | None = None
    #: Workload-specific observations for the per-layer report.
    extras: dict = field(default_factory=dict)


def paper_base_config(seed: int):
    return SCALE_PRESETS["paper"].with_(seed=seed, trace_samples=PAPER_SAMPLES)


def wide_fanout_config(seed: int):
    return SCALE_PRESETS["scalability"].with_(seed=seed, **WIDE)


def churn_sweep_configs(seed: int) -> list:
    base = SCALE_PRESETS["small"].with_(seed=seed, **SMALL)
    configs = []
    for policy in CHURN_POLICIES:
        config = base.with_(policy=policy)
        for k in CHURN_INTENSITIES:
            schedule = churn.schedule_for_config(config, joins=k, departs=k, updates=k)
            configs.append(config.with_(churn=schedule))
    return configs


def fleet_config(seed: int):
    return SCALE_PRESETS["small"].with_(seed=seed, **SMALL)


def conservation(counters) -> list[str]:
    if counters.deliveries + counters.drops != counters.messages:
        return [f"deliveries {counters.deliveries} + drops {counters.drops} "
                f"!= messages {counters.messages}"]
    return []


def work_counts(results) -> dict[str, float]:
    c = [r.counters for r in results]
    return {
        "engine.kernel.events": sum(r.events_processed for r in results),
        "engine.kernel.messages": sum(x.messages for x in c),
        "engine.kernel.checks": sum(x.total_checks for x in c),
        "engine.clients.messages": sum(x.client_messages for x in c),
        "engine.clients.checks": sum(x.client_checks for x in c),
        "engine.reconfig.resubscriptions": sum(x.resubscriptions for x in c),
    }


def scalar_digest(setup) -> dict:
    """Digest of the scalar oracle's full result for a built setup."""
    return {"digest": fingerprint(simulation.DisseminationSimulation(setup).run())}


def _simulate(config) -> Answer:
    start = clock()
    setup = builder.build_setup(config)
    built = clock()
    result = simulation.make_simulation(setup).run()
    done = clock()
    counters = result.counters
    counts = work_counts([result])
    counts["traces.updates"] = len(setup.update_schedule)
    return Answer(
        setup_s=built - start,
        result_s=done - start,
        msgs_per_s=(counters.messages + counters.client_messages) / (done - built),
        digest=fingerprint(result),
        violations=conservation(counters),
        counts=counts,
        reference=lambda: scalar_digest(setup),
    )


def paper_base(seed: int, **_) -> Answer:
    return _simulate(paper_base_config(seed))


def wide_fanout(seed: int, **_) -> Answer:
    return _simulate(wide_fanout_config(seed))


def churn_sweep(seed: int, *, cache_root: Path, jobs: int = CHURN_JOBS, **_) -> Answer:
    start = clock()
    configs = churn_sweep_configs(seed)
    built = clock()
    stats = api.ExecutionStats()
    results = api.execute_plan(configs, jobs=jobs, cache=ResultCache(cache_root), stats=stats)
    done = clock()
    violations = []
    for config, result in zip(configs, results):
        violations += conservation(result.counters)
        if result.counters.reconfigurations != len(config.churn):
            violations.append(
                f"{config.policy}: {result.counters.reconfigurations} "
                f"reconfigurations for {len(config.churn)} churn events"
            )
    if stats.simulated != len(configs):
        violations.append(f"cold cache simulated {stats.simulated} of {len(configs)}")
    messages = sum(r.counters.messages + r.counters.client_messages for r in results)
    counts = work_counts(results)
    counts["experiments.plan.distinct"] = stats.distinct
    counts["experiments.plan.simulated"] = stats.simulated
    counts["experiments.cache.bytes"] = sum(
        p.stat().st_size for p in Path(cache_root).rglob("*") if p.is_file()
    )
    return Answer(
        setup_s=built - start,
        result_s=done - start,
        msgs_per_s=messages / (done - built),
        # Churn runs on the scalar oracle under kernel="auto", so the
        # answer is its own reference (pinned seeds still compare).
        digest=fingerprint(results),
        violations=violations,
        counts=counts,
    )


def fleet_wire(seed: int, **_) -> Answer:
    start = clock()
    config = fleet_config(seed)
    result = supervisor.run_fleet(
        config,
        workers=FLEET_WORKERS,
        time_scale=FLEET_TIME_SCALE,
    )
    done = clock()
    counters = result.counters
    replay_s = result.extras["worker_wall_seconds"]
    violations = conservation(counters)
    if result.sent != result.delivered + result.dropped or result.dropped:
        violations.append(
            f"wire sent {result.sent} != delivered {result.delivered} "
            f"(dropped {result.dropped})"
        )
    extras = {
        key: result.extras[key]
        for key in ("queue_stalls", "protocol_errors", "resync_frames")
    }
    extras.update(
        replay_s=replay_s,
        wall_seconds=result.wall_seconds,
        sim_span_s=result.sim_span_s,
        fidelity=result.fidelity,
    )

    def reference() -> dict:
        oracle = simulation.DisseminationSimulation(builder.build_setup(config)).run()
        return {"messages": oracle.counters.messages, "fidelity": oracle.fidelity}

    return Answer(
        setup_s=result.wall_seconds - replay_s,
        result_s=done - start,
        msgs_per_s=result.delivered / replay_s,
        # Wall-clock arrival jitter moves fleet fidelity slightly; the
        # message count must repeat exactly.
        digest=str(counters.messages),
        violations=violations,
        counts={
            "engine.kernel.messages": counters.messages,
            "engine.kernel.checks": counters.total_checks,
        },
        reference=reference,
        extras=extras,
    )


WORKLOADS: dict[str, Callable[..., Answer]] = {
    "paper-base": paper_base,
    "wide-fanout": wide_fanout,
    "churn-sweep": churn_sweep,
    "fleet-wire": fleet_wire,
}
