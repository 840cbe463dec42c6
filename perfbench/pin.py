"""Regenerate ``pinned.json``: the reference results of the pinned seeds.

    PYTHONPATH=src python3 perfbench/pin.py

For the default seed and one held-out seed (kept for checking a
performance claim on inputs it was not tuned on), each workload's inputs
run once on ``kernel="scalar"`` -- the oracle -- and the result's
content digest is stored (``fleet-wire``: the in-process message count
and fidelity the fleet must reproduce).  Rerun only when a change is
*meant* to alter results, and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine import builder, simulation, sweep
from repro.experiments.cache import fingerprint

import workloads
from run import DEFAULT_SEED

#: Held out from tuning; claims are re-checked on it.
HELD_OUT_SEED = 7


def scalar(config):
    return simulation.DisseminationSimulation(
        builder.build_setup(config.with_(kernel="scalar"))
    ).run()


def pin(seed: int) -> dict[str, dict]:
    churn = [c.with_(kernel="scalar") for c in workloads.churn_sweep_configs(seed)]
    fleet = scalar(workloads.fleet_config(seed))
    return {
        "wide-fanout": {"digest": fingerprint(scalar(workloads.wide_fanout_config(seed)))},
        "churn-sweep": {"digest": fingerprint(sweep.run_sweep(churn, jobs=1))},
        "fleet-wire": {"messages": fleet.counters.messages, "fidelity": fleet.fidelity},
    }


def main() -> None:
    pinned: dict[str, dict] = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload, reference in pin(seed).items():
            pinned.setdefault(workload, {})[str(seed)] = reference
    path = Path(__file__).resolve().parent / "pinned.json"
    path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
