"""The repository's benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (``workloads.py`` says why each
exists): ``wide-fanout``, ``churn-sweep``, ``fleet-wire``.

A run starts one fresh process (``answers.py``) that answers the
workload again and again -- a closed loop -- for ``--seconds``, each
answer with a fresh result-cache root, so imports and peak memory are
per run and no cache outlives an answer.  Each end-to-end metric is the
median over the run's answers:

- ``setup_s``: time to a runnable instance (``build_setup``; for
  ``churn-sweep`` config and churn-schedule generation; for
  ``fleet-wire`` spawn plus per-worker rebuild, ``wall_seconds -
  worker_wall_seconds``),
- ``result_s``: config to scored result, set-up included,
- ``msgs_per_s``: update messages (repository plane plus modeled
  clients; fleet: delivered frames) per second of post-set-up wall time,
- ``peak_rss_mb`` (one value per run): peak RSS of the run's process
  plus that of its largest worker process.

Every answer is checked.  Its digest (the full result's content hash;
fleet: the message count) must repeat on every answer of the run and
equal the reference: the digest pinned in ``pinned.json`` from
``kernel="scalar"`` for the pinned seeds, else the scalar oracle run
once per run outside the timed region.  ``churn-sweep`` runs the scalar
oracle itself, so for unpinned seeds its answers only have to agree.
The fleet must also conserve messages and stay within 0.5 pp of the
reference fidelity.  A crashed answer or a failed check is a failed
answer; ``fail_rate`` = failed / attempted is printed with the metrics.

``--trace 1`` alternates untraced and traced answers and reports the
per-layer metrics: self times of the layer functions timed from outside
(``spans.py``), work counts, fleet and codec figures, the trace
overhead and the unattributed remainder of ``result_s``.  Spans are
written under ``.perfbench/`` in the checkout.  For ``churn-sweep`` the
layers inside sweep worker processes are attributed from a traced
``jobs=1`` answer on the same inputs.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: The presets' own seed; ``pinned.json`` pins it and one held-out seed.
DEFAULT_SEED = 20020812

#: Seconds a run's answer process may take beyond ``--seconds``.
GRACE_S = 110.0

#: Seconds ``answers.calibration_s`` takes at the reference speed.  A
#: run's times are multiplied (rates divided) by this over the median
#: calibration time measured before each of its answers, so host speed
#: drift between runs does not pose as a change in the program.
CALIBRATION_S = 0.15

#: Largest fleet fidelity deviation from the in-process reference, pp.
FLEET_FIDELITY_PP = 0.5

#: Per-layer metrics taken from the ``jobs=2`` traced churn answers; the
#: rest come from the traced ``jobs=1`` answers on the same inputs.
SWEEP_PARENT_LAYERS = (
    "engine.sweep.s",
    "experiments.cache.put.s",
    "experiments.cache.bytes",
    "experiments.plan.distinct",
    "experiments.plan.simulated",
    "obs.unattributed_s",
)


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def sockets_available() -> str | None:
    """``None`` when localhost TCP works, else the reason it does not."""
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
    except OSError as exc:
        return f"cannot bind a localhost socket: {exc}"
    return None


def run_answers(workload: str, seed: int, seconds: float, trace: bool,
                reference: bool, out: Path) -> tuple[dict, str]:
    """Run the answer process; return its report and its stderr."""
    cmd = [sys.executable, str(HERE / "answers.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Answers pass their own fresh cache roots; anything falling back to
    # the default location still lands in this run's directory, never in
    # the user's cache or an inherited one.
    env["REPRO_CACHE_DIR"] = str(out / "default-cache")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload}: answers did not finish within {seconds + GRACE_S:.0f}s", 1)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-20:])
        fail(f"{workload}: answer process exited with {proc.returncode}:\n{tail}", 1)
    return json.loads(lines[-1]), stderr


def check(workload: str, records: list[dict], reference: dict | None) -> list[str]:
    """Mark failed answers in place; return one line per failure."""
    failures = []
    digest = None
    for index, record in enumerate(records, 1):
        if "error" in record:
            problems = [record["error"].strip().splitlines()[-1]]
        else:
            problems = list(record["violations"])
            digest = digest or record["digest"]
            if record["digest"] != digest:
                problems.append(f"digest {record['digest'][:16]} differs from the "
                                f"run's first answer {digest[:16]}")
            if reference is not None:
                problems += check_reference(workload, record, reference)
            elif workload != "churn-sweep":
                problems.append("no reference was computed")
        record["failed"] = bool(problems)
        if problems:
            failures.append(f"answer {index}: " + "; ".join(problems))
    return failures


def check_reference(workload: str, record: dict, reference: dict) -> list[str]:
    """Compare one answer with its pinned or in-run reference."""
    if workload != "fleet-wire":
        if record["digest"] != reference["digest"]:
            return [f"result digest {record['digest'][:16]} != reference "
                    f"{reference['digest'][:16]}"]
        return []
    problems = []
    if int(record["digest"]) != reference["messages"]:
        problems.append(f"fleet sent {record['digest']} messages, in-process "
                        f"reference {reference['messages']}")
    if abs(record["fidelity"] - reference["fidelity"]) > FLEET_FIDELITY_PP:
        problems.append(f"fleet fidelity {record['fidelity']:.4f}% vs reference "
                        f"{reference['fidelity']:.4f}% (> {FLEET_FIDELITY_PP} pp)")
    return problems


def per_layer(workload: str, records: list[dict], teardown_errors: float) -> dict[str, float]:
    """Median per-layer metrics over the run's good traced answers."""

    def medians(jobs: int) -> dict[str, float]:
        chosen = [r for r in records if r["traced"] and r["jobs"] == jobs]
        names = {name for r in chosen for name in r["layers"]}
        return {n: median([r["layers"].get(n, 0.0) for r in chosen]) for n in names}

    layers = medians(2)
    if workload == "churn-sweep":
        # Work inside sweep worker processes is invisible to the jobs=2
        # answers' spans; attribute it from the serial answers.
        parent, layers = layers, medians(1)
        layers["engine.sweep.busy_s"] = layers.get("engine.sweep.s", 0.0)
        layers.update({n: parent.get(n, 0.0) for n in SWEEP_PARENT_LAYERS})
        sweep_s = layers["engine.sweep.s"]
        layers["engine.sweep.efficiency"] = (
            layers["engine.sweep.busy_s"] / (2 * sweep_s) if sweep_s else 0.0
        )
    untraced = median([r["result_s"] for r in records if not r["traced"]])
    traced = median([r["result_s"] for r in records if r["traced"] and r["jobs"] == 2])
    layers["obs.trace_overhead"] = traced / untraced if untraced else 0.0
    layers["fleet.teardown_errors"] = teardown_errors
    return layers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        fail(f"no program to measure: {ROOT} lacks src/repro or BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.workload == "fleet-wire":
        reason = sockets_available()
        if reason is not None:
            print(f"perfbench: fleet-wire skipped: {reason}")
            sys.exit(3)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    pinned = json.loads((HERE / "pinned.json").read_text())
    reference = pinned.get(args.workload, {}).get(str(args.seed))
    source = ("pinned" if reference else "agreement" if args.workload == "churn-sweep"
              else "scalar oracle, in-run")

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report, stderr = run_answers(args.workload, args.seed, seconds, bool(args.trace),
                                 source == "scalar oracle, in-run", out)
    shutil.rmtree(out / "default-cache", ignore_errors=True)
    records = report["records"]
    failures = check(args.workload, records, reference or report["reference"])
    for line in failures:
        print(f"perfbench: {args.workload} {line}", file=sys.stderr)
    good = [r for r in records if not r["failed"]]
    if not good:
        fail(f"{args.workload}: every answer failed", 1)

    if args.trace:
        teardown = stderr.count("Traceback (most recent call last)") / len(records)
        layers = per_layer(args.workload, good, teardown)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        # Rescale the run's times to the reference speed (see CALIBRATION_S).
        speed = CALIBRATION_S / median([r["calibration_s"] for r in records])
        for record in good:
            record["peak_rss_mb"] = report["peak_rss_mb"]
        scale = {"setup_s": speed, "result_s": speed, "msgs_per_s": 1 / speed}
        metrics = {m["name"]: {"value": median([r[m["name"]] for r in good])
                               * scale.get(m["name"], 1.0), "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    attempted, failed = len(records), len(failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} answers, {failed} failed, fail_rate={failed / attempted:.4f} "
          f"(reference: {source})")
    for name, metric in metrics.items():
        line = f"  {name:36s} {metric['value']:14.6g} {metric['unit']}"
        if not args.trace and name != "peak_rss_mb":
            values = sorted(r[name] for r in good)
            line += (f"  median of {len(values)} (as timed {median(values):.4g}, "
                     f"range {values[0]:.4g}..{values[-1]:.4g})")
        print(line)
    if not args.trace:
        print(f"  host speed {speed:.4f} of reference (calibration loop, "
              f"median of {len(records)})")
    if args.trace:
        print(f"  spans: {out.relative_to(ROOT)}/answer*-spans.json"
              + ("; worker-side layers from the traced jobs=1 answers"
                 if args.workload == "churn-sweep" else ""))
    else:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
