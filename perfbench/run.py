"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-modes --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, a table
    python3 perfbench/run.py --write-benchmark-json

``--trace 0`` measures one workload with no wrappers installed and
prints its end-to-end metrics.  ``--trace 1`` makes the traced run
(``traced.py``): every workload serially in this process with spans
around the program's public calls, printing the per-layer metrics.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run for a reader.  ``README.md`` beside this file says
why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List

import analytic_grid
import common
import drs_decide
import sim_modes
import traced
import warm_read

#: name -> why, in the order ``--workload all`` runs them.
WORKLOADS: Dict[str, str] = {
    "sim-modes": (
        "cold simulated campaign over every runtime mode, both apps, two"
        " shards: the object runtime and the sharded executor"
    ),
    "analytic-grid": (
        "cold hybrid grid answered wholly by the queueing model into a"
        " fresh segmented store: store writes, hybrid and queueing layers"
    ),
    "warm-read": (
        "closed-loop campaign jobs over a filled store via the HTTP"
        " service, nothing computed: store reads, service, aggregation"
    ),
    "drs-decide": (
        "closed-loop DRSController.update over jittered load snapshots,"
        " Kmax and Tmax sweeps: the solvers the campaigns barely reach"
    ),
}

#: ``(name, unit, better, bound)``: reported by every workload.
#: The timing bounds are the widest allowed: even host-adjusted, the
#: same tree's timings spread by up to ~0.15 (IQR over median) across
#: runs on the reference host, a shared 2-core VM (README.md, "Host
#: speed").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("cli_s", "s", "lower", 0.25),
)

#: ``(name, unit, better)``: reported by the traced run.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.run_until_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    *(
        (f"sim.replication_s.{label}", "s", "lower")
        for label, _ in sim_modes.CELLS
    ),
    ("sim.build_s", "s", "lower"),
    ("campaigns.shard.speedup", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("scheduler.assign.calls", "count", "lower"),
    ("scheduler.assign_s", "s", "lower"),
    ("scheduler.min_resources.calls", "count", "lower"),
    ("scheduler.min_resources_s", "s", "lower"),
    ("model.build_s", "s", "lower"),
    ("drs.actions.none", "count", "lower"),
    ("drs.actions.rebalance", "count", "lower"),
    ("drs.actions.scale_out", "count", "lower"),
    ("drs.actions.scale_in", "count", "lower"),
    ("campaigns.expand_s", "s", "lower"),
    ("campaigns.hybrid.decide_s", "s", "lower"),
    ("campaigns.hybrid.evaluate_s", "s", "lower"),
    ("queueing.predict_s", "s", "lower"),
    ("campaigns.hybrid.analytic_ratio", "ratio", "higher"),
    ("campaigns.store.put.calls", "count", "lower"),
    ("campaigns.store.put_s", "s", "lower"),
    ("campaigns.store.bytes", "B", "lower"),
    ("campaigns.store.open_s", "s", "lower"),
    ("campaigns.store.load.calls", "count", "lower"),
    ("campaigns.store.load_s", "s", "lower"),
    ("campaigns.aggregate_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.http.submit_s", "s", "lower"),
    ("service.http.poll_s", "s", "lower"),
    ("service.http.aggregates_s", "s", "lower"),
    ("service.polls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
)

#: Names the defining issue gave the end-to-end metrics, by the
#: (workload, metric) that reports them here (README.md has the table).
ISSUE_NAMES = {
    ("sim-modes", "throughput_per_s"): "sim_tuples_per_s",
    ("analytic-grid", "throughput_per_s"): "cells_per_s",
    ("warm-read", "latency_p50_ms"): "job_p50_s, in ms",
    ("warm-read", "latency_tail_ms"): "job_p95_s, in ms",
    ("warm-read", "cli_s"): "cli_report_s",
    ("drs-decide", "latency_p50_ms"): "decision_p50_ms",
    ("drs-decide", "latency_tail_ms"): "decision_p99_ms",
}

RUN_SECONDS = 15


def benchmark_json() -> Dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    common.require_checkout()
    from repro import api

    modules = {m.NAME: m for m in (sim_modes, analytic_grid, warm_read,
                                   drs_decide)}
    with common.WorkDir(workload) as work:
        fs = common.filesystem_type(work)
        if trace:
            outcome = traced.run(api, seed, work)
            names = [name for name, _, _ in PER_LAYER]
            workload = "traced"
        else:
            outcome = modules[workload].measure(api, seed, seconds, work)
            outcome.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
            names = [name for name, _, _, _ in END_TO_END]
    outcome.details.update(workload=workload, seed=seed, store_fs=fs,
                           python=sys.version.split()[0])
    print(json.dumps({"details": outcome.details}, sort_keys=True))
    for name, table in outcome.details.get("workloads", {}).items():
        print(f"{name}: {table['wall_s']:.3f} s traced; spans by self time")
        for row in sorted(table["spans"], key=lambda r: -r["self_s"])[:12]:
            print(f"    {row['span']:<34} {row['calls']:>7} calls"
                  f" {row['total_s']:>10.4f} s total {row['self_s']:>10.4f} s"
                  f" self ({row['self_share']:.1%})")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name in names:
        metric = outcome.metrics[name]
        alias = ISSUE_NAMES.get((workload, name))
        print(f"{workload:>14}  {name:<34} {metric['value']:>16.6g}"
              f" {metric['unit']}" + (f"  ({alias})" if alias else ""))
    print(f"{workload:>14}  attempted {outcome.attempted}, failed"
          f" {outcome.failed}, correct {outcome.correct}")
    print(outcome.result_line(names))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}")
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<22}" + "".join(f"{w:>16}" for w in results))
    for name, unit, _, _ in END_TO_END:
        row = "".join(
            f"{results[w]['metrics'][name]['value']:>16.5g}" for w in results)
        print(f"{name + ' [' + unit + ']':<22}{row}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<22}" + "".join(f"{str(r[key]):>16}"
                                      for r in results.values()))
    for (workload, name), alias in ISSUE_NAMES.items():
        value = results[workload]["metrics"][name]["value"]
        print(f"{alias:<22}{value:>16.5g}  ({workload} {name})")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        path = common.ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
