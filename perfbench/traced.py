"""The traced run: every workload, serially, with spans on its layers.

Each workload runs once with count-only wrappers and once with span
recording, in this one process, so the wrappers see every call (the
simulated campaign runs through one shard instead of two).  The
deterministic counts — simulator events, store writes, the analytic
ratio, DRS actions — must agree between the two passes.  The gap
between the two ``sim-modes`` walls is the tracing overhead; the
count-only serial wall over the two-shard wall is the executor's
speed-up.

Each per-layer metric is taken on the workload named beside it in
``PER_LAYER`` (``run.py``); every workload's full span table is printed
too, so a layer's share on the other workloads (the solvers' on
``sim-modes``, say) can be read off it.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import analytic_grid
import drs_decide
import sim_modes
import warm_read
from common import (
    ROOT, HostSpeed, Outcome, digest, dir_bytes, fresh_dir, median, timed,
)
from tracing import Tracer, install

#: Counts that must repeat exactly for a seed.
DETERMINISTIC = (
    "sim.events",
    "campaigns.store.put.calls",
    "drs.actions.none",
    "drs.actions.rebalance",
    "drs.actions.scale_out",
    "drs.actions.scale_in",
)


def _pair(fn):
    """Run ``fn(tracer)`` count-only, then traced: two ``(tracer, result,
    wall)`` triples."""
    out = []
    for timing in (False, True):
        tracer = Tracer(timing=timing)
        with install(tracer):
            result, wall = timed(fn, tracer)
        out.append((tracer, result, wall))
    return out


def _agree(outcome: Outcome, workload: str, plain: Tracer, traced: Tracer):
    for name in DETERMINISTIC:
        outcome.check(plain.counts[name] == traced.counts[name],
                      f"{workload}: {name} {plain.counts[name]} untraced vs"
                      f" {traced.counts[name]} traced")


def _time(summary, name: str) -> float:
    return summary.get(name, {}).get("total_s", 0.0)


def _calls(summary, name: str) -> int:
    return int(summary.get(name, {}).get("calls", 0))


def span_table(tracer: Tracer, wall: float) -> List[Dict[str, Any]]:
    """Rows of calls, total and self seconds, and self share of ``wall``."""
    rows = []
    for name, row in sorted(tracer.summary().items()):
        rows.append({"span": name, "calls": row["calls"],
                     "total_s": round(row["total_s"], 6),
                     "self_s": round(row["self_s"], 6),
                     "self_share": round(row["self_s"] / wall, 4)})
    return rows


def _sim_modes(api, seed: int, work: Path, outcome: Outcome, metrics):
    spec = api.load_campaign(sim_modes.campaign(seed))
    stores = iter([fresh_dir(work, f"sim{i}") for i in range(3)])
    runs = _pair(
        lambda tracer: sim_modes.run_once(api, spec, next(stores), 1)[0])
    sharded, shard_wall = sim_modes.run_once(
        api, spec, next(stores), sim_modes.SHARDS)
    (plain, serial, serial_wall), (tracer, traced, traced_wall) = runs
    _agree(outcome, sim_modes.NAME, plain, tracer)
    digests = set()
    for result in (serial, traced, sharded):
        tuples, failed, rows = sim_modes.account(outcome, result)
        digests.add(digest(rows))
    outcome.check(len(digests) == 1,
                  "sim-modes: serial, traced and sharded results differ")
    outcome.attempted += sim_modes.REPLICATIONS * len(sim_modes.CELLS)
    outcome.failed += len(failed)
    summary = tracer.summary()
    run_until = _time(summary, "sim.run_until")
    replications = 0.0
    for label, _ in sim_modes.CELLS:
        took = _time(summary, f"sim.replication.{label}")
        metrics[f"sim.replication_s.{label}"] = (took, "s")
        replications += took
    metrics.update({
        "sim.events": (tracer.counts["sim.events"], "count"),
        "sim.run_until_s": (run_until, "s"),
        "sim.events_per_s": (tracer.counts["sim.events"] / run_until, "1/s"),
        "sim.build_s": (replications - run_until, "s"),
        "campaigns.shard.speedup": (serial_wall / shard_wall, "ratio"),
        "trace.overhead": (traced_wall / serial_wall - 1.0, "ratio"),
    })
    return tracer, traced_wall, {
        "serial_wall_s": serial_wall, "traced_wall_s": traced_wall,
        "sharded_wall_s": shard_wall, "failed_replications": failed,
    }


def _analytic_grid(api, seed: int, work: Path, outcome: Outcome, metrics,
                   grid):
    spec = api.load_campaign(grid)
    stores = [fresh_dir(work, f"grid{i}") for i in range(2)]
    pending = iter(stores)
    (plain, first, _), (tracer, result, wall) = _pair(
        lambda tracer: analytic_grid.fill_segments(api, spec, next(pending))[0])
    _agree(outcome, analytic_grid.NAME, plain, tracer)
    ratios = [r.analytic / r.computed for r in (first, result)]
    outcome.check(ratios[0] == ratios[1],
                  f"analytic-grid: analytic ratio {ratios[0]} vs {ratios[1]}")
    total = result.computed
    outcome.attempted += total
    outcome.failed += analytic_grid.check_run(outcome, result, total)
    outcome.failed += analytic_grid.check_store(
        outcome, analytic_grid.read_back(api, spec, stores[-1]))
    summary = tracer.summary()
    metrics.update({
        "campaigns.expand_s": (
            tracer.total_of("campaigns.expand", "campaigns.spec_hash"), "s"),
        "campaigns.hybrid.decide_s": (
            _time(summary, "campaigns.hybrid.decide"), "s"),
        "campaigns.hybrid.evaluate_s": (
            _time(summary, "campaigns.hybrid.evaluate"), "s"),
        "queueing.predict_s": (_time(summary, "queueing.predict"), "s"),
        "campaigns.hybrid.analytic_ratio": (ratios[1], "ratio"),
        "campaigns.store.put.calls": (
            tracer.counts["campaigns.store.put.calls"], "count"),
        "campaigns.store.put_s": (_time(summary, "campaigns.store.put"), "s"),
        "campaigns.store.bytes": (dir_bytes(stores[-1]), "B"),
    })
    return tracer, wall, {"records": total}


def _warm_read(api, seed: int, work: Path, outcome: Outcome, metrics, grid):
    store = fresh_dir(work, "classic")
    analytic_grid.fill(api, api.load_campaign(grid), store)
    tracer = Tracer()
    started = time.perf_counter()
    with install(tracer):
        service, client = warm_read.start_service(store)
        try:
            latencies, finished, _ = warm_read.run_jobs(
                client, warm_read.job_campaigns(grid, seed + 1),
                warm_read.MIN_JOBS, HostSpeed())
        finally:
            service.shutdown()
    wall = time.perf_counter() - started
    outcome.attempted += len(latencies)
    outcome.failed += len(warm_read.failures(api, store, finished))
    jobs = [job for _, job, _, _ in finished]
    summary = tracer.summary()
    metrics.update({
        "campaigns.store.open_s": (_time(summary, "campaigns.store.open"), "s"),
        "campaigns.store.load.calls": (
            _calls(summary, "campaigns.store.load"), "count"),
        "campaigns.store.load_s": (_time(summary, "campaigns.store.load"), "s"),
        "campaigns.aggregate_s": (_time(summary, "campaigns.aggregate"), "s"),
        "service.queue_wait_s": (
            sum(job["started_at"] - job["submitted_at"] for job in jobs), "s"),
        "service.run_s": (
            sum(job["finished_at"] - job["started_at"] for job in jobs), "s"),
        "service.http.submit_s": (_time(summary, "service.http.submit"), "s"),
        "service.http.poll_s": (_time(summary, "service.http.poll"), "s"),
        "service.http.aggregates_s": (
            _time(summary, "service.http.aggregates"), "s"),
        "service.polls": (sum(polls for *_, polls in finished), "count"),
        "cli.import_s": (median(_import_times(outcome)), "s"),
    })
    return tracer, wall, {"jobs": len(latencies),
                          "job_p50_s": median(latencies)}


def _import_times(outcome: Outcome) -> List[float]:
    """Seconds a fresh interpreter spends importing ``repro.cli``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        outcome.check(proc.returncode == 0,
                      f"importing repro.cli failed: {proc.stderr[-300:]}")
        if proc.returncode == 0:
            times.append(float(proc.stdout))
    return times


def _drs_decide(api, seed: int, work: Path, outcome: Outcome, metrics):
    all_streams = drs_decide.set_up(seed)

    def decide(tracer):
        def on_decision(decision):
            tracer.count(f"drs.actions.{decision.action.value}")

        return drs_decide.one_pass(all_streams, [], on_decision)

    (plain, first, _), (tracer, (rows, bad), wall) = _pair(decide)
    _agree(outcome, drs_decide.NAME, plain, tracer)
    outcome.check(digest(first[0]) == digest(rows),
                  "drs-decide: decisions differ between passes")
    outcome.attempted += len(rows)
    outcome.failed += len(bad)
    summary = tracer.summary()
    metrics.update({
        "scheduler.assign.calls": (_calls(summary, "scheduler.assign"), "count"),
        "scheduler.assign_s": (_time(summary, "scheduler.assign"), "s"),
        "scheduler.min_resources.calls": (
            _calls(summary, "scheduler.min_resources"), "count"),
        "scheduler.min_resources_s": (
            _time(summary, "scheduler.min_resources"), "s"),
        "model.build_s": (_time(summary, "model.build"), "s"),
    })
    for action in ("none", "rebalance", "scale_out", "scale_in"):
        metrics[f"drs.actions.{action}"] = (
            tracer.counts[f"drs.actions.{action}"], "count")
    return tracer, wall, {"decisions": len(rows)}


def run(api, seed: int, work: Path) -> Outcome:
    """The traced run over all four workloads."""
    outcome = Outcome()
    metrics: Dict[str, Any] = {}
    tables: Dict[str, Any] = {}

    def record(name, tracer, wall, extra):
        tables[name] = {"wall_s": wall, **extra,
                        "spans": span_table(tracer, wall)}

    record(sim_modes.NAME, *_sim_modes(api, seed, work, outcome, metrics))
    grid = analytic_grid.campaign(
        analytic_grid.CAMPAIGN, analytic_grid.cases(seed), seed)
    record(analytic_grid.NAME,
           *_analytic_grid(api, seed, work, outcome, metrics, grid))
    record(warm_read.NAME, *_warm_read(api, seed, work, outcome, metrics, grid))
    record(drs_decide.NAME, *_drs_decide(api, seed, work, outcome, metrics))
    for name, (value, unit) in metrics.items():
        outcome.metric(name, value, unit)
    outcome.details["workloads"] = tables
    return outcome
