"""Workload ``sim-modes``: a cold simulated campaign over every runtime mode.

One labelled axis crosses the paper's two applications with the
object runtime's feature modes.  FPD (at ``scale`` 0.125, ~80 external
tuples per simulated second) runs zero-hop, with its hop latency, under
live DRS rebalancing, with bounded queues that drop, with backpressure,
behind closed-loop clients, on a platform with weighted links, and on
that platform with a flapping node.  VLD runs under DRS, with
backpressure and behind closed-loop clients.  Two replications per
cell, 22 in all, run through ``api.run_campaign(..., shards=2)`` into a
fresh store: the same two-shard executor CI's bake-off uses.

Almost all the time is the simulator.  The solvers are a rounding
error here (Algorithm 1 runs a few dozen times, in the DRS cells), so
``drs-decide`` measures them instead.

A replication fails when it raises, delivers no result
(``mean_sojourn`` is ``None``) or reports more completed plus dropped
trees than external tuples.  FPD's loop topology deadlocks under
backpressure and behind closed-loop clients: those four replications
admit a few dozen tuples and complete none after warm-up, so the
workload reports 4 of 22 failed until the runtime is fixed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    HostSpeed, Outcome, batch_metrics, digest, fresh_dir, median, repro_cli,
    run_count, timed,
)

NAME = "sim-modes"
CAMPAIGN = "simmodes"  # no "-": cell labels are split off the spec name

_PLATFORM = {
    "machines": [
        {"name": "m0", "speed": 1.0, "slots": 12},
        {"name": "m1", "speed": 1.0, "slots": 12},
        {"name": "m2", "speed": 0.8, "slots": 12},
    ],
    "links": [
        {"source": "m0", "target": "m1", "latency": 0.01},
        {"source": "m0", "target": "m2", "latency": 0.02},
        {"source": "m1", "target": "m2", "latency": 0.02},
    ],
    "placement": {"kind": "round_robin"},
}
_CHURN = {"kind": "exponential", "mean_up": 60.0, "mean_down": 8.0,
          "machines": ["m2"]}
_DRS = {"policy": "drs.min_sojourn", "policy_params": {"kmax": 22},
        "initial_allocation": "8:12:2", "enable_at": 60.0}
_BACKPRESSURE = {"queue_limit": 4, "backpressure": True}
_VLD = {"workload": "vld", "workload_params": {}}

#: ``(cell label, patch over the FPD base)``, one per runtime mode.
CELLS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("fpd-zero-hop", {"hop_latency": 0.0}),
    # FPD's own transport latency (0.020 s at scale 1, dilated by 1/scale).
    ("fpd-hop", {"hop_latency": 0.16}),
    ("fpd-drs", _DRS),
    ("fpd-drop", {"queue_limit": 4}),
    ("fpd-backpressure", _BACKPRESSURE),
    ("fpd-closed-loop", {**_BACKPRESSURE, "closed_loop": {
        "kind": "closed_loop", "clients": 40, "think_time": 0.5}}),
    ("fpd-platform", {"platform": _PLATFORM}),
    ("fpd-churn", {"platform": {**_PLATFORM, "failure": _CHURN}}),
    ("vld-drs", {**_VLD, **_DRS}),
    ("vld-backpressure", {**_VLD, "initial_allocation": "10:11:1",
                          "queue_limit": 8, "backpressure": True}),
    ("vld-closed-loop", {**_VLD, "initial_allocation": "10:11:1",
                         "queue_limit": 8, "backpressure": True,
                         "closed_loop": {"kind": "closed_loop", "clients": 8,
                                         "think_time": 0.5}}),
)

SHARDS = 2
#: Set-ups timed per run; each takes a few milliseconds.
SET_UPS = 11
#: Wall of one cold run on the reference host (2-core VM, CPython 3.11).
NOMINAL_S = 7.0
REPLICATIONS = 2


def campaign(seed: int) -> Dict[str, Any]:
    """The campaign spec; ``seed`` is the base seed of every cell."""
    return {
        "name": CAMPAIGN,
        "base": {
            "workload": "fpd",
            "workload_params": {"scale": 0.125},
            "policy": "none",
            "initial_allocation": "6:13:3",
            "duration": 240.0,
            "warmup": 30.0,
            "replications": REPLICATIONS,
            "seed": seed,
        },
        "axes": [{"name": "mode", "values": [
            {"label": label, "set": patch} for label, patch in CELLS
        ]}],
    }


def set_up(api, seed: int, store: Path):
    """Load the spec and plan it against an empty store."""
    spec = api.load_campaign(campaign(seed))
    plan = api.plan(spec, store=store)
    return spec, plan


def run_once(api, spec, store: Path, shards: int):
    """One cold campaign run; ``(result, wall seconds)``."""
    return timed(api.run_campaign, spec, store=store, shards=shards)


def account(outcome: Outcome, result) -> Tuple[int, List[str], Any]:
    """External tuples, failed replications and the digest payload."""
    tuples = 0
    failed: List[str] = []
    rows = []
    for cell in result.cells:
        for rep in cell.summary.replications:
            tuples += rep.external_tuples
            broken = rep.mean_sojourn is None or (
                rep.completed_trees + rep.dropped_trees > rep.external_tuples
            )
            if broken:
                failed.append(f"{cell.cell.label}#{rep.index}")
            rows.append([cell.cell.label, rep.index, rep.external_tuples,
                         rep.completed_trees, rep.dropped_trees,
                         rep.rebalances, rep.mean_sojourn,
                         rep.final_allocation])
    expected = len(CELLS) * REPLICATIONS
    outcome.check(len(rows) == expected,
                  f"{len(rows)} replications returned, {expected} expected")
    outcome.check(result.computed == expected and result.reused == 0,
                  f"cold run computed {result.computed}, reused {result.reused}")
    return tuples, failed, rows


def measure(api, seed: int, seconds: float, work: Path) -> Outcome:
    outcome = Outcome()
    setups = []
    for i in range(SET_UPS):
        (spec, plan), took = timed(set_up, api, seed, fresh_dir(work, f"setup{i}"))
        setups.append(took)
    outcome.check(plan.to_compute == len(CELLS) * REPLICATIONS,
                  f"plan expects {plan.to_compute} replications to compute")
    host = HostSpeed()
    walls, raw_walls, digests = [], [], set()
    failed: List[str] = []
    for i in range(run_count(seconds, NOMINAL_S, minimum=2)):
        store = fresh_dir(work, f"store{i}")
        (result, wall), adjusted = host.timed_busy(
            run_once, api, spec, store, SHARDS)
        walls.append(adjusted)
        raw_walls.append(wall)
        tuples, failed, rows = account(outcome, result)
        digests.add(digest(rows))
    outcome.check(len(digests) == 1, "replications differ between cold runs")
    spec_path = work / "campaign.json"
    spec_path.write_text(spec.to_json())
    cli_walls = repro_cli(
        outcome,
        ["campaign-report", str(spec_path), "--store", str(store), "--json"],
        expected=api.aggregate(spec, store).to_dict())
    outcome.attempted = len(CELLS) * REPLICATIONS
    outcome.failed = len(failed)
    outcome.metric("setup_s", median(setups), "s")
    batch_metrics(outcome, tuples, walls)
    outcome.metric("cli_s", median(cli_walls), "s")
    outcome.details.update(
        campaign_runs=len(walls), raw_campaign_wall_s=raw_walls,
        host_probes_s=host.probes, host_busy_probes_s=host.busy_probes,
        tuples=tuples,
        failed_replications=failed, digest=sorted(digests)[0],
    )
    return outcome
