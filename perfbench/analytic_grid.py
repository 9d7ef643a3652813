"""Workload ``analytic-grid``: a cold hybrid fidelity grid into a fresh store.

The grid crosses the single-operator and linear-chain fidelity
topologies with utilisations in 0.2-0.8, 17 server counts from 1 to 64
and service SCVs from 0.25 to 2, shared queues: 1190 cells of 4
replications, 4760 records.  Every cell lies inside the committed
tolerance envelope (``tests/golden/fidelity_tolerances.json``), so the
hybrid evaluator answers all of them from the queueing model and
nothing is simulated.  The seed picks each utilisation band's exact
value and the campaign's base seed.

The records go to a fresh store in the segmented layout (one
append-only NDJSON file per writer, the layout sharded runs write and
``repro store-compact`` produces).  The default per-file layout cannot
be timed steadily on a shared virtual disk: one cold run of this grid
into it took from 2.5 s to 8 s on an unchanged tree, with process CPU
time equal to wall time (kernel time in the file system, set by the
other tenants' and the previous run's metadata traffic).  The same run
into segments takes about 1.1 s, run after run.  So this workload is
the store's write side (record building, serialisation, appends) plus
the hybrid evaluator and the queueing model; ``warm-read`` writes the
per-file layout untimed and reads it timed.

A record fails when its cell is not answered analytically or when it
is missing from the store on read-back.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Dict, List

from common import (
    HostSpeed, Outcome, batch_metrics, digest, fresh_dir, median, repro_cli,
    run_count, timed,
)

NAME = "analytic-grid"
CAMPAIGN = "analyticgrid"
TOPOLOGIES = ("single", "linear")
RHO_BANDS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
SERVERS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64)
SCVS = (0.25, 0.5, 1.0, 1.5, 2.0)
REPLICATIONS = 4
TARGET_TUPLES = 4000
SET_UPS = 3
#: Wall of one cold run on the reference host (2-core VM, CPython 3.11).
NOMINAL_S = 1.5


def cases(seed: int) -> List[Any]:
    """The grid's fidelity cases, in sweep order (k ascending per band).

    Each (topology, band) gets one utilisation drawn within +-0.04 of
    the band, so consecutive server counts share it, as in a k-sweep.
    """
    from repro.fidelity.cases import build_case

    rng = random.Random(seed)
    out = []
    for topology in TOPOLOGIES:
        for band in RHO_BANDS:
            rho = round(band + rng.uniform(-0.04, 0.04), 3)
            for scv in SCVS:
                for servers in SERVERS:
                    out.append(build_case(
                        topology, rho, servers, scv, "shared",
                        replications=REPLICATIONS,
                        target_tuples=TARGET_TUPLES,
                    ))
    return out


def campaign(name: str, case_list, seed: int) -> Dict[str, Any]:
    """A hybrid-evaluation campaign over ``case_list``."""
    from repro.fidelity.cases import fidelity_campaign

    spec = fidelity_campaign(name, cases=case_list, seed=seed).to_dict()
    spec["name"] = name
    spec["evaluation"] = "hybrid"
    return spec


def set_up(api, seed: int, store: Path):
    """Build the cases and the spec, and plan the run."""
    spec = api.load_campaign(campaign(CAMPAIGN, cases(seed), seed))
    return spec, api.plan(spec, store=store)


def fill(api, spec, store):
    """One cold run into ``store`` (a path or an open store);
    ``(result, wall seconds)``.

    The run builds its own evaluator from the committed manifest, as
    ``repro run-campaign`` does, so no memoized prediction carries over
    from an earlier run.
    """
    return timed(api.run_campaign, spec, store=store, workers=1)


def fill_segments(api, spec, root: Path):
    """:func:`fill` into a fresh segmented store at ``root``."""
    from repro.campaigns.segstore import SegmentedResultStore

    with SegmentedResultStore(root, segment="grid") as store:
        return fill(api, spec, store)


def read_back(api, spec, store: Path) -> Dict[str, Any]:
    """The stored aggregate, as ``repro campaign-report --json`` prints it."""
    return api.aggregate(spec, store).to_dict()


def check_run(outcome: Outcome, result, total: int) -> int:
    """Failed records of one cold run (those not answered analytically)."""
    outcome.check(result.computed == total and result.reused == 0,
                  f"cold run computed {result.computed} of {total}")
    return total - result.analytic


def check_store(outcome: Outcome, aggregate: Dict[str, Any]) -> int:
    """Records missing on read-back."""
    missing = 0
    for row in aggregate["cells"]:
        missing += REPLICATIONS - row["analytic"]
        outcome.check(row["simulated"] == 0,
                      f"cell {row['label']} has simulated records")
    return missing


def measure(api, seed: int, seconds: float, work: Path) -> Outcome:
    outcome = Outcome()
    setups = []
    for i in range(SET_UPS):
        (spec, plan), took = timed(
            set_up, api, seed, fresh_dir(work, f"plan{i}"))
        setups.append(took)
    total = plan.to_compute
    outcome.check(plan.analytic_jobs == total == len(SERVERS) * len(SCVS)
                  * len(RHO_BANDS) * len(TOPOLOGIES) * REPLICATIONS,
                  f"plan: {plan.analytic_jobs} analytic of {total}")
    host = HostSpeed()
    walls, raw_walls, digests, failed = [], [], set(), 0
    for i in range(run_count(seconds, NOMINAL_S, minimum=3)):
        store = fresh_dir(work, f"store{i}")
        result, wall = fill_segments(api, spec, store)
        walls.append(wall * host.factor())
        raw_walls.append(wall)
        failed = max(failed, check_run(outcome, result, total))
        digests.add(digest(result.to_dict()))
    aggregate = read_back(api, spec, store)
    failed += check_store(outcome, aggregate)
    outcome.check(len(digests) == 1, "results differ between cold runs")
    spec_path = work / "campaign.json"
    spec_path.write_text(spec.to_json())
    cli_walls = repro_cli(
        outcome,
        ["campaign-report", str(spec_path), "--store", str(store), "--json"],
        expected=aggregate)
    outcome.attempted = total
    outcome.failed = failed
    outcome.metric("setup_s", median(setups), "s")
    batch_metrics(outcome, total, walls)
    outcome.metric("cli_s", median(cli_walls), "s")
    outcome.details.update(
        campaign_runs=len(walls), raw_campaign_wall_s=raw_walls,
        host_probes_s=host.probes, records=total, digest=sorted(digests)[0])
    return outcome
