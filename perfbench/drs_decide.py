"""Workload ``drs-decide``: the DRS controller's online decision path.

One caller drives ``DRSController.update`` in a closed loop: the next
decision starts when the previous one returns, and the caller applies
each decision's target allocation (and machine count) before the next
snapshot, as the control loop does.  Inputs are seeded streams of
``LoadSnapshot``s whose rates are jittered by up to +-15% around two
reference models shaped like the paper's applications:

- VLD: the Table II reference rates (lighter than the full VLD
  calibration, so the smallest ``Kmax`` is feasible);
- FPD: the FPD calibration's rates with every offered load scaled by
  0.45, for the same reason.

MIN_SOJOURN (Algorithm 1) runs over the Table II sweep
``Kmax`` in {12, 24, 48, 96, 192}; MIN_RESOURCE (Program 6) runs over
a ``Tmax`` sweep of multiples of each model's best sojourn time.  No
campaign spends measurable time in the solvers, so without this
workload the solver layer would go unmeasured.

A decision fails when its target allocation is invalid: wrong operator
set, an operator without an executor, more executors than ``Kmax``
(MIN_SOJOURN) or than its machine count provides (MIN_RESOURCE).
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    HostSpeed, Outcome, digest, median, repro_cli, request_metrics, run_count,
    timed,
)

NAME = "drs-decide"
KMAX_VALUES = (12, 24, 48, 96, 192)
#: Tmax as multiples of the model's sojourn time under Algorithm 1 at
#: Kmax = 24: tight targets scale out, loose ones scale in.
TMAX_FACTORS = (0.9, 1.2, 2.0, 4.0)
SNAPSHOTS = 300  # per stream; 18 streams make one pass of 5400 decisions
JITTER = 0.15
TAIL_PERCENTILE = 99.0
SET_UPS = 5
#: Wall of one pass on the reference host (2-core VM, CPython 3.11).
NOMINAL_S = 1.0


def _reference_models():
    """``{name: (operators, arrival rates, service rates, external rate)}``."""
    from repro.apps.fpd import FPDWorkload
    from repro.experiments.table2 import reference_model
    from repro.model.performance import PerformanceModel

    vld = reference_model().network
    fpd = PerformanceModel.from_topology(FPDWorkload().build()).network
    light = 0.45
    return {
        "vld": (vld.names, vld.arrival_rates, vld.service_rates,
                vld.external_rate),
        "fpd": (fpd.names, [lam * light for lam in fpd.arrival_rates],
                fpd.service_rates, fpd.external_rate * light),
    }


def streams(seed: int) -> List[Dict[str, Any]]:
    """One stream per (model, goal, Kmax or Tmax): its config and snapshots."""
    from repro.config import ClusterSpec, DRSConfig, OptimizationGoal
    from repro.model.performance import PerformanceModel
    from repro.scheduler.assign import assign_processors
    from repro.scheduler.controller import LoadSnapshot

    rng = random.Random(seed)
    out = []
    for model_name, (names, lams, mus, lam0) in _reference_models().items():
        def snapshots():
            snaps = []
            for _ in range(SNAPSHOTS):
                load = [rng.uniform(1 - JITTER, 1 + JITTER) for _ in names]
                snaps.append(LoadSnapshot(
                    arrival_rates=[lam * f for lam, f in zip(lams, load)],
                    service_rates=[mu * rng.uniform(1 - JITTER, 1 + JITTER)
                                   for mu in mus],
                    external_rate=lam0 * load[0],
                ))
            return snaps

        for kmax in KMAX_VALUES:
            out.append({
                "label": f"{model_name}-kmax{kmax}", "names": names,
                "config": DRSConfig(goal=OptimizationGoal.MIN_SOJOURN,
                                    kmax=kmax),
                "snapshots": snapshots(),
            })
        nominal = PerformanceModel.from_measurements(names, lams, mus, lam0)
        best = nominal.expected_sojourn(assign_processors(nominal, 24).vector)
        for factor in TMAX_FACTORS:
            out.append({
                "label": f"{model_name}-tmax{factor:g}", "names": names,
                "config": DRSConfig(goal=OptimizationGoal.MIN_RESOURCE,
                                    tmax=best * factor,
                                    cluster=ClusterSpec(max_machines=60)),
                "snapshots": snapshots(),
            })
    return out


def _start(stream) -> Tuple[Any, Any, Any]:
    """A fresh controller with its starting allocation and machines."""
    from repro.config import OptimizationGoal
    from repro.scheduler.allocation import Allocation
    from repro.scheduler.controller import DRSController

    config, names = stream["config"], stream["names"]
    if config.goal is OptimizationGoal.MIN_SOJOURN:
        machines, budget = None, config.kmax
    else:
        machines = 5
        budget = config.cluster.kmax_for_machines(machines)
    share, extra = divmod(budget, len(names))
    counts = [share + (1 if i < extra else 0) for i in range(len(names))]
    return DRSController(names, config), Allocation(names, counts), machines


def invalid(stream, decision, machines) -> str:
    """Why a decision's target is invalid, or ``""``."""
    config, target = stream["config"], decision.target_allocation
    if list(target.names) != list(stream["names"]):
        return "operator set changed"
    if min(target.vector) < 1:
        return "operator without an executor"
    if config.kmax is not None:
        budget = config.kmax
    else:
        cluster = config.cluster
        machines = decision.target_machines or machines
        if not cluster.min_machines <= machines <= cluster.max_machines:
            return f"{machines} machines outside the cluster's range"
        budget = cluster.kmax_for_machines(machines)
    if target.total > budget:
        return f"{target.total} executors exceed the budget of {budget}"
    return ""


def one_pass(all_streams, latencies: List[float], on_decision=None):
    """Every stream's snapshots in turn, one caller, fresh controllers.

    Returns the decisions' digest rows and the invalid decisions.
    """
    started = [_start(stream) for stream in all_streams]
    rows, bad = [], []
    for step in range(SNAPSHOTS):
        for index, stream in enumerate(all_streams):
            controller, allocation, machines = started[index]
            snapshot = stream["snapshots"][step]
            t0 = time.perf_counter()
            decision = controller.update(snapshot, allocation, machines)
            latencies.append(time.perf_counter() - t0)
            problem = invalid(stream, decision, machines)
            if problem:
                bad.append(f"{stream['label']}@{step}: {problem}")
            else:
                allocation = decision.target_allocation
                machines = decision.target_machines or machines
            started[index] = (controller, allocation, machines)
            rows.append((decision.action.value, allocation.spec(), machines))
            if on_decision is not None:
                on_decision(decision)
    return rows, bad


def set_up(seed: int):
    """The streams, plus one round of controller construction."""
    all_streams = streams(seed)
    for stream in all_streams:
        _start(stream)
    return all_streams


def measure(api, seed: int, seconds: float, work: Path) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(SET_UPS):
        all_streams, took = timed(set_up, seed)
        setups.append(took)
    host = HostSpeed()
    latencies: List[float] = []  # host-adjusted, like every timing below
    digests, bad, wall, raw_p50 = set(), [], 0.0, []
    for _ in range(run_count(seconds, NOMINAL_S, minimum=1)):
        raw: List[float] = []
        (rows, bad), took = timed(one_pass, all_streams, raw)
        factor = host.factor()
        latencies += [x * factor for x in raw]
        wall += took * factor
        raw_p50.append(round(median(raw) * 1e3, 4))
        digests.add(digest(rows))
    outcome.check(len(digests) == 1, "decisions differ between passes")
    cli_walls = repro_cli(outcome, ["table2", "--repetitions", "20"])
    outcome.attempted = len(all_streams) * SNAPSHOTS
    outcome.failed = len(bad)
    outcome.metric("setup_s", median(setups), "s")
    request_metrics(outcome, latencies, wall, TAIL_PERCENTILE)
    outcome.metric("cli_s", median(cli_walls), "s")
    outcome.details.update(
        passes=len(raw_p50), invalid=bad[:5], digest=sorted(digests)[0],
        raw_pass_p50_ms=raw_p50, host_probes_s=host.probes)
    return outcome
