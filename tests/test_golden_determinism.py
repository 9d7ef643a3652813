"""Golden determinism suite: the hot-path optimizations must be invisible.

The typed-event engine, O(1) routing state and incremental Erlang
evaluation are all required to keep simulation and solver outputs
**byte-identical** to the unoptimized runtime for identical seeds: same
RNG draw order, same event tie-breaking, same floating-point operation
chains.  This suite pins that down against fixtures generated from the
pre-optimization implementation (``tests/golden/*.json``).

Every float is compared through ``repr`` (round-trip exact); the full
completion stream of each simulation case is folded into a SHA-256
digest so even a single ulp of drift in any completion time or sojourn
fails the test.

Regenerate fixtures (only legitimate when the *intended semantics*
change, never for an optimization):

    PYTHONPATH=src python tests/test_golden_determinism.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.model.performance import PerformanceModel
from repro.model.refined import RefinedPerformanceModel
from repro.queueing.jackson import JacksonNetwork, OperatorLoad
from repro.scheduler.allocation import Allocation
from repro.scheduler.assign import assign_processors
from repro.scheduler.min_resources import min_processors_for_target
from repro.sim.engine import Simulator
from repro.sim.rebalancing import RebalanceCostModel, RebalanceStyle
from repro.sim.runtime import RuntimeOptions, TopologyRuntime
from repro.topology.builder import TopologyBuilder
from repro.topology.grouping import BroadcastGrouping, FieldsGrouping

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# simulation cases: all three disciplines, rebalance, queue limit,
# broadcast + fields groupings, hop latency, fractional gains
# ----------------------------------------------------------------------
def _linear_topology():
    return (
        TopologyBuilder("golden_linear")
        .add_spout("src", rate=10.0)
        .add_operator("a", mu=4.0)
        .add_operator("b", mu=6.0)
        .add_operator("c", mu=20.0)
        .connect("src", "a")
        .connect("a", "b", gain=2.0)
        .connect("b", "c", gain=0.5)
        .build()
    )


def _diamond_topology():
    return (
        TopologyBuilder("golden_diamond")
        .add_spout("src", rate=8.0)
        .add_operator("split", mu=12.0)
        .add_operator("left", mu=9.0)
        .add_operator("right", mu=7.0)
        .add_operator("merge", mu=25.0)
        .connect("src", "split")
        .connect("split", "left", gain=1.5)
        .connect("split", "right", gain=0.7)
        .connect("left", "merge", gain=0.5)
        .connect("right", "merge", gain=1.0)
        .build()
    )


def _loop_topology():
    return (
        TopologyBuilder("golden_loop")
        .add_spout("src", rate=5.0)
        .add_operator("a", mu=10.0)
        .add_operator("b", mu=8.0)
        .add_operator("det", mu=40.0)
        .connect("src", "a")
        .connect("a", "b", gain=0.6)
        .connect("a", "det", gain=0.4, grouping=FieldsGrouping(["root"]))
        .connect("b", "det", gain=0.3, grouping=BroadcastGrouping())
        .connect("det", "a", gain=0.2)
        .build()
    )


def _run_case(case: str):
    """Build, run and summarise one golden simulation case."""
    if case == "linear_jsq":
        topology = _linear_topology()
        allocation = Allocation(["a", "b", "c"], [5, 6, 3])
        options = RuntimeOptions(seed=42, queue_discipline="jsq")
        duration, warmup, rebalance_at = 300.0, 50.0, None
    elif case == "linear_shared":
        topology = _linear_topology()
        allocation = Allocation(["a", "b", "c"], [5, 6, 3])
        options = RuntimeOptions(seed=42, queue_discipline="shared")
        duration, warmup, rebalance_at = 300.0, 50.0, None
    elif case == "diamond_hashed_limit":
        topology = _diamond_topology()
        allocation = Allocation(["split", "left", "right", "merge"], [2, 3, 1, 2])
        options = RuntimeOptions(
            seed=7,
            queue_discipline="hashed",
            queue_limit=12,
            hop_latency=0.02,
        )
        duration, warmup, rebalance_at = 240.0, 30.0, None
    elif case == "loop_shared_broadcast":
        topology = _loop_topology()
        allocation = Allocation(["a", "b", "det"], [3, 2, 2])
        options = RuntimeOptions(seed=19, queue_discipline="shared")
        duration, warmup, rebalance_at = 240.0, 30.0, None
    elif case == "loop_jsq_broadcast":
        topology = _loop_topology()
        allocation = Allocation(["a", "b", "det"], [3, 2, 2])
        options = RuntimeOptions(seed=19, queue_discipline="jsq")
        duration, warmup, rebalance_at = 240.0, 30.0, None
    elif case == "wide_jsq_rebalance":
        # Parallelism above _JSQ_HEAP_MIN: pins the lazy shortest-queue
        # heap (selection, compaction, orphaned-executor finishes after
        # the rebalance resize) against the linear-scan semantics, with
        # queue-limit drops during the rebalance pause.
        topology = (
            TopologyBuilder("golden_wide")
            .add_spout("src", rate=40.0)
            .add_operator("a", mu=2.2)
            .add_operator("b", mu=3.6)
            .connect("src", "a")
            .connect("a", "b", gain=1.5)
            .build()
        )
        allocation = Allocation(["a", "b"], [24, 20])
        options = RuntimeOptions(
            seed=23,
            queue_discipline="jsq",
            queue_limit=200,
            timeline_bucket=25.0,
            rebalance_cost=RebalanceCostModel(
                style=RebalanceStyle.STORM_DEFAULT, default_pause=12.0
            ),
        )
        duration, warmup = 200.0, 25.0
        rebalance_at = (80.0, Allocation(["a", "b"], [20, 24]))
    elif case == "rebalance_jsq":
        topology = _linear_topology()
        allocation = Allocation(["a", "b", "c"], [5, 6, 3])
        options = RuntimeOptions(
            seed=11,
            queue_discipline="jsq",
            timeline_bucket=20.0,
            rebalance_cost=RebalanceCostModel(
                style=RebalanceStyle.STORM_DEFAULT, default_pause=15.0
            ),
        )
        duration, warmup = 400.0, 40.0
        rebalance_at = (100.0, Allocation(["a", "b", "c"], [6, 6, 2]))
    elif case == "diamond_hashed_limit_zero_hop":
        # The diamond_hashed_limit case without its hop delay: hashed
        # picks and queue-limit drops on direct (same-event) delivery.
        topology = _diamond_topology()
        allocation = Allocation(["split", "left", "right", "merge"], [2, 3, 1, 2])
        options = RuntimeOptions(
            seed=7, queue_discipline="hashed", queue_limit=12
        )
        duration, warmup, rebalance_at = 240.0, 30.0, None
    elif case == "linear_jsq_hop":
        # Constant hop latency with per-executor queues below
        # _JSQ_HEAP_MIN: every copy is delivered by the hop event.
        topology = _linear_topology()
        allocation = Allocation(["a", "b", "c"], [5, 6, 3])
        options = RuntimeOptions(
            seed=42, queue_discipline="jsq", hop_latency=0.015
        )
        duration, warmup, rebalance_at = 300.0, 50.0, None
    elif case == "loop_shared_hop":
        # Constant hop latency on the shared queue, with broadcast and
        # fields edges inside a feedback loop.
        topology = _loop_topology()
        allocation = Allocation(["a", "b", "det"], [3, 2, 2])
        options = RuntimeOptions(
            seed=19, queue_discipline="shared", hop_latency=0.01
        )
        duration, warmup, rebalance_at = 240.0, 30.0, None
    elif case == "wide_jsq_hop_rebalance":
        # The lazy shortest-queue heap (k >= _JSQ_HEAP_MIN) behind a
        # hop delay, with queue-limit drops and a rebalance pause.
        topology = (
            TopologyBuilder("golden_wide_hop")
            .add_spout("src", rate=40.0)
            .add_operator("a", mu=2.2)
            .add_operator("b", mu=3.6)
            .connect("src", "a")
            .connect("a", "b", gain=1.5)
            .build()
        )
        allocation = Allocation(["a", "b"], [24, 20])
        options = RuntimeOptions(
            seed=29,
            queue_discipline="jsq",
            queue_limit=200,
            hop_latency=0.05,
            timeline_bucket=25.0,
            rebalance_cost=RebalanceCostModel(
                style=RebalanceStyle.STORM_DEFAULT, default_pause=12.0
            ),
        )
        duration, warmup = 200.0, 25.0
        rebalance_at = (80.0, Allocation(["a", "b"], [20, 24]))
    else:  # pragma: no cover
        raise ValueError(f"unknown golden case {case!r}")

    sim = Simulator()
    runtime = TopologyRuntime(sim, topology, allocation, options)
    runtime.start()
    if rebalance_at is not None:
        at, new_allocation = rebalance_at
        sim.schedule(at, lambda: runtime.apply_allocation(new_allocation))
    sim.run_until(duration)
    runtime.check_conservation()
    return _summarise(runtime, warmup)


def _stats_dict(stats) -> dict:
    return {
        "duration": repr(stats.duration),
        "external_tuples": stats.external_tuples,
        "completed_trees": stats.completed_trees,
        "dropped_tuples": stats.dropped_tuples,
        "dropped_trees": stats.dropped_trees,
        "mean_sojourn": repr(stats.mean_sojourn),
        "std_sojourn": repr(stats.std_sojourn),
        "p95_sojourn": repr(stats.p95_sojourn),
        "per_operator_processed": stats.per_operator_processed,
        "per_operator_wait": {
            k: repr(v) for k, v in stats.per_operator_wait.items()
        },
        "per_operator_service": {
            k: repr(v) for k, v in stats.per_operator_service.items()
        },
        "rebalances": stats.rebalances,
    }


def _summarise(runtime: TopologyRuntime, warmup: float) -> dict:
    digest = hashlib.sha256()
    for t, s in runtime.completions:
        digest.update(repr(t).encode())
        digest.update(b":")
        digest.update(repr(s).encode())
        digest.update(b";")
    return {
        "stats_full": _stats_dict(runtime.stats()),
        "stats_warm": _stats_dict(runtime.stats(warmup=warmup)),
        "timeline": [
            [repr(start), repr(mean), count]
            for start, mean, count in runtime.timeline()
        ],
        "completions_sha256": digest.hexdigest(),
        "num_completions": len(runtime.completions),
        "processed_events": runtime.simulator.processed_events,
    }


SIM_CASES = [
    "linear_jsq",
    "linear_shared",
    "diamond_hashed_limit",
    "loop_shared_broadcast",
    "loop_jsq_broadcast",
    "rebalance_jsq",
    "wide_jsq_rebalance",
    "diamond_hashed_limit_zero_hop",
    "linear_jsq_hop",
    "loop_shared_hop",
    "wide_jsq_hop_rebalance",
]


# ----------------------------------------------------------------------
# solver cases: Algorithm 1 and Program 6, plain and refined models
# ----------------------------------------------------------------------
def _solver_model() -> PerformanceModel:
    loads = [
        OperatorLoad("sift", 13.0, 1.75),
        OperatorLoad("matcher", 130.0, 17.5),
        OperatorLoad("agg", 39.0, 150.0),
        OperatorLoad("filter", 6.5, 3.1),
        OperatorLoad("sink", 19.5, 80.0),
    ]
    return PerformanceModel(JacksonNetwork(loads, external_rate=13.0))


def _refined_model() -> RefinedPerformanceModel:
    base = _solver_model()
    return RefinedPerformanceModel(
        base.network,
        arrival_scvs=[1.0, 1.3, 0.8, 1.0, 1.1],
        service_scvs=[1.5, 0.4, 1.0, 2.0, 0.9],
    )


def _run_solver_case() -> dict:
    plain = _solver_model()
    refined = _refined_model()
    out = {"assign": {}, "assign_refined": {}, "min_resources": {}}
    for kmax in (25, 40, 80, 200):
        allocation = assign_processors(plain, kmax)
        out["assign"][str(kmax)] = {
            "vector": list(allocation.vector),
            "expected_sojourn": repr(
                plain.expected_sojourn(list(allocation.vector))
            ),
        }
        refined_allocation = assign_processors(refined, kmax)
        out["assign_refined"][str(kmax)] = {
            "vector": list(refined_allocation.vector),
            "expected_sojourn": repr(
                refined.expected_sojourn(list(refined_allocation.vector))
            ),
        }
    for tmax in ("9.0", "8.2", "8.05", "8.01"):
        allocation = min_processors_for_target(plain, float(tmax))
        out["min_resources"][tmax] = {
            "vector": list(allocation.vector),
            "total": allocation.total,
            "expected_sojourn": repr(
                plain.expected_sojourn(list(allocation.vector))
            ),
        }
    return out


# ----------------------------------------------------------------------
# fixture plumbing
# ----------------------------------------------------------------------
def _golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def _load_golden(name: str) -> dict:
    path = _golden_path(name)
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} missing; run"
            " `PYTHONPATH=src python tests/test_golden_determinism.py --regen`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", SIM_CASES)
def test_simulation_golden(case):
    assert _run_case(case) == _load_golden(case)


def test_solver_golden():
    assert _run_solver_case() == _load_golden("solver")


def test_solver_repeatable_within_process():
    """Memoization/incremental state must not leak between solves."""
    first = _run_solver_case()
    second = _run_solver_case()
    assert first == second


def _regen() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in SIM_CASES:
        result = _run_case(case)
        _golden_path(case).write_text(json.dumps(result, indent=1, sort_keys=True))
        print(f"wrote {_golden_path(case)}")
    _golden_path("solver").write_text(
        json.dumps(_run_solver_case(), indent=1, sort_keys=True)
    )
    print(f"wrote {_golden_path('solver')}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
