"""Closed-loop / backpressure overhead benchmark: events/sec per mode.

Every mode delivers through the runtime's one ``_deliver`` /
``_begin_service`` path; the modes differ in the bookkeeping layered on
it, and this bench prices each layer:

- ``open_loop`` — the default path (no queue limit, no clients): the
  reference events/sec, directly comparable to
  ``bench_runtime_hotpath.py``'s linear case;
- ``drop`` — bounded queues without backpressure (the drop
  semantics): what the ``queue_limit`` test alone costs;
- ``backpressure`` — bounded queues with upstream pausing: full-flag
  bookkeeping and wake-up cascades on every delivery;
- ``closed_loop`` — finite clients with think times and outstanding
  caps over a backpressured topology: the complete new machinery.

Emits machine-readable JSON with the same calibration scheme as
``bench_runtime_hotpath.py``.  The rows are new — absent from
``BENCH_RUNTIME_baseline.json`` — so ``check_regression.py`` skips
them until a refreshed baseline commits them.

Usage::

    PYTHONPATH=src python benchmarks/bench_closed_loop.py \
        --out BENCH_CLOSED_LOOP.json [--scale 1.0] [--repeat 3]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_runtime_hotpath import calibrate  # noqa: E402

from repro.scheduler.allocation import Allocation  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.runtime import RuntimeOptions, TopologyRuntime  # noqa: E402
from repro.topology.builder import TopologyBuilder  # noqa: E402
from repro.workloads import create_closed_loop_source  # noqa: E402

SCHEMA = "bench_closed_loop/v1"

DURATION = 300.0


def _topology():
    return (
        TopologyBuilder("bench_cl")
        .add_spout("src", rate=40.0)
        .add_operator("a", mu=30.0)
        .add_operator("b", mu=24.0)
        .connect("src", "a")
        .connect("a", "b", gain=1.5)
        .build()
    )


def _options(mode: str) -> RuntimeOptions:
    if mode == "open_loop":
        return RuntimeOptions(seed=5)
    if mode == "drop":
        return RuntimeOptions(seed=5, queue_limit=64)
    if mode == "backpressure":
        return RuntimeOptions(seed=5, queue_limit=64, backpressure=True)
    if mode == "closed_loop":
        return RuntimeOptions(
            seed=5,
            queue_limit=64,
            backpressure=True,
            closed_loop=create_closed_loop_source(
                {
                    "kind": "closed_loop",
                    "clients": 60,
                    "think_time": 0.25,
                    "max_outstanding": 2,
                }
            ),
        )
    raise ValueError(mode)


def run_mode(mode: str, scale: float) -> dict:
    duration = DURATION * scale
    sim = Simulator()
    runtime = TopologyRuntime(
        sim, _topology(), Allocation(["a", "b"], [3, 3]), _options(mode)
    )
    runtime.start()
    started = time.perf_counter()
    sim.run_until(duration)
    wall = time.perf_counter() - started
    runtime.check_conservation()
    events = sim.processed_events
    return {
        "mode": mode,
        "sim_duration": duration,
        "processed_events": events,
        "completed_trees": runtime.tracker.completed,
        "dropped_trees": runtime.tracker.dropped,
        "blocked_time": runtime.blocked_time,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else None,
    }


def best_of(rounds: int, mode: str, scale: float) -> dict:
    best = None
    for _ in range(rounds):
        result = run_mode(mode, scale)
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_CLOSED_LOOP.json")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    result = {
        "schema": SCHEMA,
        "config": {
            "scale": args.scale,
            "repeat": args.repeat,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "calibration_ops_per_sec": calibrate(),
        "closed_loop": {},
    }
    for mode in ("open_loop", "drop", "backpressure", "closed_loop"):
        row = best_of(args.repeat, mode, args.scale)
        result["closed_loop"][mode] = row
        print(
            f"closed_loop/{mode}: {row['events_per_sec']:,.0f} events/sec",
            file=sys.stderr,
        )

    reference = result["closed_loop"]["open_loop"]["events_per_sec"]
    overhead = {
        mode: 1.0 - result["closed_loop"][mode]["events_per_sec"] / reference
        for mode in ("drop", "backpressure", "closed_loop")
    }
    result["overhead_vs_open_loop"] = overhead
    for mode, cost in overhead.items():
        print(f"overhead/{mode}: {cost:+.1%}", file=sys.stderr)

    pathlib.Path(args.out).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
