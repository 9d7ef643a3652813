"""Array-backed fast path for homogeneous shared-queue topologies.

The object engine (:mod:`repro.sim.runtime`) dispatches one interpreter
frame per event.  For the common benchmark shape — feed-forward
topology, ``shared`` queue discipline, exponential/deterministic
arrivals and services, deterministic edge gains, no hop latency, no
queue limit, no controller — the whole run can instead be computed as a
*station sweep*: generate every spout arrival up front as a numpy
array, then push the tuple population through the operators in
topological order, vectorising the FCFS shared-queue recurrence per
station.  Queue waits, service totals and tuple-tree completions live
in preallocated arrays; no per-tuple Python objects exist at all.

Contract
--------
``run_array`` is *opt-in* (callers ask for it explicitly) and *gated*
(:func:`array_capable` names the first unsupported feature, and
``run_array`` raises on it).  Results are validated two ways in
``tests/test_array_runtime.py``:

- **statistically** against the object engine on the fidelity smoke
  shapes — mean and p95 sojourn within confidence intervals (the RNG
  transform is numpy's SIMD ``log``, so draws are equidistributed with
  the scalar path but not bit-identical);
- **exactly** (bit-identical counters and sojourns) on deterministic
  arrival/service cases, where both engines dispatch the same event
  order and no RNG is consumed.

The k-server recurrence: with ``C = cumsum(s)`` and one server,
``D[i] = C[i] + max_{j<=i}(arr[j] - C[j-1])`` — a vectorised
``np.maximum.accumulate``.  For ``k > 1`` servers a small heap of
server-free times walks the arrival order (O(n log k), still dozens of
times faster than per-event dispatch).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.randomness.arrival import DeterministicProcess, PoissonProcess
from repro.randomness.distributions import Deterministic, Exponential
from repro.sim.runtime import RunStats, RuntimeOptions
from repro.utils.rng import RngFactory


def array_capable(topology, options: RuntimeOptions) -> Optional[str]:
    """Return ``None`` when ``run_array`` supports this case, else the
    first unsupported feature (a human-readable reason)."""
    if options.queue_discipline != "shared":
        return f"queue_discipline={options.queue_discipline!r} (need 'shared')"
    if options.queue_limit is not None:
        return "queue_limit is set"
    if options.backpressure:
        return "backpressure needs the object engine's blocking semantics"
    if options.closed_loop is not None:
        return "closed-loop sources need the object engine's client states"
    if options.hop_latency != 0.0:
        return "hop latency is non-zero"
    if options.platform is not None:
        return "platform is set (links/speeds/churn need the object engine)"
    if options.arrival_model is not None:
        return "arrival_model is set"
    if options.arrival_rate_phases is not None:
        return "arrival_rate_phases is set"
    if topology.has_cycle():
        return "topology has a cycle (feedback loops need the object engine)"
    for name, spout in topology.spouts.items():
        if not isinstance(spout.arrivals, (PoissonProcess, DeterministicProcess)):
            return f"spout {name!r} arrivals {type(spout.arrivals).__name__}"
    for name in topology.operator_names:
        service = topology.operator(name).service_time
        if type(service) not in (Exponential, Deterministic):
            return f"operator {name!r} service {type(service).__name__}"
    for edge in topology.edges:
        if edge.fanout is not None:
            return f"edge {edge.source}->{edge.target} has a fanout sampler"
    return None


def _numpy_stream(factory: RngFactory, *names: str) -> np.random.RandomState:
    """A numpy ``RandomState`` positioned on the factory's named stream.

    Transplanting the MT19937 state (rather than reseeding) keeps the
    substream *identity* shared with the object engine: the array path
    consumes the same per-consumer uniforms, only through a vectorised
    transform.
    """
    _, internal, _ = factory.stream(*names).getstate()
    state = np.random.RandomState()
    state.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    return state


def _arrival_times(spout, rs: np.random.RandomState, duration: float):
    """All arrival times of one spout in ``(0, duration]``."""
    process = spout.arrivals
    if isinstance(process, DeterministicProcess):
        gap = 1.0 / process.mean_rate
        n = int(duration / gap) + 2
        times = np.cumsum(np.full(n, gap))
        return times[times <= duration]
    rate = process.rate
    expected = rate * duration
    chunk = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
    blocks: List[np.ndarray] = []
    total = 0.0
    while True:
        gaps = np.log1p(-rs.random_sample(chunk))
        gaps /= -rate
        blocks.append(gaps)
        total += float(gaps.sum())
        if total > duration:
            break
        chunk = max(chunk // 4, 1024)
    times = np.cumsum(np.concatenate(blocks))
    return times[times <= duration]


def _replicate(times, roots, base: int, frac: float, rs) -> Tuple:
    """Per-edge gain: each tuple emits ``base`` copies plus a Bernoulli
    ``frac`` extra — the array form of the object engine's gain split."""
    n = len(times)
    if n == 0 or (base == 0 and frac == 0.0):
        return None
    if frac > 0.0:
        counts = base + (rs.random_sample(n) < frac)
        return np.repeat(times, counts), np.repeat(roots, counts)
    if base == 1:
        return times, roots
    return np.repeat(times, base), np.repeat(roots, base)


def _serve_fcfs(arrivals, services, k: int):
    """Start times of an FCFS shared queue with ``k`` servers.

    ``arrivals`` must be sorted.  Returns ``starts`` (the departure is
    ``starts + services``).
    """
    if k == 1:
        cum = np.cumsum(services)
        shifted = np.empty_like(cum)
        shifted[0] = 0.0
        shifted[1:] = cum[:-1]
        # D[i] = C[i] + max_{j<=i}(arr[j] - C[j-1]); start = D - s.
        return shifted + np.maximum.accumulate(arrivals - shifted)
    starts = np.empty_like(arrivals)
    free = [0.0] * k
    heapq.heapify(free)
    heappushpop = heapq.heappushpop
    arr_list = arrivals.tolist()
    svc_list = services.tolist()
    for i, at in enumerate(arr_list):
        t0 = free[0]
        start = at if at >= t0 else t0
        starts[i] = start
        heappushpop(free, start + svc_list[i])
    return starts


def run_array(
    topology,
    allocation,
    options: Optional[RuntimeOptions] = None,
    *,
    duration: float,
    warmup: float = 0.0,
) -> RunStats:
    """Run the topology on the array fast path; returns :class:`RunStats`.

    Raises :class:`SimulationError` when the case is outside the gate —
    call :func:`array_capable` first to branch gracefully.
    """
    options = options or RuntimeOptions(queue_discipline="shared")
    reason = array_capable(topology, options)
    if reason is not None:
        raise SimulationError(f"array runtime does not support: {reason}")
    if warmup < 0 or warmup > duration:
        raise SimulationError(f"warmup {warmup} outside [0, {duration}]")

    factory = RngFactory(options.seed)
    fanout_rs = _numpy_stream(factory, "fanout")

    # -- spout arrivals (the tuple-tree roots) -------------------------
    spout_times: Dict[str, np.ndarray] = {}
    root_offset: Dict[str, int] = {}
    n_roots = 0
    for name, spout in topology.spouts.items():
        times = _arrival_times(spout, _numpy_stream(factory, "spout", name), duration)
        spout_times[name] = times
        root_offset[name] = n_roots
        n_roots += len(times)

    root_arrival = np.empty(n_roots)
    for name, times in spout_times.items():
        offset = root_offset[name]
        root_arrival[offset : offset + len(times)] = times
    completion = root_arrival.copy()  # roots with no surviving copies
    incomplete = np.zeros(n_roots, dtype=bool)

    # -- seed station inputs from the spouts ---------------------------
    inbox: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {
        name: [] for name in topology.operator_names
    }
    for name, times in spout_times.items():
        offset = root_offset[name]
        roots = np.arange(offset, offset + len(times))
        for edge in topology.out_edges(name):
            gain = edge.gain
            base = int(gain)
            emitted = _replicate(times, roots, base, gain - base, fanout_rs)
            if emitted is not None:
                inbox[edge.target].append(emitted)

    # -- topological station order (operators only) --------------------
    order: List[str] = []
    indegree = {name: 0 for name in topology.operator_names}
    for edge in topology.edges:
        if edge.source in indegree:
            indegree[edge.target] += 1
    ready = [name for name in topology.operator_names if indegree[name] == 0]
    while ready:
        name = ready.pop()
        order.append(name)
        for edge in topology.out_edges(name):
            indegree[edge.target] -= 1
            if indegree[edge.target] == 0:
                ready.append(edge.target)

    per_processed: Dict[str, int] = {}
    per_wait: Dict[str, Optional[float]] = {}
    per_service: Dict[str, Optional[float]] = {}

    # -- the sweep ------------------------------------------------------
    for name in order:
        chunks = inbox[name]
        inbox[name] = []  # free as we go
        if chunks:
            times = np.concatenate([c[0] for c in chunks])
            roots = np.concatenate([c[1] for c in chunks])
            sorter = np.argsort(times, kind="stable")
            times = times[sorter]
            roots = roots[sorter]
        else:
            times = np.empty(0)
            roots = np.empty(0, dtype=np.intp)
        n = len(times)
        if n == 0:
            per_processed[name] = 0
            per_wait[name] = None
            per_service[name] = None
            continue
        service_dist = topology.operator(name).service_time
        if type(service_dist) is Exponential:
            rs = _numpy_stream(factory, "service", name)
            services = np.log1p(-rs.random_sample(n))
            services /= -service_dist.rate
        else:  # Deterministic (the gate admits nothing else)
            services = np.full(n, service_dist.mean)
        starts = _serve_fcfs(times, services, allocation[name])
        departures = starts + services
        started = starts <= duration
        processed = departures <= duration
        per_processed[name] = int(processed.sum())
        if started.any():
            per_wait[name] = float((starts[started] - times[started]).mean())
            per_service[name] = float(services[started].mean())
        else:
            per_wait[name] = None
            per_service[name] = None
        # Tuples still queued or in service at the horizon leave their
        # trees unfinished; processed tuples push the tree's completion
        # time forward and emit downstream copies.
        incomplete[roots[~processed]] = True
        dep_done = departures[processed]
        roots_done = roots[processed]
        np.maximum.at(completion, roots_done, dep_done)
        for edge in topology.out_edges(name):
            gain = edge.gain
            base = int(gain)
            emitted = _replicate(dep_done, roots_done, base, gain - base, fanout_rs)
            if emitted is not None:
                inbox[edge.target].append(emitted)

    # -- tree statistics ------------------------------------------------
    done = ~incomplete
    completed_trees = int(done.sum())
    completion_times = completion[done]
    sojourns = completion_times - root_arrival[done]
    window = sojourns[completion_times >= warmup] if warmup > 0.0 else sojourns
    if len(window):
        mean = float(window.mean())
        std = float(window.std())  # population std, like Welford
        index = max(0, int(math.ceil(0.95 * len(window))) - 1)
        p95 = float(np.partition(window, index)[index])
    else:
        mean = std = p95 = None
    return RunStats(
        duration=duration,
        external_tuples=n_roots,
        completed_trees=completed_trees,
        dropped_tuples=0,
        dropped_trees=0,
        mean_sojourn=mean,
        std_sojourn=std,
        p95_sojourn=p95,
        per_operator_processed=per_processed,
        per_operator_wait=per_wait,
        per_operator_service=per_service,
        rebalances=0,
    )
