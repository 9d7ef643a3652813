"""Spans and counters recorded around the program's public calls.

The traced run installs wrappers (:func:`install`) on the functions and
methods listed in :data:`TARGETS`, runs a workload serially in this
process, and restores the originals.  Every call through a wrapper
records a span — name, start, end and the span it was called from in
the same thread — in memory; nothing is written until the benchmark
prints its result.  A span's
self time is its duration minus the part of it that its child spans
cover.

A :class:`Tracer` made with ``timing=False`` keeps only the counters.
The benchmark uses one for the untraced pass whose wall time is the
baseline of the tracing overhead, and whose counts must equal the
traced pass's (the counts are deterministic for a seed).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One call through a wrapper: name, interval and the span that made it."""

    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, id: int, parent: Optional[int], name: str):
        self.id, self.parent, self.name = id, parent, name
        self.start = self.end = 0.0


class Tracer:
    """In-memory span and counter store, safe to share between threads."""

    def __init__(self, *, timing: bool = True):
        self.timing = timing
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[Span]:
        if not self.timing:
            return None
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), stack[-1] if stack else None, name)
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def end(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds.

        A span nested (at any depth) inside a span of the same name is
        part of that outer call — a subclass method delegating to its
        base, say — so it is counted neither as a call nor as time.
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        by_id = {span.id: span for span in self.spans}
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = rows[span.name]
            row["self_s"] += span.end - span.start - _covered(
                span, children[span.id]
            )
            if _inside_same_name(span, by_id):
                continue
            row["calls"] += 1
            row["total_s"] += span.end - span.start
        return dict(rows)

    def total_of(self, *names: str) -> float:
        """Seconds spent in spans of any of ``names``, counting a span
        nested inside another of them once."""
        wanted = set(names)
        by_id = {span.id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name not in wanted:
                continue
            parent = span.parent
            while parent is not None and by_id[parent].name not in wanted:
                parent = by_id[parent].parent
            if parent is None:
                total += span.end - span.start
        return total


def _covered(span: Span, kids: List[Span]) -> float:
    """Length of the part of ``span`` that ``kids`` cover (their union)."""
    covered = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        start, end = max(kid.start, reach), min(kid.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _inside_same_name(span: Span, by_id: Dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        outer = by_id[parent]
        if outer.name == span.name:
            return True
        parent = outer.parent
    return False


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _plain(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)
            tracer.count(name + ".calls")

    return wrapper


def _run_until(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``Simulator.run_until``: also counts the events it processed."""

    @functools.wraps(fn)
    def wrapper(simulator, *args, **kwargs):
        before = simulator.processed_events
        span = tracer.begin(name)
        try:
            return fn(simulator, *args, **kwargs)
        finally:
            tracer.end(span)
            tracer.count(name + ".calls")
            tracer.count("sim.events", simulator.processed_events - before)

    return wrapper


def _replication(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``run_replication``: one span name per campaign cell.

    Expanded cell specs are named ``<campaign>-<cell label>``; the
    benchmark's campaigns use no ``-`` in their own names.
    """

    @functools.wraps(fn)
    def wrapper(spec, *args, **kwargs):
        label = spec.name.split("-", 1)[-1]
        span = tracer.begin(f"{name}.{label}")
        try:
            return fn(spec, *args, **kwargs)
        finally:
            tracer.end(span)
            tracer.count(name + ".calls")

    return wrapper


#: ``(module, attribute path, span name, wrapper kind)`` for every call
#: the traced run wraps.  The same function reached through several
#: module bindings is wrapped at each binding its callers use.
TARGETS: Tuple[Tuple[str, str, str, Callable], ...] = (
    ("repro.sim.engine", "Simulator.run_until", "sim.run_until", _run_until),
    ("repro.campaigns.shard", "run_replication", "sim.replication", _replication),
    ("repro.campaigns.runner", "run_replication", "sim.replication", _replication),
    ("repro.scheduler.controller", "assign_processors", "scheduler.assign", _plain),
    ("repro.scenarios.policies", "assign_processors", "scheduler.assign", _plain),
    ("repro.scenarios.binding", "assign_processors", "scheduler.assign", _plain),
    (
        "repro.scheduler.controller",
        "min_processors_for_target",
        "scheduler.min_resources",
        _plain,
    ),
    (
        "repro.model.performance",
        "PerformanceModel.from_measurements",
        "model.build",
        _plain,
    ),
    ("repro.campaigns.spec", "CampaignSpec.expand", "campaigns.expand", _plain),
    ("repro.campaigns.spec", "scenario_hash", "campaigns.spec_hash", _plain),
    (
        "repro.campaigns.hybrid",
        "AnalyticCellEvaluator.decide",
        "campaigns.hybrid.decide",
        _plain,
    ),
    (
        "repro.campaigns.hybrid",
        "AnalyticCellEvaluator.evaluate",
        "campaigns.hybrid.evaluate",
        _plain,
    ),
    ("repro.fidelity.analytic", "predict", "queueing.predict", _plain),
    ("repro.campaigns.store", "ResultStore.put", "campaigns.store.put", _plain),
    (
        "repro.campaigns.segstore",
        "SegmentedResultStore.put",
        "campaigns.store.put",
        _plain,
    ),
    (
        "repro.campaigns.store",
        "ResultStore.load_record",
        "campaigns.store.load",
        _plain,
    ),
    (
        "repro.campaigns.segstore",
        "SegmentedResultStore.load_record",
        "campaigns.store.load",
        _plain,
    ),
    ("repro.api", "open_store", "campaigns.store.open", _plain),
    ("repro.api", "aggregate", "campaigns.aggregate", _plain),
    ("repro.api", "run_campaign", "campaigns.run", _plain),
    ("repro.service.client", "ServiceClient.submit", "service.http.submit", _plain),
    ("repro.service.client", "ServiceClient.job", "service.http.poll", _plain),
    (
        "repro.service.client",
        "ServiceClient.aggregates",
        "service.http.aggregates",
        _plain,
    ),
)


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`TARGETS` entry for ``tracer``; restore on exit.

    Static- and classmethods keep their descriptor kind.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, kind in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = staticmethod(
                    kind(tracer, name, getattr(owner, attr)))
            else:
                wrapped = kind(tracer, name, original)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
