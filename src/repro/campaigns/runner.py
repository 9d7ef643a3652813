"""Execute campaigns: expand the grid, skip stored work, run the rest.

The runner plans one *job* per ``(cell, replication index)`` pair and
asks the store (when one is attached) which jobs already have results.
Remaining jobs are deduplicated by ``(spec hash, seed)`` — two grid
cells that expand to identical simulation inputs share one computation
— and run in this process (one worker) or over the process pool in
:mod:`repro.campaigns.shard`.  Every result is written to the store
*the moment it completes*, so killing a campaign mid-run loses at most
the replications in flight; a resumed run recomputes only those.

Evaluation modes (:attr:`CampaignSpec.evaluation`): ``simulate`` (the
default) computes every job with the discrete-event engine, exactly as
before.  ``hybrid`` routes each cell through an
:class:`~repro.campaigns.hybrid.AnalyticCellEvaluator` first — cells
the committed tolerance manifest certifies are answered from the
queueing model inline (microseconds instead of seconds) and persisted
with ``path: "analytic"`` provenance; the rest simulate.  ``analytic``
demands the fast path for every cell and errors on the first one the
envelope cannot certify.

Determinism: each replication's outcome depends only on its scenario
spec and derived seed (see :func:`repro.scenarios.runner.run_replication`),
so worker count, completion order and cache hits cannot change a
campaign's merged summaries — the property the equivalence tests pin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaigns import shard
from repro.campaigns.hybrid import (
    AnalyticCellEvaluator,
    AnalyticDecision,
    record_usable,
    resolve_evaluator,
)
from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore
from repro.exceptions import CampaignCancelled, ConfigurationError
from repro.scenarios.runner import (
    ReplicationResult,
    ScenarioRunner,
    ScenarioSummary,
    run_replication,
    summarize_replications,
)

#: Rough serialized size of one stored replication record in the
#: classic one-file-per-replication layout.  Observed classic records
#: run 2–6 KiB depending on topology width and timeline length; the
#: estimate is for sanity-checking a sweep's disk cost before launching
#: it, not for accounting.
ESTIMATED_RECORD_BYTES = 4096

#: Per-record estimate for the segmented NDJSON layout when the store
#: holds no records yet to measure (packed lines, no per-file block
#: rounding).  A store with indexed records reports its observed mean
#: instead (:meth:`SegmentedResultStore.mean_record_bytes`).
ESTIMATED_SEGMENT_RECORD_BYTES = 2048

#: Analytic-path records carry no timeline, action log or spread stats,
#: so they serialize far smaller than simulated ones.
ESTIMATED_ANALYTIC_RECORD_BYTES = 1024

#: Coarse per-job wall-time heuristics for the plan's by-path breakdown.
#: Simulated jobs vary over orders of magnitude with duration and load;
#: this is a planning aid ("hours vs seconds"), not a promise.
ESTIMATED_SIMULATED_SECONDS_PER_JOB = 1.0
ESTIMATED_ANALYTIC_SECONDS_PER_JOB = 1e-4


@dataclass(frozen=True)
class CampaignPlan:
    """What a run would do: which jobs are cached, which must compute.

    ``axes`` lists ``(axis_name, point_count)`` pairs and ``cells`` the
    expanded grid size, so a dry run shows the sweep's shape.  The
    store estimate is layout-aware: classic stores cost
    :data:`ESTIMATED_RECORD_BYTES` per uncached job, segmented stores
    their observed (or :data:`ESTIMATED_SEGMENT_RECORD_BYTES` default)
    NDJSON bytes per record, analytic-path jobs the slimmer
    :data:`ESTIMATED_ANALYTIC_RECORD_BYTES` — and overhead cells, which
    never write records, cost nothing.

    ``analytic_cells`` / ``simulated_cells`` split the grid by decided
    path; ``analytic_jobs`` counts uncached jobs the fast path would
    answer.  The two ``estimated_*_seconds`` fields give the coarse
    by-path wall-time breakdown a ``--dry-run`` prints.
    """

    total: int
    cached: int
    axes: Tuple[Tuple[str, int], ...] = ()
    cells: int = 0
    estimated_store_bytes: int = 0
    evaluation: str = "simulate"
    analytic_cells: int = 0
    simulated_cells: int = 0
    analytic_jobs: int = 0
    estimated_analytic_seconds: float = 0.0
    estimated_simulated_seconds: float = 0.0

    @property
    def to_compute(self) -> int:
        return self.total - self.cached


@dataclass(frozen=True)
class CampaignCellResult:
    """One grid cell's merged summary plus its result provenance.

    ``computed``/``reused`` count this cell's replications by where
    their results came from: computed by this run, or loaded from the
    store.  Cells that expand to identical simulation inputs share one
    computation, so summing cell counts over-states executed work —
    campaign-level totals live on :class:`CampaignResult`, which counts
    unique jobs.  ``path`` records how the cell was evaluated
    (``simulated`` or ``analytic``).
    """

    cell: CampaignCell
    summary: ScenarioSummary
    computed: int
    reused: int
    path: str = "simulated"

    def to_dict(self) -> dict:
        return {
            "label": self.cell.label,
            "coordinates": self.cell.coordinates,
            "spec_hash": self.cell.spec_hash,
            "computed": self.computed,
            "reused": self.reused,
            "path": self.path,
            "summary": self.summary.to_dict(),
        }


@dataclass(frozen=True)
class CampaignResult:
    """All cells of one campaign run.

    ``computed`` / ``reused`` count *unique* ``(spec hash, seed)`` jobs
    — simulations actually executed by this run vs. loaded from the
    store — so deduplicated identical cells are not double-counted.
    ``analytic`` counts the subset of ``computed`` answered by the
    model fast path (always 0 in ``simulate`` mode).
    """

    campaign: CampaignSpec
    cells: Tuple[CampaignCellResult, ...]
    computed: int
    reused: int
    analytic: int = 0

    @property
    def summaries(self) -> List[ScenarioSummary]:
        return [c.summary for c in self.cells]

    def cell(self, label: str) -> CampaignCellResult:
        for result in self.cells:
            if result.cell.label == label:
                return result
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign.name,
            "evaluation": self.campaign.evaluation,
            "computed": self.computed,
            "reused": self.reused,
            "analytic": self.analytic,
            "cells": [c.to_dict() for c in self.cells],
        }


class CampaignRunner:
    """Runs campaigns, optionally against a resumable result store.

    Without a store every replication is computed fresh — exactly what
    :meth:`~repro.scenarios.runner.ScenarioRunner.run` would give for
    each expanded spec.  With a store, completed replications are
    loaded instead of recomputed and fresh ones are persisted as they
    finish.  ``max_workers`` sizes the process pool (default: every
    core); one worker runs the jobs in this process.

    ``evaluator`` injects a configured
    :class:`~repro.campaigns.hybrid.AnalyticCellEvaluator` for
    hybrid/analytic campaigns; when omitted, those modes build the
    default evaluator from the committed tolerance manifest.  Campaigns
    with ``evaluation: "simulate"`` never consult it.

    ``cancel`` is an optional :class:`threading.Event` (anything with
    an ``is_set()`` method) polled between job completions.  Once set,
    the runner stops dispatching, persists every result that already
    finished, and raises :class:`~repro.exceptions.CampaignCancelled` —
    so a cancelled campaign resumes from its store losing only work in
    flight.  This is the hook the job service's cancel endpoint (and
    its shutdown path) relies on.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        max_workers: Optional[int] = None,
        evaluator: Optional[AnalyticCellEvaluator] = None,
        cancel=None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when set")
        self._store = store
        self._max_workers = max_workers
        self._evaluator = evaluator
        self._cancel = cancel

    def _check_cancelled(self, campaign: CampaignSpec) -> None:
        if self._cancel is not None and self._cancel.is_set():
            raise CampaignCancelled(
                f"campaign {campaign.name!r} cancelled; completed"
                " replications are persisted in the store"
            )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, campaign: CampaignSpec) -> CampaignPlan:
        """Cache accounting without running anything (``--dry-run``).

        Mirrors :meth:`run` exactly: unique ``(spec hash, seed)`` jobs
        (identical cells share one), plus one uncacheable job per
        overhead cell — so ``to_compute`` predicts ``run()``'s
        ``computed`` count, path decisions included.
        """
        cells = campaign.expand()
        evaluator = resolve_evaluator(campaign.evaluation, self._evaluator)
        decisions = self._decide_cells(campaign, cells, evaluator)
        keys: Dict[Tuple[str, int], str] = {}
        analytic_cells = simulated_cells = 0
        for cell in _simulation_cells(cells):
            spec_hash = cell.spec_hash
            path = _cell_path(decisions, spec_hash)
            if path == "analytic":
                analytic_cells += 1
            else:
                simulated_cells += 1
            for seed in cell.seeds:
                keys[(spec_hash, seed)] = path
        cached = 0
        uncached_analytic = uncached_simulated = 0
        for (spec_hash, seed), path in keys.items():
            record = (
                self._store.load_record(spec_hash, seed)
                if self._store is not None
                else None
            )
            if record is not None and record_usable(record, path):
                cached += 1
            elif path == "analytic":
                uncached_analytic += 1
            else:
                uncached_simulated += 1
        overhead = len(cells) - len(_simulation_cells(cells))
        total = len(keys) + overhead
        return CampaignPlan(
            total=total,
            cached=cached,
            axes=tuple(
                (axis.name, len(axis.values)) for axis in campaign.axes
            ),
            cells=len(cells),
            estimated_store_bytes=self._estimate_store_bytes(
                uncached_simulated, uncached_analytic
            ),
            evaluation=campaign.evaluation,
            analytic_cells=analytic_cells,
            simulated_cells=simulated_cells + overhead,
            analytic_jobs=uncached_analytic,
            estimated_analytic_seconds=uncached_analytic
            * ESTIMATED_ANALYTIC_SECONDS_PER_JOB,
            estimated_simulated_seconds=(uncached_simulated + overhead)
            * ESTIMATED_SIMULATED_SECONDS_PER_JOB,
        )

    def _estimate_store_bytes(self, simulated: int, analytic: int) -> int:
        """Layout-aware size estimate for uncached store-bound jobs.

        Overhead cells are excluded by the caller: they run through the
        figure drivers and never write store records — the classic
        flat-rate estimate wrongly billed them.
        """
        per_record: float = ESTIMATED_RECORD_BYTES
        # Imported here: segstore subclasses ResultStore and is imported
        # by the package __init__ after this module.
        from repro.campaigns.segstore import SegmentedResultStore

        if isinstance(self._store, SegmentedResultStore):
            observed = self._store.mean_record_bytes()
            per_record = (
                observed
                if observed is not None
                else ESTIMATED_SEGMENT_RECORD_BYTES
            )
        per_analytic = min(per_record, ESTIMATED_ANALYTIC_RECORD_BYTES)
        return int(round(simulated * per_record + analytic * per_analytic))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, campaign: CampaignSpec) -> CampaignResult:
        cells = campaign.expand()
        if not cells:
            raise ConfigurationError(
                f"campaign {campaign.name!r} expands to no cells"
            )
        evaluator = resolve_evaluator(campaign.evaluation, self._evaluator)
        decisions = self._decide_cells(campaign, cells, evaluator)
        cached: Dict[Tuple[str, int], ReplicationResult] = {}
        sim_jobs: List[shard.Job] = []
        analytic_jobs: List[shard.Job] = []
        pending_keys = set()
        for cell in _simulation_cells(cells):
            spec_hash = cell.spec_hash
            path = _cell_path(decisions, spec_hash)
            for index, seed in enumerate(cell.seeds):
                key = (spec_hash, seed)
                if key in cached or key in pending_keys:
                    continue
                result = self._load_usable(spec_hash, seed, path)
                if result is not None:
                    cached[key] = result
                else:
                    pending_keys.add(key)
                    job = (spec_hash, seed, cell.spec, index)
                    if path == "analytic":
                        analytic_jobs.append(job)
                    else:
                        sim_jobs.append(job)

        computed = self._answer_analytic(
            campaign, cells, analytic_jobs, evaluator, decisions
        )
        computed.update(self._execute(campaign, cells, sim_jobs))

        results: List[CampaignCellResult] = []
        overhead_runs = 0
        for cell in cells:
            if cell.spec.kind != "simulation":
                self._check_cancelled(campaign)
                summary = ScenarioRunner(max_workers=1).run(cell.spec)
                overhead_runs += 1
                results.append(
                    CampaignCellResult(
                        cell=cell, summary=summary, computed=1, reused=0
                    )
                )
                continue
            spec_hash = cell.spec_hash
            merged: List[ReplicationResult] = []
            fresh = 0
            reused = 0
            for index, seed in enumerate(cell.seeds):
                key = (spec_hash, seed)
                if key in computed:
                    fresh += 1
                    result = computed[key]
                else:
                    reused += 1
                    result = cached[key]
                # A cell whose rep index differs from the cached record
                # (same inputs reached via another cell) still reports
                # its own index.
                if result.index != index:
                    result = ReplicationResult.from_dict(
                        {**result.to_dict(), "index": index}
                    )
                merged.append(result)
            results.append(
                CampaignCellResult(
                    cell=cell,
                    summary=summarize_replications(cell.spec, merged),
                    computed=fresh,
                    reused=reused,
                    path=_cell_path(decisions, spec_hash),
                )
            )
        return CampaignResult(
            campaign=campaign,
            cells=tuple(results),
            computed=len(computed) + overhead_runs,
            reused=len(cached),
            analytic=len(analytic_jobs),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _decide_cells(
        self,
        campaign: CampaignSpec,
        cells: Sequence[CampaignCell],
        evaluator: Optional[AnalyticCellEvaluator],
    ) -> Dict[str, AnalyticDecision]:
        """Per-``spec_hash`` path decisions, in sweep order (so the
        evaluator's memoized Erlang state advances monotonically across
        neighboring cells).  ``analytic`` mode fails on the first cell
        the envelope cannot certify, naming it."""
        if evaluator is None:
            return {}
        decisions: Dict[str, AnalyticDecision] = {}
        for cell in _simulation_cells(cells):
            if cell.spec_hash in decisions:
                continue
            decision = evaluator.decide(cell.spec)
            if (
                campaign.evaluation == "analytic"
                and not decision.analytic_capable
            ):
                raise ConfigurationError(
                    f"evaluation 'analytic': cell {cell.label!r} cannot be"
                    f" answered analytically ({decision.reason})"
                )
            decisions[cell.spec_hash] = decision
        return decisions

    def _load_usable(
        self, spec_hash: str, seed: int, path: str
    ) -> Optional[ReplicationResult]:
        """The stored result for this job — only if its record's path
        satisfies the current decision (see :func:`record_usable`)."""
        if self._store is None:
            return None
        record = self._store.load_record(spec_hash, seed)
        if record is None or not record_usable(record, path):
            return None
        try:
            return ReplicationResult.from_dict(record["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def _answer_analytic(
        self,
        campaign: CampaignSpec,
        cells: Sequence[CampaignCell],
        jobs: Sequence[shard.Job],
        evaluator: Optional[AnalyticCellEvaluator],
        decisions: Dict[str, AnalyticDecision],
    ) -> Dict[Tuple[str, int], ReplicationResult]:
        """Answer the analytic-path jobs inline, with provenance.

        Runs in the coordinating process — each answer is a handful of
        cached float operations, so no pool worker should ever see
        these jobs.
        """
        computed: Dict[Tuple[str, int], ReplicationResult] = {}
        if not jobs:
            return computed
        self._check_cancelled(campaign)
        assert evaluator is not None  # jobs only exist with an evaluator
        label_by_hash = {c.spec_hash: c.label for c in cells}
        for spec_hash, seed, spec, index in jobs:
            result = evaluator.evaluate(spec, index)
            computed[(spec_hash, seed)] = result
            if self._store is not None:
                self._store.put(
                    spec,
                    spec_hash,
                    seed,
                    result,
                    campaign=campaign.name,
                    cell=label_by_hash.get(spec_hash, ""),
                    path="analytic",
                    provenance=evaluator.provenance(decisions[spec_hash]),
                )
        return computed

    def _execute(
        self,
        campaign: CampaignSpec,
        cells: Sequence[CampaignCell],
        jobs: Sequence[shard.Job],
    ) -> Dict[Tuple[str, int], ReplicationResult]:
        if not jobs:
            return {}
        label_by_hash = {c.spec_hash: c.label for c in cells}
        computed: Dict[Tuple[str, int], ReplicationResult] = {}

        def persist(job: shard.Job, result: ReplicationResult) -> None:
            spec_hash, seed, spec, _ = job
            computed[(spec_hash, seed)] = result
            if self._store is not None:
                self._store.put(
                    spec,
                    spec_hash,
                    seed,
                    result,
                    campaign=campaign.name,
                    cell=label_by_hash.get(spec_hash, ""),
                )

        workers = self._max_workers or os.cpu_count() or 1
        workers = min(workers, len(jobs))
        if workers <= 1:
            for job in jobs:
                self._check_cancelled(campaign)
                _, _, spec, index = job
                persist(job, run_replication(spec, index))
        else:
            self._check_cancelled(campaign)
            if not shard.run_pool(jobs, workers, persist, self._cancel):
                self._check_cancelled(campaign)
        return computed


def _cell_path(decisions: Dict[str, AnalyticDecision], spec_hash: str) -> str:
    decision = decisions.get(spec_hash)
    return decision.path if decision is not None else "simulated"


def _simulation_cells(
    cells: Sequence[CampaignCell],
) -> List[CampaignCell]:
    return [c for c in cells if c.spec.kind == "simulation"]
