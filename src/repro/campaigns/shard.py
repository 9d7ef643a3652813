"""Work-stealing multi-process shard executor for campaigns.

The plain :class:`~repro.campaigns.runner.CampaignRunner` farms jobs
from a single coordinator process.  The sharded runner instead gives
every worker process the *full* job list and lets workers race: each
job is claimed exactly once through an exclusive-create file under
``<store>/claims/`` keyed by the job's content address
(``<spec_hash>_<seed>``), so a worker that stalls or dies simply loses
the race for the jobs it never claimed — the definition of work
stealing without a queue server.  Workers start at staggered offsets so
they collide rarely in the common case.

Results are appended to one
:class:`~repro.campaigns.segstore.SegmentedResultStore` segment per
worker (no write contention), and the coordinator re-indexes the
segments when the workers finish.

Resumability: correctness never depends on the claim files — they are
wiped at every coordinator start and only order the *current* run.  A
killed run leaves its completed records in the segments; the next run
re-plans against the store and computes only what is missing, so a
campaign interrupted after all cells landed resumes with 0 recomputed.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.campaigns.hybrid import (
    AnalyticCellEvaluator,
    record_usable,
    resolve_evaluator,
)
from repro.campaigns.runner import CampaignResult, CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ConfigurationError
from repro.scenarios.runner import run_replication
from repro.scenarios.spec import ScenarioSpec

#: Claim files live here, under the store root (shared by all workers).
CLAIMS_DIR = "claims"

#: A job shipped to workers: everything needed to run and persist one
#: replication without the coordinator (specs travel as plain dicts —
#: ScenarioSpec is picklable, but dicts keep the payload inspectable).
_WireJob = Tuple[str, int, dict, int, str]  # hash, seed, spec, index, cell


def _claim(claims: Path, spec_hash: str, seed: int) -> bool:
    """Atomically claim one job; False when another worker owns it."""
    path = claims / f"{spec_hash}_{seed}"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


def _shard_worker(
    store_root: str,
    worker_id: int,
    total_workers: int,
    campaign_name: str,
    jobs: Sequence[_WireJob],
) -> int:
    """One shard: race the full job list, claim-run-persist each win."""
    claims = Path(store_root) / CLAIMS_DIR
    executed = 0
    with SegmentedResultStore(
        store_root, segment=f"shard-{worker_id:02d}"
    ) as store:
        n = len(jobs)
        # Staggered start: worker i begins at its own stripe and wraps
        # through everyone else's — collision-free while all workers are
        # healthy, full coverage (stealing) when any worker stalls.
        offset = 0 if n == 0 else (worker_id * n) // total_workers
        for position in range(n):
            spec_hash, seed, spec_dict, index, cell = jobs[
                (offset + position) % n
            ]
            record = store.load_record(spec_hash, seed)
            if record is not None and record_usable(record, "simulated"):
                continue  # landed in a segment before this run
            # (An analytic-path record does not satisfy a simulated-path
            # job: the coordinator only ships jobs it decided must
            # simulate, so a stale analytic record is recomputed.)
            if not _claim(claims, spec_hash, seed):
                continue  # another worker owns it
            spec = ScenarioSpec.from_dict(spec_dict)
            result = run_replication(spec, index)
            store.put(
                spec,
                spec_hash,
                seed,
                result,
                campaign=campaign_name,
                cell=cell,
            )
            executed += 1
    return executed


class ShardedCampaignRunner:
    """Runs a campaign across ``shards`` claim-racing worker processes.

    Requires a :class:`SegmentedResultStore` (or a path to create one):
    per-worker segments are what make lock-free parallel persistence
    safe.  The merge/summary step is delegated to the plain
    :class:`CampaignRunner` against the refreshed store, so sharded and
    unsharded runs produce identical :class:`CampaignResult` payloads.
    """

    def __init__(
        self,
        store: SegmentedResultStore,
        *,
        shards: int = 2,
        evaluator: Optional[AnalyticCellEvaluator] = None,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if not isinstance(store, SegmentedResultStore):
            raise ConfigurationError(
                "sharded execution needs a SegmentedResultStore"
            )
        self._store = store
        self._shards = shards
        self._evaluator = evaluator

    def run(self, campaign: CampaignSpec) -> CampaignResult:
        store = self._store
        store.refresh()
        cells = campaign.expand()
        if not cells:
            raise ConfigurationError(
                f"campaign {campaign.name!r} expands to no cells"
            )
        # Claims only order the current run; stale ones from a killed
        # run must not mask unfinished work.
        claims = store.root / CLAIMS_DIR
        claims.mkdir(parents=True, exist_ok=True)
        for path in claims.iterdir():
            path.unlink()

        # Path decisions happen here, in the coordinator: analytic cells
        # are answered inline into the coordinator's own segment before
        # any job is shipped, so shard workers only ever see
        # out-of-envelope (simulated-path) work.
        evaluator = resolve_evaluator(campaign.evaluation, self._evaluator)
        jobs: List[_WireJob] = []
        seen = set()
        analytic_executed = 0
        for cell in cells:
            if cell.spec.kind != "simulation":
                continue  # overhead cells are uncacheable; merge runs them
            spec_hash = cell.spec_hash
            spec_dict = cell.spec.to_dict()
            decision = (
                evaluator.decide(cell.spec) if evaluator is not None else None
            )
            if (
                campaign.evaluation == "analytic"
                and decision is not None
                and not decision.analytic_capable
            ):
                raise ConfigurationError(
                    f"evaluation 'analytic': cell {cell.label!r} cannot be"
                    f" answered analytically ({decision.reason})"
                )
            path = decision.path if decision is not None else "simulated"
            for index, seed in enumerate(cell.seeds):
                if (spec_hash, seed) in seen:
                    continue
                seen.add((spec_hash, seed))
                record = store.load_record(spec_hash, seed)
                if record is not None and record_usable(record, path):
                    continue
                if path == "analytic":
                    result = evaluator.evaluate(cell.spec, index)
                    store.put(
                        cell.spec,
                        spec_hash,
                        seed,
                        result,
                        campaign=campaign.name,
                        cell=cell.label,
                        path="analytic",
                        provenance=evaluator.provenance(decision),
                    )
                    analytic_executed += 1
                    continue
                jobs.append((spec_hash, seed, spec_dict, index, cell.label))

        executed = 0
        if jobs:
            workers = min(self._shards, len(jobs))
            if workers == 1:
                executed = _shard_worker(
                    str(store.root), 0, 1, campaign.name, jobs
                )
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(
                            _shard_worker,
                            str(store.root),
                            worker_id,
                            workers,
                            campaign.name,
                            jobs,
                        )
                        for worker_id in range(workers)
                    ]
                    executed = sum(f.result() for f in futures)
            store.refresh()

        # Merge through the plain runner: every simulation job is now in
        # the store, so it loads instead of recomputing (its `computed`
        # counts only uncacheable overhead cells, its `reused` every
        # simulation job).  Restate the split so jobs executed by this
        # run's shards — and analytic answers produced above — count as
        # computed, not reused.
        merged = CampaignRunner(store, evaluator=evaluator).run(campaign)
        fresh = executed + analytic_executed
        return dataclasses.replace(
            merged,
            computed=merged.computed + fresh,
            reused=merged.reused - fresh,
            analytic=merged.analytic + analytic_executed,
        )
