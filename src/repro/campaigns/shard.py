"""The campaign layer's process pool.

:class:`~repro.campaigns.runner.CampaignRunner` plans a campaign,
answers its analytic jobs and loads what its store already holds in the
calling process; the simulated jobs left over run here, one worker
process each at a time.  Every result is handed back to the caller the
moment it completes, so the caller persists it at once and a killed run
loses only the replications in flight.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Sequence, Tuple

from repro.scenarios.runner import ReplicationResult, run_replication
from repro.scenarios.spec import ScenarioSpec

#: One unit of simulation work: (spec hash, derived seed) plus the spec
#: and replication index that produce it.
Job = Tuple[str, int, ScenarioSpec, int]


def _run_job(job: Job) -> ReplicationResult:
    _, _, spec, index = job
    return run_replication(spec, index)


def run_pool(
    jobs: Sequence[Job],
    workers: int,
    persist: Callable[[Job, ReplicationResult], None],
    cancel=None,
) -> bool:
    """Run ``jobs`` over ``workers`` processes, passing each result to
    ``persist`` as it completes; False when ``cancel`` stopped the run.

    ``cancel`` (anything with ``is_set()``) is polled after every
    completion.  Once set, unstarted jobs are withdrawn and in-flight
    ones finish but are discarded, so ``persist`` has seen exactly the
    work that completed.
    """
    # submit/wait rather than map: an interrupt loses only in-flight
    # replications instead of a whole ordered prefix.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_job, job): job for job in jobs}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                persist(futures[future], future.result())
            if pending and cancel is not None and cancel.is_set():
                for future in pending:
                    future.cancel()
                return False
    return True
