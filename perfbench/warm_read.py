"""Workload ``warm-read``: campaign jobs answered from a filled store.

The run first fills a store by running the ``analytic-grid`` campaign
cold into the default per-file layout, the layout the service writes.
That fill is not timed: on a shared virtual disk its wall swings by a
factor of three with the other tenants' file-system traffic (see
``analytic_grid``); its wall is printed with the details.  Set-up is
then starting an in-process ``CampaignService`` over the store (port
0, one job worker, ``campaign_workers=1``), timed three times.  One client then runs a closed loop,
one job outstanding, no think time: it submits a seeded slice of 24
grid cells as a new campaign job, polls the job until it reaches a
terminal state and fetches its aggregates.  Every record the jobs ask
for is already stored, so nothing is computed: this is the store's
read side, the service and aggregation.  A few ``repro campaign-report``
subprocesses against the same store add the CLI's start-up.

A job fails when it ends in any state but ``done``, reports
``computed`` other than 0, or returns aggregates that differ from
``api.aggregate`` over the same store.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Dict, List

import analytic_grid
from common import (
    HostSpeed, Outcome, digest, fresh_dir, median, repro_cli, run_count,
    request_metrics, timed,
)

NAME = "warm-read"
SLICE = 24
MIN_JOBS = 200
#: Wall of one job on the reference host (2-core VM, CPython 3.11).
NOMINAL_S = 0.075
TAIL_PERCENTILE = 95.0
#: Pause between polls of a running job.  Short against a job's
#: duration (tens of milliseconds), long enough that polling does not
#: starve the job worker of the interpreter lock.
POLL_S = 0.005
SET_UPS = 7
#: Jobs between two probes of the host's speed (about a second of work).
GROUP = 10
TERMINAL = ("done", "failed", "cancelled")


def job_campaigns(grid: Dict[str, Any], seed: int):
    """Endless distinct campaigns, each a seeded slice of the grid's cells."""
    rng = random.Random(seed)
    values = grid["axes"][0]["values"]
    index = 0
    while True:
        chosen = sorted(rng.sample(range(len(values)), SLICE))
        yield {
            "name": f"warmread{index}",
            "base": grid["base"],
            "axes": [{"name": "case", "values": [values[i] for i in chosen]}],
            "evaluation": "hybrid",
        }
        index += 1


def start_service(store: Path):
    from repro.service.client import ServiceClient
    from repro.service.server import CampaignService, ServiceConfig

    service = CampaignService(ServiceConfig(
        store=store, port=0, job_workers=1, campaign_workers=1))
    service.start()
    client = ServiceClient(service.url)
    client.health()
    return service, client


def one_job(client, campaign: Dict[str, Any]):
    """Submit, poll to a terminal state, fetch aggregates.

    Returns ``(job record, aggregates, polls)``.
    """
    job = client.submit(campaign=campaign)
    polls = 0
    while job["state"] not in TERMINAL:
        time.sleep(POLL_S)
        job = client.job(job["id"])
        polls += 1
    return job, client.aggregates(job["id"]), polls


def check_job(api, store: Path, campaign, job, aggregates) -> str:
    """Why a finished job failed, or ``""``."""
    if job["state"] != "done":
        return f"{job['id']} ended {job['state']}: {job.get('error', '')}"
    if job["result"]["computed"] != 0:
        return f"{job['id']} computed {job['result']['computed']}"
    expected = api.aggregate(campaign, store).to_dict()
    if aggregates != expected:
        return f"{job['id']} aggregates differ from api.aggregate"
    return ""


def run_jobs(client, campaigns, jobs: int, host: HostSpeed):
    """The closed loop over ``jobs`` jobs, probing ``host`` after every
    :data:`GROUP` of them.

    Returns host-adjusted per-job latencies and loop wall seconds, and
    ``(campaign, job, aggregates, polls)`` per job for checking
    afterwards.
    """
    latencies: List[float] = []
    finished = []
    wall = 0.0
    for first in range(0, jobs, GROUP):
        started = time.perf_counter()
        group = []
        for _ in range(min(GROUP, jobs - first)):
            campaign = next(campaigns)
            (job, aggregates, polls), took = timed(one_job, client, campaign)
            group.append(took)
            finished.append((campaign, job, aggregates, polls))
        took = time.perf_counter() - started
        factor = host.factor()
        latencies += [x * factor for x in group]
        wall += took * factor
    return latencies, finished, wall


def failures(api, store: Path, finished) -> List[str]:
    """The failed jobs among ``run_jobs``' finished ones, as reasons."""
    problems = (check_job(api, store, *job[:3]) for job in finished)
    return [problem for problem in problems if problem]


def measure(api, seed: int, seconds: float, work: Path) -> Outcome:
    outcome = Outcome()
    grid = analytic_grid.campaign(
        analytic_grid.CAMPAIGN, analytic_grid.cases(seed), seed)
    store = fresh_dir(work, "store")
    fill, fill_s = analytic_grid.fill(api, api.load_campaign(grid), store)
    outcome.check(fill.analytic == fill.computed,
                  "the store fill simulated some records")
    setups, service = [], None
    try:
        for _ in range(SET_UPS):
            if service is not None:
                service.shutdown()
                service = None
            (service, client), took = timed(start_service, store)
            setups.append(took)
        campaigns = job_campaigns(grid, seed + 1)
        host = HostSpeed()
        latencies, finished, wall = run_jobs(
            client, campaigns, run_count(seconds, NOMINAL_S, MIN_JOBS), host)
    finally:
        if service is not None:
            service.shutdown()
    failed = failures(api, store, finished)
    report = next(campaigns)
    spec_path = work / "slice.json"
    spec_path.write_text(api.load_campaign(report).to_json())
    cli_walls = repro_cli(
        outcome,
        ["campaign-report", str(spec_path), "--store", str(store), "--json"],
        expected=api.aggregate(report, store).to_dict())
    outcome.attempted = len(latencies)
    outcome.failed = len(failed)
    outcome.metric("setup_s", median(setups), "s")
    request_metrics(outcome, latencies, wall, TAIL_PERCENTILE)
    outcome.metric("cli_s", median(cli_walls), "s")
    outcome.details.update(
        jobs=len(latencies), job_failures=failed[:5], store_fill_s=fill_s,
        host_probes_s=host.probes,
        digest=digest([aggregates for _, _, aggregates, _ in finished]))
    return outcome
