"""Declarative campaigns: parameter sweeps over the scenario engine.

A *campaign* is a grid of scenarios: a base :class:`ScenarioSpec`
mapping plus ordered axes whose values patch spec fields.  Expansion is
a cartesian product, deterministic in axis order; every grid cell is a
full :class:`~repro.scenarios.spec.ScenarioSpec` the scenario engine
already knows how to execute.  Campaign results live in a
content-addressed on-disk store keyed by ``(spec hash, seed)``, so an
interrupted or re-run campaign skips every replication it has already
completed, and an incremental aggregator folds per-replication metrics
into grid-cell summaries without holding full results in memory.
"""

from repro.campaigns.aggregate import CampaignAggregator, CellAggregate
from repro.campaigns.runner import (
    CampaignCellResult,
    CampaignPlan,
    CampaignResult,
    CampaignRunner,
)
from repro.campaigns.segstore import SegmentedResultStore, compact_store
from repro.campaigns.spec import (
    AxisPoint,
    CampaignAxis,
    CampaignCell,
    CampaignSpec,
    scenario_hash,
)
from repro.campaigns.store import ResultStore

__all__ = [
    "AxisPoint",
    "CampaignAggregator",
    "CampaignAxis",
    "CampaignCell",
    "CampaignCellResult",
    "CampaignPlan",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CellAggregate",
    "ResultStore",
    "SegmentedResultStore",
    "compact_store",
    "scenario_hash",
]
