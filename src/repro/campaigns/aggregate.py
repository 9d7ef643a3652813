"""Incremental campaign aggregation: fold records, never hold results.

A campaign over a large grid with many replications produces far more
data than fits comfortably in memory (each record carries a timeline
and an action log).  :class:`CellAggregate` therefore folds records one
at a time, retaining only scalars: the per-replication metrics needed
for exact means/percentiles and running totals — O(replications) floats
per cell, never a timeline or action log.  ``campaign-report`` streams
a store through a :class:`CampaignAggregator` and renders the result
without ever rehydrating a full :class:`ReplicationResult`.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Any, Dict, List, Mapping, Optional

from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore, record_path
from repro.utils.math_helpers import percentile

#: Two-sided 95% normal quantile for the confidence half-width.  With
#: the small replication counts typical of a cell this slightly
#: understates the Student-t interval; the report labels it "~95%".
_Z95 = 1.959963984540054


class CellAggregate:
    """Streaming statistics for one grid cell.

    ``fold`` accepts the ``result`` mapping of a stored record (or
    ``ReplicationResult.to_dict()`` output — same shape).  Only scalar
    metrics are retained, so memory is O(replications) floats per cell
    regardless of timeline or action-log size.
    """

    def __init__(self, label: str):
        self.label = label
        self.replications = 0
        #: Ascending per-replication means — the single source for the
        #: mean/std/percentile statistics below.
        self._means: List[float] = []
        self._p95s: List[float] = []
        self.total_external = 0
        self.total_completed = 0
        self.total_dropped = 0
        self.total_rebalances = 0
        #: Replications by evaluation path (records stored before the
        #: provenance tag existed count as ``simulated``).
        self.simulated = 0
        self.analytic = 0

    def fold(self, result: Mapping[str, Any], *, path: str = "simulated") -> None:
        self.replications += 1
        if path == "analytic":
            self.analytic += 1
        else:
            self.simulated += 1
        self.total_external += int(result.get("external_tuples", 0))
        self.total_completed += int(result.get("completed_trees", 0))
        self.total_dropped += int(result.get("dropped_tuples", 0))
        self.total_rebalances += int(result.get("rebalances", 0))
        mean = result.get("mean_sojourn")
        if mean is not None:
            insort(self._means, mean)
        p95 = result.get("p95_sojourn")
        if p95 is not None:
            insort(self._p95s, p95)

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    @property
    def mean_sojourn(self) -> Optional[float]:
        """Mean of the replication means (each replication is one
        i.i.d. sample of the cell's mean sojourn time)."""
        if not self._means:
            return None
        return sum(self._means) / len(self._means)

    @property
    def std_between(self) -> Optional[float]:
        """Sample standard deviation across replication means."""
        count = len(self._means)
        if count == 0:
            return None
        if count == 1:
            return 0.0
        mean = self.mean_sojourn
        return math.sqrt(
            sum((m - mean) ** 2 for m in self._means) / (count - 1)
        )

    @property
    def ci95_half_width(self) -> Optional[float]:
        """~95% confidence half-width of the cell mean (normal approx)."""
        count = len(self._means)
        if count < 2:
            return None
        return _Z95 * self.std_between / math.sqrt(count)

    @property
    def p95_of_means(self) -> Optional[float]:
        """95th percentile across replication means (same interpolation
        as the simulator's metric collectors)."""
        return percentile(self._means, 95.0) if self._means else None

    @property
    def mean_p95_sojourn(self) -> Optional[float]:
        """Mean of the replications' own p95 sojourn times."""
        if not self._p95s:
            return None
        return sum(self._p95s) / len(self._p95s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "replications": self.replications,
            "mean_sojourn": self.mean_sojourn,
            "std_between": self.std_between,
            "ci95_half_width": self.ci95_half_width,
            "p95_of_means": self.p95_of_means,
            "mean_p95_sojourn": self.mean_p95_sojourn,
            "total_external": self.total_external,
            "total_completed": self.total_completed,
            "total_dropped": self.total_dropped,
            "total_rebalances": self.total_rebalances,
            "simulated": self.simulated,
            "analytic": self.analytic,
        }


class CampaignAggregator:
    """Folds a whole campaign, one cell aggregate per grid cell."""

    def __init__(self, campaign: CampaignSpec):
        self.campaign = campaign
        self.cells: Dict[str, CellAggregate] = {}
        self.missing: Dict[str, int] = {}

    def fold(
        self,
        cell_label: str,
        result: Mapping[str, Any],
        *,
        path: str = "simulated",
    ) -> None:
        aggregate = self.cells.get(cell_label)
        if aggregate is None:
            aggregate = self.cells[cell_label] = CellAggregate(cell_label)
        aggregate.fold(result, path=path)

    def rows(self) -> List[Dict[str, Any]]:
        ordered = []
        for label, aggregate in self.cells.items():
            row = aggregate.to_dict()
            row["missing"] = self.missing.get(label, 0)
            ordered.append(row)
        return ordered

    def to_dict(self) -> Dict[str, Any]:
        return {"campaign": self.campaign.name, "cells": self.rows()}


def aggregate_cell_from_store(
    store: ResultStore, cell: CampaignCell
) -> CellAggregate:
    """Fold exactly the replications ``cell`` expects from ``store``."""
    aggregate = CellAggregate(cell.label)
    spec_hash = cell.spec_hash
    for seed in cell.seeds:
        record = store.load_record(spec_hash, seed)
        if record is not None:
            aggregate.fold(record["result"], path=record_path(record))
    return aggregate


def aggregate_from_store(
    campaign: CampaignSpec, store: ResultStore
) -> CampaignAggregator:
    """One streaming pass over the store for every grid cell.

    Cells whose replications are partially (or wholly) missing still
    appear, with their ``missing`` count — a resumed campaign's report
    shows exactly how much work remains.  Non-simulation cells (kind
    ``"overhead"``) are skipped: their wall-clock timings are re-taken
    on every run and never stored.
    """
    aggregator = CampaignAggregator(campaign)
    for cell in campaign.expand():
        if cell.spec.kind != "simulation":
            continue
        aggregate = aggregate_cell_from_store(store, cell)
        aggregator.cells[cell.label] = aggregate
        aggregator.missing[cell.label] = (
            cell.spec.replications - aggregate.replications
        )
    return aggregator
