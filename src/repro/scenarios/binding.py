"""Wiring a scheduling policy to a live simulated topology.

:class:`PolicyBinding` generalises the original DRS-only binding: on
every measurement report it builds a load snapshot (falling back to the
nominal model for rates the report lacks), asks the policy to
``observe`` it, and — when the decision requests a change and the
scenario protocol allows acting (``enable_at`` passed, no rebalance or
scaling already in flight, action gap respected) — executes it: plain
rebalances call :meth:`TopologyRuntime.apply_allocation`; machine
scaling goes through the negotiator (scale-out waits for machines to
boot — the ExpA spike — while scale-in rebalances first and then
releases machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.exceptions import InfeasibleAllocationError
from repro.measurement.measurer import MeasurementReport
from repro.model.performance import PerformanceModel
from repro.scenarios.policies import PolicyObservation, SchedulingPolicy
from repro.scheduler.allocation import Allocation
from repro.scheduler.assign import assign_processors
from repro.scheduler.controller import (
    ControllerAction,
    ControllerDecision,
    LoadSnapshot,
)
from repro.sim.negotiator import SimResourceNegotiator
from repro.sim.runtime import TopologyRuntime


def model_from_report(
    report: MeasurementReport,
    fallback: Optional[PerformanceModel] = None,
) -> Optional[PerformanceModel]:
    """Build a performance model from a measurement report.

    Returns ``None`` when the report lacks rates and no fallback model
    is available to fill the gaps, or when the measured external rate
    is not positive (a window with no external arrivals yields no
    model).
    """
    external = report.external_rate
    if external is not None and not external > 0:
        return None
    if report.is_complete():
        return PerformanceModel.from_measurements(
            list(report.operator_names),
            [float(r) for r in report.arrival_rates],
            [float(r) for r in report.service_rates],
            float(external),
        )
    if fallback is None:
        return None
    # Fill missing entries from the fallback's nominal rates.
    lams = list(fallback.network.arrival_rates)
    mus = list(fallback.network.service_rates)
    for index, value in enumerate(report.arrival_rates):
        if value is not None:
            lams[index] = float(value)
    for index, value in enumerate(report.service_rates):
        if value is not None:
            mus[index] = float(value)
    external = (
        float(external) if external is not None else fallback.external_rate
    )
    return PerformanceModel.from_measurements(
        list(report.operator_names), lams, mus, external
    )


def passive_recommendation(
    runtime: TopologyRuntime, kmax: int
) -> Optional[Allocation]:
    """What a passively running DRS would recommend after this run.

    Uses the last measurement report's smoothed rates; falls back to
    ``None`` when the run was too short to produce usable measurements
    or the measured load is infeasible within ``kmax``.
    """
    reports = runtime.reports
    if not reports:
        return None
    model = model_from_report(reports[-1])
    if model is None:
        return None
    try:
        return assign_processors(model, kmax)
    except InfeasibleAllocationError:
        return None


@dataclass
class BindingEvent:
    """One applied (or recorded) policy decision."""

    time: float
    decision: ControllerDecision
    applied: bool


class PolicyBinding:
    """Drives any :class:`SchedulingPolicy` against a running topology."""

    def __init__(
        self,
        runtime: TopologyRuntime,
        policy: SchedulingPolicy,
        *,
        negotiator: Optional[SimResourceNegotiator] = None,
        enable_at: float = 0.0,
        min_action_gap: float = 30.0,
    ):
        self._runtime = runtime
        self._policy = policy
        self._negotiator = negotiator
        self._enable_at = enable_at
        self._min_action_gap = min_action_gap
        self._last_action_time: Optional[float] = None
        self._fallback_model = PerformanceModel.from_topology(runtime.topology)
        self.events: List[BindingEvent] = []
        runtime.on_measurement = self._on_report

    @property
    def policy(self) -> SchedulingPolicy:
        return self._policy

    @property
    def applied_events(self) -> List[BindingEvent]:
        return [e for e in self.events if e.applied]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _machines(self) -> Optional[int]:
        if self._negotiator is None:
            return None
        return self._negotiator.cluster.num_running

    def _on_report(self, report: MeasurementReport) -> None:
        now = self._runtime.simulator.now
        model = model_from_report(report, self._fallback_model)
        if model is None:
            return
        # Tail latency over a few recent pull intervals: long enough to
        # hold a stable p95, short enough to track the present (the
        # whole-run p95 would lag a load change by the run's history).
        window = 5.0 * self._runtime.options.measurement.pull_interval
        snapshot = LoadSnapshot(
            arrival_rates=model.network.arrival_rates,
            service_rates=model.network.service_rates,
            external_rate=model.external_rate,
            measured_sojourn=report.measured_sojourn,
            measured_p95=self._runtime.recent_p95(window),
        )
        decision = self._policy.observe(
            PolicyObservation(
                time=now,
                snapshot=snapshot,
                current_allocation=self._runtime.allocation,
                current_machines=self._machines(),
            )
        )
        applied = self._maybe_apply(now, decision)
        self.events.append(BindingEvent(time=now, decision=decision, applied=applied))

    def _maybe_apply(self, now: float, decision: ControllerDecision) -> bool:
        if not decision.wants_change:
            return False
        if now < self._enable_at:
            return False  # re-balancing still disabled (paper's protocol)
        if self._runtime.paused:
            return False
        if self._negotiator is not None and self._negotiator.in_progress:
            return False
        if (
            self._last_action_time is not None
            and now - self._last_action_time < self._min_action_gap
        ):
            return False

        action = decision.action
        if action is ControllerAction.REBALANCE:
            self._runtime.apply_allocation(decision.target_allocation)
            self._last_action_time = now
            return True

        if self._negotiator is None:
            return False
        current = self._negotiator.cluster.num_running
        target = decision.target_machines
        if target is None:
            return False
        if action is ControllerAction.SCALE_OUT:
            added = target - current

            def after_boot() -> None:
                if not self._runtime.paused:
                    self._runtime.apply_allocation(
                        decision.target_allocation, machines_added=added
                    )

            self._negotiator.scale_to(target, on_ready=after_boot)
            self._last_action_time = now
            return True
        if action is ControllerAction.SCALE_IN:
            removed = current - target
            # Move executors off first, then release the machines.
            self._runtime.apply_allocation(
                decision.target_allocation, machines_removed=removed
            )
            self._negotiator.scale_to(target)
            self._last_action_time = now
            return True
        return False
