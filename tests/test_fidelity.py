"""Tests for the model-vs-simulation fidelity audit subsystem."""

import json
import math
from pathlib import Path

import pytest

from repro.apps.fidelity import FidelityWorkload, service_distribution
from repro.campaigns.store import ResultStore
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.fidelity import (
    GRIDS,
    ToleranceManifest,
    fidelity_campaign,
    generate_manifest,
    grid_cases,
    predict,
    run_audit,
)
from repro.fidelity.analytic import AnalyticPrediction
from repro.fidelity.audit import (
    FidelityAudit,
    FidelityRow,
    MetricComparison,
    _t95,
)
from repro.fidelity.cases import build_case, case_from_spec
from repro.fidelity.report import render_audit
from repro.model.performance import PerformanceModel
from repro.queueing import erlang
from repro.scenarios.runner import run_replication

MANIFEST_PATH = Path(__file__).parent / "golden" / "fidelity_tolerances.json"


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
class TestFidelityWorkload:
    @pytest.mark.parametrize(
        "topology,n_ops",
        [("single", 1), ("linear", 3), ("fanout", 3), ("loop", 2)],
    )
    def test_shapes(self, topology, n_ops):
        workload = FidelityWorkload(topology=topology)
        assert len(workload.operator_names) == n_ops
        built = workload.build()
        assert list(built.operator_names) == workload.operator_names

    @pytest.mark.parametrize(
        "topology", ["single", "linear", "fanout", "loop"]
    )
    def test_utilisation_target_hit_exactly(self, topology):
        """The busiest operator's model utilisation equals rho."""
        workload = FidelityWorkload(topology=topology, rho=0.8, servers=4)
        model = PerformanceModel.from_topology(workload.build())
        utilisations = [
            load.arrival_rate / (4 * load.service_rate)
            for load in model.network.loads
        ]
        assert max(utilisations) == pytest.approx(0.8)

    def test_loop_visits_geometric(self):
        workload = FidelityWorkload(topology="loop", feedback=0.5)
        model = PerformanceModel.from_topology(workload.build())
        assert model.network.visit_ratios() == pytest.approx([2.0, 2.0])

    def test_allocation_spec(self):
        workload = FidelityWorkload(topology="linear", servers=6, branches=4)
        assert workload.allocation_spec() == "6:6:6:6"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FidelityWorkload(topology="mesh")
        with pytest.raises(ValueError):
            FidelityWorkload(rho=0.99)
        with pytest.raises(ValueError):
            FidelityWorkload(scv=-1.0)
        with pytest.raises(ValueError):
            FidelityWorkload(topology="loop", feedback=1.0)

    @pytest.mark.parametrize("scv", [0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    def test_service_distribution_moments(self, scv):
        dist = service_distribution(2.0, scv)
        assert dist.mean == pytest.approx(0.5)
        assert dist.scv == pytest.approx(scv)


# ----------------------------------------------------------------------
# analytic predictions
# ----------------------------------------------------------------------
class TestAnalytic:
    def test_single_matches_erlang_closed_form(self):
        workload = FidelityWorkload(topology="single", rho=0.7, servers=4)
        prediction = predict(workload)
        lam = workload.external_rate
        assert prediction.mean_sojourn == pytest.approx(
            erlang.expected_sojourn_time(lam, 1.0, 4)
        )
        assert prediction.waiting_time == pytest.approx(
            erlang.expected_waiting_time(lam, 1.0, 4)
        )
        assert prediction.service_time == pytest.approx(1.0)
        assert prediction.utilisation == pytest.approx(0.7)

    def test_chain_decomposes_into_wait_plus_service(self):
        workload = FidelityWorkload(topology="linear", rho=0.6, servers=2)
        prediction = predict(workload)
        assert prediction.mean_sojourn == pytest.approx(
            prediction.waiting_time + prediction.service_time
        )

    def test_scv_one_reduces_to_plain_model(self):
        workload = FidelityWorkload(topology="linear", rho=0.7, scv=1.0)
        prediction = predict(workload)
        assert prediction.mean_sojourn == pytest.approx(
            prediction.mean_sojourn_mmk
        )

    def test_deterministic_service_halves_waiting(self):
        """Allen-Cunneen: cs2=0 halves the M/M/k waiting term."""
        exponential = predict(FidelityWorkload(rho=0.7, servers=4, scv=1.0))
        deterministic = predict(FidelityWorkload(rho=0.7, servers=4, scv=0.0))
        assert deterministic.waiting_time == pytest.approx(
            exponential.waiting_time / 2.0
        )

    def test_p95_bound_above_mean(self):
        prediction = predict(FidelityWorkload(rho=0.7, servers=4))
        assert prediction.p95_sojourn > prediction.mean_sojourn_mmk


# ----------------------------------------------------------------------
# grids and campaign plumbing
# ----------------------------------------------------------------------
class TestGrids:
    def test_known_grids(self):
        assert set(GRIDS) == {"smoke", "small", "full", "burst"}

    @pytest.mark.parametrize("grid", ["smoke", "small"])
    def test_cases_expand_to_valid_campaign(self, grid):
        cases = grid_cases(grid)
        assert len({case.label for case in cases}) == len(cases)
        campaign = fidelity_campaign(grid)
        cells = campaign.expand()
        assert len(cells) == len(cases)
        for cell, case in zip(cells, cases):
            assert cell.spec.queue_discipline == case.discipline
            assert cell.spec.duration == case.duration
            rebuilt = case_from_spec(cell.spec)
            assert rebuilt == case.workload

    def test_campaign_round_trips_through_json(self):
        campaign = fidelity_campaign("smoke")
        rebuilt = type(campaign).from_json(campaign.to_json())
        assert [c.spec.to_dict() for c in rebuilt.expand()] == [
            c.spec.to_dict() for c in campaign.expand()
        ]

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_cases("galactic")

    def test_high_rho_cells_get_longer_runs(self):
        low = build_case(
            "single", 0.3, 4, 1.0, "shared", replications=2, target_tuples=1000
        )
        high = build_case(
            "single", 0.95, 4, 1.0, "shared", replications=2, target_tuples=1000
        )
        # Same nominal target, but the near-saturated cell simulates more
        # arrivals (scaled span) after a longer warmup.
        assert high.warmup > low.warmup
        arrivals_low = (low.duration - low.warmup) * 0.3 * 4
        arrivals_high = (high.duration - high.warmup) * 0.95 * 4
        assert arrivals_high > 2.0 * arrivals_low

    def test_window_without_external_arrivals_completes(self):
        # At rho=0.2 with one server, seed 10's replication 0 has a
        # measurement window with zero external arrivals; building a
        # model from it used to crash the replication.
        case = build_case(
            "fanout", 0.2, 1, 1.0, "shared", replications=3, target_tuples=400
        )
        spec = fidelity_campaign("fc", cases=[case], seed=10).expand()[0].spec
        result = run_replication(spec, 0)
        assert result.mean_sojourn is not None


# ----------------------------------------------------------------------
# tolerance manifest
# ----------------------------------------------------------------------
class TestManifest:
    def _manifest(self):
        return ToleranceManifest(
            metrics={
                "mean_sojourn": {
                    "default": 0.05,
                    "topology": {"fanout": 0.5},
                    "discipline": {"jsq": 0.1},
                    "scv": {"4": 0.2},
                    "rho": {"0.95": 0.3},
                }
            }
        )

    def test_default_applies(self):
        manifest = self._manifest()
        assert manifest.tolerance_for(
            "mean_sojourn",
            topology="single",
            discipline="shared",
            scv=1.0,
            rho=0.7,
        ) == pytest.approx(0.05)

    def test_overrides_take_max(self):
        manifest = self._manifest()
        assert manifest.tolerance_for(
            "mean_sojourn",
            topology="fanout",
            discipline="jsq",
            scv=4.0,
            rho=0.95,
        ) == pytest.approx(0.5)

    def test_unlisted_metric_unenforced(self):
        manifest = self._manifest()
        assert math.isinf(
            manifest.tolerance_for(
                "p99", topology="single", discipline="shared", scv=1.0, rho=0.5
            )
        )

    def test_round_trip(self):
        manifest = self._manifest()
        assert (
            ToleranceManifest.from_dict(manifest.to_dict()).to_dict()
            == manifest.to_dict()
        )

    def test_rejects_missing_default(self):
        with pytest.raises(ConfigurationError):
            ToleranceManifest(metrics={"mean_sojourn": {"topology": {}}})

    def test_rejects_unknown_group(self):
        with pytest.raises(ConfigurationError):
            ToleranceManifest(
                metrics={"mean_sojourn": {"default": 0.1, "phase": {}}}
            )

    def test_committed_manifest_parses(self):
        manifest = ToleranceManifest.load(MANIFEST_PATH)
        assert "mean_sojourn" in manifest.metrics
        assert "waiting_time" in manifest.metrics
        assert "p95_sojourn" in manifest.metrics


def make_row(
    *,
    label="cell",
    topology="single",
    rho=0.7,
    discipline="shared",
    scv=1.0,
    metrics,
):
    prediction = AnalyticPrediction(
        mean_sojourn=1.0,
        mean_sojourn_mmk=1.0,
        waiting_time=0.5,
        service_time=0.5,
        p95_sojourn=2.0,
        utilisation=rho,
    )
    return FidelityRow(
        label=label,
        topology=topology,
        rho=rho,
        servers=4,
        scv=scv,
        discipline=discipline,
        replications=3,
        prediction=prediction,
        metrics=metrics,
    )


def make_comparison(rel_error, *, model=1.0):
    return MetricComparison(
        model=model,
        simulated=None if rel_error is None else model * (1 + rel_error),
        ci_half_width=0.01,
        rel_error=rel_error,
        ci_rel=0.01,
        within_noise=False if rel_error is not None else None,
    )


class TestViolationSemantics:
    def test_unverifiable_enforced_metric_is_a_violation(self):
        """A non-finite model or sample-less metric must fail the gate,
        never silently pass as 'no error computed'."""
        audit = FidelityAudit(
            grid="synthetic",
            rows=(
                make_row(
                    metrics={"mean_sojourn": make_comparison(None)}
                ),
            ),
            computed=0,
            reused=0,
        )
        manifest = ToleranceManifest(
            metrics={"mean_sojourn": {"default": 0.1}}
        )
        violations = audit.violations(manifest)
        assert len(violations) == 1
        assert math.isinf(violations[0].rel_error)

    def test_unlisted_metric_stays_unenforced(self):
        audit = FidelityAudit(
            grid="synthetic",
            rows=(
                make_row(metrics={"p99_sojourn": make_comparison(None)}),
            ),
            computed=0,
            reused=0,
        )
        manifest = ToleranceManifest(
            metrics={"mean_sojourn": {"default": 0.1}}
        )
        assert audit.violations(manifest) == []

    def test_t95_conservative_between_table_entries(self):
        # n=7 (df=6) must use the n=6 entry (2.571), not the smaller
        # n=8 one — rounding the other way understates the noise.
        assert _t95(7) == 2.571
        assert _t95(9) == 2.365
        assert _t95(100) == 2.040

    def test_generated_manifest_covers_cross_regime_cells(self):
        """A cell non-baseline in two dimensions (fanout at rho 0.95)
        lands in no conditioned override; the coverage pass must still
        make the generated manifest pass its own rows."""
        rows = (
            make_row(label="base", metrics={
                "mean_sojourn": make_comparison(0.03),
            }),
            make_row(label="cross", topology="fanout", rho=0.95, metrics={
                "mean_sojourn": make_comparison(0.9),
            }),
        )
        audit = FidelityAudit(
            grid="synthetic", rows=rows, computed=0, reused=0
        )
        generated = generate_manifest(rows)
        assert audit.violations(generated) == []
        # And the lift stays scoped: single-topology cells keep the
        # tight default, not the fanout envelope.
        assert generated.tolerance_for(
            "mean_sojourn",
            topology="single",
            discipline="shared",
            scv=1.0,
            rho=0.7,
        ) < 0.1


# ----------------------------------------------------------------------
# the audit itself (tier-1 smoke: the committed manifest is enforced)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_audit(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("fidelity-store"))
    return run_audit("smoke", store=store, max_workers=2)


class TestSmokeAudit:
    def test_grid_is_the_mandated_protocol(self):
        """rho = 0.7, k in {1, 4, 16}, exponential service, shared."""
        cases = grid_cases("smoke")
        assert [c.workload.servers for c in cases] == [1, 4, 16]
        assert all(c.workload.rho == 0.7 for c in cases)
        assert all(c.workload.scv == 1.0 for c in cases)
        assert all(c.discipline == "shared" for c in cases)

    def test_mean_sojourn_within_manifest_tolerance(self, smoke_audit):
        """M/M/k analytic vs simulated mean sojourn at rho=0.7, k=1/4/16."""
        manifest = ToleranceManifest.load(MANIFEST_PATH)
        assert len(smoke_audit.rows) == 3
        for row in smoke_audit.rows:
            comparison = row.metrics["mean_sojourn"]
            tolerance = manifest.tolerance_for(
                "mean_sojourn",
                topology=row.topology,
                discipline=row.discipline,
                scv=row.scv,
                rho=row.rho,
            )
            assert comparison.rel_error is not None
            assert comparison.rel_error <= tolerance, row.label

    def test_all_metrics_within_committed_manifest(self, smoke_audit):
        manifest = ToleranceManifest.load(MANIFEST_PATH)
        assert smoke_audit.violations(manifest) == []

    def test_ci_half_widths_reported(self, smoke_audit):
        for row in smoke_audit.rows:
            comparison = row.metrics["mean_sojourn"]
            assert comparison.ci_rel is not None and comparison.ci_rel > 0
            assert comparison.within_noise is not None

    def test_waiting_metric_uses_per_operator_waits(self, smoke_audit):
        row = smoke_audit.rows[0]
        waiting = row.metrics["waiting_time"]
        assert waiting.simulated is not None
        # Waiting is strictly below the sojourn (the service component).
        assert waiting.simulated < row.metrics["mean_sojourn"].simulated

    def test_tightened_tolerance_reports_violation(self, smoke_audit):
        """Tightening any entry below the observed error must fail."""
        tightened = ToleranceManifest(
            metrics={"mean_sojourn": {"default": 1e-9}}
        )
        violations = smoke_audit.violations(tightened)
        assert len(violations) == 3
        assert all(v.metric == "mean_sojourn" for v in violations)

    def test_json_payload_shape(self, smoke_audit):
        payload = json.loads(json.dumps(smoke_audit.to_dict()))
        assert payload["grid"] == "smoke"
        assert len(payload["rows"]) == 3
        assert "worst_errors" in payload

    def test_report_renders(self, smoke_audit):
        text = render_audit(smoke_audit, violations=[])
        assert "mean_sojourn" in text
        assert "within the tolerance manifest" in text

    def test_generate_manifest_covers_own_rows(self, smoke_audit):
        generated = generate_manifest(smoke_audit.rows)
        assert smoke_audit.violations(generated) == []

    def test_store_reuse_recomputes_nothing(self, smoke_audit, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_audit("smoke", store=store, max_workers=1)
        second = run_audit("smoke", store=store, max_workers=1)
        assert first.computed > 0
        assert second.computed == 0
        assert second.reused == first.computed
        # Determinism: identical rows regardless of cache hits.
        assert [r.to_dict() for r in second.rows] == [
            r.to_dict() for r in first.rows
        ]
        # And equal to the module-fixture audit from its own store.
        assert [r.to_dict() for r in first.rows] == [
            r.to_dict() for r in smoke_audit.rows
        ]


# ----------------------------------------------------------------------
# CLI: threshold-based exit codes (the acceptance contract)
# ----------------------------------------------------------------------
class TestFidelityCLI:
    def test_exit_zero_against_committed_manifest(self, tmp_path, capsys):
        code = main(
            [
                "fidelity",
                "--grid",
                "smoke",
                "--store",
                str(tmp_path / "store"),
                "--manifest",
                str(MANIFEST_PATH),
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "All cells within the tolerance manifest." in out

    def test_exit_one_when_tolerance_tightened(self, tmp_path, capsys):
        store = tmp_path / "store"
        # Warm the store so the second invocation simulates nothing.
        assert (
            main(
                [
                    "fidelity",
                    "--grid",
                    "smoke",
                    "--store",
                    str(store),
                    "--manifest",
                    str(MANIFEST_PATH),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        tightened = tmp_path / "tight.json"
        raw = json.loads(MANIFEST_PATH.read_text())
        raw["metrics"]["mean_sojourn"]["default"] = 1e-9
        raw["metrics"]["mean_sojourn"].pop("rho", None)
        tightened.write_text(json.dumps(raw))
        code = main(
            [
                "fidelity",
                "--grid",
                "smoke",
                "--store",
                str(store),
                "--manifest",
                str(tightened),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "TOLERANCE VIOLATIONS" in out

    def test_json_output_parses(self, tmp_path, capsys):
        code = main(
            [
                "fidelity",
                "--grid",
                "smoke",
                "--store",
                str(tmp_path / "store"),
                "--manifest",
                str(MANIFEST_PATH),
                "--json",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert len(payload["rows"]) == 3

    def test_missing_explicit_manifest_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "fidelity",
                    "--grid",
                    "smoke",
                    "--store",
                    str(tmp_path / "store"),
                    "--manifest",
                    str(tmp_path / "nope.json"),
                ]
            )

    def test_write_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "generated.json"
        code = main(
            [
                "fidelity",
                "--grid",
                "smoke",
                "--store",
                str(tmp_path / "store"),
                "--manifest",
                str(MANIFEST_PATH),
                "--write-manifest",
                str(out_path),
                "--workers",
                "2",
            ]
        )
        assert code == 0
        generated = ToleranceManifest.load(out_path)
        assert set(generated.metrics) == {
            "mean_sojourn",
            "waiting_time",
            "p95_sojourn",
        }
