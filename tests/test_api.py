"""Tests for :mod:`repro.api` — the stable facade every front end uses.

The facade's contract has three parts worth pinning: the flexible
loaders (path / mapping / inline JSON / spec instance, with typed
not-found errors whose messages the CLI surfaces verbatim), the
layout-sniffing store opener, and the execution wrappers whose results
must match driving the engine directly.
"""

import json

import pytest

from repro import api
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

BASE = {
    "workload": "synthetic",
    "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
    "policy": "none",
    "initial_allocation": "10:10:10",
    "duration": 40.0,
    "warmup": 5.0,
    "replications": 2,
    "seed": 17,
}


def scenario_dict(name="api-scn", **overrides):
    return {"name": name, **BASE, **overrides}


def campaign_dict(name="api-cmp"):
    return {
        "name": name,
        "base": dict(BASE),
        "axes": [
            {
                "name": "rate",
                "field": "workload_params.arrival_rate",
                "values": [20.0, 30.0],
            }
        ],
    }


class TestLoaders:
    def test_scenario_from_mapping(self):
        spec = api.load_scenario(scenario_dict())
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == "api-scn"

    def test_scenario_passthrough(self):
        spec = ScenarioSpec.from_dict(scenario_dict())
        assert api.load_scenario(spec) is spec

    def test_scenario_from_path(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario_dict()))
        assert api.load_scenario(path).name == "api-scn"
        assert api.load_scenario(str(path)).name == "api-scn"

    def test_scenario_from_inline_json(self):
        spec = api.load_scenario(json.dumps(scenario_dict()))
        assert spec.name == "api-scn"

    def test_scenario_not_found_message(self):
        with pytest.raises(
            api.SpecNotFoundError, match="scenario spec not found: /no/such"
        ):
            api.load_scenario("/no/such/file.json")

    def test_campaign_not_found_message(self):
        with pytest.raises(
            api.SpecNotFoundError, match="campaign spec not found"
        ):
            api.load_campaign("/no/such/campaign.json")

    def test_campaign_from_mapping(self):
        campaign = api.load_campaign(campaign_dict())
        assert isinstance(campaign, CampaignSpec)
        assert len(campaign.expand()) == 2

    def test_invalid_content_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            api.load_scenario({"name": "x", "workload": "nope"})


class TestOpenStore:
    def test_classic_layout(self, tmp_path):
        store = api.open_store(tmp_path)
        assert type(store) is ResultStore

    def test_segmented_layout_sniffed(self, tmp_path):
        (tmp_path / "segments").mkdir()
        store = api.open_store(tmp_path, segment="writer-a")
        assert isinstance(store, SegmentedResultStore)

    def test_require_missing_raises(self, tmp_path):
        missing = tmp_path / "absent"
        with pytest.raises(
            api.StoreNotFoundError, match="result store not found"
        ):
            api.open_store(missing, require=True)
        assert not missing.exists()


class TestEvaluators:
    def test_simulate_mode_builds_nothing(self):
        assert api.campaign_evaluator("simulate") is None

    def test_named_manifest_must_exist(self, tmp_path):
        with pytest.raises(
            api.ManifestNotFoundError, match="tolerance manifest not found"
        ):
            api.campaign_evaluator(
                "hybrid", manifest=tmp_path / "absent.json"
            )

    def test_registry_shapes_match(self):
        modes = api.available_evaluation_modes()
        assert set(modes) == {"simulate", "hybrid", "analytic"}
        for listing in (
            modes,
            api.available_policies(),
            api.available_arrival_models(),
        ):
            assert all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in listing.items()
            )


class TestExecution:
    def test_run_scenario_replication_override(self):
        summary = api.run_scenario(
            scenario_dict(), workers=1, replications=1
        )
        assert len(summary.replications) == 1

    def test_plan_predicts_run(self, tmp_path):
        campaign = campaign_dict()
        plan = api.plan(campaign, store=tmp_path)
        result = api.run_campaign(campaign, store=tmp_path, workers=1)
        assert plan.to_compute == result.computed == 4
        # Now everything is cached; plan and run agree again.
        assert api.plan(campaign, store=tmp_path).to_compute == 0
        rerun = api.run_campaign(campaign, store=tmp_path, workers=1)
        assert rerun.computed == 0 and rerun.reused == 4

    def test_facade_matches_direct_runner(self, tmp_path):
        """api.run_campaign == CampaignRunner on a fresh store, bit for bit."""
        campaign = api.load_campaign(campaign_dict())
        via_api = api.run_campaign(
            campaign, store=tmp_path / "a", workers=1
        )
        direct = CampaignRunner(
            ResultStore(tmp_path / "b"), max_workers=1
        ).run(campaign)
        assert json.dumps(via_api.to_dict(), sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )

    def test_run_campaign_from_path(self, tmp_path):
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(campaign_dict()))
        result = api.run_campaign(str(path), store=tmp_path / "s", workers=1)
        assert result.computed == 4

    def test_shards_require_store(self):
        with pytest.raises(ConfigurationError, match="requires a store"):
            api.run_campaign(campaign_dict(), shards=2)

    def test_shards_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="shards must be >= 1"):
            api.run_campaign(campaign_dict(), store=tmp_path, shards=0)

    def test_workers_and_shards_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="workers=2, shards=3"):
            api.run_campaign(
                campaign_dict(), store=tmp_path, workers=2, shards=3
            )
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(campaign_dict()))
        argv = ["run-campaign", str(path), "--store", str(tmp_path / "s")]
        assert main(argv + ["--workers", "2", "--shards", "3"]) == 2
        assert "--workers 2, --shards 3" in capsys.readouterr().err

    def test_aggregate_requires_existing_store(self, tmp_path):
        with pytest.raises(
            api.StoreNotFoundError, match="result store not found"
        ):
            api.aggregate(campaign_dict(), tmp_path / "absent")

    def test_aggregate_reads_stored_results(self, tmp_path):
        campaign = campaign_dict()
        api.run_campaign(campaign, store=tmp_path, workers=1)
        aggregator = api.aggregate(campaign, tmp_path)
        rows = aggregator.rows()
        assert len(rows) == 2
        assert all(row["replications"] == 2 for row in rows)
