"""Tests for the sharded campaign executor and the compacted
(segmented) result-store backend."""

import json
import threading
from types import SimpleNamespace

import pytest

from repro import api
from repro.campaigns import segstore
from repro.campaigns.runner import (
    ESTIMATED_RECORD_BYTES,
    CampaignRunner,
)
from repro.campaigns.segstore import SegmentedResultStore, compact_store
from repro.campaigns.spec import CampaignSpec, scenario_hash
from repro.campaigns.store import ResultStore
from repro.exceptions import CampaignCancelled
from repro.experiments import report
from repro.scenarios.runner import AppliedAction, ReplicationResult
from repro.scenarios.spec import ScenarioSpec

BASE = {
    "workload": "synthetic",
    "workload_params": {
        "total_cpu": 0.03,
        "arrival_rate": 20.0,
        "hop_latency": 0.004,
    },
    "policy": "none",
    "initial_allocation": "10:10:10",
    "duration": 40.0,
    "warmup": 5.0,
    "replications": 2,
    "seed": 17,
}


def small_campaign(**overrides) -> CampaignSpec:
    raw = {
        "name": "camp",
        "base": dict(BASE),
        "axes": [
            {
                "name": "alloc",
                "field": "initial_allocation",
                "values": ["8:8:8", "10:10:10"],
            },
        ],
    }
    raw.update(overrides)
    return CampaignSpec.from_dict(raw)


def half_campaign() -> CampaignSpec:
    """The first cell of :func:`small_campaign`, under the same name."""
    return small_campaign(
        axes=[
            {
                "name": "alloc",
                "field": "initial_allocation",
                "values": ["8:8:8"],
            },
        ]
    )


def make_result(index=0, seed=17, mean=1.0) -> ReplicationResult:
    return ReplicationResult(
        index=index,
        seed=seed,
        duration=10.0,
        external_tuples=100,
        completed_trees=99,
        dropped_tuples=1,
        dropped_trees=0,
        rebalances=2,
        mean_sojourn=mean,
        std_sojourn=0.1,
        p95_sojourn=2.0 * mean,
        final_allocation="1:1",
        final_machines=3,
        actions=(AppliedAction(5.0, "rebalance", "1:1", None),),
        timeline=((0.0, 0.5, 3), (10.0, None, 0)),
        recommendation="1:1",
    )


def sample_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict({**BASE, "name": "one", "replications": 1})


class TestSegmentedStore:
    def test_round_trip(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        result = make_result(seed=5)
        store.put(spec, digest, 5, result, campaign="c", cell="l")
        assert store.load(digest, 5) == result
        assert store.has(digest, 5)
        assert store.count(digest) == 1
        # One segment file, no per-replication files.
        assert [p.name for p in (tmp_path / "segments").glob("*.ndjson")] == [
            "w0.ndjson"
        ]
        assert not (tmp_path / digest[:2]).exists()

    def test_other_writers_visible_after_refresh(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        reader = SegmentedResultStore(tmp_path, segment="w1")
        assert reader.load(digest, 5) is not None  # indexed on open
        writer.put(spec, digest, 6, make_result(seed=6))
        assert reader.load(digest, 6) is None  # written after open...
        reader.refresh()
        assert reader.load(digest, 6) is not None  # ...visible on rescan

    def test_classic_layout_still_readable(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        classic = ResultStore(tmp_path)
        classic.put(spec, digest, 7, make_result(seed=7))
        segmented = SegmentedResultStore(tmp_path)
        assert segmented.load(digest, 7) is not None
        # And mixed layouts iterate merged, in seed order.
        segmented.put(spec, digest, 3, make_result(seed=3))
        assert [seed for seed, _ in segmented.iter_records(digest)] == [3, 7]

    def test_torn_trailing_line_skipped(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5))
        store.close()
        with open(store.segment_path, "a") as handle:
            handle.write('{"version": 1, "spec_hash": "' + digest)  # torn
        fresh = SegmentedResultStore(tmp_path, segment="w1")
        assert fresh.load(digest, 5) is not None  # intact line survives
        assert fresh.segment_record_count() == 1

    def test_undecodable_line_skipped(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5))
        store.close()
        with open(store.segment_path, "ab") as handle:
            handle.write(b"\xff\xfe\n")
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 6, make_result(seed=6))
        store.close()
        fresh = SegmentedResultStore(tmp_path, segment="w1")
        assert fresh.load(digest, 5) is not None
        assert fresh.load(digest, 6) is not None
        assert fresh.segment_record_count() == 2

    def test_refresh_parses_only_appended_lines(self, tmp_path, monkeypatch):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        reader = SegmentedResultStore(tmp_path, segment="w1")
        parsed = []

        def loads(line):
            parsed.append(line)
            return json.loads(line)

        monkeypatch.setattr(
            segstore, "json", SimpleNamespace(loads=loads, dumps=json.dumps)
        )
        assert reader.refresh() == 1
        assert parsed == []  # no new bytes: nothing parsed
        writer.put(spec, digest, 6, make_result(seed=6))
        writer.close()
        assert reader.refresh() == 2
        assert len(parsed) == 1  # just the appended record line
        assert reader.load(digest, 6) is not None

    def test_partial_line_waits_for_next_refresh(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        elsewhere = SegmentedResultStore(tmp_path / "other", segment="w0")
        elsewhere.put(spec, digest, 6, make_result(seed=6))
        elsewhere.close()
        line = elsewhere.segment_path.read_bytes().splitlines(True)[-1]
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        writer.close()
        reader = SegmentedResultStore(tmp_path, segment="w1")
        with open(writer.segment_path, "ab") as handle:
            handle.write(line[:40])
        assert reader.refresh() == 1  # the half line is not indexed...
        with open(writer.segment_path, "ab") as handle:
            handle.write(line[40:])
        assert reader.refresh() == 2  # ...until its newline lands
        assert reader.load(digest, 6) == make_result(seed=6)

    def test_shrunk_segment_rebuilds_index(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        writer.put(spec, digest, 6, make_result(seed=6))
        writer.close()
        reader = SegmentedResultStore(tmp_path, segment="w1")
        assert reader.segment_record_count() == 2
        lines = writer.segment_path.read_bytes().splitlines(True)
        writer.segment_path.write_bytes(b"".join(lines[:2]))  # spec + seed 5
        assert reader.refresh() == 1
        assert reader.load(digest, 5) is not None
        assert reader.load(digest, 6) is None

    def test_malformed_segment_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedResultStore(tmp_path, segment="../evil")

    def test_provenance_travels_in_segment(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5))
        store.put(spec, digest, 6, make_result(seed=6))
        store.close()
        lines = [
            json.loads(line)
            for line in store.segment_path.read_text().splitlines()
        ]
        specs = [line for line in lines if line.get("kind") == "spec"]
        assert len(specs) == 1  # once per hash, not per record
        assert specs[0]["spec"] == spec.to_dict()


class TestCompactStore:
    def test_compact_migrates_and_removes(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        classic = ResultStore(tmp_path)
        for seed in (3, 5):
            classic.put(spec, digest, seed, make_result(seed=seed))
        stats = compact_store(tmp_path)
        assert stats["migrated"] == 2
        assert stats["skipped"] == 0
        # Buckets are gone, segments hold everything.
        assert not (tmp_path / digest[:2]).exists()
        store = SegmentedResultStore(tmp_path)
        assert [seed for seed, _ in store.iter_records(digest)] == [3, 5]

    def test_compact_is_idempotent(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        ResultStore(tmp_path).put(spec, digest, 3, make_result(seed=3))
        assert compact_store(tmp_path)["migrated"] == 1
        again = compact_store(tmp_path)
        assert again["migrated"] == 0
        assert SegmentedResultStore(tmp_path).load(digest, 3) is not None

    def test_compact_skips_unreadable_records(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        classic = ResultStore(tmp_path)
        classic.put(spec, digest, 3, make_result(seed=3))
        classic.record_path(digest, 9).write_text("{torn")
        stats = compact_store(tmp_path)
        assert stats["migrated"] == 1
        assert stats["skipped"] == 1


class TestShardedRunner:
    """``api.run_campaign(..., shards=N)``: N worker processes writing a
    segmented store."""

    def test_full_run_then_resume_computes_zero(self, tmp_path):
        campaign = small_campaign()
        first = api.run_campaign(campaign, store=tmp_path, shards=2)
        assert first.computed == 4
        assert first.reused == 0
        second = api.run_campaign(campaign, store=tmp_path, shards=2)
        assert second.computed == 0
        assert second.reused == 4
        # Both runs merged to identical per-cell summaries.
        assert [c.summary.to_dict() for c in first.cells] == [
            c.summary.to_dict() for c in second.cells
        ]

    def test_sharded_matches_unsharded(self, tmp_path):
        campaign = small_campaign()
        sharded = api.run_campaign(
            campaign, store=tmp_path / "sharded", shards=2
        )
        plain = CampaignRunner(ResultStore(tmp_path / "plain")).run(campaign)
        assert [c.summary.to_dict() for c in sharded.cells] == [
            c.summary.to_dict() for c in plain.cells
        ]

    def test_interrupted_run_resumes_only_missing(self, tmp_path):
        # Simulate an interrupt: a prior run landed half the results
        # (one cell of two) before dying.
        api.run_campaign(half_campaign(), store=tmp_path, shards=2)
        result = api.run_campaign(small_campaign(), store=tmp_path, shards=2)
        assert result.computed == 2
        assert result.reused == 2

    def test_cancel_is_honoured_and_run_resumes(self, tmp_path):
        api.run_campaign(half_campaign(), store=tmp_path, shards=2)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            api.run_campaign(
                small_campaign(), store=tmp_path, shards=2, cancel=cancel
            )
        result = api.run_campaign(small_campaign(), store=tmp_path, shards=2)
        assert result.computed == 2
        assert result.reused == 2

    def test_identical_cells_store_equal_records(self, tmp_path):
        # Two cells with identical inputs share one content address;
        # serial and sharded runs must persist the same record for it.
        campaign = small_campaign(
            axes=[
                {
                    "name": "alloc",
                    "field": "initial_allocation",
                    "values": [
                        {"label": "first", "value": "8:8:8"},
                        {"label": "second", "value": "8:8:8"},
                    ],
                }
            ]
        )
        cells = campaign.expand()
        assert cells[0].spec_hash == cells[1].spec_hash
        serial = api.run_campaign(campaign, store=tmp_path / "a", workers=1)
        sharded = api.run_campaign(campaign, store=tmp_path / "b", shards=2)
        assert serial.computed == sharded.computed == 2
        a = api.open_store(tmp_path / "a")
        b = api.open_store(tmp_path / "b")
        for seed in cells[0].seeds:
            record = a.load_record(cells[0].spec_hash, seed)
            assert record is not None
            assert record == b.load_record(cells[0].spec_hash, seed)


class TestPlanReport:
    def test_plan_reports_axes_cells_and_size(self, tmp_path):
        campaign = small_campaign()
        runner = CampaignRunner(ResultStore(tmp_path))
        plan = runner.plan(campaign)
        assert plan.axes == (("alloc", 2),)
        assert plan.cells == 2
        assert plan.total == 4
        assert plan.estimated_store_bytes == 4 * ESTIMATED_RECORD_BYTES
        rendered = report.render_campaign_plan(campaign.name, plan)
        assert "grid: 2(alloc) = 2 cells" in rendered
        assert "estimated new store size" in rendered

    def test_cached_jobs_do_not_count_toward_size(self, tmp_path):
        campaign = small_campaign()
        api.run_campaign(campaign, store=tmp_path, shards=1)
        plan = CampaignRunner(SegmentedResultStore(tmp_path)).plan(campaign)
        assert plan.cached == 4
        assert plan.estimated_store_bytes == 0
        rendered = report.render_campaign_plan(campaign.name, plan)
        assert "estimated new store size" not in rendered
