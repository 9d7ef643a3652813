"""Tests for the acker-style tuple-tree tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MeasurementError
from repro.measurement import TupleTreeTracker


class TestBasicLifecycle:
    def test_root_only_tree(self):
        completions = []
        tracker = TupleTreeTracker(
            on_complete=lambda r, a, s: completions.append((r, s))
        )
        tracker.register_root(1, 10.0)
        sojourn = tracker.complete_one(1, 12.5)
        assert sojourn == pytest.approx(2.5)
        assert completions == [(1, 2.5)]
        assert tracker.completed == 1
        assert tracker.in_flight == 0

    def test_tree_with_children(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 0.0)
        tracker.add_pending(1, 2)  # two children
        assert tracker.complete_one(1, 1.0) is None  # root done
        assert tracker.complete_one(1, 2.0) is None  # child 1
        assert tracker.complete_one(1, 5.0) == pytest.approx(5.0)  # child 2

    def test_nested_children(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 0.0)
        tracker.add_pending(1, 1)
        tracker.complete_one(1, 1.0)  # root
        tracker.add_pending(1, 3)  # grandchildren
        tracker.complete_one(1, 2.0)  # child
        for t in (3.0, 4.0):
            assert tracker.complete_one(1, t) is None
        assert tracker.complete_one(1, 6.0) == pytest.approx(6.0)

    def test_duplicate_root_rejected(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 0.0)
        with pytest.raises(MeasurementError):
            tracker.register_root(1, 1.0)

    def test_over_completion_rejected(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 0.0)
        tracker.complete_one(1, 1.0)
        # Tree already gone: completion is a silent no-op (None).
        assert tracker.complete_one(1, 2.0) is None

    def test_pending_of(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 0.0)
        tracker.add_pending(1, 4)
        assert tracker.pending_of(1) == 5
        assert tracker.pending_of(99) is None


class TestDropsAndLimits:
    def test_drop_tree(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 0.0)
        assert tracker.drop_tree(1)
        assert tracker.dropped == 1
        assert not tracker.drop_tree(1)  # already gone
        assert tracker.complete_one(1, 5.0) is None

    def test_max_tree_size_guard(self):
        tracker = TupleTreeTracker(max_tree_size=10)
        tracker.register_root(1, 0.0)
        assert tracker.add_pending(1, 5) is False
        assert tracker.add_pending(1, 20) is True
        assert tracker.dropped == 1
        assert tracker.in_flight == 0

    def test_add_pending_on_unknown_tree_ignored(self):
        tracker = TupleTreeTracker()
        assert tracker.add_pending(42, 3) is False  # no-op, no exception
        assert tracker.in_flight == 0


class TestOldestInFlight:
    def test_empty(self):
        assert TupleTreeTracker().oldest_in_flight() is None

    def test_finds_oldest(self):
        tracker = TupleTreeTracker()
        tracker.register_root(1, 5.0)
        tracker.register_root(2, 3.0)
        tracker.register_root(3, 7.0)
        assert tracker.oldest_in_flight() == (2, 3.0)


@settings(max_examples=60, deadline=None)
@given(fanouts=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20))
def test_conservation_under_random_trees(fanouts):
    """Whatever the tree shape, exactly one completion fires, and the
    number of complete_one calls equals the number of tuples."""
    tracker = TupleTreeTracker()
    tracker.register_root(0, 0.0)
    outstanding = 1
    total_tuples = 1
    completions = 0
    fanout_iter = iter(fanouts)
    time = 0.0
    while outstanding > 0:
        children = next(fanout_iter, 0)
        tracker.add_pending(0, children)
        outstanding += children
        total_tuples += children
        time += 1.0
        result = tracker.complete_one(0, time)
        outstanding -= 1
        if result is not None:
            completions += 1
    assert completions == 1
    assert tracker.completed == 1
    assert tracker.in_flight == 0
