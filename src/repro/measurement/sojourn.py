"""Tuple-tree completion tracking — measuring the total sojourn time.

The paper defines an external tuple *t* as *fully processed* when every
intermediate result derived from *t* has been processed by its operator,
and measures the **total sojourn time** from t's arrival to that point.
Storm implements this with its acknowledgement mechanism; we implement
the same idea: every derived tuple carries its root's id, a per-root
counter tracks outstanding descendants, and when it reaches zero the
tree is complete.

Feedback loops are supported naturally — a loop-back tuple is just
another descendant — provided loop gains < 1 make trees finite almost
surely.  A configurable ``max_tree_size`` guards against runaway trees
(diagnosing an unstable loop rather than exhausting memory).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import MeasurementError


class TupleTreeTracker:
    """Acker-style tracker of external-tuple processing trees.

    Usage from the simulator::

        tracker.register_root(root_id, arrival_time)
        tracker.add_pending(root_id, n_children)   # on each emission
        tracker.complete_one(root_id, now)         # on each tuple processed

    When a root's outstanding count drops to zero the tree is complete;
    the sojourn time is reported to the ``on_complete`` callback and the
    root's state is discarded.
    """

    def __init__(
        self,
        on_complete: Optional[Callable[[int, float, float], None]] = None,
        max_tree_size: int = 1_000_000,
    ):
        if max_tree_size < 1:
            raise MeasurementError("max_tree_size must be >= 1")
        self._on_complete = on_complete
        self._max_tree_size = max_tree_size
        # root id -> [arrival_time, outstanding_count, tree_size]
        self._roots: Dict[int, List[float]] = {}
        self._completed = 0
        self._dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def register_root(self, root_id: int, arrival_time: float) -> None:
        """Start tracking an external tuple (with itself pending)."""
        if root_id in self._roots:
            raise MeasurementError(f"duplicate root id {root_id}")
        self._roots[root_id] = [arrival_time, 1, 1]

    def add_pending(self, root_id: int, count: int) -> bool:
        """Record that ``count`` new descendants of ``root_id`` now exist.

        Returns True when the growth pushed the tree past
        ``max_tree_size`` and dropped it (callers holding per-tree
        resources release them then).
        """
        if count < 0:
            raise MeasurementError(f"count must be >= 0, got {count}")
        state = self._roots.get(root_id)
        if state is None:
            return False  # tree no longer tracked (completed or dropped)
        state[1] += count
        state[2] += count
        if state[2] > self._max_tree_size:
            # An exploding tree means an unstable feedback loop; drop it
            # and count the drop so callers can alert on it.
            del self._roots[root_id]
            self._dropped += 1
            return True
        return False

    def complete_one(self, root_id: int, now: float) -> Optional[float]:
        """Record that one tuple of tree ``root_id`` finished processing.

        Returns the total sojourn time when this completes the tree,
        else ``None``.
        """
        state = self._roots.get(root_id)
        if state is None:
            return None
        state[1] -= 1
        if state[1] < 0:
            raise MeasurementError(
                f"tree {root_id} completed more tuples than were pending"
            )
        if state[1] > 0:
            return None
        arrival = state[0]
        del self._roots[root_id]
        sojourn = now - arrival
        self._completed += 1
        if self._on_complete is not None:
            self._on_complete(root_id, arrival, sojourn)
        return sojourn

    def drop_tree(self, root_id: int) -> bool:
        """Abandon a tree (e.g. a queue-limit drop); returns True if it
        was still tracked."""
        if root_id in self._roots:
            del self._roots[root_id]
            self._dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Number of trees still being tracked."""
        return len(self._roots)

    @property
    def completed(self) -> int:
        """Trees completed since construction."""
        return self._completed

    @property
    def dropped(self) -> int:
        """Trees dropped for exceeding ``max_tree_size``."""
        return self._dropped

    def pending_of(self, root_id: int) -> Optional[int]:
        """Outstanding tuple count of a tree, or ``None`` if untracked."""
        state = self._roots.get(root_id)
        return None if state is None else int(state[1])

    def oldest_in_flight(self) -> Optional[Tuple[int, float]]:
        """(root_id, arrival_time) of the oldest tracked tree, if any.

        Lets the controller detect *building* latency before any slow
        tree completes (completed-tree statistics lag under overload).
        """
        if not self._roots:
            return None
        root_id = min(self._roots, key=lambda r: self._roots[r][0])
        return root_id, self._roots[root_id][0]

    def __repr__(self) -> str:
        return (
            f"TupleTreeTracker(in_flight={len(self._roots)},"
            f" completed={self._completed}, dropped={self._dropped})"
        )
