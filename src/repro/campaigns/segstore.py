"""Compacted, append-only segment backend for the result store.

The classic :class:`~repro.campaigns.store.ResultStore` writes one JSON
file per replication — perfect for atomic single-writer resume, fatal
for million-replication sweeps (millions of tiny files).  The
:class:`SegmentedResultStore` keeps the same content-addressed keys but
appends whole records as NDJSON lines to a handful of *segment* files
(one per writer, so concurrent writers never contend on a file), with an
in-memory index built by scanning the segments on open and extended by
:meth:`SegmentedResultStore.refresh`, which parses only the bytes
appended since the last scan.

Crash safety is inherited from the append-only discipline: a record
line is only indexed once it parses, so a write torn by a kill leaves a
trailing partial line that the next scan skips — exactly the classic
store's "parses or does not exist" contract, without a rename per
record.

The classic per-file layout stays fully readable: reads fall back to it
for any key the segments don't hold, and :func:`compact_store` converts
an existing classic store into segments in place (``repro
store-compact``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.campaigns.store import RECORD_VERSION, ResultStore
from repro.scenarios.spec import ScenarioSpec

#: Subdirectory of the store root holding segment files.
SEGMENT_DIR = "segments"


class SegmentedResultStore(ResultStore):
    """Result store writing to one append-only NDJSON segment.

    ``segment`` names this writer's segment file (service jobs pass
    their job id); concurrent writers using distinct segment names
    never contend.  All segments — plus the classic per-file layout —
    are visible to reads.
    """

    def __init__(self, root: os.PathLike, *, segment: str = "main"):
        super().__init__(root)
        if not segment or any(c in segment for c in "/\\"):
            raise ValueError(f"malformed segment name {segment!r}")
        self._segment_dir = self.root / SEGMENT_DIR
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        self._segment_path = self._segment_dir / f"{segment}.ndjson"
        self._handle = None
        self._index: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._known_specs: set = set()
        #: Segment path -> bytes already indexed (see :meth:`refresh`).
        self._offsets: Dict[Path, int] = {}
        self.refresh()

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Index records appended since the last scan; returns the
        number of indexed records.

        Each segment is read from the byte offset the last scan stopped
        at, and only complete lines are parsed: a trailing partial line
        (a write in progress, or a writer killed mid-append) waits for
        the next refresh.  A segment that shrank or vanished makes the
        whole index rebuild from the start, into a new mapping that
        replaces the old one only once complete.  Malformed and
        undecodable lines are skipped, matching the classic store's
        contract that a record either parses or does not exist.
        """
        sizes: Dict[Path, int] = {}
        for path in sorted(self._segment_dir.glob("*.ndjson")):
            try:
                sizes[path] = path.stat().st_size
            except OSError:
                continue
        index, offsets = self._index, self._offsets
        if any(sizes.get(path, -1) < end for path, end in offsets.items()):
            index, offsets = {}, {}
        for path, size in sizes.items():
            offset = offsets.get(path, 0)
            if size > offset:
                offsets[path] = offset + self._scan(path, offset, index)
        self._index, self._offsets = index, offsets
        return len(index)

    def _scan(
        self,
        path: Path,
        offset: int,
        index: Dict[Tuple[str, int], Dict[str, Any]],
    ) -> int:
        """Add the complete lines of ``path`` past ``offset`` to
        ``index``; returns the bytes consumed (through the last
        newline)."""
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return 0
        end = data.rfind(b"\n") + 1
        for line in data[:end].splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn, corrupt or undecodable line
            if (
                not isinstance(record, dict)
                or record.get("version") != RECORD_VERSION
                or "result" not in record
            ):
                continue
            spec_hash = record.get("spec_hash")
            if record.get("kind") == "spec":
                self._known_specs.add(spec_hash)
                continue
            try:
                seed = int(record["seed"])
            except (KeyError, TypeError, ValueError):
                continue
            index[(spec_hash, seed)] = record
        return end

    @property
    def segment_path(self) -> Path:
        return self._segment_path

    def segment_record_count(self) -> int:
        """Records currently indexed from segments (all writers)."""
        return len(self._index)

    def mean_record_bytes(self) -> Optional[float]:
        """Observed NDJSON bytes per indexed record, or ``None`` when the
        segments hold no records yet.  Drives the layout-aware store
        size estimate in :meth:`CampaignRunner.plan`: packed NDJSON
        lines cost their actual bytes, not a filesystem block each."""
        if not self._index:
            return None
        total = 0
        for path in self._segment_dir.glob("*.ndjson"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        if total <= 0:
            return None
        return total / len(self._index)

    # ------------------------------------------------------------------
    # read side: segments first, classic layout as fallback
    # ------------------------------------------------------------------
    def load_record(
        self, spec_hash: str, seed: int
    ) -> Optional[Dict[str, Any]]:
        record = self._index.get((spec_hash, int(seed)))
        if record is not None:
            return record
        return super().load_record(spec_hash, seed)

    def iter_records(
        self, spec_hash: str
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        seeds = {
            seed for (digest, seed) in self._index if digest == spec_hash
        }
        bucket = self._bucket(spec_hash)
        if bucket.is_dir():
            seeds.update(
                int(p.stem)
                for p in bucket.glob("*.json")
                if p.stem.lstrip("-").isdigit()
            )
        for seed in sorted(seeds):
            record = self.load_record(spec_hash, seed)
            if record is not None:
                yield seed, record

    # ------------------------------------------------------------------
    # write side: append to this writer's segment
    # ------------------------------------------------------------------
    def put(
        self,
        spec: ScenarioSpec,
        spec_hash: str,
        seed: int,
        result,
        *,
        campaign: str = "",
        cell: str = "",
        path: str = "simulated",
        provenance=None,
    ) -> Path:
        record = self._record(
            spec_hash,
            seed,
            result,
            campaign=campaign,
            cell=cell,
            path=path,
            provenance=provenance,
        )
        if spec_hash not in self._known_specs:
            # Provenance travels inside the segment (the classic layout
            # uses a spec.json per bucket; segments must not reintroduce
            # one small file per scenario).
            self._append(
                {
                    "version": RECORD_VERSION,
                    "kind": "spec",
                    "spec_hash": spec_hash,
                    "result": None,
                    "spec": spec.to_dict(),
                }
            )
            self._known_specs.add(spec_hash)
        self._append(record)
        self._index[(spec_hash, int(seed))] = record
        return self._segment_path

    def _append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self._segment_path, "a")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SegmentedResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def compact_store(root: os.PathLike, *, segment: str = "compacted") -> dict:
    """Convert a classic per-file store into the segmented layout.

    Appends every parseable classic record to ``segments/<segment>.ndjson``
    (skipping keys the segments already hold), then deletes the absorbed
    per-replication files and their emptied buckets.  Returns counts:
    ``{"migrated": n, "skipped": n, "removed_files": n}``.
    """
    root = Path(root)
    store = SegmentedResultStore(root, segment=segment)
    migrated = skipped = removed = 0
    try:
        for bucket_parent in sorted(p for p in root.iterdir() if p.is_dir()):
            if bucket_parent.name == SEGMENT_DIR:
                continue
            for bucket in sorted(p for p in bucket_parent.iterdir() if p.is_dir()):
                spec_hash = bucket.name
                spec_dict = None
                provenance = bucket / "spec.json"
                if provenance.exists():
                    try:
                        spec_dict = json.loads(provenance.read_text())
                    except (OSError, json.JSONDecodeError):
                        spec_dict = None
                absorbed = []
                for path in sorted(bucket.glob("*.json")):
                    if not path.stem.lstrip("-").isdigit():
                        continue
                    seed = int(path.stem)
                    record = ResultStore.load_record(store, spec_hash, seed)
                    if record is None:
                        skipped += 1
                        continue
                    if (spec_hash, seed) not in store._index:
                        if spec_dict is not None and spec_hash not in store._known_specs:
                            store._append(
                                {
                                    "version": RECORD_VERSION,
                                    "kind": "spec",
                                    "spec_hash": spec_hash,
                                    "result": None,
                                    "spec": spec_dict,
                                }
                            )
                            store._known_specs.add(spec_hash)
                        store._append(record)
                        store._index[(spec_hash, seed)] = record
                        migrated += 1
                    absorbed.append(path)
                # The segment holds every absorbed record (flushed line
                # by line); only then do the originals go away.
                for path in absorbed:
                    path.unlink()
                    removed += 1
                leftover = [
                    p
                    for p in bucket.glob("*.json")
                    if p.stem.lstrip("-").isdigit()
                ]
                if not leftover and provenance.exists():
                    provenance.unlink()
                    removed += 1
                if not any(bucket.iterdir()):
                    bucket.rmdir()
            if not any(bucket_parent.iterdir()):
                bucket_parent.rmdir()
    finally:
        store.close()
    return {"migrated": migrated, "skipped": skipped, "removed_files": removed}
