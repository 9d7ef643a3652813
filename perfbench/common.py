"""Shared plumbing of the benchmark: checkout paths, statistics, memory,
digests and the per-workload outcome every workload module returns.

Nothing here imports the program under test; each workload module does
that itself once :func:`require_checkout` has put ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: Root of the checkout the benchmark measures (the parent of this
#: package's directory).  Every file the benchmark reads or writes lies
#: under it.
ROOT = Path(__file__).resolve().parents[1]

#: Scratch area for stores, specs and job queues.  Listed in the root
#: ``.gitignore``; each run makes and removes its own subdirectory.
WORK_ROOT = ROOT / ".perfbench_work"


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no program source)."""


def require_checkout() -> None:
    """Put the checkout's ``src`` on ``sys.path``, or refuse to run.

    The benchmark measures the program of the checkout it sits in; in a
    directory without that source there is nothing to measure, and the
    run must fail rather than import some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Child processes (shard workers, CLI subprocesses) import the same
    # source tree.
    paths = [str(src)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))


class WorkDir:
    """A fresh scratch directory under :data:`WORK_ROOT`, removed on exit.

    Emptied on entry too, in case a killed run left it behind.
    """

    def __init__(self, name: str):
        self.path = WORK_ROOT / name

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when empty
        except OSError:
            pass


def fresh_dir(parent: Path, name: str) -> Path:
    """``parent/name``, emptied if it exists (a cold store each time)."""
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def filesystem_type(path: Path) -> str:
    """The mount type (``ext4``, ``tmpfs``, ...) holding ``path``.

    Store-heavy numbers depend on it (page-cache writes on a virtual
    disk are several times noisier than on tmpfs), so it is printed
    with every result.
    """
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# outcome
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run reports.

    ``attempted``/``failed`` count the workload's distinct operations
    (see each workload module).  ``correct`` is false when an output
    check fails: a wrong answer, a result that does not repeat, a store
    that lost a record.  Operations that fail in a way the workload
    defines as a failure are counted in ``failed`` instead.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, ok: bool, problem: str) -> None:
        """Record an output check; a failed one makes the run incorrect."""
        if not ok:
            self.correct = False
            self.problems.append(problem)

    def result_line(self, names: Sequence[str]) -> str:
        """The result object with the metrics ``names``, as one JSON line."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in names},
        })


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Seconds one probe loop takes on the reference host (a 2-core
#: Firecracker VM, CPython 3.11.7) when no other tenant slows it.
REFERENCE_PROBE_S = 0.009
#: The same while two worker processes keep both of its cores busy.
REFERENCE_BUSY_PROBE_S = 0.016
#: Pause between probes taken while worker processes run.
BUSY_PROBE_GAP_S = 0.3


def _probe_loop() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - started


class HostSpeed:
    """How fast the host runs now, against the undisturbed reference host.

    On a shared VM the same code runs up to ~30% slower for seconds at a
    time while other tenants are busy (README.md, "Host speed").  A
    fixed pure-Python loop, timed between chunks of work, tracks that
    swing.  Each chunk's times are scaled by the reference probe time
    over the mean of the probes on either side of it, so they read as
    they would on the undisturbed reference host.
    """

    def __init__(self):
        self.probes = [self._probe()]
        self.busy_probes: List[float] = []

    @staticmethod
    def _probe() -> float:
        return median([_probe_loop() for _ in range(3)])

    def factor(self) -> float:
        """Probe again; the scale for the work done since the last probe."""
        self.probes.append(self._probe())
        return 2.0 * REFERENCE_PROBE_S / (self.probes[-2] + self.probes[-1])

    def timed_busy(self, fn, *args, **kwargs):
        """``(result, host-adjusted seconds)`` of a call that waits while
        worker processes keep both cores busy for several seconds.

        Probes at its two ends would miss most of the swings in so long
        a call, so a thread probes throughout it instead.  Those probes
        share the cores with the workers, hence their own reference.
        """
        busy: List[float] = []
        stop = threading.Event()

        def sample():
            while not stop.wait(BUSY_PROBE_GAP_S):
                busy.append(_probe_loop())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            result, seconds = timed(fn, *args, **kwargs)
        finally:
            stop.set()
            sampler.join()
        busy = busy or [_probe_loop()]
        self.busy_probes.append(median(busy))
        return result, seconds * REFERENCE_BUSY_PROBE_S / median(busy)


def batch_metrics(outcome: Outcome, work: float, walls: Sequence[float]) -> None:
    """Throughput and latency of a workload whose operation is one batch
    (a cold campaign run): ``work`` units per batch, one (host-adjusted)
    wall per batch.

    A run holds a handful of batches, too few for any percentile to
    have ten samples beyond it; the tail reported is the upper quartile,
    which the slowest batch alone does not set.
    """
    outcome.metric("throughput_per_s", median([work / w for w in walls]), "1/s")
    outcome.metric("latency_p50_ms", median(walls) * 1e3, "ms")
    outcome.metric("latency_tail_ms", percentile(walls, 75.0) * 1e3, "ms")
    outcome.details["latency_tail"] = f"p75 of {len(walls)}"


def request_metrics(
    outcome: Outcome, samples: Sequence[float], wall: float, tail_q: float
) -> None:
    """Throughput and latency of a closed loop of ``len(samples)``
    requests (seconds each) taking ``wall`` seconds in all."""
    if len(samples) * (1.0 - tail_q / 100.0) < 10.0:  # ten beyond the tail
        raise ValueError(f"{len(samples)} samples cannot support p{tail_q:g}")
    outcome.metric("throughput_per_s", len(samples) / wall, "1/s")
    outcome.metric("latency_p50_ms", median(samples) * 1e3, "ms")
    outcome.metric("latency_tail_ms", percentile(samples, tail_q) * 1e3, "ms")
    outcome.details["latency_tail"] = f"p{tail_q:g} of {len(samples)}"


#: Runs of each CLI command per benchmark run.
CLI_REPEATS = 5


def repro_cli(
    outcome: Outcome, argv: Sequence[str], *, expected: Any = None
) -> List[float]:
    """Host-adjusted wall seconds of :data:`CLI_REPEATS` runs of
    ``python -m repro <argv>``.

    Each run must exit 0; when ``expected`` is given, its standard
    output must be that JSON value.
    """
    host = HostSpeed()
    walls = []
    for _ in range(CLI_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        walls.append((time.perf_counter() - started) * host.factor())
        outcome.check(proc.returncode == 0,
                      f"repro {argv[0]} exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}")
        if expected is not None and proc.returncode == 0:
            same = json.loads(proc.stdout) == json.loads(json.dumps(expected))
            outcome.check(same, f"repro {argv[0]} output differs from the API")
    return walls


# ----------------------------------------------------------------------
# memory, digests, timing
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set reached by this process or any child it
    waited for (shard workers, CLI subprocesses), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(payload: Any) -> str:
    """Short SHA-256 of ``payload``'s canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def run_count(seconds: float, nominal_s: float, minimum: int) -> int:
    """How many operations make a run of about ``seconds`` seconds.

    The count follows from ``seconds`` and the operation's nominal cost
    on the reference host, not from the clock, so every run of a
    workload does the same work: a faster commit gets no extra samples,
    and a slow host lengthens the run instead of thinning it.
    """
    return max(minimum, round(seconds / nominal_s))
