"""Pure helpers shared by the benchmark's processes.

Nothing here imports ``repro``: percentiles, spreads, span self-time
arithmetic, provenance and the calibration kernel must work (and be
testable) without the library on the path.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import time
from importlib import metadata
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the tail is one or two unlucky requests.
MIN_BEYOND = 10

#: ``(span id, parent id, name, start, end)``; parent 0 means top level.
Span = Tuple[int, int, str, float, float]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None when fewer than ``min_beyond``
    samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which :func:`percentile` reports ``q``."""
    n = 1
    while n - max(1, math.ceil(q * n)) < min_beyond:
        n += 1
    return n


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for sid, _parent, _name, start, end in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        ]
        out[sid] = (end - start) - union_length(clipped)
    return out


def _kernel(steps: int) -> int:
    """The fixed pure-Python calibration loop: ``steps`` integer and dict
    steps, the kind of work the library's Python code does."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(steps):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc


def calibration_score(rounds: int = 3) -> float:
    """Millions of kernel steps per second (best of ``rounds``), recorded
    beside every result so numbers can be compared across hosts."""
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        _kernel(300_000)
        best = min(best, time.perf_counter() - start)
    return 0.3 / best


#: Kernel speed (million steps per second) that defines a reference
#: second; about what a 2-CPU cloud host gives when nothing else contends.
REFERENCE_MOPS = 10.0

#: Kernel steps per chunk of a gauge window (about 1 ms).
GAUGE_CHUNK = 5_000

#: A gauge window taken on its own, before or after a unit of work.
GAUGE_WINDOW_S = 0.1

#: During a timed pass, a timer signal takes a short window this often.
GAUGE_EVERY_S = 0.25
GAUGE_SLICE_S = 0.01


def gauge_mops(window_s: float) -> float:
    """The host's speed right now: kernel steps per second (in millions)
    over a window of at least ``window_s`` seconds."""
    steps = 0
    start = time.perf_counter()
    while True:
        _kernel(GAUGE_CHUNK)
        steps += GAUGE_CHUNK
        elapsed = time.perf_counter() - start
        if elapsed >= window_s:
            return steps / elapsed / 1e6


def gauge_cpus_mops(window_s: float) -> float:
    """Mean kernel speed over every CPU this process may run on: a window
    of ``window_s / ncpu`` pinned to each in turn (the CPUs of one host
    can run at different speeds at the same moment)."""
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.append(gauge_mops(window_s / len(cpus)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(speeds)


class PassGauge:
    """Gauges the host's speed all through a stretch of work.

    Inside the ``with`` block a ``SIGALRM`` timer runs a short kernel
    window every :data:`GAUGE_EVERY_S` (Python runs the handler between
    bytecodes, never inside a C call); the program's state is not
    touched.
    ``gauged_s`` is the time those windows took, to be taken out of the
    work's wall time, and ``mops`` the mean speed they saw, including the
    ``before`` window taken just ahead of the block.
    """

    def __init__(self, before: float) -> None:
        self.samples: List[float] = [before]
        self.gauged_s = 0.0
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(gauge_mops(GAUGE_SLICE_S))
        self.gauged_s += time.perf_counter() - start

    def __enter__(self) -> "PassGauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mops(self) -> float:
        return statistics.fmean(self.samples)


def reference_s(seconds: float, mops: float) -> float:
    """Seconds measured while the kernel ran at ``mops``, expressed as
    seconds on a host where it runs at :data:`REFERENCE_MOPS`.

    The shared hosts this benchmark runs on change speed by up to 2x
    within minutes (other tenants); a slower program is slower against
    the kernel too, a slower host is not."""
    return seconds * mops / REFERENCE_MOPS


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def git_commit(root: str) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(root: str, workload: str, seed: int) -> Dict[str, object]:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "calibration_mops": round(calibration_score(), 4),
    }
