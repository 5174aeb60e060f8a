"""Timing arithmetic shared by every workload: percentiles, the speed
reference, and the speed-adjusted operation log.

The 2-core virtual machine this benchmark was written on changed speed
by up to 1.4x between 10-second windows, so a raw wall-clock figure
mostly measures the machine.  Each run therefore times a fixed
pure-Python reference loop between operations and scales every
operation by ``NOMINAL_REF_S / reference``: the time the operation
would have taken on a machine whose reference loop takes
``NOMINAL_REF_S``.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field

#: Iterations of the reference loop (about 1 ms on the machine the
#: benchmark was written on).
REF_ITERATIONS = 3500

#: Repetitions per reference sample; the median drops one interrupted
#: repetition.
REF_REPEATS = 3

#: The reference loop's time on the nominal machine.  Adjusted times
#: are raw times rescaled to this speed.
NOMINAL_REF_S = 0.0007

#: Between operations, a reference sample is taken when this many
#: seconds have passed since the last one.
REF_EVERY_S = 0.1

#: Reference samples within this many seconds of an operation's
#: interval are averaged into its speed factor.
REF_WINDOW_S = 0.5

#: Reference samples per set-up reference point (their median counts).
SETUP_REF_SAMPLES = 5

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``q``-quantile."""
    return count - math.ceil(q * count)


def tail_percentile(values, q: float) -> float:
    """``percentile(values, q)``, refused unless at least
    :data:`MIN_BEYOND` samples lie beyond it -- with fewer, the figure
    would describe a handful of samples, not a tail."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has only {beyond} "
            f"beyond it; need {MIN_BEYOND}"
        )
    return percentile(values, q)


#: The reference loop's data: a str-keyed table of about 150 KB and a
#: small int-keyed one.  Lookups make the loop slow down with cache
#: contention as the program does (small-int arithmetic alone tracked
#: the program's speed half as well); the table fits the per-core cache
#: so the loop's speed hangs little on where the table lands in memory
#: (a 3 MB table's median speed differed by up to 24% between fresh
#: processes, this one's by 9%).  Built once; nothing here is tracked
#: by the garbage collector.
_TABLE = {f"key{i}": i for i in range(2048)}
_SMALL = {i: i for i in range(256)}
_KEYS = tuple(f"key{(i * 7919) % 2048}" for i in range(REF_ITERATIONS))


def _reference_loop() -> int:
    table, small, keys = _TABLE, _SMALL, _KEYS
    x = 0
    for i in range(REF_ITERATIONS):
        x = (x + table[keys[i]] + small[i & 255]) & 0xFFFFF
    return x


def reference_s() -> float:
    """One reference sample: the median of :data:`REF_REPEATS` timed
    reference loops, run with the garbage collector paused.

    An untimed pass first brings the table back into cache, so the
    sample does not depend on how much of it the program's last
    operation evicted: the reference measures the machine, not the
    program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_loop()
        samples = []
        for _ in range(REF_REPEATS):
            started = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def speed_factor(refs, start: float, end: float,
                 window: float = REF_WINDOW_S) -> float:
    """``NOMINAL_REF_S`` divided by the mean reference sample around
    ``[start, end]``.

    ``refs`` is a time-ordered list of ``(taken_at, seconds)``.  Samples
    taken within ``window`` seconds of the interval count; when there
    are none, the nearest sample on each side does.
    """
    near = [value for at, value in refs
            if start - window <= at <= end + window]
    if not near:
        before = [value for at, value in refs if at < start]
        after = [value for at, value in refs if at > end]
        near = before[-1:] + after[:1]
    if not near:
        raise ValueError("no reference sample to adjust by")
    return NOMINAL_REF_S / (sum(near) / len(near))


@dataclass
class Op:
    """One timed operation of a workload."""

    start: float
    end: float
    raw_s: float
    events: int
    #: Verdict latency (start of the operation to its visible verdict);
    #: defaults to ``raw_s``.
    verdict_s: float | None = None
    extra: dict = field(default_factory=dict)


class OpLog:
    """Timed operations plus the reference samples taken between them.

    Call :meth:`reference` only while the program under test is idle:
    between operations, never during one.  :meth:`maybe_reference`
    rate-limits the samples so short operations are not dominated by
    the reference loop.
    """

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.refs: list[tuple[float, float]] = []

    def reference(self) -> float:
        value = reference_s()
        self.refs.append((time.perf_counter(), value))
        return value

    def maybe_reference(self) -> None:
        if not self.refs or (
            time.perf_counter() - self.refs[-1][0] >= REF_EVERY_S
        ):
            self.reference()

    def add(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    def factor(self, op: Op) -> float:
        return speed_factor(self.refs, op.start, op.end)

    def adjusted(self) -> list[tuple[Op, float]]:
        """Each operation with its speed factor."""
        return [(op, self.factor(op)) for op in self.ops]

    @property
    def timed_s(self) -> float:
        return sum(op.raw_s for op in self.ops)


def process_age_s() -> float:
    """Seconds since this process started (interpreter start-up
    included), from ``/proc``; 0.0 where that is unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/uptime", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - started)


def summarize(log: OpLog, setup_raw_s: float, setup_factor: float,
              peak_rss_mb: float, store_bytes_per_event: float) -> dict:
    """The end-to-end metrics of one run, adjusted and raw.

    Returns ``{"metrics": {...}, "raw": {...}}``; ``metrics`` holds the
    adjusted values the benchmark reports.
    """
    adjusted = log.adjusted()
    if not adjusted:
        raise ValueError("no timed operation completed")
    events = sum(op.events for op, _ in adjusted)
    op_adj = sum(op.raw_s * factor for op, factor in adjusted)
    verdicts_adj = [
        (op.verdict_s if op.verdict_s is not None else op.raw_s) * factor
        for op, factor in adjusted
    ]
    verdicts_raw = [
        op.verdict_s if op.verdict_s is not None else op.raw_s
        for op, _ in adjusted
    ]
    metrics = {
        "setup_s": setup_raw_s * setup_factor,
        "events_per_s": events / op_adj,
        "verdict_p50_ms": percentile(verdicts_adj, 0.5) * 1e3,
        "verdict_p90_ms": tail_percentile(verdicts_adj, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "store_bytes_per_event": store_bytes_per_event,
    }
    raw = {
        "setup_s": setup_raw_s,
        "events_per_s": events / log.timed_s,
        "verdict_p50_ms": percentile(verdicts_raw, 0.5) * 1e3,
        "verdict_p90_ms": tail_percentile(verdicts_raw, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "store_bytes_per_event": store_bytes_per_event,
    }
    return {"metrics": metrics, "raw": raw}
