"""The run context every workload drives: rounds, phases and timed
operations.

A run is a closed loop with one client: each operation starts only
after the previous one returned.  Operations come in *rounds* -- the
same operation sequence every time.  A workload states how long one
round takes at nominal speed, and a run makes ``--seconds`` divided by
that many rounds (at least one): about ``--seconds`` of adjusted time,
and the same rounds however fast the machine runs that day.  A plain
run is one phase; a traced run spends the first half of its rounds
untraced and the second half traced, so the tracing overhead is the
difference between the two halves.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from e2ebench.measure import NOMINAL_REF_S, SETUP_REF_SAMPLES, Op, OpLog
from e2ebench.tracing import Tracer, install


def counter_total(snapshot: dict, name: str, **labels: str) -> float:
    """Sum of a counter family's samples whose labels match."""
    family = snapshot.get(name, {"samples": []})
    return sum(
        sample["value"] for sample in family["samples"]
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disk_bytes(*paths: str) -> int:
    """Total size of the given files and directory trees."""
    total = 0
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                total += sum(os.path.getsize(os.path.join(root, name))
                             for name in files)
        elif os.path.exists(path):
            total += os.path.getsize(path)
    return total


@dataclass
class Outcome:
    """What a workload hands back after its last round."""

    peak_rss_mb: float
    store_bytes_per_event: float
    #: Per-layer figures the workload measured itself (client side).
    layer_extra: dict = field(default_factory=dict)
    #: Spans and counts recorded in another process, already mapped to
    #: this process's operation ids.
    foreign_spans: list = field(default_factory=list)
    foreign_counts: dict = field(default_factory=dict)


class Context:
    """Seed, budget, operation log and tracing state of one run."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: str, process_start: float, first_ref: float,
                 round_s: float) -> None:
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.log = OpLog()
        self.tracer: Tracer | None = None
        self.failures: list[str] = []
        self._started = process_start
        self._setup_refs: list[float] = [first_ref]
        self.setup_raw_s: float | None = None
        self.setup_factor = 1.0
        #: Phase each operation ran in: "plain" or "traced".
        self.op_phase: dict[int, str] = {}
        self._phase = "plain"
        self._rounds_per_phase = max(
            1, round(seconds / (2 if trace else 1) / round_s))
        self._rounds_left = self._rounds_per_phase
        self._open: tuple[int, float] | None = None
        self._paused = 0.0

    # ------------------------------------------------------------------
    # Set-up

    def setup_reference(self) -> None:
        """Reference samples for the set-up's speed factor; call only
        while no program thread or child process is working.  The
        set-up has few such moments, so each takes several samples."""
        self._setup_refs.append(statistics.median(
            self.log.reference() for _ in range(SETUP_REF_SAMPLES)))

    def _finish_setup(self) -> None:
        self.setup_reference()
        self.setup_raw_s = time.perf_counter() - self._started
        self.setup_factor = NOMINAL_REF_S / (
            sum(self._setup_refs) / len(self._setup_refs))

    # ------------------------------------------------------------------
    # Rounds and phases

    def next_round(self) -> str | None:
        """The phase the next round runs in, or ``None`` when the run's
        rounds are done.  Switching to the traced phase installs the
        wrappers in this process."""
        if self._rounds_left:
            self._rounds_left -= 1
            return self._phase
        if self.trace and self._phase == "plain":
            self._phase = "traced"
            self._rounds_left = self._rounds_per_phase - 1
            self.tracer = install(Tracer())
            return self._phase
        return None

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    # ------------------------------------------------------------------
    # Timed operations

    def begin_op(self) -> float:
        """Start a timed operation; returns its start time."""
        if self.setup_raw_s is None:
            self._finish_setup()
        else:
            self.log.maybe_reference()
        op_id = len(self.log.ops)
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        self._open = (op_id, start)
        return start

    @contextlib.contextmanager
    def untimed(self):
        """Untimed work inside an operation (an independent check): its
        time is subtracted and its spans belong to no operation."""
        op = self.tracer.op if self.tracer is not None else None
        if self.tracer is not None:
            self.tracer.op = None
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.op = op

    def end_op(self, events: int, verdict_s: float | None = None) -> Op:
        """Close the operation begun last."""
        end = time.perf_counter()
        op_id, start = self._open
        self._open = None
        if self.tracer is not None:
            self.tracer.op = None
        raw = end - start - self._paused
        self._paused = 0.0
        self.op_phase[op_id] = self._phase
        return self.log.add(Op(start=start, end=end, raw_s=raw,
                               events=events, verdict_s=verdict_s))

    def close_log(self) -> None:
        """A final reference sample, so the last operation is bracketed."""
        self.log.reference()
