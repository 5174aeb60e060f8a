"""The ingest runner: cadenced batches from a source into an audited store.

:class:`IngestRunner` turns a possibly still-growing platform export
into a continuously audited TraceStore.  Every batch passes the same
three stage methods:

1. **poll** — one bounded batch of new events from the
   :class:`~repro.ingest.sources.IngestSource`, with its position token
   (and, for a :class:`~repro.ingest.sources.MergedSource`, its
   federation counters);
2. **commit** — append the batch write-through into the destination
   store (any :func:`~repro.core.store.make_store` backend) via the
   batched append path, commit, optionally snapshot
   :func:`~repro.query.trace_stats` every ``stats_cadence`` batches,
   and atomically persist an
   :class:`~repro.ingest.checkpoint.IngestCheckpoint`;
3. **audit** — with ``audit=True``, a delta-aware audit (exact batch
   verdicts, paid per new event; sharded over N partitioned workers with
   ``audit_jobs=N``), the violations *new* since the previous audited
   boundary, and the rolling report files.

``pipeline_depth`` picks the schedule.  At 0 (the default) the stages
run inline on the calling thread: :meth:`~IngestRunner.step` ingests one
batch, and :meth:`~IngestRunner.run` repeats it on the cadence.  At
N > 0, :meth:`~IngestRunner.run` overlaps them, connected by queues
holding at most N batches each:

* **poll** (``ingest-poll`` thread) — owns the source and polls on the
  configured interval *rate*;
* **commit** (the calling thread) — owns the destination store (store
  handles are not thread-safe; all access to one store stays on this
  thread);
* **audit** (``ingest-audit`` thread) — keeps a private in-memory
  *shadow* of the destination (same events, same order; the delta-audit
  contract makes verdicts backend-independent) and audits it, so verdict
  computation never touches the destination store off-thread.

Backpressure is the queue bound: when audits are slower than the export
grows, the commit stage blocks handing off, the poll queue fills, and
polling throttles.  How far the audit stage fell behind is the
**audit-lag watermark** — batches and events committed but not yet
audited — whose per-run peak lands in :class:`IngestSummary` and whose
live value rides on the stats snapshots.  The staged audit
*coalesces* by default: when it falls behind it drains every queued
batch and audits once at the newest boundary, amortising the per-audit
fixed costs over the backlog; the batches it skipped carry
``report=None``.  Every report it does emit is an exact batch-audit
verdict at that boundary, and ``coalesce_audits=False`` audits every
boundary, making the staged per-batch output equal to the inline one.

Crash safety is the commit stage's ordering: events are committed before
the checkpoint that covers them, and the checkpoint never waits for the
audit, so a kill at any point leaves the store *at or ahead of* its
checkpoint — never behind.  :meth:`IngestRunner.resume` reconciles the
gap: it seeks the source to the checkpointed position, then skips
exactly ``store.revision - checkpoint.dest_revision`` records (the
events the store absorbed after the last durable token; on the sqlite
backend the revision is the ``events.seq`` high-water mark).  Either
schedule resumes the other's checkpoint.  The differential property
suites pin the contracts: cadenced ingest + delta audit equals a
one-shot batch audit at every batch boundary, staged equals inline
batch for batch, and kill-then-resume produces a store identical to an
uninterrupted ingest.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.audit import AuditReport
from repro.core.trace import PlatformTrace, as_trace
from repro.errors import CheckpointError, IngestError
from repro.ingest.checkpoint import (
    IngestCheckpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.ingest.sources import IngestSource
from repro.query import TraceStats, trace_stats
from repro.telemetry.instruments import (
    record_ingest_stage,
    set_audit_lag,
    set_ingest_queue_depth,
)
from repro.telemetry.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.axioms import AxiomRegistry
    from repro.core.events import Event
    from repro.core.store import TraceStore
    from repro.core.violations import Violation

#: Poll granularity of every blocking queue wait in a staged run: how
#: quickly a stage notices a stop request or a peer's failure.
_TICK = 0.05

#: Queue markers of a staged run.
_FLUSH = object()
_STOPPED = object()


@dataclass(frozen=True)
class IngestBatch:
    """What one batch of an ingest accomplished."""

    #: 0-based batch number over the whole ingest (resumes continue it).
    index: int
    #: Events appended by this batch.
    events: int
    #: Destination store revision after the append.
    store_revision: int
    #: Source position after the batch (what the checkpoint recorded).
    source_position: dict[str, Any]
    #: Delta-audit report at this boundary (``None`` without ``audit``,
    #: or when a coalescing staged audit skipped this boundary).
    report: AuditReport | None = None
    #: Violations present now that were absent at the previous audited
    #: boundary.
    new_violations: "tuple[Violation, ...]" = ()
    #: Operator stats snapshot (``None`` unless the cadence hit).
    stats: TraceStats | None = None


@dataclass(frozen=True)
class IngestSummary:
    """What one :meth:`IngestRunner.run` call accomplished."""

    batches: int
    events: int
    store_revision: int
    stopped_on: str  # "max_batches" | "idle"
    report: AuditReport | None = None
    #: Peak audit lag observed during the run — how many committed
    #: batches (and the events they carried) the audit stage was behind
    #: the commit stage at its worst.  An inline run audits each batch
    #: before polling the next, so both stay 0.
    max_audit_lag_batches: int = 0
    max_audit_lag_events: int = 0


def validate_runner_options(
    batch_events: int = 256,
    stats_cadence: int = 0,
    interval: float = 0.0,
    audit_jobs: int = 1,
    pipeline_depth: int = 0,
) -> None:
    """Validate the numeric :class:`IngestRunner` options.

    Factored out so callers that must allocate resources *before*
    constructing a runner (the CLI creates the destination store first)
    can fail on bad options without leaving anything behind.
    """
    if batch_events < 1:
        raise IngestError(
            f"batch_events must be >= 1, got {batch_events}"
        )
    if stats_cadence < 0:
        raise IngestError(
            f"stats_cadence must be >= 0, got {stats_cadence}"
        )
    if interval < 0:
        raise IngestError(f"interval must be >= 0, got {interval}")
    if audit_jobs < 1:
        raise IngestError(f"audit_jobs must be >= 1, got {audit_jobs}")
    if pipeline_depth < 0:
        raise IngestError(
            f"pipeline_depth must be >= 0, got {pipeline_depth}"
        )


def validate_pipeline_options(pipeline_depth: int = 4) -> None:
    """Validate the depth of an explicitly staged run (``--pipeline``,
    :class:`PipelinedIngestRunner`), which must be at least 1."""
    if pipeline_depth < 1:
        raise IngestError(
            f"pipeline_depth must be >= 1, got {pipeline_depth}"
        )


def _violation_key(violation: "Violation") -> tuple:
    # Violation itself is unhashable: its witness is a dict.
    return (
        violation.axiom_id, violation.message, violation.time,
        tuple(violation.subjects),
    )


def _new_violations(
    current: "Sequence[Violation]", previous: "Sequence[Violation]"
) -> "tuple[Violation, ...]":
    """The violations of ``current`` with no equal one in ``previous``,
    in ``current``'s order.

    The previous violations are bucketed by a hashable key (axiom,
    message, time, subjects), so each candidate is compared with ``==``
    only against the distinct previous violations sharing its key: O(V)
    per batch rather than a scan of the whole previous report per
    violation.
    """
    buckets: "dict[tuple, list[Violation]]" = {}
    for violation in previous:
        bucket = buckets.setdefault(_violation_key(violation), [])
        if violation not in bucket:
            bucket.append(violation)
    return tuple(
        violation
        for violation in current
        if violation not in buckets.get(_violation_key(violation), ())
    )


def _verify_destination(
    store: "PlatformTrace | TraceStore", checkpoint_path: str
) -> None:
    """The ``resume(verify=True)`` gate: deep-verify the destination.

    Raises :class:`~repro.errors.IngestError` when the destination is
    not an on-disk store (nothing to sweep) or when the sweep reports
    error-level findings (a DAMAGED store must be repaired — see
    ``trace repair`` — before more events are ingested on top).
    """
    from repro.forensics import verify_store

    path = getattr(as_trace(store).store, "path", None)
    if path is None:
        raise IngestError(
            "resume(verify=True) needs an on-disk destination store; "
            f"the {as_trace(store).store.backend_name!r} backend has "
            "no path to sweep"
        )
    result = verify_store(path)
    if not result.ok:
        findings = "; ".join(
            finding.describe() for finding in result.errors[:3]
        )
        raise IngestError(
            f"destination store {path!r} is DAMAGED: "
            f"{len(result.errors)} error-level finding(s) "
            f"({findings}); refusing to resume ingest on top of "
            f"corruption — salvage it first (trace repair), or resume "
            f"without verify after checkpoint {checkpoint_path!r} is "
            "confirmed good"
        )


class _AuditLagWatermark:
    """Thread-safe committed-vs-audited counters with peak tracking."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._appended_batches = 0
        self._appended_events = 0
        self._audited_batches = 0
        self._audited_events = 0
        self.max_lag_batches = 0
        self.max_lag_events = 0

    def appended(self, batches: int, events: int) -> tuple[int, int]:
        """Record a commit; returns the lag it opened (the peak
        moment — the audit stage can only catch *up* from here)."""
        with self._lock:
            self._appended_batches += batches
            self._appended_events += events
            lag_batches = self._appended_batches - self._audited_batches
            lag_events = self._appended_events - self._audited_events
            self.max_lag_batches = max(self.max_lag_batches, lag_batches)
            self.max_lag_events = max(self.max_lag_events, lag_events)
            return lag_batches, lag_events

    def audited(self, batches: int, events: int) -> tuple[int, int]:
        """Record an audit; returns the lag remaining after it."""
        with self._lock:
            self._audited_batches += batches
            self._audited_events += events
            return (
                self._appended_batches - self._audited_batches,
                self._appended_events - self._audited_events,
            )

    def peaks(self) -> tuple[int, int]:
        with self._lock:
            return self.max_lag_batches, self.max_lag_events


class IngestRunner:
    """Pulls bounded batches from a source into an audited TraceStore.

    ``store`` is the destination — a :class:`~repro.core.trace.
    PlatformTrace` or bare :class:`~repro.core.store.TraceStore` of any
    backend.  ``batch_events`` bounds each poll; ``interval`` is the
    target polling *rate* in seconds — the poll loop sleeps only the
    remainder of the interval after each poll-and-process cycle, so a
    slow batch does not stretch the cadence (injectable ``sleep`` and
    monotonic ``clock`` for tests).  ``audit=True`` attaches a delta
    session so every batch boundary gets exact batch-audit verdicts;
    ``audit_jobs=N`` (N > 1) shards that session's per-batch audit
    into N partitions over N workers
    (:class:`~repro.shard.ShardedDeltaAuditEngine` — identical
    reports, multi-core throughput; ``audit_backend`` picks thread or
    process workers).  ``stats_cadence=N`` snapshots
    :func:`trace_stats` every N batches (0 = never).
    ``checkpoint_path`` enables crash-safe resume.
    ``report_dir``/``report_formats`` (with ``audit=True``) write
    rolling report files — one ``audit.<suffix>`` per format, via
    :func:`repro.report.export_report_files` — after every audited
    batch, so an operator always has a current dashboard next to the
    store.  ``pipeline_depth`` (0 = inline) and ``coalesce_audits``
    pick the schedule (see the module docstring).  Call :meth:`close`
    when done to release audit worker pools.
    """

    def __init__(
        self,
        source: IngestSource,
        store: "PlatformTrace | TraceStore",
        *,
        checkpoint_path: str | None = None,
        batch_events: int = 256,
        audit: bool = False,
        registry: "AxiomRegistry | None" = None,
        audit_jobs: int = 1,
        audit_backend: str = "thread",
        stats_cadence: int = 0,
        interval: float = 0.0,
        report_dir: str | None = None,
        report_formats: "Sequence[str]" = (),
        report_source: str = "",
        pipeline_depth: int = 0,
        coalesce_audits: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        validate_runner_options(
            batch_events, stats_cadence, interval, audit_jobs,
            pipeline_depth,
        )
        if report_formats and report_dir is None:
            raise IngestError(
                "report_formats without report_dir: rolling reports "
                "need a directory to land in"
            )
        if report_dir is not None:
            if not report_formats:
                raise IngestError(
                    "report_dir without report_formats: name at least "
                    "one format (csv, jsonl, md, html)"
                )
            if not audit:
                raise IngestError(
                    "rolling reports render the per-batch audit report; "
                    "they require audit=True"
                )
            from repro.report import make_exporter

            # Resolve every format now: an unknown name must fail
            # before the first batch, not mid-ingest.
            for format_name in report_formats:
                make_exporter(format_name)
        self._report_dir = report_dir
        self._report_formats = tuple(report_formats)
        self._report_source = report_source
        self._source = source
        self._described = source.describe()
        self._trace = as_trace(store)
        self._checkpoint_path = checkpoint_path
        self._batch_events = batch_events
        if audit:
            from repro.shard import make_audit_session

            self._session = make_audit_session(
                audit_jobs, backend=audit_backend, registry=registry
            )
        else:
            self._session = None
        # The trace the audit session reads: the destination inline; a
        # private in-memory shadow when staged, because the destination
        # cannot be read from the audit thread.
        self._audited = (
            PlatformTrace() if pipeline_depth and audit else self._trace
        )
        self._stats_cadence = stats_cadence
        self._interval = interval
        self._pipeline_depth = pipeline_depth
        self._coalesce = coalesce_audits
        self._sleep = sleep
        self._clock = clock
        self._batches = 0
        self._last_report: AuditReport | None = None
        self._lag = _AuditLagWatermark()
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Introspection

    @property
    def trace(self) -> PlatformTrace:
        """The destination trace (facade over the destination store)."""
        return self._trace

    @property
    def source(self) -> IngestSource:
        return self._source

    @property
    def pipeline_depth(self) -> int:
        """Stage-queue bound of a staged run (0 = inline)."""
        return self._pipeline_depth

    @property
    def batches_completed(self) -> int:
        """Completed batches over the whole ingest, resumes included."""
        return self._batches

    @property
    def report_dir(self) -> "str | None":
        """Where rolling report files land (``None`` when disabled)."""
        return self._report_dir

    @property
    def last_report(self) -> AuditReport | None:
        """The most recent delta-audit report (``None`` before the
        first audited batch or without ``audit=True``)."""
        return self._last_report

    def close(self) -> None:
        """Stop a staged run's threads and release the audit session's
        worker pools (idempotent).

        Only sharded sessions hold threads/processes; the plain delta
        session's close is a no-op, so callers can close
        unconditionally.
        """
        self._stop.set()
        close = getattr(self._session, "close", None)
        if callable(close):
            close()

    # ------------------------------------------------------------------
    # Resume

    @classmethod
    def resume(
        cls,
        source: IngestSource,
        store: "PlatformTrace | TraceStore",
        checkpoint_path: str,
        verify: bool = False,
        **options: Any,
    ) -> "IngestRunner":
        """Continue a checkpointed ingest after a stop or crash.

        Loads and verifies the resume token, refuses a token written
        for a different export, seeks the source, and reconciles the
        store-ahead-of-checkpoint window (killed after a batch commit
        but before its checkpoint write) by skipping exactly the
        already-stored records.  The result duplicates and drops
        nothing — pinned by the kill/resume differential suite.

        ``verify=True`` additionally runs the read-only deep-integrity
        sweep (:func:`repro.forensics.verify_store`) over the on-disk
        destination *before* anything is ingested, and refuses to
        resume into a store with error-level findings — resuming on
        top of silent corruption would checkpoint right past it.
        """
        checkpoint = read_checkpoint(checkpoint_path)
        if verify:
            _verify_destination(store, checkpoint_path)
        described = source.describe()
        if checkpoint.source_info != described:
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} was written for source "
                f"{checkpoint.source_info!r}, not {described!r}; refusing "
                "to resume against a different export"
            )
        trace = as_trace(store)
        actual = trace.revision
        if actual < checkpoint.dest_revision:
            raise CheckpointError(
                f"destination store holds {actual} event(s) but the "
                f"checkpoint {checkpoint_path!r} recorded "
                f"{checkpoint.dest_revision}; the store was truncated or "
                "this is the wrong destination"
            )
        source.seek(checkpoint.source_position)
        excess = actual - checkpoint.dest_revision
        if excess:
            skipped = source.skip_records(excess)
            if skipped != excess:
                raise CheckpointError(
                    f"destination store is {excess} event(s) ahead of "
                    f"checkpoint {checkpoint_path!r} but the source only "
                    f"had {skipped} record(s) past the checkpointed "
                    "position; source and store disagree"
                )
        runner = cls(
            source, trace, checkpoint_path=checkpoint_path, **options
        )
        runner._batches = checkpoint.batches
        if runner._session is not None and trace.revision:
            # Baseline the delta session on the already-ingested trace:
            # violations that existed before the kill are not "new"
            # again after it, and the first post-resume audit pays only
            # for its own batch.
            try:
                runner._catch_up_shadow()
                runner._last_report = runner._session.audit(
                    runner._audited
                )
            except BaseException:
                # The caller never sees the runner, so it could never
                # close it — release the audit worker pools here.
                runner.close()
                raise
        return runner

    def _catch_up_shadow(self) -> None:
        """Bring the audited trace level with the destination.

        Runs on the calling thread, the only one allowed to read the
        destination.  Inline the audited trace *is* the destination, so
        this is a no-op.
        """
        if self._audited.revision < self._trace.revision:
            self._audited.append_batch(
                self._trace.events_since(self._audited.revision)
            )

    # ------------------------------------------------------------------
    # The stages

    def _poll(
        self,
    ) -> "tuple[list[Event], dict[str, Any], dict | None] | None":
        """Poll one bounded batch on the thread that owns the source.

        Returns ``(events, position, source stats)``, or ``None`` when
        the source had nothing new.
        """
        recording = get_registry().enabled
        mark = time.perf_counter() if recording else 0.0
        events = self._source.poll(self._batch_events)
        if recording:
            record_ingest_stage(
                "poll", len(events), time.perf_counter() - mark
            )
        if not events:
            return None
        return events, dict(self._source.position), self._source_stats()

    def _commit(
        self,
        events: "list[Event]",
        position: dict[str, Any],
        source_stats: dict | None,
        audit_lag: dict | None = None,
    ) -> IngestBatch:
        """Append, commit, snapshot stats, and checkpoint one batch.

        Always runs on the thread that owns the destination store.  The
        commit precedes the checkpoint that covers the batch, and the
        checkpoint never waits for the audit: the crash contract.
        """
        recording = get_registry().enabled
        mark = time.perf_counter() if recording else 0.0
        self._trace.append_batch(events)
        save = getattr(self._trace.store, "save", None)
        if callable(save):
            save()
        if recording:
            now = time.perf_counter()
            record_ingest_stage("append", len(events), now - mark)
            mark = now
        index = self._batches
        self._batches += 1
        stats: TraceStats | None = None
        if self._stats_cadence and index % self._stats_cadence == 0:
            stats = trace_stats(
                self._trace, audit_lag=audit_lag, sources=source_stats
            )
        if self._checkpoint_path is not None:
            write_checkpoint(
                IngestCheckpoint(
                    source_position=position,
                    source_info=self._described,
                    dest_revision=self._trace.revision,
                    batches=self._batches,
                    metadata=(
                        {"pipelined": True} if self._pipeline_depth else {}
                    ),
                ),
                self._checkpoint_path,
            )
            if recording:
                record_ingest_stage(
                    "checkpoint", len(events), time.perf_counter() - mark
                )
        return IngestBatch(
            index=index,
            events=len(events),
            store_revision=self._trace.revision,
            source_position=position,
            stats=stats,
        )

    def _audit(
        self, group: "list[tuple[IngestBatch, Sequence[Event]]]"
    ) -> list[IngestBatch]:
        """Audit once at the newest boundary of ``group``.

        ``group`` holds committed batches with their events; an inline
        step is a group of one.  Returns the group's batches, the newest
        carrying the report and every violation new since the previous
        audited boundary.
        """
        assert self._session is not None
        recording = get_registry().enabled
        mark = time.perf_counter() if recording else 0.0
        if self._audited is not self._trace:
            for _, events in group:
                self._audited.append_batch(events)
        report = self._session.audit(self._audited)
        current = report.violations
        fresh = (
            current if self._last_report is None
            else _new_violations(current, self._last_report.violations)
        )
        self._last_report = report
        if self._report_dir is not None:
            self._write_rolling_reports(report)
        if recording:
            record_ingest_stage(
                "audit", sum(batch.events for batch, _ in group),
                time.perf_counter() - mark,
            )
        batches = [batch for batch, _ in group]
        batches[-1] = dataclasses.replace(
            batches[-1], report=report, new_violations=fresh
        )
        return batches

    def _source_stats(self) -> dict | None:
        """Federation counters when the source publishes them.

        Only :class:`~repro.ingest.sources.MergedSource` does today;
        single sources contribute nothing to the stats snapshot.
        """
        source_stats = getattr(self._source, "source_stats", None)
        if callable(source_stats):
            return source_stats()
        return None

    def _write_rolling_reports(self, report: AuditReport) -> None:
        """Re-render every configured report file from the latest audit.

        Each audited batch overwrites the previous roll, so the files
        always describe the store as of the newest audited batch.  The
        evidence context is the audited trace, so a staged render never
        reads the destination store off-thread.
        """
        from repro.report import audit_document, export_report_files

        document = audit_document(
            report, self._audited, source=self._report_source
        )
        export_report_files(
            document, self._report_dir, self._report_formats
        )

    # ------------------------------------------------------------------
    # The cadence

    def step(self) -> IngestBatch | None:
        """Ingest one batch inline; ``None`` when the source had nothing
        new."""
        if self._pipeline_depth:
            raise IngestError(
                f"a staged runner (pipeline_depth={self._pipeline_depth}) "
                "has no single-step mode: its stages only exist inside "
                "run(); use pipeline_depth=0 for step-wise ingest"
            )
        polled = self._poll()
        return None if polled is None else self._ingest(*polled)

    def _ingest(
        self,
        events: "list[Event]",
        position: dict[str, Any],
        source_stats: dict | None,
    ) -> IngestBatch:
        batch = self._commit(events, position, source_stats)
        if self._session is None:
            return batch
        return self._audit([(batch, events)])[-1]

    def run(
        self,
        *,
        max_batches: int | None = None,
        idle_limit: int | None = None,
        on_batch: Callable[[IngestBatch], None] | None = None,
    ) -> IngestSummary:
        """Ingest on the cadence until a stop condition.

        ``max_batches`` stops after that many non-empty batches;
        ``idle_limit`` stops after that many *consecutive* empty polls
        (the "caught up with a finished export" signal).  With neither,
        the runner follows the export forever — the live-tail posture.
        ``on_batch`` observes each completed batch on the calling
        thread, in batch order.  In a coalescing staged run, batches
        the audit stage skipped arrive with ``report=None`` and their
        group's newest batch carries the verdict.
        """
        if max_batches is not None and max_batches < 1:
            raise IngestError(
                f"max_batches must be >= 1, got {max_batches}"
            )
        if idle_limit is not None and idle_limit < 1:
            raise IngestError(
                f"idle_limit must be >= 1, got {idle_limit}"
            )
        self._stop = threading.Event()
        self._lag = _AuditLagWatermark()
        self._catch_up_shadow()
        batches = events = 0

        def deliver(batch: IngestBatch) -> None:
            nonlocal batches, events
            batches += 1
            events += batch.events
            if on_batch is not None:
                on_batch(batch)

        if self._pipeline_depth:
            stopped_on = self._run_staged(max_batches, idle_limit, deliver)
        else:
            stopped_on = self._poll_loop(
                max_batches, idle_limit,
                lambda *polled: deliver(self._ingest(*polled)),
            )
        lag_batches, lag_events = self._lag.peaks()
        return IngestSummary(
            batches=batches,
            events=events,
            store_revision=self._trace.revision,
            stopped_on=stopped_on,
            report=self._last_report,
            max_audit_lag_batches=lag_batches,
            max_audit_lag_events=lag_events,
        )

    def _poll_loop(
        self,
        max_batches: int | None,
        idle_limit: int | None,
        hand_off: Callable[..., None],
    ) -> "str | None":
        """Poll until a stop condition, handing off each non-empty batch.

        ``interval`` is honoured as a *rate*: after each cycle the loop
        sleeps only the part of the interval the poll and its hand-off
        did not already consume, so a slow batch is followed by the
        next poll immediately rather than a full nap on top.  Returns
        ``"max_batches"`` or ``"idle"``; ``None`` when stopped.
        """
        produced = 0
        idle = 0
        while not self._stop.is_set():
            cycle_started = self._clock()
            polled = self._poll()
            if polled is None:
                idle += 1
                if idle_limit is not None and idle >= idle_limit:
                    return "idle"
            else:
                idle = 0
                hand_off(*polled)
                produced += 1
                if max_batches is not None and produced >= max_batches:
                    return "max_batches"
            if self._interval:
                remaining = self._interval - (
                    self._clock() - cycle_started
                )
                if remaining > 0:
                    self._nap(remaining)
        return None

    def _nap(self, seconds: float) -> None:
        # A real sleep must stay interruptible so a staged shutdown is
        # prompt; an injected sleep (tests) is honoured verbatim.
        if self._sleep is time.sleep:
            self._stop.wait(seconds)
        else:
            self._sleep(seconds)

    # ------------------------------------------------------------------
    # The staged schedule

    def _run_staged(
        self,
        max_batches: int | None,
        idle_limit: int | None,
        deliver: Callable[[IngestBatch], None],
    ) -> str:
        """Commit on the calling thread while the poll and audit stages
        run on their own threads; returns the stop reason."""
        failures: list[BaseException] = []
        poll_q: "queue.Queue" = queue.Queue(maxsize=self._pipeline_depth)
        results_q: "queue.Queue" = queue.Queue()
        audit_q: "queue.Queue | None" = None
        threads = [threading.Thread(
            target=self._poll_stage,
            args=(poll_q, max_batches, idle_limit, failures),
            name="ingest-poll",
            daemon=True,
        )]
        if self._session is not None:
            audit_q = queue.Queue(maxsize=self._pipeline_depth)
            threads.append(threading.Thread(
                target=self._audit_stage,
                args=(audit_q, results_q, failures),
                name="ingest-audit",
                daemon=True,
            ))

        def deliver_ready() -> None:
            # Only this thread takes from results_q, so a non-empty
            # queue never blocks the get.
            while not results_q.empty():
                deliver(results_q.get_nowait())

        def wait(attempt: Callable[[], Any]) -> Any:
            # Retry a timed queue operation, surfacing stage failures
            # and delivering audited batches between tries.
            while True:
                if failures:
                    raise failures[0]
                deliver_ready()
                try:
                    return attempt()
                except (queue.Empty, queue.Full):
                    continue

        try:
            for thread in threads:
                thread.start()
            while True:
                polled = wait(lambda: poll_q.get(timeout=_TICK))
                if isinstance(polled, str):
                    stopped_on = polled
                    break
                events = polled[0]
                lag = self._lag.appended(1, len(events))
                audit_lag = None
                if self._session is not None:
                    set_audit_lag(*lag)
                    audit_lag = {"batches": lag[0], "events": lag[1]}
                batch = self._commit(*polled, audit_lag=audit_lag)
                if audit_q is None:
                    deliver(batch)
                else:
                    pending = (batch, events)
                    wait(lambda: audit_q.put(pending, timeout=_TICK))
            if audit_q is not None:
                wait(lambda: audit_q.put(_FLUSH, timeout=_TICK))
                auditor = threads[-1]
                while auditor.is_alive():
                    auditor.join(_TICK)
                    deliver_ready()
                # The audit stage is done: surface its failure, if any,
                # and deliver what it finished last.
                wait(lambda: None)
        finally:
            self._stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        return stopped_on

    def _worker_wait(self, attempt: Callable[[], Any]) -> Any:
        """Retry a timed queue operation from a stage thread;
        ``_STOPPED`` once a stop was requested."""
        while not self._stop.is_set():
            try:
                return attempt()
            except (queue.Empty, queue.Full):
                continue
        return _STOPPED

    def _poll_stage(
        self,
        poll_q: "queue.Queue",
        max_batches: int | None,
        idle_limit: int | None,
        failures: list[BaseException],
    ) -> None:
        def hand_off(*polled: Any) -> None:
            if self._worker_wait(
                lambda: poll_q.put(polled, timeout=_TICK)
            ) is not _STOPPED:
                set_ingest_queue_depth("poll", poll_q.qsize())

        try:
            stopped_on = self._poll_loop(max_batches, idle_limit, hand_off)
            if stopped_on is not None:
                self._worker_wait(
                    lambda: poll_q.put(stopped_on, timeout=_TICK)
                )
        except BaseException as error:
            failures.append(error)

    def _audit_stage(
        self,
        audit_q: "queue.Queue",
        results_q: "queue.Queue",
        failures: list[BaseException],
    ) -> None:
        try:
            flushing = False
            while not flushing:
                item = self._worker_wait(
                    lambda: audit_q.get(timeout=_TICK)
                )
                if item is _STOPPED:
                    return
                flushing = item is _FLUSH
                group = [] if flushing else [item]
                # Coalescing gathers up to pipeline_depth batches before
                # paying one audit at the newest boundary.  The short
                # blocking get matters: waiting releases the GIL, so the
                # commit stage runs at full speed and actually builds
                # the backlog a coalesced audit amortises — an eager
                # drain would start auditing into a near-empty queue
                # and starve the producer right back.  A tick with no
                # arrivals (source idle or slow) bounds the added
                # verdict latency.
                while (
                    self._coalesce
                    and not flushing
                    and len(group) < self._pipeline_depth
                    and not self._stop.is_set()
                ):
                    try:
                        extra = audit_q.get(timeout=_TICK)
                    except queue.Empty:
                        break
                    flushing = extra is _FLUSH
                    if not flushing:
                        group.append(extra)
                if group:
                    set_ingest_queue_depth("audit", audit_q.qsize())
                    batches = self._audit(group)
                    set_audit_lag(*self._lag.audited(
                        len(batches), sum(b.events for b in batches)
                    ))
                    for batch in batches:
                        results_q.put(batch)
        except BaseException as error:
            failures.append(error)


class PipelinedIngestRunner(IngestRunner):
    """An :class:`IngestRunner` that always stages: ``pipeline_depth``
    defaults to 4 and must be at least 1."""

    def __init__(
        self,
        source: IngestSource,
        store: "PlatformTrace | TraceStore",
        *,
        pipeline_depth: int = 4,
        **options: Any,
    ) -> None:
        validate_pipeline_options(pipeline_depth)
        super().__init__(
            source, store, pipeline_depth=pipeline_depth, **options
        )
