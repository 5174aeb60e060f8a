"""Trace analytics: summary statistics over a (possibly saved) log.

Everything here executes through :class:`~repro.query.TraceQuery` and
:func:`~repro.query.entity_event_counts`, so on the SQLite backend the
numbers come from indexed SQL aggregation and on every other backend
from one generic scan — the CLI's ``trace stats`` / ``trace info``
surface these for both on-disk formats.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import (
    ContributionReviewed,
    MaliceFlagged,
    TaskCancelled,
    TaskInterrupted,
)
from repro.core.store import TraceStore
from repro.core.trace import PlatformTrace
from repro.query.api import TraceQuery, _resolve_store, entity_event_counts


def trace_info(source: "PlatformTrace | TraceStore") -> dict:
    """Identity card of a trace: backend, size, entity counts, revision."""
    store = _resolve_store(source)
    info = {
        "backend": store.backend_name,
        "events": len(store.events),
        "revision": store.revision,
        "first_retained": store.first_retained,
        "end_time": store.end_time,
        "workers": len(store.worker_ids),
        "tasks": len(store.tasks),
        "requesters": len(store.requesters),
        "contributions": len(store.contributions),
    }
    path = getattr(store, "path", None)
    if path is not None:
        info["path"] = path
    return info


@dataclass(frozen=True)
class TraceStats:
    """Aggregate counters a platform operator would glance at first."""

    backend: str
    events: int
    end_time: int
    kind_counts: dict[str, int]
    per_worker_events: dict[str, int]
    per_task_events: dict[str, int]
    per_requester_events: dict[str, int]
    violation_adjacent: dict[str, int]
    #: Pipelined-ingest backpressure watermark at snapshot time —
    #: ``{"batches": n, "events": m}`` appended but not yet audited.
    #: ``None`` outside a pipelined ingest (including plain
    #: ``trace stats`` over a saved log).
    audit_lag: dict | None = None
    #: Federated-ingest metadata at snapshot time — the merged tail's
    #: ``source_stats()`` (per-child event counts and watermarks).
    #: ``None`` outside a merged-source ingest.
    sources: dict | None = None

    def as_dict(self) -> dict:
        document = {
            "backend": self.backend,
            "events": self.events,
            "end_time": self.end_time,
            "kind_counts": dict(self.kind_counts),
            "per_worker_events": dict(self.per_worker_events),
            "per_task_events": dict(self.per_task_events),
            "per_requester_events": dict(self.per_requester_events),
            "violation_adjacent": dict(self.violation_adjacent),
        }
        if self.audit_lag is not None:
            document["audit_lag"] = dict(self.audit_lag)
        if self.sources is not None:
            document["sources"] = dict(self.sources)
        return document

    def summary_lines(self) -> list[str]:
        def top(counts: dict[str, int], n: int = 5) -> str:
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            return ", ".join(f"{k}={v}" for k, v in ranked[:n]) or "none"

        lines = [
            f"{self.events} events over [0, {self.end_time}] "
            f"({self.backend} backend)",
            "events by kind: " + top(self.kind_counts, n=len(self.kind_counts)),
            f"busiest workers: {top(self.per_worker_events)}",
            f"busiest tasks: {top(self.per_task_events)}",
            f"busiest requesters: {top(self.per_requester_events)}",
            "violation-adjacent: " + ", ".join(
                f"{name}={count}"
                for name, count in self.violation_adjacent.items()
            ),
        ]
        if self.audit_lag is not None:
            lines.append(
                f"audit lag: {self.audit_lag.get('batches', 0)} "
                f"batch(es) ({self.audit_lag.get('events', 0)} "
                "event(s)) behind the append stage"
            )
        if self.sources is not None:
            children = self.sources.get("sources", [])
            lines.append(
                f"federated sources: {len(children)} merged, "
                f"watermark t={self.sources.get('watermark')}"
            )
            for child in children:
                lines.append(
                    f"  {child.get('kind')} {child.get('path')}: "
                    f"{child.get('events', 0)} event(s), "
                    f"watermark t={child.get('watermark')}"
                )
        return lines


def trace_stats(
    source: "PlatformTrace | TraceStore",
    *,
    audit_lag: dict | None = None,
    sources: dict | None = None,
) -> TraceStats:
    """Per-kind, per-entity, and violation-adjacent counters.

    The violation-adjacent counters are the cheap log-level signals the
    axioms formalise: silent rejections (Axiom 6 opacity), involuntary
    interruptions (Axiom 5 evidence), malice flags (Axiom 4's detector
    output), and task cancellations.  ``audit_lag`` attaches a staged
    ingest's backpressure watermark to the snapshot (an
    :class:`~repro.ingest.IngestRunner` with ``pipeline_depth > 0``;
    see :mod:`repro.ingest.runner`); ``sources`` attaches the merged
    tail's per-child federation counters (see
    :meth:`~repro.ingest.sources.MergedSource.source_stats`).
    """
    store = _resolve_store(source)
    everything = TraceQuery()
    silent_rejections = sum(
        1
        for event in everything.of_kind(ContributionReviewed).run(store)
        if not event.accepted and not event.feedback.strip()
    )
    involuntary_interruptions = sum(
        1
        for event in everything.of_kind(TaskInterrupted).run(store)
        if not event.worker_initiated
    )
    return TraceStats(
        backend=store.backend_name,
        events=len(store.events),
        end_time=store.end_time,
        kind_counts=everything.count_by_kind(store),
        per_worker_events=entity_event_counts(store, "worker"),
        per_task_events=entity_event_counts(store, "task"),
        per_requester_events=entity_event_counts(store, "requester"),
        violation_adjacent={
            "silent_rejections": silent_rejections,
            "involuntary_interruptions": involuntary_interruptions,
            "malice_flags": everything.of_kind(MaliceFlagged).count(store),
            "task_cancellations": everything.of_kind(TaskCancelled).count(store),
        },
        audit_lag=None if audit_lag is None else dict(audit_lag),
        sources=None if sources is None else dict(sources),
    )
