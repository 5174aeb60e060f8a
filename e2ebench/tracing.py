"""Traced mode: spans around the program's public calls, from outside.

:func:`install` wraps the public entry points of every layer (ingest,
store, audit engines and axioms, shard, query, report, forensics,
service) with span recorders; nothing under ``src/`` changes.  A span
is ``(id, name, start, end, parent, op)``: ``parent`` is the enclosing
span on the same thread (0 at top level) and ``op`` the benchmark
operation that was running when it opened.  Spans stay in memory and
are written out once, when the run ends.

:func:`layer_metrics` turns spans and counters into the per-layer
figures: self time (a span's duration minus the part of it its child
spans cover) and counts, each per timed operation and speed-adjusted
by that operation's factor.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: Per-layer metrics, in report order: ``name -> unit``.  Times are
#: speed-adjusted self seconds per timed operation; counts are per
#: timed operation.
PER_LAYER: dict[str, str] = {
    "ingest.poll_s": "s/op",
    "ingest.checkpoint_s": "s/op",
    "ingest.fsyncs": "count/op",
    "ingest.runner_self_s": "s/op",
    "ingest.violations_compared": "count/op",
    "ingest.new_violations": "count/op",
    "store.append_s": "s/op",
    "store.commit_s": "s/op",
    "store.open_s": "s/op",
    "store.events_appended": "count/op",
    "audit.delta_s": "s/op",
    "audit.batch_s": "s/op",
    **{f"audit.axiom{k}_s": "s/op" for k in range(1, 8)},
    "audit.axiom2_pairs_walked": "count/op",
    "audit.axiom2_opportunities": "count/op",
    "shard.audit_s": "s/op",
    "shard.merge_s": "s/op",
    "query.calls": "count/op",
    "query.s": "s/op",
    "query.stats_s": "s/op",
    "report.document_s": "s/op",
    "report.render_s": "s/op",
    "report.render.csv_s": "s/op",
    "report.render.jsonl_s": "s/op",
    "report.render.md_s": "s/op",
    "report.render.html_s": "s/op",
    "report.bytes": "bytes/op",
    "forensics.verify_s": "s/op",
    "service.append_ms": "ms",
    "service.audit_ms": "ms",
    "service.watch_ms": "ms",
    "service.query_ms": "ms",
    "service.dispatch_s": "s/op",
    "service.tenant_append_s": "s/op",
    "service.tenant_audit_s": "s/op",
    "service.transport_s": "s/op",
    "service.requests": "count/op",
    "runtime.gc_s": "s/op",
    "runtime.gc_collections": "count/op",
    "runtime.ref_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Span name -> per-layer metric its self time adds to.
SPAN_METRICS: dict[str, str] = {
    "ingest.poll": "ingest.poll_s",
    "ingest.checkpoint": "ingest.checkpoint_s",
    "ingest.step": "ingest.runner_self_s",
    "store.append": "store.append_s",
    "store.commit": "store.commit_s",
    "store.open": "store.open_s",
    "audit.delta": "audit.delta_s",
    "audit.batch": "audit.batch_s",
    **{f"audit.axiom{k}": f"audit.axiom{k}_s" for k in range(1, 8)},
    "shard.audit": "shard.audit_s",
    "shard.merge": "shard.merge_s",
    "query": "query.s",
    "query.stats": "query.stats_s",
    "report.document": "report.document_s",
    **{f"report.render.{sink}": f"report.render.{sink}_s"
       for sink in ("csv", "jsonl", "md", "html")},
    "forensics.verify": "forensics.verify_s",
    "service.dispatch": "service.dispatch_s",
    "service.tenant_append": "service.tenant_append_s",
    "service.tenant_audit": "service.tenant_audit_s",
}

_MISSING = object()


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent, op)`` tuples, closed spans.
        self.spans: list[tuple] = []
        #: ``(name, op) -> amount``.
        self.counts: dict[tuple[str, object], float] = defaultdict(float)
        #: The running benchmark operation (``None`` between operations).
        self.op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def enter(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        return (span_id, name, time.perf_counter(), parent, self.op)

    def exit(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, name, start, parent, op = token
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, op))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[(name, self.op)] += amount

    # ------------------------------------------------------------------
    # Wrapping

    def traced(self, fn, name, on_result=None):
        """``fn`` recorded as a span; ``name`` is a string or a function
        of the call's positional arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            token = tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(token)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering what to restore."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        self.patch(owner, attr,
                   self.traced(getattr(owner, attr), name, on_result))

    def uninstall(self) -> None:
        """Restore every patched attribute and drop the gc callback."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        key = threading.get_ident()
        if phase == "start":
            self._gc_started[key] = now
            return
        started = self._gc_started.pop(key, None)
        if started is not None:
            self.count("runtime.gc_s", now - started)
            self.count("runtime.gc_collections")

    # ------------------------------------------------------------------
    # Output

    def dump(self, path: str, process: str) -> None:
        """Write the spans and counters as JSON lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {"process": process, "span": list(span)}) + "\n")
            for (name, op), amount in sorted(
                    self.counts.items(), key=lambda item: str(item[0])):
                handle.write(json.dumps(
                    {"process": process, "count": [name, op, amount]})
                    + "\n")


def load_dump(path: str) -> tuple[list[tuple], dict]:
    """Read back :meth:`Tracer.dump` output."""
    spans: list[tuple] = []
    counts: dict[tuple[str, object], float] = defaultdict(float)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "span" in record:
                spans.append(tuple(record["span"]))
            else:
                name, op, amount = record["count"]
                counts[(name, op)] += amount
    return spans, counts


def install(tracer: Tracer) -> Tracer:
    """Wrap the program's public calls of every layer with spans."""
    import repro.core.axiom_assignment as axiom_assignment
    import repro.ingest.checkpoint as checkpoint_module
    import repro.ingest.runner as runner_module
    import repro.query as query_package
    import repro.query.api as query_api
    import repro.query.stats as query_stats
    import repro.report as report_package
    import repro.report.context as report_context
    import repro.service.routers.query as service_query
    import repro.shard.engine as shard_engine
    import repro.core.store as store_package
    import repro.service.tenants as tenants_module
    import repro.forensics as forensics_package
    import repro.forensics.verify as verify_module
    from repro.core.audit import AuditEngine, DeltaAuditEngine
    from repro.core.axioms import default_registry
    from repro.core.store.base import TraceStore
    from repro.core.store.persistent import PersistentTraceStore
    from repro.core.store.sqlite import SQLiteTraceStore
    from repro.ingest.runner import IngestRunner
    from repro.ingest.sources import JSONLExportSource
    from repro.report.base import REPORT_FORMATS
    from repro.service.app import ServiceApp
    from repro.service.tenants import Tenant
    from repro.shard import checkers as shard_checkers
    from repro.shard.engine import ShardedDeltaAuditEngine

    # --- ingest -------------------------------------------------------
    tracer.wrap(JSONLExportSource, "poll", "ingest.poll")
    traced_checkpoint = tracer.traced(
        checkpoint_module.write_checkpoint, "ingest.checkpoint")
    tracer.patch(runner_module, "write_checkpoint", traced_checkpoint)

    def after_step(args, batch):
        if batch is not None and batch.report is not None:
            tracer.count("ingest.violations_compared",
                         len(batch.report.violations))
            tracer.count("ingest.new_violations", len(batch.new_violations))

    tracer.wrap(IngestRunner, "step", "ingest.step", after_step)
    original_fsync = os.fsync

    def counted_fsync(fd):
        tracer.count("ingest.fsyncs")
        return original_fsync(fd)

    tracer.patch(os, "fsync", counted_fsync)

    # --- store --------------------------------------------------------
    def appended(args, count):
        tracer.count("store.events_appended", count)

    tracer.wrap(TraceStore, "append_batch", "store.append", appended)
    tracer.wrap(SQLiteTraceStore, "append_batch", "store.append", appended)
    tracer.wrap(SQLiteTraceStore, "save", "store.commit")
    tracer.wrap(PersistentTraceStore, "save", "store.commit")
    traced_open = tracer.traced(store_package.open_store, "store.open")
    tracer.patch(store_package, "open_store", traced_open)
    tracer.patch(tenants_module, "open_store", traced_open)

    # --- audit engines and axioms -------------------------------------
    def audited(args, report):
        for result in report.results:
            if result.axiom_id == 2:
                tracer.count("audit.axiom2_opportunities",
                             result.opportunities)

    tracer.wrap(AuditEngine, "audit", "audit.batch", audited)
    tracer.wrap(DeltaAuditEngine, "audit", "audit.delta", audited)
    tracer.wrap(ShardedDeltaAuditEngine, "audit", "shard.audit", audited)
    tracer.patch(shard_engine, "merge_axiom_verdicts", tracer.traced(
        shard_engine.merge_axiom_verdicts, "shard.merge"))

    def axiom_name(args):
        return f"audit.axiom{args[0].axiom_id}"

    def checker_name(args):
        # Delta and partition checkers keep their axiom as ``_axiom``;
        # the incremental adapter wraps a checker that keeps ``axiom``.
        checker = args[0]
        axiom = getattr(checker, "_axiom", None) or checker._checker.axiom
        return f"audit.axiom{axiom.axiom_id}"

    # Class-level wrappers only: the sharded engine recognises the
    # partitionable axioms by their stock ``delta_checker`` method, so
    # the axiom classes' factories must stay untouched.
    checker_classes = []
    for axiom in default_registry():
        tracer.wrap(type(axiom), "check", axiom_name)
        checker = axiom.delta_checker()
        if checker is not None and type(checker) not in checker_classes:
            checker_classes.append(type(checker))
    for checker_cls in checker_classes:
        tracer.wrap(checker_cls, "apply", checker_name)
        tracer.wrap(checker_cls, "result", checker_name)
    for partition_cls in (
        shard_checkers.RequesterFairnessPartition,
        shard_checkers.RequesterTransparencyPartition,
        shard_checkers.PlatformTransparencyPartition,
    ):
        tracer.wrap(partition_cls, "fold", checker_name)
        tracer.wrap(partition_cls, "judge", checker_name)

    original_pairs = axiom_assignment.sampled_pairs

    def counted_pairs(*args, **kwargs):
        counting = tracer.current() == "audit.axiom2"
        for pair in original_pairs(*args, **kwargs):
            if counting:
                tracer.count("audit.axiom2_pairs_walked")
            yield pair

    tracer.patch(axiom_assignment, "sampled_pairs", counted_pairs)

    # --- query --------------------------------------------------------
    original_timed = query_api._timed_query

    @contextlib.contextmanager
    def traced_timed(store, op):
        token = tracer.enter("query")
        try:
            with original_timed(store, op):
                yield
        finally:
            tracer.exit(token)
            tracer.count("query.calls")

    tracer.patch(query_api, "_timed_query", traced_timed)
    traced_stats = tracer.traced(query_stats.trace_stats, "query.stats")
    for module in (query_stats, query_package, runner_module, service_query):
        tracer.patch(module, "trace_stats", traced_stats)

    # --- report and forensics -----------------------------------------
    traced_document = tracer.traced(
        report_context.audit_document, "report.document")
    tracer.patch(report_context, "audit_document", traced_document)
    tracer.patch(report_package, "audit_document", traced_document)

    def rendered(args, text):
        tracer.count("report.bytes", len(text.encode("utf-8")))

    for format_name, exporter_cls in REPORT_FORMATS.items():
        tracer.wrap(exporter_cls, "render", f"report.render.{format_name}",
                    rendered)
    traced_verify = tracer.traced(verify_module.verify_store,
                                  "forensics.verify")
    tracer.patch(verify_module, "verify_store", traced_verify)
    tracer.patch(forensics_package, "verify_store", traced_verify)

    # --- service ------------------------------------------------------
    tracer.wrap(ServiceApp, "dispatch", "service.dispatch")
    tracer.wrap(Tenant, "append_records", "service.tenant_append")
    tracer.wrap(Tenant, "run_audit", "service.tenant_audit")

    # --- interpreter --------------------------------------------------
    gc.callbacks.append(tracer._gc_callback)
    return tracer


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _name, start, end, parent, _op in spans:
        if parent:
            children[parent].append((start, end))
    result: dict[int, float] = {}
    for span_id, _name, start, end, _parent, _op in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(spans, counts, factors: dict, *, ref_ms: float,
                  overhead_pct: float, extra: dict | None = None) -> dict:
    """Per-layer metrics, each per timed operation and speed-adjusted.

    ``factors`` maps every timed operation id to its speed factor;
    spans and counts recorded outside a timed operation are ignored.
    ``extra`` supplies figures measured elsewhere (the service client's
    per-route latencies); every name in :data:`PER_LAYER` is present in
    the result, 0.0 where the workload does not reach that layer.
    """
    ops = len(factors)
    if not ops:
        raise ValueError("no timed operation to attribute spans to")
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span_id, name, _start, _end, _parent, op in spans:
        metric = SPAN_METRICS.get(name)
        if metric is not None and op in factors:
            totals[metric] += own[span_id] * factors[op]
            if name.startswith("report.render."):
                totals["report.render_s"] += own[span_id] * factors[op]
            if name == "service.dispatch":
                totals["service.requests"] += 1
    for (name, op), amount in counts.items():
        if op in factors:
            scale = factors[op] if name == "runtime.gc_s" else 1.0
            totals[name] += amount * scale
    metrics = {name: totals.get(name, 0.0) / ops for name in PER_LAYER}
    metrics["runtime.ref_ms"] = ref_ms
    metrics["trace.overhead_pct"] = overhead_pct
    for name, value in (extra or {}).items():
        metrics[name] = value
    return metrics
