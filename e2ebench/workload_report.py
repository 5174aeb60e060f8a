"""``report``: what ``trace report``, ``trace stats``, ``trace query``
and ``trace verify`` do, store after store.

Set-up writes a fleet of stores with ``save_trace`` (in a child
process): both on-disk formats, about 180 to 2600 events each.  The
timed operation is one store: ``open_store`` -> ``AuditEngine.audit``
-> ``audit_document`` -> render through all four sinks ->
``trace_stats`` and entity-scoped ``TraceQuery`` counts -> close ->
``verify_store``.  A round visits the whole fleet once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from e2ebench.harness import Context, Outcome, counter_total, disk_bytes, \
    peak_rss_mb

FORMATS = ("csv", "jsonl", "md", "html")

#: One round's timed operations at nominal speed, in seconds.
ROUND_S = 9.0


def run(ctx: Context) -> Outcome:
    # The layer entry points are looked up on their modules at each
    # call, so the traced phase's wrappers see them.
    import repro.core.store as stores
    import repro.forensics as forensics
    import repro.query as queries
    import repro.report as reports
    from repro.core.audit import AuditEngine, DeltaAuditEngine
    from repro.query import TraceQuery
    from repro.report import make_exporter
    from repro.report.csv_format import CsvReportExporter, csv_cell
    from repro.report.jsonl_format import JsonlReportExporter
    from repro.telemetry import get_registry

    inputs = os.path.join(ctx.workdir, "inputs")
    os.makedirs(inputs)
    subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "gen.py"),
         "report", str(ctx.seed), inputs],
        check=True,
    )
    ctx.setup_reference()
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    fleet = manifest["stores"]
    fleet_events = sum(entry["events"] for entry in fleet)
    ctx.check(manifest["telemetry_events_appended"] == fleet_events,
              "report: repro_store_append_events_total != events saved")
    exporters = {name: make_exporter(name) for name in FORMATS}

    while ctx.next_round() is not None:
        before = get_registry().snapshot()
        for entry in fleet:
            path = entry["path"]
            ctx.begin_op()
            store = stores.open_store(path)
            report = AuditEngine().audit(store)
            document = reports.audit_document(report, store, source=path)
            rendered = {name: exporter.render(document)
                        for name, exporter in exporters.items()}
            stats = queries.trace_stats(store)
            worker_events = TraceQuery().entity(
                entry["worker"], kind="worker").count(store)
            task_events = TraceQuery().entity(
                entry["task"], kind="task").count(store)
            with ctx.untimed():
                one_shot = DeltaAuditEngine().audit(store)
            store.close()
            verified = forensics.verify_store(path)
            ctx.end_op(events=entry["events"])

            name = os.path.basename(path)
            ctx.check(report == one_shot,
                      f"report: {name} batch verdict != one-shot delta")
            ctx.check(
                CsvReportExporter.parse(rendered["csv"]) == [
                    {col: csv_cell(record[col]) for col in document.columns}
                    for record in document.records],
                f"report: {name} CSV does not parse back to its records")
            ctx.check(
                JsonlReportExporter.parse(rendered["jsonl"])[1] == [
                    {col: record[col] for col in document.columns}
                    for record in document.records],
                f"report: {name} JSONL does not parse back to its records")
            ctx.check(verified.clean, f"report: {name} does not verify CLEAN")
            ctx.check(stats.kind_counts == entry["kind_counts"],
                      f"report: {name} per-kind stats differ")
            ctx.check(worker_events == entry["worker_events"]
                      and task_events == entry["task_events"],
                      f"report: {name} entity-scoped counts differ")
        after = get_registry().snapshot()
        for engine in ("batch", "delta"):
            ctx.check(
                counter_total(after, "repro_audit_runs_total", engine=engine)
                - counter_total(before, "repro_audit_runs_total",
                                engine=engine) == len(fleet),
                f"report: repro_audit_runs_total{{engine={engine}}} != "
                "audits run")
    return Outcome(
        peak_rss_mb=peak_rss_mb(),
        store_bytes_per_event=disk_bytes(
            *(entry["path"] for entry in fleet)) / fleet_events)
