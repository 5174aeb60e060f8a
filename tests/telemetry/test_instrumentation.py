"""The instrumented layers actually record: drive real store/audit/
ingest workloads under a fresh registry and assert the families fill.
"""

import pytest

from repro.core.audit import AuditEngine
from repro.core.store.sqlite import SQLiteTraceStore
from repro.core.trace import PlatformTrace
from repro.ingest import (
    IngestRunner,
    JSONLExportSource,
    PipelinedIngestRunner,
)
from repro.query import TraceQuery
from repro.shard import make_audit_session
from repro.telemetry import MetricsRegistry, using_registry
from repro.workloads.scenarios import all_scenarios


@pytest.fixture(scope="module")
def scenario_trace():
    scenarios = {s.name: s for s in all_scenarios(0)}
    return scenarios["unequal_pay"].trace


@pytest.fixture(scope="module")
def export_path(scenario_trace, tmp_path_factory):
    import json

    from repro.core.serialize import event_to_dict

    path = tmp_path_factory.mktemp("telemetry") / "export.jsonl"
    with path.open("w") as handle:
        for event in scenario_trace:
            handle.write(json.dumps(event_to_dict(event)) + "\n")
    return path


def counter_total(registry, name, **labels):
    return registry.counter(name, **labels).value


class TestStoreInstrumentation:
    def test_append_batch_and_commit_record_per_backend(
        self, scenario_trace, tmp_path
    ):
        registry = MetricsRegistry()
        with using_registry(registry):
            store = SQLiteTraceStore(tmp_path / "t.db")
            store.append_batch(list(scenario_trace))
            store.save()
            store.close()
        events = len(scenario_trace.events)
        assert counter_total(
            registry, "repro_store_append_events_total", backend="sqlite"
        ) == events
        assert counter_total(
            registry, "repro_store_append_batches_total", backend="sqlite"
        ) == 1
        assert counter_total(
            registry, "repro_store_commits_total", backend="sqlite"
        ) >= 2  # batch commit + save
        histogram = registry.histogram(
            "repro_store_append_seconds", backend="sqlite"
        )
        assert histogram.count == 1

    def test_queries_record_backend_and_op(self, scenario_trace):
        registry = MetricsRegistry()
        with using_registry(registry):
            TraceQuery().count(scenario_trace)
            TraceQuery().count_by_kind(scenario_trace)
            TraceQuery().run(scenario_trace)
        assert counter_total(
            registry, "repro_store_queries_total",
            backend="memory", op="count",
        ) == 1
        assert counter_total(
            registry, "repro_store_queries_total",
            backend="memory", op="run",
        ) == 1

    def test_null_registry_keeps_behaviour_identical(self, scenario_trace):
        # The recording path and the disabled path must agree on results.
        recorded = MetricsRegistry()
        with using_registry(recorded):
            count_recorded = TraceQuery().count(scenario_trace)
        count_plain = TraceQuery().count(scenario_trace)
        assert count_recorded == count_plain


class TestAuditInstrumentation:
    def test_batch_audit_records_engine_events_violations(
        self, scenario_trace
    ):
        registry = MetricsRegistry()
        with using_registry(registry):
            report = AuditEngine().audit(scenario_trace)
        assert counter_total(
            registry, "repro_audit_runs_total", engine="batch"
        ) == 1
        assert counter_total(
            registry, "repro_audit_events_total", engine="batch"
        ) == report.trace_length
        assert counter_total(
            registry, "repro_audit_violations_total", engine="batch"
        ) == report.total_violations

    def test_delta_audit_records_delta_sized_events(self, scenario_trace):
        registry = MetricsRegistry()
        events = list(scenario_trace)
        with using_registry(registry):
            trace = PlatformTrace()
            session = AuditEngine().delta_session()
            trace.append_batch(events[:20])
            session.audit(trace)
            trace.append_batch(events[20:])
            session.audit(trace)
        assert counter_total(
            registry, "repro_audit_runs_total", engine="delta"
        ) == 2
        # Delta audits pay per new event: 20 then the remainder.
        assert counter_total(
            registry, "repro_audit_events_total", engine="delta"
        ) == len(events)

    def test_sharded_audit_records_per_shard_judge_time(
        self, scenario_trace
    ):
        registry = MetricsRegistry()
        with using_registry(registry):
            trace = PlatformTrace()
            trace.append_batch(list(scenario_trace))
            with make_audit_session(jobs=2) as session:
                session.audit(trace)
        assert counter_total(
            registry, "repro_audit_runs_total", engine="sharded"
        ) == 1
        judged = sum(
            registry.histogram(
                "repro_audit_shard_judge_seconds", shard=shard
            ).count
            for shard in range(2)
        )
        assert judged == 2  # one judge per shard


class TestIngestInstrumentation:
    def test_sequential_runner_records_stages(self, export_path, tmp_path):
        registry = MetricsRegistry()
        with using_registry(registry):
            source = JSONLExportSource(str(export_path))
            runner = IngestRunner(
                source, PlatformTrace(), audit=True, batch_events=16,
                checkpoint_path=str(tmp_path / "ckpt.json"),
            )
            summary = runner.run(idle_limit=1)
            runner.close()
            source.close()
        for stage in ("poll", "append", "audit", "checkpoint"):
            assert counter_total(
                registry, "repro_ingest_stage_batches_total", stage=stage
            ) >= summary.batches, stage
        assert counter_total(
            registry, "repro_ingest_stage_events_total", stage="append"
        ) == summary.events

    def test_pipelined_runner_records_stages_and_lag_gauges(
        self, export_path, tmp_path
    ):
        registry = MetricsRegistry()
        with using_registry(registry):
            source = JSONLExportSource(str(export_path))
            runner = PipelinedIngestRunner(
                source, PlatformTrace(), audit=True, batch_events=16,
                interval=0.0, pipeline_depth=2,
                checkpoint_path=str(tmp_path / "ckpt.json"),
            )
            summary = runner.run(idle_limit=3)
            runner.close()
            source.close()
        assert counter_total(
            registry, "repro_ingest_stage_events_total", stage="append"
        ) == summary.events
        assert counter_total(
            registry, "repro_ingest_stage_batches_total", stage="audit"
        ) >= 1
        # The audit-lag watermark drained to zero once the flush audit
        # caught up with the append stage.
        assert registry.gauge("repro_ingest_audit_lag_batches").value == 0
        assert registry.gauge("repro_ingest_audit_lag_events").value == 0
        # Queue depth gauges registered (their last value is timing-
        # dependent; existence and non-negativity are the contract).
        assert registry.gauge(
            "repro_ingest_queue_depth", queue="poll"
        ).value >= 0
