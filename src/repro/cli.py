"""Command-line entry point: run the paper's experiments.

Usage::

    python -m repro                # run everything at default scale
    python -m repro E2 E4          # run selected experiments
    python -m repro E1 --seed 42   # with a different seed
    python -m repro --jobs 4       # run experiments 4 at a time
    python -m repro --jobs 4 --backend process   # over processes
    python -m repro --list         # show the experiment index
    python -m repro --stream-audit # live-audit the labelled scenarios

    python -m repro trace save runs/clean --scenario clean
    python -m repro trace save runs/clean.db --store sqlite
    python -m repro trace replay runs/clean --stream-audit
    python -m repro trace info runs/clean.db
    python -m repro trace query runs/clean.db --entity w0001 --kind payment_issued
    python -m repro trace query runs/clean.db --count-by-kind
    python -m repro trace stats runs/clean.db

    python -m repro trace tail export.jsonl runs/live.db --audit
    python -m repro trace resume export.jsonl runs/live.db --audit
    python -m repro trace tail export.jsonl runs/live.db --audit \\
        --report html --report jsonl
    python -m repro trace tail a.jsonl b.jsonl runs/live.db --audit --pipeline
    python -m repro trace resume export.jsonl runs/live.db --audit --verify

    python -m repro trace report runs/clean.db --format html --out audit.html
    python -m repro trace verify runs/live.db
    python -m repro trace repair runs/live.db runs/salvaged.db

``--jobs N`` fans the selected experiments out over N workers (threads
by default, processes with ``--backend process``); output order (and
content) is independent of N and backend.  ``--stream-audit`` replays
every labelled scenario from :mod:`repro.workloads.scenarios` through
the :class:`~repro.core.audit.StreamingAuditEngine` event by event —
the continuous-monitoring mode — and prints each scenario's final
snapshot, cross-checked against a batch audit of the same trace;
``--trace-backend`` selects which trace store backs the replayed
copies.

The ``trace`` subcommands are the real-log workflow: ``trace save``
captures a labelled scenario as an on-disk log (JSONL segments by
default, a single indexed SQLite database with ``--store sqlite`` or a
``.db`` path — the stand-in for a platform adapter's export), and
``trace replay`` feeds a saved log back through a
:class:`~repro.core.trace.TraceCursor` into the streaming engine,
cross-checking the final snapshot against a batch audit of the
reopened trace.  ``trace info``, ``trace query``, and ``trace stats``
answer questions about a saved log without re-auditing it: ``query``
executes :class:`~repro.query.TraceQuery` filters (entity / event-kind
/ time-range scoped, indexed SQL on the sqlite format, histogram via
``--count-by-kind``) and ``stats`` prints per-entity event counts plus
violation-adjacent counters.

``trace tail`` is the live-platform workflow (:mod:`repro.ingest`):
follow a growing export — JSONL file, persistent segment directory, or
mapped CSV — into a fresh on-disk store, delta-auditing each batch
with ``--audit`` and checkpointing after every batch so a killed tail
continues with ``trace resume`` without duplicating or dropping a
single event.  ``--audit-jobs N`` shards each batch's audit across N
partitioned workers (:mod:`repro.shard`) — identical reports, audit
throughput that scales with cores; the same flag on ``--stream-audit``
cross-checks the sharded engine against the batch verdict per
scenario.  ``--report FORMAT`` (repeatable, with ``--audit``) keeps a
rolling report file per format in ``--report-dir`` (default
``<dest>.reports``), re-rendered after every audited batch.
``--pipeline`` runs the ingest runner's stages staged instead of
inline: polling, appending, and auditing overlap as threads over
bounded queues (``pipeline_depth > 0`` in :mod:`repro.ingest.runner`) —
same verdicts and stored bytes, higher throughput when audits dominate
— with ``--pipeline-depth`` sizing the queues; passing several ``SRC``
paths merges the exports by event time under one checkpoint.  ``trace
resume --verify`` deep-verifies the destination (read-only) before
ingesting anything and refuses — exit 1 — when it is damaged.

``trace report`` audits a saved log and exports it through
:mod:`repro.report` (CSV, JSONL, Markdown, or a self-contained HTML
dashboard; ``--what verify`` exports deep-verify findings through the
same sinks, and ``--what repair`` renders a saved ``*.loss.json`` loss
manifest through them).  ``trace verify`` runs the read-only integrity sweeps of
:mod:`repro.forensics` — exit 0 when sound, 1 when damaged, so it
scripts as a health check — and ``trace repair`` salvages a damaged
store into a fresh destination, keeping every verifiable event and
writing a loss manifest naming the exact seq ranges dropped and why.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.replication import REPLICATION_BACKENDS
from repro.experiments.runner import EXPERIMENTS, run_many

_DESCRIPTIONS: dict[str, str] = {
    "E1": "discriminatory power of task-assignment algorithms",
    "E2": "worker retention vs transparency level",
    "E3": "contribution quality vs compensation fairness",
    "E4": "per-axiom fairness-check benchmark suite",
    "E5": "malicious-worker detection across spam regimes",
    "E6": "transparency-DSL expressiveness and comparison",
    "E7": "cost of fairness: utility vs parity frontier",
    "E8": "ablation: similarity-threshold sensitivity of Axiom 1",
    "E9": "ablation: redundancy and aggregation (budget-optimal premise)",
    "E10": "statistical power of the Axiom 1 checker vs bias intensity",
}

_TRACE_BACKENDS = ("memory", "windowed", "persistent", "sqlite")
_ENTITY_KINDS = ("worker", "task", "requester", "contribution")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction experiments for 'Fairness and Transparency in "
            "Crowdsourcing' (EDBT 2017)."
        ),
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment ids to run (default: all of E1..E7)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment seed",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json emits one object per experiment)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N experiments concurrently (default 1; "
             "output is identical for any N)",
    )
    parser.add_argument(
        "--backend", choices=REPLICATION_BACKENDS, default="thread",
        help="worker pool for --jobs: threads (default) or processes "
             "(true multi-core; falls back to threads with a warning "
             "when something cannot be pickled)",
    )
    parser.add_argument(
        "--stream-audit", action="store_true", dest="stream_audit",
        help="replay the labelled scenarios through the streaming audit "
             "engine and print each final snapshot",
    )
    parser.add_argument(
        "--audit-jobs", type=int, default=0, metavar="N",
        dest="audit_jobs",
        help="with --stream-audit: additionally audit each scenario "
             "through the sharded delta engine with N partitions and "
             "cross-check it against the batch verdict (default 0 = "
             "skip the sharded cross-check)",
    )
    parser.add_argument(
        "--trace-backend", choices=_TRACE_BACKENDS, default="memory",
        dest="trace_backend", metavar="BACKEND",
        help="trace store backing the --stream-audit replays "
             f"({', '.join(_TRACE_BACKENDS)}; default memory)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list experiments and exit",
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments trace",
        description="Capture and replay persistent platform trace logs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    save = commands.add_parser(
        "save", help="capture a labelled scenario as an on-disk log"
    )
    save.add_argument("path", help="log directory (or .db file) to create")
    save.add_argument(
        "--scenario", default="clean",
        help="labelled scenario name (see repro.workloads.scenarios; "
             "default clean)",
    )
    save.add_argument("--seed", type=int, default=0)
    save.add_argument(
        "--segment-events", type=int, default=4096, dest="segment_events",
        help="events per JSONL segment file (default 4096; persistent only)",
    )
    save.add_argument(
        "--store", choices=("persistent", "sqlite"), default=None,
        help="on-disk format (persistent JSONL segments or a single "
             "indexed sqlite database; default: inferred from the path "
             "suffix, .db/.sqlite means sqlite)",
    )

    replay = commands.add_parser(
        "replay", help="re-audit a saved log (captured once, audited forever)"
    )
    replay.add_argument("path", help="log directory or .db file to open")
    replay.add_argument(
        "--stream-audit", action="store_true", dest="stream_audit",
        help="feed the log through a TraceCursor into the streaming "
             "engine and cross-check against a batch audit",
    )
    replay.add_argument("--format", choices=("text", "json"), default="text")
    replay.add_argument(
        "--trace-backend", choices=("memory", "windowed", "sqlite"),
        default="memory", dest="trace_backend",
        help="store backend the replayed events are re-homed into "
             "(default memory; sqlite re-homes into a scratch database "
             "to exercise the indexed backend)",
    )

    info = commands.add_parser(
        "info", help="print backend, event count, entity counts, revision"
    )
    info.add_argument("path", help="log directory or .db file to open")
    info.add_argument("--format", choices=("text", "json"), default="text")

    query = commands.add_parser(
        "query",
        help="run an entity/kind/time-scoped TraceQuery over a saved log",
    )
    query.add_argument("path", help="log directory or .db file to open")
    query.add_argument(
        "--entity", action="append", default=[], metavar="ID",
        help="scope to events touching this entity id (repeatable)",
    )
    query.add_argument(
        "--entity-kind", choices=_ENTITY_KINDS, default=None,
        dest="entity_kind",
        help="restrict --entity matches to one entity role",
    )
    query.add_argument(
        "--kind", action="append", default=[], metavar="KIND",
        help="scope to this event kind, e.g. payment_issued (repeatable)",
    )
    query.add_argument(
        "--since", type=int, default=None, metavar="T",
        help="events at time >= T",
    )
    query.add_argument(
        "--until", type=int, default=None, metavar="T",
        help="events at time < T",
    )
    query.add_argument(
        "--round", type=int, default=None, dest="round_tick", metavar="N",
        help="events of one simulated round (= clock tick N)",
    )
    query.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N matching events",
    )
    query.add_argument(
        "--count", action="store_true",
        help="print only the number of matching events",
    )
    query.add_argument(
        "--count-by-kind", action="store_true", dest="count_by_kind",
        help="print a histogram of matching events by kind instead of "
             "the events themselves",
    )
    query.add_argument("--format", choices=("text", "json"), default="text")

    stats = commands.add_parser(
        "stats",
        help="per-worker/per-task event counts and violation-adjacent "
             "counters for a saved log",
    )
    stats.add_argument("path", help="log directory or .db file to open")
    stats.add_argument("--format", choices=("text", "json"), default="text")

    tail = commands.add_parser(
        "tail",
        help="follow one or more platform exports into a fresh "
             "checkpointed store, optionally delta-auditing each batch",
    )
    tail.add_argument(
        "source", nargs="+", metavar="SRC",
        help="export(s) to tail: JSONL files, segment-log directories, "
             "or .csv files (see --source-kind); several exports are "
             "interleaved by event time into one store under a single "
             "checkpoint",
    )
    tail.add_argument(
        "dest", help="destination store to create (log directory or .db file)"
    )
    tail.add_argument(
        "--store", choices=("persistent", "sqlite"), default=None,
        help="destination on-disk format (default: inferred from the "
             "dest path suffix, .db/.sqlite means sqlite)",
    )
    _add_tail_options(tail)

    resume = commands.add_parser(
        "resume",
        help="continue a killed or stopped 'trace tail' from its "
             "checkpoint, duplicating and dropping nothing",
    )
    resume.add_argument(
        "source", nargs="+", metavar="SRC",
        help="the export(s) the tail was following (same paths, same "
             "order)",
    )
    resume.add_argument(
        "dest", help="the destination store the tail was writing"
    )
    resume.add_argument(
        "--verify", action="store_true",
        help="deep-verify the destination store (read-only) before "
             "ingesting anything and refuse to resume — exit 1 — when "
             "it is damaged",
    )
    _add_tail_options(resume)

    report = commands.add_parser(
        "report",
        help="audit a saved log and export the violations as a "
             "CSV/JSONL/Markdown/HTML report",
    )
    report.add_argument(
        "path",
        help="log directory or .db file to open (for --what repair: "
             "the saved *.loss.json manifest to render)",
    )
    report.add_argument(
        "--format", choices=("csv", "jsonl", "md", "html"), default="md",
        help="report format (default md)",
    )
    report.add_argument(
        "--what", choices=("audit", "verify", "repair"), default="audit",
        help="report content: the fairness audit (default), the "
             "deep-verify findings of the same store, or a saved "
             "trace-repair loss manifest (PATH is the *.loss.json file)",
    )
    report.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )

    verify = commands.add_parser(
        "verify",
        help="deep integrity checks over a saved log (read-only): "
             "payload validity, seq gaps, index cross-validation, "
             "segment reconciliation",
    )
    verify.add_argument("path", help="log directory or .db file to check")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    repair = commands.add_parser(
        "repair",
        help="salvage a corrupted log into a fresh store, keeping every "
             "verifiable event and writing a loss manifest of exactly "
             "what was dropped and why",
    )
    repair.add_argument("source", help="the damaged log directory or .db file")
    repair.add_argument(
        "dest", help="fresh destination store to create (must not exist)"
    )
    repair.add_argument(
        "--store", choices=("persistent", "sqlite"), default=None,
        help="destination on-disk format (default: inferred from the "
             "dest path suffix, .db/.sqlite means sqlite)",
    )
    repair.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="loss-manifest path (default: <dest>.loss.json)",
    )
    repair.add_argument("--format", choices=("text", "json"), default="text")

    serve = commands.add_parser(
        "serve",
        help="host stores, delta audits, queries, and reports as a "
             "multi-tenant HTTP service (audit-as-a-service)",
    )
    serve.add_argument(
        "data_dir", nargs="?", default=None, metavar="DATA_DIR",
        help="directory tenant stores and the tenant manifest live in "
             "(omit for an in-memory-only service: disk backends "
             "disabled, nothing survives shutdown)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8023,
        help="port to bind (default 8023; 0 picks a free port)",
    )
    serve.add_argument(
        "--store", choices=("memory", "persistent", "sqlite"),
        default="sqlite",
        help="backend for tenants created without an explicit one "
             "(default sqlite)",
    )
    serve.add_argument(
        "--audit-jobs", type=int, default=1, metavar="N",
        dest="audit_jobs",
        help="default shard count for each tenant's delta audits "
             "(default 1 = single-threaded)",
    )
    return parser


def _add_tail_options(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``trace tail`` and ``trace resume``."""
    parser.add_argument(
        "--source-kind",
        choices=("auto", "jsonl", "segments", "csv", "http"),
        default="auto", dest="source_kind",
        help="how to read the export (auto: directory means segments, "
             ".csv means csv, http(s):// URLs mean an audit-service "
             "tenant's events endpoint, anything else jsonl)",
    )
    parser.add_argument(
        "--csv-map", action="append", default=[], metavar="COLUMN=FIELD",
        dest="csv_map",
        help="map a CSV column to an event field, e.g. who=worker_id "
             "(repeatable; required for csv sources)",
    )
    parser.add_argument(
        "--csv-const", action="append", default=[], metavar="FIELD=VALUE",
        dest="csv_const",
        help="fix an event field for every CSV row, e.g. "
             "kind=payment_issued (repeatable; values are JSON-decoded "
             "where possible)",
    )
    parser.add_argument(
        "--pipeline", action="store_true",
        help="overlap the source poll, the batched append+checkpoint, "
             "and the delta audit as concurrent stages over bounded "
             "queues (same stores, same verdicts, higher throughput; "
             "see --pipeline-depth)",
    )
    parser.add_argument(
        "--pipeline-depth", type=int, default=None, metavar="N",
        dest="pipeline_depth",
        help="with --pipeline: bound of each inter-stage queue in "
             "batches — the backpressure window before polling "
             "throttles (default 4)",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="run a delta audit after every batch and report "
             "newly appearing violations",
    )
    parser.add_argument(
        "--audit-jobs", type=int, default=1, metavar="N",
        dest="audit_jobs",
        help="shard each batch's delta audit across N partitioned "
             "workers (with --audit; default 1 = single-threaded; "
             "reports are identical for any N)",
    )
    parser.add_argument(
        "--report", action="append", default=[], dest="report_formats",
        choices=("csv", "jsonl", "md", "html"), metavar="FORMAT",
        help="with --audit: re-render a rolling report file in this "
             "format after every audited batch (repeatable; csv, jsonl, "
             "md, html)",
    )
    parser.add_argument(
        "--report-dir", default=None, metavar="PATH", dest="report_dir",
        help="directory the rolling --report files land in "
             "(default: <dest>.reports)",
    )
    parser.add_argument(
        "--stats-every", type=int, default=0, metavar="N", dest="stats_every",
        help="print a trace_stats snapshot every N batches (default: never)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH", dest="metrics_out",
        help="append telemetry snapshots (the full metrics registry as "
             "JSON, stamped with monotonic elapsed_s) to this JSONL "
             "file while ingesting — the offline counterpart of the "
             "service's GET /metrics",
    )
    parser.add_argument(
        "--metrics-every", type=int, default=1, metavar="N",
        dest="metrics_every",
        help="with --metrics-out: snapshot every N batches (default 1)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="cadence: seconds to sleep between polls (default 1.0)",
    )
    parser.add_argument(
        "--batch-events", type=int, default=256, metavar="N",
        dest="batch_events",
        help="maximum events ingested per batch (default 256)",
    )
    parser.add_argument(
        "--max-batches", type=int, default=None, metavar="N",
        dest="max_batches",
        help="stop after N non-empty batches (default: unbounded)",
    )
    parser.add_argument(
        "--until-idle", type=int, default=None, metavar="N",
        dest="until_idle",
        help="stop after N consecutive empty polls (default: follow "
             "the export forever)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="resume-token path (default: <dest>.checkpoint)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _result_to_json(result) -> dict:
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "tables": [
            {
                "title": table.title,
                "columns": list(table.columns),
                "rows": table.rows_as_dicts(),
            }
            for table in result.tables
        ],
    }


def _rebuilt(trace, backend: str):
    """A copy of ``trace`` living in the chosen store backend."""
    from repro.core.store import make_store
    from repro.core.trace import PlatformTrace

    if backend == "memory":
        return PlatformTrace(trace)
    if backend == "windowed":
        # Non-evicting by construction: the point here is exercising the
        # backend, not truncating the audit evidence.
        return PlatformTrace(
            trace, store=make_store("windowed", window=max(len(trace), 1))
        )
    raise ValueError(f"unsupported replay backend {backend!r}")


def _stream_audit(
    seed: int,
    output_format: str,
    backend: str = "memory",
    audit_jobs: int = 0,
) -> int:
    """Replay every labelled scenario through the streaming engine.

    ``audit_jobs >= 1`` additionally audits each scenario through a
    :class:`~repro.shard.ShardedDeltaAuditEngine` with that many
    partitions and cross-checks it against the batch verdict — the
    smoke test for the sharded audit path.
    """
    import tempfile

    from repro.core.audit import AuditEngine, StreamingAuditEngine
    from repro.core.serialize import load_trace, save_trace
    from repro.workloads.scenarios import all_scenarios

    batch_engine = AuditEngine()
    summaries = []
    with tempfile.TemporaryDirectory() as scratch:
        for scenario in all_scenarios(seed):
            if backend in ("persistent", "sqlite"):
                import os

                suffix = ".db" if backend == "sqlite" else ""
                path = os.path.join(scratch, scenario.name + suffix)
                save_trace(scenario.trace, path, backend=backend)
                trace = load_trace(path)
            else:
                trace = _rebuilt(scenario.trace, backend)
            streaming = StreamingAuditEngine()
            streaming.observe_all(trace)
            snapshot = streaming.snapshot()
            batch = batch_engine.audit(trace)
            agrees = snapshot == batch
            sharded_agrees = None
            if audit_jobs:
                from repro.shard import ShardedDeltaAuditEngine

                with ShardedDeltaAuditEngine(
                    shards=audit_jobs, jobs=audit_jobs
                ) as sharded:
                    sharded_agrees = sharded.audit(trace) == batch
            summaries.append((scenario, snapshot, agrees, sharded_agrees))
    if output_format == "json":
        import json

        print(json.dumps([
            {
                "scenario": scenario.name,
                "backend": backend,
                "events": snapshot.trace_length,
                "overall_score": snapshot.overall_score,
                "violations": snapshot.total_violations,
                "matches_batch_audit": agrees,
                **(
                    {}
                    if sharded_agrees is None
                    else {
                        "audit_jobs": audit_jobs,
                        "matches_sharded_audit": sharded_agrees,
                    }
                ),
            }
            for scenario, snapshot, agrees, sharded_agrees in summaries
        ], indent=2))
    else:
        for scenario, snapshot, agrees, sharded_agrees in summaries:
            verdict = "matches" if agrees else "DIVERGES FROM"
            sharded_note = ""
            if sharded_agrees is not None:
                sharded_note = (
                    f"; sharded x{audit_jobs} "
                    f"{'matches' if sharded_agrees else 'DIVERGES'}"
                )
            print(f"--- {scenario.name} "
                  f"({verdict} batch audit{sharded_note})")
            for line in snapshot.summary_lines():
                print(line)
            print()
    return (
        0
        if all(
            agrees and sharded_agrees is not False
            for _, _, agrees, sharded_agrees in summaries
        )
        else 1
    )


def _trace_save(args: argparse.Namespace) -> int:
    from repro.core.serialize import save_trace
    from repro.errors import TraceError
    from repro.workloads.scenarios import all_scenarios

    scenarios = {s.name: s for s in all_scenarios(args.seed)}
    scenario = scenarios.get(args.scenario)
    if scenario is None:
        print(
            f"unknown scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(scenarios))}",
            file=sys.stderr,
        )
        return 2
    try:
        path = save_trace(
            scenario.trace, args.path,
            segment_events=args.segment_events, backend=args.store,
        )
    except TraceError as error:
        print(f"cannot save to {args.path!r}: {error}", file=sys.stderr)
        return 2
    print(
        f"saved scenario {scenario.name!r} "
        f"({len(scenario.trace)} events) to {path}"
    )
    return 0


def _trace_replay(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.core.serialize import load_trace
    from repro.core.store import make_store
    from repro.errors import TraceError

    with contextlib.ExitStack() as stack:
        try:
            trace = load_trace(args.path)
            if args.trace_backend != "memory":
                # Re-home the already-loaded events; no second disk read.
                import os

                from repro.core.trace import PlatformTrace

                opened = trace
                if args.trace_backend == "windowed":
                    store = make_store(
                        "windowed", window=max(len(opened), 1)
                    )
                else:  # sqlite: a scratch database exercising the indexes
                    scratch = stack.enter_context(
                        tempfile.TemporaryDirectory()
                    )
                    store = make_store(
                        "sqlite", path=os.path.join(scratch, "replay.db")
                    )
                    # Close before the directory is cleaned up.
                    stack.callback(store.close)
                trace = PlatformTrace(opened, store=store)
                opened.store.close()
        except TraceError as error:
            print(f"cannot replay {args.path!r}: {error}", file=sys.stderr)
            return 2
        return _replay_loaded(args, trace)


def _replay_loaded(args: argparse.Namespace, trace) -> int:
    from repro.core.audit import AuditEngine, StreamingAuditEngine

    batch = AuditEngine().audit(trace)
    if args.stream_audit:
        # The adapter path: a saved platform log drained through a
        # cursor into the continuous-monitoring engine.
        streaming = StreamingAuditEngine()
        cursor = trace.cursor()
        for event in cursor.drain():
            streaming.observe(event)
        report = streaming.snapshot()
        agrees = report == batch
    else:
        report = batch
        agrees = True
    if args.format == "json":
        import json

        print(json.dumps({
            "path": args.path,
            "events": report.trace_length,
            "overall_score": report.overall_score,
            "violations": report.total_violations,
            "streamed": bool(args.stream_audit),
            "matches_batch_audit": agrees,
        }, indent=2))
    else:
        mode = "streamed replay" if args.stream_audit else "batch audit"
        verdict = "matches" if agrees else "DIVERGES FROM"
        print(f"--- {args.path} ({mode}, {verdict} batch audit)")
        for line in report.summary_lines():
            print(line)
    return 0 if agrees else 1


def _opened_store(path: str):
    """Open a saved log of either on-disk format, or exit with code 2."""
    from repro.core.store import open_store
    from repro.errors import TraceError

    try:
        return open_store(path)
    except TraceError as error:
        print(f"cannot open {path!r}: {error}", file=sys.stderr)
        return None


def _trace_info(args: argparse.Namespace) -> int:
    from repro.query import trace_info

    store = _opened_store(args.path)
    if store is None:
        return 2
    info = trace_info(store)
    store.close()
    if args.format == "json":
        import json

        print(json.dumps(info, indent=2))
        return 0
    print(f"--- {args.path}")
    for key in ("backend", "events", "revision", "end_time",
                "workers", "tasks", "requesters", "contributions"):
        print(f"{key}: {info[key]}")
    return 0


def _trace_query(args: argparse.Namespace) -> int:
    from repro.core.serialize import event_to_dict
    from repro.errors import QueryError
    from repro.query import TraceQuery

    if args.entity_kind is not None and not args.entity:
        print("--entity-kind requires at least one --entity", file=sys.stderr)
        return 2
    if args.count and args.count_by_kind:
        print(
            "--count and --count-by-kind are different aggregates; "
            "pick one",
            file=sys.stderr,
        )
        return 2
    if args.round_tick is not None and (
        args.since is not None or args.until is not None
    ):
        print(
            "--round selects one tick and cannot be combined with "
            "--since/--until",
            file=sys.stderr,
        )
        return 2
    store = _opened_store(args.path)
    if store is None:
        return 2
    try:
        query = TraceQuery()
        if args.entity:
            query = query.entity(*args.entity, kind=args.entity_kind)
        if args.kind:
            query = query.of_kind(*args.kind)
        if args.round_tick is not None:
            query = query.at_round(args.round_tick)
        elif args.since is not None or args.until is not None:
            query = query.time_range(args.since, args.until)
        if args.limit is not None:
            query = query.take(args.limit)
        if args.count:
            total = query.count(store)
        elif args.count_by_kind:
            histogram = query.count_by_kind(store)
        else:
            events = query.run(store)
    except QueryError as error:
        print(f"invalid query: {error}", file=sys.stderr)
        store.close()
        return 2
    store.close()
    if args.count:
        if args.format == "json":
            import json

            print(json.dumps({"count": total}))
        else:
            print(total)
        return 0
    if args.count_by_kind:
        if args.format == "json":
            import json

            print(json.dumps({"count_by_kind": histogram}, indent=2))
        else:
            for kind, count in histogram.items():
                print(f"{kind}: {count}")
            print(f"({sum(histogram.values())} event(s))")
        return 0
    if args.format == "json":
        import json

        print(json.dumps([event_to_dict(event) for event in events], indent=2))
        return 0
    for event in events:
        data = event_to_dict(event)
        rest = {
            key: value for key, value in data.items()
            if key not in ("kind", "time")
        }
        print(f"t={event.time:<6} {event.kind:<24} {rest}")
    print(f"({len(events)} event(s))")
    return 0


def _trace_stats(args: argparse.Namespace) -> int:
    from repro.query import trace_stats

    store = _opened_store(args.path)
    if store is None:
        return 2
    stats = trace_stats(store)
    store.close()
    if args.format == "json":
        import json

        from repro.telemetry import get_registry

        # The same numbers a served instance exposes on GET /metrics:
        # computing the stats above exercised the instrumented store
        # and query layers, so the registry snapshot here shows what a
        # live scrape of this workload would.
        print(json.dumps(
            {**stats.as_dict(), "telemetry": get_registry().snapshot()},
            indent=2,
        ))
        return 0
    print(f"--- {args.path}")
    for line in stats.summary_lines():
        print(line)
    return 0


def _parse_csv_mapping(args: argparse.Namespace):
    """--csv-map/--csv-const flags -> a CSVMapping (None when absent)."""
    import json

    from repro.ingest import CSVMapping

    if not args.csv_map and not args.csv_const:
        return None
    columns = {}
    for item in args.csv_map:
        column, sep, field_name = item.partition("=")
        if not sep or not column or not field_name:
            raise ValueError(
                f"--csv-map wants COLUMN=FIELD, got {item!r}"
            )
        columns[column] = field_name
    constants = {}
    for item in args.csv_const:
        field_name, sep, value = item.partition("=")
        if not sep or not field_name:
            raise ValueError(
                f"--csv-const wants FIELD=VALUE, got {item!r}"
            )
        try:
            constants[field_name] = json.loads(value)
        except json.JSONDecodeError:
            constants[field_name] = value
    return CSVMapping(columns=columns, constants=constants)


def _resolve_cli_source(args: argparse.Namespace):
    """The ingest source for the SRC argument(s): one tailer, or a
    time-ordered :class:`~repro.ingest.MergedSource` over several."""
    from repro.ingest import MergedSource, resolve_source

    mapping = _parse_csv_mapping(args)
    sources = [
        resolve_source(path, args.source_kind, csv_mapping=mapping)
        for path in args.source
    ]
    if len(sources) == 1:
        return sources[0]
    return MergedSource(sources)


def _source_display(args: argparse.Namespace) -> str:
    return " ".join(args.source)


def _pipeline_settings(args: argparse.Namespace) -> int:
    """The runner's ``pipeline_depth``: 0 (inline) without
    ``--pipeline``; with it, ``--pipeline-depth`` (default 4), which
    must be at least 1."""
    from repro.ingest import validate_pipeline_options

    if not args.pipeline:
        if args.pipeline_depth is not None:
            # Neutralise-don't-kill, like the other ignored flags.
            print(
                "note: --pipeline-depth sizes the --pipeline stage "
                "queues; ignoring it without --pipeline",
                file=sys.stderr,
            )
        return 0
    depth = 4 if args.pipeline_depth is None else args.pipeline_depth
    validate_pipeline_options(depth)
    return depth


def _ingest_runner_options(args: argparse.Namespace) -> dict:
    audit_jobs = args.audit_jobs
    if not args.audit and audit_jobs != 1:
        # Without --audit the flag has no effect, so it is announced
        # and neutralised rather than validated — an ignored flag must
        # not be able to kill the tail.
        print(
            "note: --audit-jobs shards the per-batch audit, which only "
            "runs with --audit; ignoring it",
            file=sys.stderr,
        )
        audit_jobs = 1
    report_formats = list(dict.fromkeys(args.report_formats))
    report_dir = args.report_dir
    if (report_formats or report_dir) and not args.audit:
        # Same neutralise-don't-kill posture as --audit-jobs above.
        print(
            "note: --report/--report-dir render the per-batch audit "
            "report, which only runs with --audit; ignoring them",
            file=sys.stderr,
        )
        report_formats = []
        report_dir = None
    if report_dir and not report_formats:
        print(
            "note: --report-dir without --report names no formats; "
            "ignoring it",
            file=sys.stderr,
        )
        report_dir = None
    if report_formats and report_dir is None:
        report_dir = f"{args.dest}".rstrip("/") + ".reports"
    return {
        "batch_events": args.batch_events,
        "audit": args.audit,
        "audit_jobs": audit_jobs,
        "stats_cadence": args.stats_every,
        "interval": args.interval,
        "report_dir": report_dir,
        "report_formats": tuple(report_formats),
        "report_source": args.dest,
    }


def _drive_ingest(args: argparse.Namespace, runner, checkpoint_path: str) -> int:
    """Run a (resumed or fresh) ingest loop and render its progress."""
    import time as _time

    text = args.format == "text"
    snapshots: list = []
    started = _time.monotonic()
    metrics_writer = None
    if getattr(args, "metrics_out", None):
        from repro.telemetry import MetricsSnapshotWriter

        metrics_writer = MetricsSnapshotWriter(
            args.metrics_out, every=max(1, args.metrics_every)
        )

    def on_batch(batch) -> None:
        if metrics_writer is not None:
            metrics_writer.observe_batch()
        if batch.stats is not None:
            # Collected in both output modes: --format json emits the
            # cadenced snapshots (incl. federated per-source counters)
            # in the summary document instead of printing them live.
            # elapsed_s (monotonic, from drive start) makes the series
            # plottable without knowing the cadence.
            snapshots.append({
                **batch.stats.as_dict(),
                "elapsed_s": round(_time.monotonic() - started, 6),
            })
        if not text:
            return
        line = (
            f"batch {batch.index}: +{batch.events} event(s) "
            f"-> revision {batch.store_revision}"
        )
        if batch.report is not None:
            line += (
                f", {batch.report.total_violations} violation(s) "
                f"({len(batch.new_violations)} new)"
            )
        print(line, flush=True)
        for violation in batch.new_violations:
            print(f"  new: {violation.describe()}")
        if batch.stats is not None:
            for stat_line in batch.stats.summary_lines():
                print(f"  {stat_line}")

    interrupted = False
    try:
        summary = runner.run(
            max_batches=args.max_batches,
            idle_limit=args.until_idle,
            on_batch=on_batch,
        )
    except KeyboardInterrupt:
        interrupted = True
        summary = None
    finally:
        runner.close()  # audit worker pools, if any
        close = getattr(runner.trace.store, "close", None)
        if callable(close):
            close()
        runner.source.close()
        if metrics_writer is not None:
            metrics_writer.close()
            print(
                f"telemetry snapshots: {metrics_writer.path} "
                f"({metrics_writer.written} line(s))",
                file=sys.stderr,
            )
    if interrupted:
        print(
            f"interrupted; checkpoint at {checkpoint_path!r} — continue "
            f"with: python -m repro trace resume "
            f"{_source_display(args)} {args.dest}",
            file=sys.stderr,
        )
        return 130
    pipelined = runner.pipeline_depth > 0
    if args.format == "json":
        import json

        print(json.dumps({
            "source": (
                args.source[0] if len(args.source) == 1 else args.source
            ),
            "dest": args.dest,
            "checkpoint": checkpoint_path,
            "report_dir": getattr(runner, "report_dir", None),
            "batches": summary.batches,
            "events": summary.events,
            "store_revision": summary.store_revision,
            "stopped_on": summary.stopped_on,
            "pipelined": pipelined,
            "max_audit_lag_batches": summary.max_audit_lag_batches,
            "max_audit_lag_events": summary.max_audit_lag_events,
            "violations": (
                None if summary.report is None
                else summary.report.total_violations
            ),
            "overall_score": (
                None if summary.report is None
                else summary.report.overall_score
            ),
            **({"stats_snapshots": snapshots} if snapshots else {}),
        }, indent=2))
        return 0
    print(
        f"ingested {summary.events} event(s) in {summary.batches} "
        f"batch(es) -> revision {summary.store_revision} "
        f"(stopped on {summary.stopped_on}); checkpoint: {checkpoint_path}"
    )
    if pipelined:
        print(
            f"peak audit lag: {summary.max_audit_lag_batches} batch(es) "
            f"({summary.max_audit_lag_events} event(s)) behind the "
            "append stage"
        )
    if summary.report is not None:
        for line in summary.report.summary_lines():
            print(line)
    report_dir = getattr(runner, "report_dir", None)
    if report_dir is not None and summary.report is not None:
        print(f"rolling reports: {report_dir}")
    return 0


def _trace_tail(args: argparse.Namespace) -> int:
    import os

    from repro.core.trace import make_disk_store
    from repro.errors import IngestError, TraceError
    from repro.ingest import IngestRunner, checkpoint_path_for
    from repro.ingest.runner import validate_runner_options

    checkpoint_path = args.checkpoint or checkpoint_path_for(args.dest)
    if os.path.exists(checkpoint_path):
        print(
            f"checkpoint {checkpoint_path!r} already exists; continue "
            f"with 'trace resume {_source_display(args)} {args.dest}' "
            "or delete it to start over",
            file=sys.stderr,
        )
        return 2
    options = _ingest_runner_options(args)
    try:
        # Validate flags before the destination exists, so a bad flag
        # does not leave a stray empty store blocking the retry.
        depth = _pipeline_settings(args)
        validate_runner_options(
            options["batch_events"], options["stats_cadence"],
            options["interval"], options["audit_jobs"],
        )
        source = _resolve_cli_source(args)
        store = make_disk_store(args.dest, args.store)
    except (TraceError, ValueError) as error:
        print(
            f"cannot tail {_source_display(args)!r}: {error}",
            file=sys.stderr,
        )
        return 2
    try:
        runner = IngestRunner(
            source, store, checkpoint_path=checkpoint_path,
            pipeline_depth=depth, **options,
        )
        return _drive_ingest(args, runner, checkpoint_path)
    except (TraceError, IngestError) as error:
        print(f"ingest failed: {error}", file=sys.stderr)
        return 2


def _trace_resume(args: argparse.Namespace) -> int:
    from repro.core.store import open_store
    from repro.errors import IngestError, TraceError
    from repro.ingest import IngestRunner, checkpoint_path_for

    checkpoint_path = args.checkpoint or checkpoint_path_for(args.dest)
    if args.verify:
        # The PR 6 read-only sweep, run *before* the store is even
        # opened for writing: resuming on top of silent corruption
        # would checkpoint right past it.
        from repro.forensics import verify_store

        try:
            result = verify_store(args.dest)
        except TraceError as error:
            print(f"cannot verify {args.dest!r}: {error}", file=sys.stderr)
            return 2
        verify_out = sys.stdout if args.format == "text" else sys.stderr
        for line in result.summary_lines():
            print(line, file=verify_out)
        if not result.ok:
            print(
                f"destination {args.dest!r} is damaged; refusing to "
                "resume — salvage it first (trace repair)",
                file=sys.stderr,
            )
            return 1
    try:
        depth = _pipeline_settings(args)
        source = _resolve_cli_source(args)
        store = open_store(args.dest)
    except (TraceError, ValueError) as error:
        print(f"cannot resume {args.dest!r}: {error}", file=sys.stderr)
        return 2
    try:
        runner = IngestRunner.resume(
            source, store, checkpoint_path, pipeline_depth=depth,
            **_ingest_runner_options(args),
        )
        return _drive_ingest(args, runner, checkpoint_path)
    except (TraceError, IngestError) as error:
        close = getattr(store, "close", None)
        if callable(close):
            close()
        print(f"cannot resume {args.dest!r}: {error}", file=sys.stderr)
        return 2


def _trace_report(args: argparse.Namespace) -> int:
    from repro.errors import ReportError, TraceError
    from repro.report import (
        audit_document,
        make_exporter,
        manifest_document,
        verify_document,
    )

    if args.what == "verify":
        from repro.forensics import verify_store

        try:
            document = verify_document(verify_store(args.path))
        except TraceError as error:
            print(f"cannot verify {args.path!r}: {error}", file=sys.stderr)
            return 2
    elif args.what == "repair":
        from repro.forensics import read_manifest

        try:
            document = manifest_document(read_manifest(args.path))
        except TraceError as error:
            print(
                f"cannot load loss manifest {args.path!r}: {error}",
                file=sys.stderr,
            )
            return 2
    else:
        from repro.core.audit import AuditEngine

        store = _opened_store(args.path)
        if store is None:
            return 2
        try:
            report = AuditEngine().audit(store)
            document = audit_document(report, store, source=args.path)
        finally:
            store.close()
    exporter = make_exporter(args.format)
    if args.out is None:
        print(exporter.render(document), end="")
        return 0
    try:
        written = exporter.export(document, args.out)
    except ReportError as error:
        print(f"cannot export report: {error}", file=sys.stderr)
        return 2
    print(
        f"wrote {args.what} report ({exporter.format_name}, "
        f"{len(document.records)} record(s)) to {written}"
    )
    return 0


def _trace_verify(args: argparse.Namespace) -> int:
    from repro.errors import TraceError
    from repro.forensics import verify_store

    try:
        result = verify_store(args.path)
    except TraceError as error:
        print(f"cannot verify {args.path!r}: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(result.as_dict(), indent=2))
    else:
        for line in result.summary_lines():
            print(line)
    return 0 if result.ok else 1


def _trace_repair(args: argparse.Namespace) -> int:
    from repro.errors import TraceError
    from repro.forensics import repair_store

    try:
        result = repair_store(
            args.source, args.dest,
            dest_backend=args.store,
            manifest_path=args.manifest,
        )
    except TraceError as error:
        print(f"cannot repair {args.source!r}: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps({
            "manifest": result.manifest.as_dict(),
            "manifest_path": result.manifest_path,
            "dest_verify": result.verify.as_dict(),
        }, indent=2))
    else:
        for line in result.manifest.summary_lines():
            print(line)
        print(f"loss manifest: {result.manifest_path}")
        for line in result.verify.summary_lines():
            print(line)
    # 0: sound salvage (possibly lossy — the manifest says exactly what
    # was lost); 1: the salvaged store itself fails verification.
    return 0 if result.ok else 1


def _trace_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError, TraceError
    from repro.service import AuditService

    try:
        service = AuditService(
            args.data_dir,
            host=args.host,
            port=args.port,
            default_backend=args.store,
            default_audit_jobs=args.audit_jobs,
        )
    except (ServiceError, TraceError, OSError, ValueError,
            OverflowError) as error:
        # OverflowError is what ``socket.bind`` raises for an
        # out-of-range port — a bad argument, not a crash.
        print(f"cannot serve: {error}", file=sys.stderr)
        return 2
    where = args.data_dir if args.data_dir else "memory only"
    print(f"audit service listening on {service.url} ({where}, "
          f"default backend {args.store})")
    print(f"{len(service.tenants.names())} tenant(s) hosted; "
          "Ctrl-C checkpoints and closes every tenant")
    # Backgrounded non-interactive shells (CI steps, `cmd &` in
    # scripts) start children with SIGINT ignored, and Python keeps the
    # inherited disposition — re-arm it, and give SIGTERM the same
    # checkpoint-then-exit path a daemon supervisor expects.
    import signal

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        summary = service.close()
        print(
            f"\nshut down: {summary['tenants']} tenant(s) closed, "
            f"{summary['checkpointed']} checkpointed"
        )
        return 130
    service.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        args = build_trace_parser().parse_args(argv[1:])
        handlers = {
            "save": _trace_save,
            "replay": _trace_replay,
            "info": _trace_info,
            "query": _trace_query,
            "stats": _trace_stats,
            "tail": _trace_tail,
            "resume": _trace_resume,
            "report": _trace_report,
            "verify": _trace_verify,
            "repair": _trace_repair,
            "serve": _trace_serve,
        }
        return handlers[args.command](args)
    args = build_parser().parse_args(argv)
    if args.list_experiments:
        for experiment_id in sorted(EXPERIMENTS):
            print(f"{experiment_id}: {_DESCRIPTIONS.get(experiment_id, '')}")
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.stream_audit:
        if args.experiments:
            print(
                "note: --stream-audit replays the labelled scenarios; "
                f"ignoring experiment ids {', '.join(args.experiments)}",
                file=sys.stderr,
            )
        if args.audit_jobs < 0:
            print(
                f"--audit-jobs must be >= 0, got {args.audit_jobs}",
                file=sys.stderr,
            )
            return 2
        return _stream_audit(
            args.seed or 0, args.format, args.trace_backend,
            args.audit_jobs,
        )
    if args.audit_jobs:
        print(
            "note: --audit-jobs applies to --stream-audit (and to "
            "trace tail/resume); ignoring it for experiment runs",
            file=sys.stderr,
        )
    wanted = [e.upper() for e in args.experiments] or sorted(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    kwargs = {} if args.seed is None else {"seed": args.seed}
    results = run_many(wanted, jobs=args.jobs, backend=args.backend, **kwargs)
    if args.format == "json":
        import json

        print(json.dumps([_result_to_json(r) for r in results], indent=2))
        return 0
    for result in results:
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
