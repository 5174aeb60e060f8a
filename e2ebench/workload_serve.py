"""``serve``: one client against ``trace serve`` over loopback.

The server runs in a child process (``serve_launcher.py``) with sqlite
tenants; every other tenant is created with ``audit_jobs=2``.  Each
tenant replays a small market (72 posted tasks, so Axiom 2 takes its
exact pair-index path).  The client visits the tenants round-robin and,
per batch, sends append, run-audit, ``watch(after=cursor)`` -- whose
reply carries the batch's verdict -- and one entity-scoped count query.
That sequence is the timed operation.  Reference samples are taken in
the client between operations, while the server is idle.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

from e2ebench.harness import Context, Outcome, counter_total, disk_bytes
from e2ebench.gen import touches_worker
from e2ebench.measure import percentile

TENANTS = 6
#: One round's timed operations at nominal speed, in seconds.
ROUND_S = 3.3
TENANT_MARKET = {"n_workers": 16, "rounds": 6, "tasks_per_round": 12}
BATCH_EVENTS = 32
#: The worker every entity-scoped query asks about.
QUERY_WORKER = "w0001"
ROUTES = ("append", "audit", "watch", "query")
#: Offset added to server span ids when they join the client's spans.
SERVER_SPAN_IDS = 1 << 40


class Server:
    """One ``trace serve`` child process."""

    def __init__(self, workdir: str, index: int, traced: bool) -> None:
        self.data_dir = os.path.join(workdir, f"server{index}")
        self.result_path = os.path.join(workdir, f"server{index}.json")
        command = [sys.executable,
                   os.path.join(os.path.dirname(__file__),
                                "serve_launcher.py"),
                   self.data_dir, self.result_path]
        if traced:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        line = self.process.stdout.readline()
        if "listening on " not in line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"trace serve did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def stop(self) -> dict:
        """SIGINT (checkpoint and close every tenant), wait, and read
        the launcher's result."""
        self.process.send_signal(signal.SIGINT)
        self.process.communicate(timeout=60)
        with open(self.result_path, encoding="utf-8") as handle:
            return json.load(handle)


class Client:
    """The benchmark's client: counts every request it issues."""

    def __init__(self, url: str) -> None:
        from repro.service import ServiceClient

        self.api = ServiceClient(url)
        self.requests = 0

    def call(self, method: str, *args, **kwargs):
        self.requests += 1
        return getattr(self.api, method)(*args, **kwargs)


def run(ctx: Context) -> Outcome:
    from repro.core.audit import AuditEngine
    from repro.core.serialize import event_to_dict
    from repro.core.trace import PlatformTrace
    from repro.service.wire import report_to_dict, violation_key

    from e2ebench.gen import market

    traces = [market(ctx.seed * 100 + index, **TENANT_MARKET)
              for index in range(TENANTS)]
    records = [[event_to_dict(event) for event in trace.events]
               for trace in traces]
    expected_reports: list[dict] | None = None
    servers: list[tuple[Server, dict]] = []
    server = Server(ctx.workdir, 0, traced=False)
    client = Client(server.url)
    issued = {"requests": 0, "audits": 0, "events": 0}
    route_times: dict[str, list[tuple[int, float]]] = {r: [] for r in ROUTES}
    try:
        round_index = 0
        while (phase := ctx.next_round()) is not None:
            if phase == "traced" and not servers:
                servers.append((server, _finish_server(client, server, issued,
                                                       ctx)))
                server = Server(ctx.workdir, 1, traced=True)
                client = Client(server.url)
                issued = {"requests": 0, "audits": 0, "events": 0}
            names = [f"r{round_index}t{index}" for index in range(TENANTS)]
            for index, name in enumerate(names):
                client.call("create_tenant", name, backend="sqlite",
                            audit_jobs=2 if index % 2 else 1)
            cursors = [0] * TENANTS
            offsets = [0] * TENANTS
            fresh = [Counter() for _ in range(TENANTS)]
            worker_events = [0] * TENANTS
            while any(offsets[i] < len(records[i]) for i in range(TENANTS)):
                for index, name in enumerate(names):
                    batch = records[index][offsets[index]:
                                           offsets[index] + BATCH_EVENTS]
                    if not batch:
                        continue
                    start = ctx.begin_op()
                    client.call("append", name, batch)
                    appended = time.perf_counter()
                    client.call("run_audit", name)
                    audited = time.perf_counter()
                    watched = client.call("watch", name, after=cursors[index],
                                          timeout=30.0)
                    verdict = time.perf_counter()
                    count = client.call("query", name, entity=[QUERY_WORKER],
                                        entity_kind="worker", count=True)
                    queried = time.perf_counter()
                    op = ctx.end_op(events=len(batch),
                                    verdict_s=verdict - start)
                    op_id = len(ctx.log.ops) - 1
                    for route, seconds in zip(ROUTES, (
                            appended - start, audited - appended,
                            verdict - audited, queried - verdict)):
                        route_times[route].append((op_id, seconds))
                    op.extra["requests_s"] = queried - start
                    offsets[index] += len(batch)
                    issued["audits"] += 1
                    issued["events"] += len(batch)
                    audits = watched["audits"]
                    ctx.check(
                        [a["audit"] for a in audits] == [cursors[index]]
                        and watched["next"] == cursors[index] + 1,
                        f"serve: watch records of {name} not contiguous")
                    cursors[index] = watched["next"]
                    for audit in audits:
                        fresh[index].update(violation_key(v)
                                            for v in audit["new_violations"])
                    worker_events[index] += sum(
                        touches_worker(record, QUERY_WORKER)
                        for record in batch)
                    ctx.check(count["count"] == worker_events[index],
                              f"serve: entity query count of {name} differs")
            if expected_reports is None:
                expected_reports = [
                    report_to_dict(AuditEngine().audit(PlatformTrace(events)))
                    for events in (trace.events for trace in traces)]
            for index, name in enumerate(names):
                latest = client.call("latest_audit", name)
                ctx.check(latest == expected_reports[index],
                          f"serve: {name} verdict differs from a local audit")
                final = Counter(violation_key(v) for v in latest["violations"])
                ctx.check(not final - fresh[index],
                          f"serve: {name} watch deltas miss final violations")
                stats = client.call("stats", name)
                ctx.check(stats["kind_counts"]
                          == dict(Counter(r["kind"] for r in records[index])),
                          f"serve: {name} per-kind stats differ")
                client.call("close_tenant", name)
            round_index += 1
        servers.append((server, _finish_server(client, server, issued, ctx)))
    except BaseException:
        # Never leave the server running behind a failed run.
        server.kill()
        raise
    return _outcome(ctx, servers, route_times)


def _finish_server(client: Client, server: Server, issued: dict,
                   ctx: Context) -> dict:
    """Cross-check the server's telemetry, then stop it."""
    issued["requests"] = client.requests
    snapshot = client.api.metrics_json()
    # The scrape itself is not among the requests the client counted.
    served = (counter_total(snapshot, "repro_service_requests_total")
              - counter_total(snapshot, "repro_service_requests_total",
                              route="/metrics"))
    ctx.check(served == issued["requests"],
              "serve: repro_service_requests_total != requests issued")
    ctx.check(counter_total(snapshot, "repro_audit_runs_total")
              == issued["audits"],
              "serve: repro_audit_runs_total != audits triggered")
    ctx.check(counter_total(snapshot, "repro_store_append_events_total")
              == issued["events"],
              "serve: repro_store_append_events_total != events appended")
    result = server.stop()
    result["events"] = issued["events"]
    result["store_bytes"] = disk_bytes(*(
        os.path.join(server.data_dir, name)
        for name in os.listdir(server.data_dir) if ".db" in name))
    return result


def _outcome(ctx: Context, servers, route_times) -> Outcome:
    from e2ebench.tracing import load_dump

    first = servers[0][1]
    outcome = Outcome(
        peak_rss_mb=first["peak_rss_mb"],
        store_bytes_per_event=first["store_bytes"] / first["events"])
    if not ctx.trace:
        return outcome
    adjusted = ctx.log.adjusted()
    factors = {index: factor for index, (_op, factor) in enumerate(adjusted)
               if ctx.op_phase[index] == "traced"}
    for route, samples in route_times.items():
        values = [seconds * factors[op] * 1e3 for op, seconds in samples
                  if op in factors]
        outcome.layer_extra[f"service.{route}_ms"] = percentile(values, 0.5)
    spans, counts = load_dump(servers[-1][1]["spans"])
    kept = os.path.join(os.path.dirname(ctx.workdir), "spans")
    os.makedirs(kept, exist_ok=True)
    shutil.copy(servers[-1][1]["spans"],
                os.path.join(kept, "serve-server.jsonl"))
    traced_ops = sorted(factors)
    starts = [adjusted[index][0].start for index in traced_ops]

    def op_at(moment):
        """The traced operation whose interval holds ``moment``."""
        if moment is None:
            return None
        position = bisect.bisect_right(starts, moment) - 1
        if position < 0:
            return None
        index = traced_ops[position]
        return index if moment <= adjusted[index][0].end else None

    # Server span ids restart at 1: move them clear of the client's.
    outcome.foreign_spans = [
        (SERVER_SPAN_IDS + span_id, name, start, end,
         SERVER_SPAN_IDS + parent if parent else 0, op_at(op))
        for span_id, name, start, end, parent, op in spans]
    for (name, op), amount in counts.items():
        key = (name, op_at(op))
        outcome.foreign_counts[key] = (
            outcome.foreign_counts.get(key, 0.0) + amount)
    dispatch = Counter()
    for _id, name, start, end, _parent, op in outcome.foreign_spans:
        if name == "service.dispatch" and op is not None:
            dispatch[op] += end - start
    transport = sum(
        (adjusted[index][0].extra["requests_s"] - dispatch[index])
        * factors[index] for index in factors)
    outcome.layer_extra["service.transport_s"] = transport / len(factors)
    return outcome
