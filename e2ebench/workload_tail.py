"""``tail``: what ``trace resume --audit`` does on a populated sqlite
store.

Set-up exports a discriminating market as JSONL (in a child process),
seeds a sqlite destination with the first 30% of it, and each round
resumes a fresh copy of that seeded store with ``IngestRunner.resume``
(``audit=True``, one checkpoint per batch).  The timed operation is one
``step()``: poll, append and commit, delta audit, new-violation diff,
checkpoint.  A round drains the rest of the export.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys

from e2ebench.harness import Context, Outcome, counter_total, disk_bytes, \
    peak_rss_mb

#: Events per ingest batch in the timed part: about 175 verdicts per
#: round.
BATCH_EVENTS = 24

#: Share of the export seeded before the timed part.  The verdict
#: latency climbs through the tail (the new-violation diff grows with
#: the square of the violation count; Axiom 2 starts sampling at the
#: 201st task, 83% in); from 30% on, the median falls on the long, flat
#: early stretch and the 90th percentile on the sampling plateau, so
#: neither sits on the steep part between them.
SEEDED_SHARE = 0.3

#: One round's timed operations at nominal speed, in seconds.
ROUND_S = 10.0


def violation_key(violation) -> str:
    from repro.service.wire import violation_to_dict

    return json.dumps(violation_to_dict(violation), sort_keys=True)


def _read_export(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _read_store_payloads(path: str) -> list[dict]:
    """The destination's events, straight from the sqlite file."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return [json.loads(payload) for (payload,) in connection.execute(
            "SELECT payload FROM events ORDER BY seq")]
    finally:
        connection.close()


def run(ctx: Context) -> Outcome:
    from repro.core.audit import AuditEngine
    from repro.core.store import open_store
    from repro.core.trace import make_disk_store
    from repro.ingest import IngestRunner, JSONLExportSource, read_checkpoint
    from repro.telemetry import get_registry

    inputs = os.path.join(ctx.workdir, "inputs")
    os.makedirs(inputs)
    subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "gen.py"),
         "tail", str(ctx.seed), inputs],
        check=True,
    )
    ctx.setup_reference()
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    export = manifest["export"]
    expected = _read_export(export)
    total = len(expected)
    seeded = int(total * SEEDED_SHARE)

    seed_db = os.path.join(ctx.workdir, "seed.db")
    store = make_disk_store(seed_db)
    runner = IngestRunner(JSONLExportSource(export), store,
                          checkpoint_path=seed_db + ".checkpoint",
                          batch_events=seeded)
    try:
        runner.run(max_batches=1)
    finally:
        runner.close()
        store.close()

    sizes: list[float] = []
    round_index = 0
    while ctx.next_round() is not None:
        dest = os.path.join(ctx.workdir, f"round{round_index}.db")
        checkpoint = dest + ".checkpoint"
        shutil.copy(seed_db, dest)
        shutil.copy(seed_db + ".checkpoint", checkpoint)
        before = get_registry().snapshot()
        store = open_store(dest)
        runner = IngestRunner.resume(
            JSONLExportSource(export), store, checkpoint,
            batch_events=BATCH_EVENTS, audit=True)
        baseline = runner.last_report
        batches = []
        tailed = 0
        try:
            while tailed < total - seeded:
                ctx.begin_op()
                batch = runner.step()
                ctx.end_op(events=batch.events)
                tailed += batch.events
                batches.append(batch)
            final = runner.last_report
            after = get_registry().snapshot()
            ctx.check(final == AuditEngine().audit(runner.trace),
                      "tail: final delta verdict differs from a batch audit")
        finally:
            runner.close()
            store.close()
        _check_round(ctx, baseline, batches, final, before, after,
                     total - seeded)
        ctx.check(_read_store_payloads(dest) == expected,
                  "tail: store events differ from the export's records")
        ctx.check(read_checkpoint(checkpoint).dest_revision == total,
                  "tail: final checkpoint dest_revision != export records")
        sizes.append(disk_bytes(dest, dest + "-wal", dest + "-shm") / total)
        for path in (dest, dest + "-wal", dest + "-shm", checkpoint):
            if os.path.exists(path):
                os.remove(path)
        round_index += 1
    return Outcome(peak_rss_mb=peak_rss_mb(),
                   store_bytes_per_event=sorted(sizes)[len(sizes) // 2])


def _check_round(ctx: Context, baseline, batches, final, before, after,
                 tailed: int) -> None:
    """New-violation diffs, coverage of the final verdict, telemetry."""
    previous = {violation_key(v) for v in baseline.violations}
    ever_new = set(previous)
    for batch in batches:
        keys = [violation_key(v) for v in batch.report.violations]
        fresh = [key for key in keys if key not in previous]
        ctx.check(
            [violation_key(v) for v in batch.new_violations] == fresh,
            f"tail: batch {batch.index} new_violations differ from the "
            "hash-based diff",
        )
        ever_new.update(fresh)
        previous = set(keys)
    ctx.check(all(violation_key(v) in ever_new for v in final.violations),
              "tail: a final violation was never new at any batch")

    def delta(name, **labels):
        return (counter_total(after, name, **labels)
                - counter_total(before, name, **labels))

    ctx.check(delta("repro_store_append_events_total") == tailed,
              "tail: repro_store_append_events_total != events tailed")
    ctx.check(delta("repro_audit_runs_total", engine="delta")
              == len(batches) + 1,
              "tail: repro_audit_runs_total != audits triggered")
