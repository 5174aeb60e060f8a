"""Input generation: simulated crowdsourcing markets, from a seed.

The program under test only ever sees what this module writes: a JSONL
export (``tail``), a fleet of saved stores (``report``), or wire
records (``serve``, generated in the client process).  ``tail`` and
``report`` inputs are made in a child process (``python3 gen.py ...``)
so the simulator's memory never counts toward the program's peak RSS.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter

if __name__ == "__main__":  # run as a child: make the sources importable
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from repro.core.entities import Requester  # noqa: E402
from repro.platform.review import SilentRejectReview  # noqa: E402
from repro.platform.session import Session, SessionConfig  # noqa: E402
from repro.platform.visibility import BiasedVisibility  # noqa: E402
from repro.transparency.enforcement import PolicyEnforcer  # noqa: E402
from repro.transparency.presets import preset  # noqa: E402
from repro.workloads.skills import standard_vocabulary  # noqa: E402
from repro.workloads.tasks import TaskStream  # noqa: E402
from repro.workloads.workers import PopulationSpec, population  # noqa: E402

#: ``tail``: one fixed market -- 40 workers, 10 rounds x 25 tasks, so
#: 250 posted tasks, past the ~200 at which Axiom 2 switches to pair
#: sampling; about 6100 events and 660 violations.  The run's seed
#: relabels it (see :func:`relabel`).
TAIL_MARKET = {"seed": 11, "n_workers": 40, "rounds": 10,
               "tasks_per_round": 25}

#: ``report``: fleet size and the (workers, rounds) ladder its store
#: sizes cycle through -- about 180 to 2600 events per store.
REPORT_STORES = 110
REPORT_LADDER = ((4, 2), (6, 2), (8, 3), (10, 3), (12, 4), (14, 4),
                 (16, 5), (20, 6), (24, 7))
REPORT_TASKS_PER_ROUND = 10


def _requesters() -> list[Requester]:
    return [
        Requester(
            requester_id=f"r{index:04d}",
            name=f"requester {index}",
            hourly_wage=6.0,
            payment_delay=5,
            recruitment_criteria="qualified workers",
            rejection_criteria="quality below 0.5",
            rating=4.0,
        )
        for index in (1, 2)
    ]


def market(seed: int, n_workers: int, rounds: int, tasks_per_round: int):
    """A discriminating market: premium tasks hidden from one group,
    silent rejections, and a partial-disclosure transparency policy.
    Returns the session's :class:`~repro.core.trace.PlatformTrace`."""
    vocabulary = standard_vocabulary()
    workers, behaviors = population(
        PopulationSpec(size=n_workers,
                       behavior_mix={"diligent": 0.7, "sloppy": 0.3},
                       seed=seed),
        vocabulary,
    )
    stream = TaskStream(vocabulary=vocabulary,
                        tasks_per_round=tasks_per_round, skills_per_task=1,
                        requester_ids=("r0001", "r0002"))
    enforcer = PolicyEnforcer(preset("crowdflower"), platform_stats={
        "fee_structure": "20% fee on rewards",
        "dispute_process": "email support within 48h",
        "estimated_hourly_wage": 5.5,
    })
    config = SessionConfig(
        rounds=rounds, tasks_per_round=tasks_per_round, seed=seed,
        visibility=BiasedVisibility(attribute="group",
                                    disadvantaged_value="green",
                                    reward_ceiling=0.2),
        review_policy=SilentRejectReview(threshold=0.55),
        transparency=enforcer,
    )
    session = Session(config=config, workers=workers, behaviors=behaviors,
                      requesters=_requesters(), task_factory=stream)
    return session.run().trace


def relabel(records: list[dict], seed: int) -> list[dict]:
    """The same market with its worker, task, requester and
    contribution ids permuted by ``seed``.

    A seed-driven simulation of the ``tail`` market moves its violation
    count by about 15% and the tail's throughput by about 33% from seed
    to seed (the new-violation diff is quadratic in it), more than any
    regression bound could absorb.  Relabelling keeps the market's
    shape and changes every id, id order and hash layout.
    """
    rng = random.Random(seed)
    groups: dict[str, list[str]] = {
        "worker_registered": [], "task_posted": [],
        "requester_registered": [], "contribution_submitted": []}
    entity = {"worker_registered": "worker", "task_posted": "task",
              "requester_registered": "requester",
              "contribution_submitted": "contribution"}
    for record in records:
        kind = record["kind"]
        if kind in groups:
            name = entity[kind]
            groups[kind].append(record[name][f"{name}_id"])
    mapping: dict[str, str] = {}
    for ids in groups.values():
        shuffled = list(ids)
        rng.shuffle(shuffled)
        mapping.update(zip(ids, shuffled))

    def convert(value):
        if isinstance(value, str):
            if value in mapping:
                return mapping[value]
            prefix, colon, rest = value.partition(":")
            if colon and prefix in ("worker", "requester") and rest in mapping:
                return f"{prefix}:{mapping[rest]}"
            return value
        if isinstance(value, list):
            return [convert(item) for item in value]
        if isinstance(value, dict):
            return {key: convert(item) for key, item in value.items()}
        return value

    return [convert(record) for record in records]


def write_tail_export(seed: int, out_dir: str) -> dict:
    """The ``tail`` export: the fixed market, relabelled, as JSONL."""
    from repro.core.serialize import event_from_dict, event_to_dict
    from repro.ingest import export_jsonl

    trace = market(**TAIL_MARKET)
    records = relabel([event_to_dict(e) for e in trace.events], seed)
    path = os.path.join(out_dir, "export.jsonl")
    export_jsonl([event_from_dict(record) for record in records], path)
    return {"export": path}


def touches_worker(record: dict, worker_id: str) -> bool:
    """Whether a wire record names ``worker_id`` -- read off the record
    fields, independently of the program's touched-entity index."""
    return (
        record.get("worker_id") == worker_id
        or record.get("audience_worker_id") == worker_id
        or record.get("subject") == f"worker:{worker_id}"
        or (record.get("worker") or {}).get("worker_id") == worker_id
        or (record.get("contribution") or {}).get("worker_id") == worker_id
    )


def touches_task(record: dict, task_id: str) -> bool:
    """Whether a wire record names ``task_id`` (same rule as
    :func:`touches_worker`)."""
    return (
        record.get("task_id") == task_id
        or task_id in record.get("task_ids", ())
        or (record.get("task") or {}).get("task_id") == task_id
        or (record.get("contribution") or {}).get("task_id") == task_id
    )


def write_report_fleet(seed: int, out_dir: str) -> dict:
    """The ``report`` fleet: stores of both on-disk formats and sizes
    spread over more than an order of magnitude, saved with
    :func:`~repro.core.serialize.save_trace`."""
    from repro.core.serialize import event_to_dict, save_trace
    from repro.telemetry import get_registry

    from e2ebench.harness import counter_total

    stores = []
    for index in range(REPORT_STORES):
        n_workers, rounds = REPORT_LADDER[index % len(REPORT_LADDER)]
        trace = market(seed * 1000 + index, n_workers, rounds,
                       REPORT_TASKS_PER_ROUND)
        if index % 2:
            path = os.path.join(out_dir, f"store{index:03d}.db")
            backend = "sqlite"
        else:
            path = os.path.join(out_dir, f"store{index:03d}")
            backend = "persistent"
        save_trace(trace, path, backend=backend)
        records = [event_to_dict(event) for event in trace.events]
        worker = f"w{1 + index % n_workers:04d}"
        task = f"t{1 + index % REPORT_TASKS_PER_ROUND:04d}"
        stores.append({
            "path": path,
            "backend": backend,
            "events": len(records),
            "kind_counts": dict(Counter(r["kind"] for r in records)),
            "worker": worker,
            "worker_events": sum(touches_worker(r, worker) for r in records),
            "task": task,
            "task_events": sum(touches_task(r, task) for r in records),
        })
    snapshot = get_registry().snapshot()
    return {
        "stores": stores,
        "telemetry_events_appended": counter_total(
            snapshot, "repro_store_append_events_total"),
    }


def main(argv: list[str]) -> int:
    kind, seed, out_dir = argv[0], int(argv[1]), argv[2]
    writers = {"tail": write_tail_export, "report": write_report_fleet}
    manifest = writers[kind](seed, out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
