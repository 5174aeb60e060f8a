"""End-to-end audit benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload tail --seed 1 --seconds 10 --trace 0

``--workload`` is ``tail``, ``serve`` or ``report`` (see README.md).
With ``--trace 0`` the last line of standard output is one JSON object
with every end-to-end metric, speed-adjusted; the raw figures are
printed above it.  With ``--trace 1`` the object carries the per-layer
metrics instead.  Exit status 0 means the run completed; ``correct`` in
the JSON says whether every output check passed.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from e2ebench import measure  # noqa: E402

#: Process start on the ``perf_counter`` clock (interpreter start-up
#: included where ``/proc`` tells the process's age).
PROCESS_START = min(SCRIPT_START,
                    time.perf_counter() - measure.process_age_s())
FIRST_REF = statistics.median(
    measure.reference_s() for _ in range(measure.SETUP_REF_SAMPLES))

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "store_bytes_per_event": "bytes/event",
}

#: Where runs keep their scratch files and span dumps, under the
#: directory the command runs from.
RUN_DIR = ".e2ebench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tail", "serve", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name: str):
    if name == "tail":
        from e2ebench import workload_tail as module
    elif name == "serve":
        from e2ebench import workload_serve as module
    else:
        from e2ebench import workload_report as module
    return module


def _overhead_pct(ctx) -> float:
    """Mean adjusted operation time, traced phase over plain phase."""
    phases: dict[str, list[float]] = {"plain": [], "traced": []}
    for index, (op, factor) in enumerate(ctx.log.adjusted()):
        phases[ctx.op_phase[index]].append(op.raw_s * factor)
    if not phases["plain"] or not phases["traced"]:
        return 0.0
    return (statistics.mean(phases["traced"])
            / statistics.mean(phases["plain"]) - 1.0) * 100.0


def main(argv=None) -> int:
    from e2ebench.harness import Context
    from e2ebench.tracing import PER_LAYER, layer_metrics

    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    run_root = os.path.abspath(RUN_DIR)
    workdir = os.path.join(run_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = _workload(args.workload)
    ctx = Context(args.seed, args.seconds, bool(args.trace), workdir,
                  PROCESS_START, FIRST_REF, workload.ROUND_S)
    try:
        outcome = workload.run(ctx)
        ctx.close_log()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = measure.summarize(
        ctx.log, ctx.setup_raw_s, ctx.setup_factor,
        outcome.peak_rss_mb, outcome.store_bytes_per_event)
    attempted = len(ctx.log.ops)
    print(f"workload {args.workload} seed {args.seed}: {attempted} "
          f"verdicts, {measure.samples_beyond(attempted, 0.9)} beyond p90")
    for name, value in summary["metrics"].items():
        print(f"  {name:<24} {value:14.4f} {END_TO_END_UNITS[name]:<12}"
              f"raw {summary['raw'][name]:.4f}")
    for failure in ctx.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if args.trace:
        factors = {}
        for index, (_op, factor) in enumerate(ctx.log.adjusted()):
            if ctx.op_phase[index] == "traced":
                factors[index] = factor
        spans = list(ctx.tracer.spans) + outcome.foreign_spans
        counts = dict(ctx.tracer.counts)
        for key, amount in outcome.foreign_counts.items():
            counts[key] = counts.get(key, 0.0) + amount
        ref_ms = statistics.median(v for _, v in ctx.log.refs) * 1e3
        values = layer_metrics(spans, counts, factors, ref_ms=ref_ms,
                               overhead_pct=_overhead_pct(ctx),
                               extra=outcome.layer_extra)
        ctx.tracer.uninstall()
        ctx.tracer.dump(os.path.join(run_root, "spans",
                                     f"{args.workload}.jsonl"), "client")
        for name, value in values.items():
            print(f"  {name:<28} {value:14.6g} {PER_LAYER[name]}")
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in summary["metrics"].items()}
    print(json.dumps({
        "correct": not ctx.failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
