"""Runs ``trace serve`` in this process, optionally traced.

Usage: ``python3 serve_launcher.py DATA_DIR RESULT_JSON [--trace]``.

Calls :func:`repro.cli.main` with ``trace serve DATA_DIR --port 0``
(SIGINT checkpoints and closes every tenant, then the call returns).
At exit it writes RESULT_JSON with the process's peak RSS and, with
``--trace``, a span dump next to it.  Traced, every request runs as one
benchmark operation whose id is the request's start time on the
``perf_counter`` clock (CLOCK_MONOTONIC, shared with the client
process), so the client can map server spans onto its own operations.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv: list[str]) -> int:
    data_dir, result_path = argv[0], argv[1]
    tracer = None
    if "--trace" in argv[2:]:
        from e2ebench.tracing import Tracer, install
        from repro.service.app import ServiceApp

        tracer = install(Tracer())
        dispatch = ServiceApp.dispatch

        def dispatch_as_op(self, *args, **kwargs):
            tracer.op = time.perf_counter()
            try:
                return dispatch(self, *args, **kwargs)
            finally:
                tracer.op = None

        tracer.patch(ServiceApp, "dispatch", dispatch_as_op)
    from repro.cli import main as cli_main

    code = cli_main(["trace", "serve", data_dir, "--port", "0",
                     "--store", "sqlite"])
    result = {
        "exit": code,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = result_path + ".spans.jsonl"
        tracer.dump(result["spans"], "server")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
