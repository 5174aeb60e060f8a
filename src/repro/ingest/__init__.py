"""Live ingestion: tail external platform exports into audited stores.

The paper's axioms are meant to be checked against *running*
platforms.  This package closes the gap between a platform's export
files — JSONL logs, segment directories, CSV dumps, possibly still
growing — and the TraceStore + delta-audit machinery:

* :mod:`repro.ingest.sources` — the :class:`IngestSource` protocol and
  the shipped tailers (JSONL file, persistent segment directory,
  mapped CSV), all normalising through :mod:`repro.core.serialize`;
  :mod:`repro.ingest.http_source` adds :class:`HTTPIngestSource`, the
  tailer over an audit-service tenant's export endpoint.
* :mod:`repro.ingest.checkpoint` — atomic, checksummed resume tokens
  binding a source position to a destination store revision.
* :mod:`repro.ingest.runner` — :class:`IngestRunner`, the cadenced
  poll → batched append + checkpoint → delta audit cycle, with
  :meth:`IngestRunner.resume` for exactly-once continuation after a
  kill.  ``pipeline_depth`` picks the schedule: 0 runs the stages
  inline on the calling thread; N > 0 overlaps them as threads over
  queues bounded at N batches (poll ∥ append+checkpoint ∥ coalescing
  delta audit) with backpressure and an audit-lag watermark.
  :class:`PipelinedIngestRunner` is the staged runner by name (depth 4
  by default).  :class:`MergedSource` (in ``sources``) feeds either
  schedule N exports interleaved by event time under one atomic
  checkpoint.

CLI counterparts: ``python -m repro trace tail`` and ``trace resume``
(``--pipeline``, repeatable ``SRC``).
"""

from __future__ import annotations

from repro.ingest.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    IngestCheckpoint,
    checkpoint_path_for,
    read_checkpoint,
    write_checkpoint,
)
from repro.ingest.http_source import HTTPIngestSource
from repro.ingest.runner import (
    IngestBatch,
    IngestRunner,
    IngestSummary,
    PipelinedIngestRunner,
    validate_pipeline_options,
)
from repro.ingest.sources import (
    SOURCE_KINDS,
    CSVExportSource,
    CSVMapping,
    IngestSource,
    JSONLExportSource,
    MergedSource,
    SegmentDirectorySource,
    export_jsonl,
    resolve_source,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CSVExportSource",
    "CSVMapping",
    "HTTPIngestSource",
    "IngestBatch",
    "IngestCheckpoint",
    "IngestRunner",
    "IngestSource",
    "IngestSummary",
    "JSONLExportSource",
    "MergedSource",
    "PipelinedIngestRunner",
    "SOURCE_KINDS",
    "SegmentDirectorySource",
    "checkpoint_path_for",
    "export_jsonl",
    "read_checkpoint",
    "resolve_source",
    "validate_pipeline_options",
    "write_checkpoint",
]
