"""The per-batch new-violation diff stays linear in the report size.

A batch's ``new_violations`` are the violations of its report with no
equal violation in the previous audited report.  The runner is driven
through ``step()`` with a stub session that returns two scripted reports
of about 2,000 violations each.  Every violation is built as a fresh
object, so identity shortcuts inside ``in`` never skip a comparison; the
reports hold duplicates and violations that share every field but their
witness.
"""

import pytest

from repro.core.audit import AuditReport
from repro.core.axioms import AxiomCheck
from repro.core.trace import PlatformTrace
from repro.core.violations import Violation, ViolationSeverity
from repro.ingest import IngestRunner, JSONLExportSource, export_jsonl
from repro.workloads.scenarios import clean_scenario

#: Distinct violation keys per report.
KEYS = 1000


def _violation(i, seen):
    # Fresh subjects, message, and witness per call: equal values, never
    # the same objects.
    return Violation(
        axiom_id=1 + i % 2,
        message=f"worker w{i:04d} was passed over",
        time=i // 3,
        severity=ViolationSeverity.WARNING,
        subjects=(f"w{i:04d}", f"t{i % 50:03d}"),
        witness={"pair": [f"w{i:04d}", "w9999"], "seen": seen},
    )


def _report(violations):
    return AuditReport(
        results=tuple(
            AxiomCheck(
                axiom_id=axiom_id,
                title=f"axiom {axiom_id}",
                violations=tuple(
                    v for v in violations if v.axiom_id == axiom_id
                ),
                opportunities=len(violations),
            )
            for axiom_id in (1, 2)
        ),
        trace_length=len(violations),
    )


def _previous():
    violations = []
    for i in range(KEYS):
        violations.append(_violation(i, seen=0))
        violations.append(_violation(i, seen=1))  # same key, other witness
        if i % 10 == 0:
            violations.append(_violation(i, seen=0))  # duplicate
    return _report(violations)


def _current():
    violations = []
    for i in range(KEYS // 10, KEYS + KEYS // 10):
        violations.append(_violation(i, seen=0))  # new only past KEYS
        violations.append(_violation(i, seen=2))  # always new
        if i % 7 == 0:
            violations.append(_violation(i, seen=2))  # duplicate
    return _report(violations)


class ScriptedSession:
    """Returns the scripted reports in order, one per audit."""

    def __init__(self, reports):
        self.reports = list(reports)

    def audit(self, trace):
        return self.reports.pop(0)


@pytest.fixture()
def runner(tmp_path):
    export = export_jsonl(
        list(clean_scenario().trace), tmp_path / "export.jsonl"
    )
    runner = IngestRunner(
        JSONLExportSource(export), PlatformTrace(), batch_events=10,
        audit=True,
    )
    runner._session = ScriptedSession([_previous(), _current()])
    return runner


def test_new_violations_match_the_full_scan(runner):
    first = runner.step()
    assert first.new_violations == first.report.violations
    second = runner.step()
    previous, current = first.report, second.report
    assert second.new_violations == tuple(
        violation
        for violation in current.violations
        if violation not in previous.violations
    )
    # Sanity of the scripted reports: both verdicts occur.
    assert 0 < len(second.new_violations) < len(current.violations)


def test_new_violations_compare_linearly(runner, monkeypatch):
    first = runner.step()
    calls = 0
    original_eq = Violation.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return original_eq(self, other)

    monkeypatch.setattr(Violation, "__eq__", counting_eq)
    second = runner.step()
    monkeypatch.undo()
    size = len(first.report.violations) + len(second.report.violations)
    assert size > 4000
    # A scan of the previous report per violation costs about V²/2
    # comparisons here, over two million.
    assert calls <= 2 * size, (
        f"{calls} Violation.__eq__ calls for {size} violations"
    )
