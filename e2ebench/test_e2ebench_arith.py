"""Quick checks of the benchmark's own arithmetic (no workload runs)."""

import pytest

from e2ebench.measure import (
    NOMINAL_REF_S,
    Op,
    OpLog,
    percentile,
    samples_beyond,
    speed_factor,
    summarize,
    tail_percentile,
)
from e2ebench.tracing import layer_metrics, self_times


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.9) == 90
        assert percentile(values, 1.0) == 100
        assert percentile([7.0, 1.0, 3.0], 0.5) == 3.0

    def test_samples_beyond(self):
        assert samples_beyond(100, 0.9) == 10
        assert samples_beyond(99, 0.9) == 9
        assert samples_beyond(250, 0.9) == 25

    def test_tail_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(1, 101)), 0.9) == 90
        with pytest.raises(ValueError, match="9 beyond"):
            tail_percentile(list(range(1, 100)), 0.9)
        with pytest.raises(ValueError):
            tail_percentile(list(range(1, 101)), 0.99)


class TestSpeedAdjustment:
    def test_factor_is_nominal_over_nearby_references(self):
        refs = [(0.0, 2 * NOMINAL_REF_S), (0.4, 4 * NOMINAL_REF_S),
                (9.0, 100 * NOMINAL_REF_S)]
        # Both samples within the window count; the far one does not.
        assert speed_factor(refs, 0.1, 0.2) == pytest.approx(1 / 3)

    def test_falls_back_to_the_bracketing_samples(self):
        refs = [(0.0, 2 * NOMINAL_REF_S), (5.0, 4 * NOMINAL_REF_S),
                (20.0, 8 * NOMINAL_REF_S)]
        assert speed_factor(refs, 2.0, 3.0) == pytest.approx(1 / 3)

    def test_slow_machine_times_scale_down(self):
        log = OpLog()
        log.refs = [(0.0, 2 * NOMINAL_REF_S), (10.0, 2 * NOMINAL_REF_S)]
        for index in range(100):
            start = 0.01 + index * 0.05
            log.add(Op(start=start, end=start + 0.04,
                       raw_s=0.04 if index < 90 else 0.08, events=4))
        result = summarize(log, setup_raw_s=3.0, setup_factor=0.5,
                           peak_rss_mb=1.0, store_bytes_per_event=1.0)
        metrics, raw = result["metrics"], result["raw"]
        assert metrics["setup_s"] == pytest.approx(1.5)
        assert raw["setup_s"] == pytest.approx(3.0)
        assert metrics["verdict_p50_ms"] == pytest.approx(20.0)
        assert raw["verdict_p50_ms"] == pytest.approx(40.0)
        assert metrics["verdict_p90_ms"] == pytest.approx(20.0)
        assert metrics["events_per_s"] == pytest.approx(
            400 / (0.5 * (90 * 0.04 + 10 * 0.08)))


class TestSelfTime:
    SPANS = [
        # id, name, start, end, parent, op
        (1, "outer", 0.0, 10.0, 0, 0),
        (2, "a", 1.0, 3.0, 1, 0),
        (3, "b", 2.0, 5.0, 1, 0),     # overlaps a (another thread)
        (4, "c", 8.0, 12.0, 1, 0),    # ends after its parent
        (5, "leaf", 1.5, 2.5, 2, 0),  # grandchild of outer
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = self_times(self.SPANS)
        assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(3.0)
        assert own[5] == pytest.approx(1.0)

    def test_layer_metrics_are_adjusted_per_operation(self):
        spans = [
            (1, "ingest.step", 0.0, 1.0, 0, 0),
            (2, "ingest.poll", 0.1, 0.3, 1, 0),
            (3, "ingest.step", 2.0, 2.5, 0, 1),
            (4, "ingest.step", 4.0, 9.0, 0, None),  # outside any op
        ]
        counts = {("ingest.fsyncs", 0): 2.0, ("ingest.fsyncs", 1): 2.0,
                  ("ingest.fsyncs", None): 7.0}
        metrics = layer_metrics(spans, counts, {0: 2.0, 1: 1.0},
                                ref_ms=1.0, overhead_pct=5.0)
        assert metrics["ingest.runner_self_s"] == pytest.approx(
            (0.8 * 2.0 + 0.5 * 1.0) / 2)
        assert metrics["ingest.poll_s"] == pytest.approx(0.2 * 2.0 / 2)
        assert metrics["ingest.fsyncs"] == pytest.approx(2.0)
        assert metrics["audit.batch_s"] == 0.0
        assert metrics["trace.overhead_pct"] == 5.0
