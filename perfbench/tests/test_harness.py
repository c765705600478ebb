"""The benchmark's arithmetic: self time and percentiles."""

import pytest

from harness import MIN_BEYOND, Span, Tracer, self_times, tail_percentile


def test_self_time_subtracts_children():
    spans = [
        Span("step", 0.0, 10.0, None, "r"),
        Span("rhs", 1.0, 4.0, 0, "r"),
        Span("rhs", 5.0, 7.0, 0, "r"),
        Span("sweep", 2.0, 3.0, 1, "r"),
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        Span("sweep", 0.0, 4.0, None, "r"),
        Span("strip", 1.0, 3.0, 0, "r"),
        Span("strip", 2.0, 5.0, 0, "r"),  # overlaps its sibling, ends past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


class Engine:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_nests_spans_and_restores():
    tracer = Tracer()
    engine = Engine()
    tracer.wrap(engine, "outer", "outer")
    tracer.wrap(engine, "inner", "inner")
    tracer.run_id = "t0"
    assert engine.outer() == 2
    tracer.restore()
    assert "outer" not in vars(engine) and "inner" not in vars(engine)
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    summary = tracer.summary({"t0"})
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["self"] == pytest.approx(outer.seconds - inner.seconds)
    engine.outer()
    assert len(tracer.spans) == 2  # restored: nothing more recorded


def test_tracer_wraps_class_methods_and_observes_arguments():
    tracer = Tracer()
    seen = []
    tracer.wrap(Engine, "inner", "inner", observe=lambda self: seen.append(self))
    try:
        engine = Engine()
        assert engine.outer() == 2
    finally:
        tracer.restore()
    assert seen == [engine]
    assert Engine.inner(engine) == 1 and len(tracer.spans) == 1


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(99)), 90) is None
    samples = list(range(100))
    assert tail_percentile(samples, 90) == 89
    assert sum(1 for s in samples if s > 89) == MIN_BEYOND


def test_percentile_ignores_input_order():
    assert tail_percentile(list(reversed(range(200))), 90) == 179


def test_percentile_metrics_report_sample_count():
    from workloads import percentile_metrics

    few = percentile_metrics("step_ms", [0.001] * 50)
    assert few["step_ms_samples"] == (50.0, "count")
    assert few["step_ms_p50"] == (pytest.approx(1.0), "ms")
    assert "step_ms_p90" not in few
    many = percentile_metrics("step_ms", [0.001] * 100)
    assert many["step_ms_p90"] == (pytest.approx(1.0), "ms")
