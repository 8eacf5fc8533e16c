import pytest

import layers
from spans import NO_PARENT, Span, Tracer, outermost, self_times


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        Span("cli", 0.0, 10.0, NO_PARENT),
        Span("ingest.parse", 1.0, 3.0, 0),
        Span("compose.predict", 4.0, 8.0, 0),
        Span("engine.forward", 5.0, 6.0, 2),
        # A child reported past its parent's end only covers up to that end,
        # and overlapping children are not counted twice.
        Span("engine.forward", 7.5, 9.0, 2),
        Span("engine.forward", 7.0, 7.8, 2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0 - 1.0 - 1.0)
    assert own[3] == pytest.approx(1.0)


def test_outermost_skips_same_name_descendants():
    spans = [
        Span("compose.predict", 0.0, 4.0, NO_PARENT),
        Span("preprocess.encode", 0.5, 1.0, 0),
        Span("compose.predict", 1.0, 3.0, 0),
        Span("engine.forward", 1.5, 2.0, 2),
        Span("compose.predict", 5.0, 6.0, NO_PARENT),
    ]
    assert outermost(spans) == [True, True, False, True, True]


def test_tracer_records_nesting_counts_and_failures():
    tracer = Tracer()

    def inner(rows):
        return list(range(rows))

    def fails():
        raise KeyError("boom")

    traced_inner = tracer.wrap("inner", inner, lambda args, kwargs, result: (len(result), "t"))
    traced_fails = tracer.wrap("fails", fails)
    traced_outer = tracer.wrap("outer", lambda: traced_inner(3))

    traced_outer()  # inactive: nothing recorded
    tracer.active = True
    assert traced_outer() == [0, 1, 2]
    with pytest.raises(KeyError):
        traced_fails()
    with tracer.paused():
        traced_inner(2)
    spans = tracer.finished()

    assert [s.name for s in spans] == ["outer", "inner", "fails"]
    assert spans[0].parent == NO_PARENT and spans[1].parent == 0
    assert (spans[1].count, spans[1].tag) == (3, "t")
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end
    assert spans[2].parent == NO_PARENT


def test_extend_rebases_parent_links():
    tracer = Tracer()
    tracer.extend([Span("a", 0.0, 1.0, NO_PARENT)])
    tracer.extend([Span("b", 0.0, 2.0, NO_PARENT), Span("c", 0.5, 1.0, 0)])
    assert [s.parent for s in tracer.finished()] == [NO_PARENT, NO_PARENT, 1]


def test_layer_metrics_self_times_and_rows_per_call():
    spans = [
        Span("cli", 0.0, 10.0, NO_PARENT),
        Span("ingest.parse", 1.0, 3.0, 0, count=2),
        Span("compose.predict", 4.0, 6.0, 0, count=1),
        Span("compose.predict", 4.5, 5.5, 2, count=1),
        Span("compose.predict", 6.0, 7.0, 0, count=3),
        Span("pipeline", 20.0, 30.0, NO_PARENT),
        Span("ingest.synthesize", 21.0, 25.0, 5),
    ]
    metrics, _ = layers.layer_metrics(spans)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["cli.predict_self_s"] == pytest.approx(10.0 - 2.0 - 2.0 - 1.0)
    assert metrics["pipeline.self_s"] == pytest.approx(6.0)
    assert metrics["ingest.parse_rows"] == 2
    assert metrics["compose.predict_s"] == pytest.approx(3.0)
    assert metrics["compose.predict_calls"] == 2
    assert metrics["compose.rows_per_call"] == pytest.approx(2.0)
