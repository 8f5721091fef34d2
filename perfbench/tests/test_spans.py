"""Span arithmetic: self time subtracts the union of children, counted once."""

import types

import pytest

from layers import LAYERS, layer_metrics
from spans import Tracer, children_of, layer_self_time, self_by_layer, self_time, union_length


def test_union_counts_overlap_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)
    assert union_length([(5.0, 6.0), (0.0, 1.0), (0.5, 0.75)]) == pytest.approx(2.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_with_overlapping_children():
    # Parent 0..10; children 1..4 and 3..6 overlap, 8..12 sticks out of the
    # parent. Covered: 1..6 and 8..10, so 7 of the 10 seconds.
    spans = [
        ["cli.x", 0.0, 10.0, -1, None],
        ["io.a", 1.0, 4.0, 0, None],
        ["io.b", 3.0, 6.0, 0, None],
        ["io.c", 8.0, 12.0, 0, None],
    ]
    assert self_time(spans, 0, children_of(spans)) == pytest.approx(3.0)


def test_layer_self_time_keeps_nested_calls_of_the_same_layer():
    spans = [
        ["tuner.iterative_tune", 0.0, 10.0, -1, None],
        ["tuner.power_for_shift", 1.0, 3.0, 0, None],
        ["physics.qubit_frequency", 1.5, 2.0, 1, None],
        ["dose.apply_anneal", 4.0, 7.0, 0, None],
    ]
    kids = children_of(spans)
    assert layer_self_time(spans, 0, kids) == pytest.approx(10.0 - 0.5 - 3.0)
    assert self_time(spans, 0, kids) == pytest.approx(10.0 - 2.0 - 3.0)


def _pass_spans():
    return [
        ["trace.pass", 0.0, 10.0, -1, None],
        ["cli.simulate_wafer", 0.5, 9.5, 0, None],
        ["io.load_json", 1.0, 1.5, 1, None],
        ["io.wafer_from_doc", 1.5, 2.0, 1, 4],
        ["wafer.run_batch", 2.0, 8.0, 1, (3, 4)],
        ["streams.child_rng", 2.0, 3.0, 4, None],
        ["dose.apply_anneal", 3.0, 4.0, 4, None],
        ["streams.child_rng", 4.0, 5.0, 4, None],
        ["io.write_json", 8.0, 9.0, 1, None],
        ["io.atomic_write_text", 8.5, 9.0, 8, None],
    ]


def test_layer_self_times_and_remainder_add_up_to_the_pass():
    spans = _pass_spans()
    selfs = self_by_layer(spans)
    assert selfs["trace"] == pytest.approx(1.0)
    assert selfs["cli"] == pytest.approx(9.0 - 0.5 - 0.5 - 6.0 - 1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)

    m = layer_metrics(spans, {})
    assert sum(m[f"{name}.self_s"] for name in LAYERS) + m["trace.unattributed_s"] == pytest.approx(
        m["trace.pass_s"]
    )
    assert m["io.load_s"] == pytest.approx(1.0)
    assert m["io.load_us_per_junction"] == pytest.approx(1e6 / 4)
    assert m["io.encode_json_s"] == pytest.approx(0.5)
    assert m["io.write_s"] == pytest.approx(0.5)
    assert m["wafer.run_batch_self_s"] == pytest.approx(3.0)
    assert m["wafer.qc_pass_frac"] == pytest.approx(0.75)
    assert m["streams.calls"] == 2
    # Loop from the first child_rng (2.0) to the last non-io call (5.0).
    assert m["streams.share"] == pytest.approx(2.0 / 3.0)
    assert m["fitkit.calls"] == 0 and m["fitkit.kept_frac"] == 0.0


def test_tracer_wraps_nests_notes_and_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = (module.inner, module.outer)
    tracer = Tracer()
    tracer.wrap(module, "inner", "physics.inner")
    tracer.wrap(module, "outer", "tuner.outer", note=lambda result: result)
    with tracer.span("trace.pass"):
        assert module.outer(1) == 4
    tracer.restore()
    assert (module.inner, module.outer) == originals
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("trace.pass", -1, None), ("tuner.outer", 0, 4), ("physics.inner", 1, None)]
    assert all(s[1] <= s[2] for s in tracer.spans)
