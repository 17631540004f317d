"""Tests of the benchmark's span arithmetic and wrapper installation.

Run with: python3 -m pytest benchmarks
"""

import types

import pytest

from layers import REQUIRES, install, layer_metrics
from run import STAGE_METRICS, metric_units
from spans import Patches, Span, Tracer, check_nesting, self_times


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def nested_tracer():
    """root [0, 10] holds a [1, 6] and d [7, 9]; a holds b [2, 3] and c [4, 5.5]."""
    t = Tracer(clock=ticking_clock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
            with t.span("c"):
                pass
        with t.span("d"):
            pass
    return t


def test_parents_follow_nesting():
    spans = nested_tracer().spans
    assert [sp.name for sp in spans] == ["root", "a", "b", "c", "d"]
    assert [sp.parent for sp in spans] == [-1, 0, 1, 1, 0]


def test_self_time_is_duration_minus_direct_children():
    selfs = self_times(nested_tracer().spans)
    assert selfs == pytest.approx([10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2])


def test_subtree_self_times_add_up_to_the_root():
    spans = nested_tracer().spans
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert check_nesting(spans) == []


def test_check_nesting_reports_a_child_outside_its_parent():
    spans = nested_tracer().spans
    spans[2].end = 6.5  # b now ends after a
    assert any("escapes parent a" in p for p in check_nesting(spans))


def test_span_closes_when_the_call_raises():
    t = Tracer(clock=ticking_clock([0, 1, 2, 3]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        with t.span("outer"):
            t.wrap("inner", boom)()
    assert [(sp.start, sp.end, sp.parent) for sp in t.spans] == [(0, 3, -1), (1, 2, 0)]


def test_wrap_counts_and_factory_spans():
    t = Tracer(clock=ticking_clock(range(100)))
    double = t.wrap("double", lambda x: 2 * x, count=lambda a, k, out: {"rows": out})
    assert double(4) == 8
    make = t.wrap_factory("loss", lambda scale: (lambda z: scale * z))
    fn = make(3)
    assert fn(2) == 6
    assert [(sp.name, sp.attrs) for sp in t.spans] == [("double", {"rows": 8}), ("loss", {})]


def test_patches_restore_originals_and_skip_missing_targets():
    mod = types.SimpleNamespace(f=lambda: 1)
    original = mod.f
    patches = Patches()
    assert patches.rebind(mod, "f", lambda fn: (lambda: fn() + 1), "mod.f")
    assert not patches.rebind(mod, "gone", lambda fn: fn, "mod.gone")
    assert mod.f() == 2
    patches.restore()
    assert mod.f is original and patches.bound == ["mod.f"]


def test_missing_bindings_leave_their_metrics_absent():
    # A package without any module: every binding is missing, nothing crashes.
    patches = install(Tracer(), {})
    assert set(patches.missing) == {b for need in REQUIRES.values() for b in need}
    assert patches.bound == []
    m = layer_metrics([], patches.missing)
    assert "cli.calls" in m and "persist.ckpt_bytes" not in m
    assert "unlearn.ac_s" not in m and "datagen.train_view_unique_ratio" not in m


def span(name, start, end, parent=-1, **attrs):
    return Span(name, start, end, parent, attrs)


def test_layer_metrics_attribute_time_by_stage_and_outermost_span():
    spans = [
        span("cli.unlearn", 0, 10),
        span("unlearn.run_ac", 1, 9, 0),
        span("datagen.paired_views_for_ids", 2, 3, 1, rows=4, keys=[(0, 1, 0), (0, 2, 0)]),
        span("cli.pretrain", 10, 20),
        span("contrastive.pretrain", 11, 15, 3),
        span("datagen.paired_views_for_ids", 12, 13, 4, rows=4, keys=[(0, 1, 0), (0, 3, 0)]),
        span("cli.eval", 20, 24),
        span("evalsuite.forgetting_score", 20.5, 23, 6),
        span("evalsuite.forgetting_score_from_features", 21, 22, 7),
    ]
    m = layer_metrics(spans)
    assert m["cli.calls"] == 3
    assert m["cli.self_s"] == pytest.approx((10 - 8) + (10 - 4) + (4 - 2.5))
    assert m["unlearn.ac_s"] == 8
    # views asked for by unlearning only, and views of every caller
    assert m["unlearn.views_s"] == 1 and m["datagen.train_views_s"] == 2
    assert m["datagen.train_view_rows"] == 8
    assert m["datagen.train_view_unique_ratio"] == 3 / 4
    # the nested forgetting-score call is inside the outer one's time
    assert m["evalsuite.fs_s"] == 2.5


def test_reported_metrics_are_the_ones_benchmark_json_names():
    assert set(layer_metrics([])) | {"trace.overhead_s"} == set(metric_units(trace=True))
    end_to_end = {name for name, _ in STAGE_METRICS.values()}
    assert end_to_end | {"setup_s", "run_s", "peak_rss_mb"} == set(metric_units(trace=False))
