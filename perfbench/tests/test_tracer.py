"""Span arithmetic and wrapper hygiene of the benchmark tracer."""

import types

import pytest

from occq import checkpoint, critic, data, metrics, nets, policy, rff, training
from occq.errors import NumericalFault
from tracer import Tracer, instrument, self_times, summarize


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 1],
        ["a1", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 2],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        ["p", 0.0, 10.0, -1, 0],
        ["c", 2.0, 6.0, 0, 0],
        ["c", 4.0, 8.0, 0, 0],  # overlaps the first child by 2
        ["c", 9.0, 12.0, 0, 0],  # overhangs the parent by 2
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_counts_outermost_span_of_a_name_once():
    spans = [
        ["x", 0.0, 0.010, -1, 0],
        ["x", 0.002, 0.006, 0, 0],
        ["y", 0.003, 0.004, 1, 0],
    ]
    out = summarize(spans)
    assert out["x"]["calls"] == 2
    assert out["x"]["ms"] == pytest.approx(10.0)
    assert out["x"]["self_ms"] == pytest.approx(6.0 + 3.0)
    assert out["y"] == pytest.approx({"calls": 1, "ms": 1.0, "self_ms": 1.0})


def test_tracer_records_parents_steps_and_faults():
    owner = types.SimpleNamespace()

    def inner():
        raise NumericalFault("boom")

    def outer():
        try:
            owner.inner()
        except NumericalFault:
            return "handled"

    owner.inner, owner.outer = inner, outer
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]), fault_types=(NumericalFault,))
    tracer.wrap(owner, "outer", "t.outer")
    tracer.wrap(owner, "inner", "t.inner")
    tracer.step = 7
    assert owner.outer() == "handled"
    assert tracer.spans == [["t.outer", 0.0, 3.0, -1, 7], ["t.inner", 1.0, 2.0, 0, 7]]
    assert tracer.counts["t.inner.faults"] == 1
    tracer.restore()
    assert owner.inner is inner and owner.outer is outer


def _bindings():
    modules = (checkpoint, critic, data, metrics, nets, policy, rff, training)
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    out.update({("MetricsWriter", k): v for k, v in vars(metrics.MetricsWriter).items()})
    return out


def test_instrument_patches_call_site_bindings_and_restore_removes_them():
    before = _bindings()
    tracer = Tracer()
    instrument(tracer)
    try:
        changed = {key for key, value in _bindings().items() if value is not before[key]}
        for key in [
            ("occq.training", "critic_update"),
            ("occq.critic", "encode_future"),
            ("occq.rff", "encode_future"),
            ("occq.training", "encode_future"),
            ("occq.training", "rff_features"),
            ("occq.rff", "rff_features"),
            ("occq.data", "sample_supports"),
            ("occq.nets", "forward"),
            ("MetricsWriter", "append"),
        ]:
            assert key in changed
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
