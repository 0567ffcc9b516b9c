import types

import pytest

from tracing import Probe, Tracer, covered_ns, outermost, patched, percentile, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["run", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],      # overlaps a: 10..60 is covered once
        ["a.leaf", 15, 20, 1],
        ["c", 90, 120, 0],     # runs past its parent: clipped at 100
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_covered_ns_merges_and_clips():
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(0, 5), (5, 8), (20, 30)], 2, 25) == 6 + 5
    assert covered_ns([(3, 4), (0, 10)], 0, 10) == 10


def test_outermost_skips_nested_matches():
    spans = [
        ["run", 0, 100, -1],
        ["oracle", 10, 40, 0],
        ["oracle", 15, 20, 1],
        ["other", 50, 90, 0],
        ["oracle", 60, 70, 3],
    ]
    assert outermost(spans, frozenset({"oracle"})) == [1, 4]


def test_patched_wraps_and_restores_functions_and_methods():
    class Model:
        def predict(self, x):
            return 2 * x

    def fails():
        raise KeyError("x")

    module = types.SimpleNamespace(fails=fails)
    seen = []

    def hook(tracer, args, kwargs, result, exc):
        seen.append((result, type(exc).__name__ if exc else None))

    tracer = Tracer()
    probes = [Probe(Model, "predict", "model.predict", hook),
              Probe(module, "fails", "module.fails", hook)]
    with patched(tracer, probes):
        assert Model().predict(3) == 6
        with pytest.raises(KeyError):
            module.fails()
    assert Model.__dict__["predict"].__name__ == "predict"
    assert module.fails is fails
    assert [s[0] for s in tracer.spans] == ["model.predict", "module.fails"]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert seen == [(6, None), (None, "KeyError")]


def test_percentile_is_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([5.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert percentile(range(1, 11), 90) == 9.0
    assert percentile([7.0], 90) == 7.0
