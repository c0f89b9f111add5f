import io
from contextlib import redirect_stdout


import tracer
from tracer import Tracer, metric_names, self_times


def test_self_times_on_a_synthetic_tree():
    # a(0..10) has children b(1..4) and c(5..9); c has child b(6..7); d(12..13) is a root
    names = ["a", "b", "c", "d"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 5.0, 9.0, 0), (1, 6.0, 7.0, 2), (3, 12.0, 13.0, -1)]
    name_id, start, end, parent = map(list, zip(*spans))
    calls, inclusive, own = self_times(name_id, start, end, parent, len(names))
    assert calls.tolist() == [1, 2, 1, 1]
    assert inclusive.tolist() == [10.0, 4.0, 4.0, 1.0]
    assert own.tolist() == [3.0, 4.0, 3.0, 1.0]


def test_wrapped_calls_record_nested_spans():
    t = Tracer()

    def inner(x):
        return x + 1

    inner_w = t.wrap(inner, "inner")
    outer_w = t.wrap(lambda x: inner_w(inner_w(x)), "outer")
    assert outer_w(1) == 3
    ids = [t.names[i] for i in t.name_id]
    assert ids == ["outer", "inner", "inner"]
    assert list(t.parent) == [-1, 0, 0]
    assert all(e >= s for s, e in zip(t.start, t.end))


def test_active_restores_the_program_and_keeps_its_output():
    import nonholo.cli
    import nonholo.core
    import nonholo.sphere

    before = (nonholo.cli.main, nonholo.sphere.rhs, nonholo.core.ScalarField.__call__)
    argv = ["check", "duality", "-n", "50", "--seed", "4"]
    plain = io.StringIO()
    with redirect_stdout(plain):
        nonholo.cli.main(argv)
    t = Tracer()
    traced = io.StringIO()
    with t.active(), redirect_stdout(traced):
        nonholo.cli.main(argv)
    assert (nonholo.cli.main, nonholo.sphere.rhs, nonholo.core.ScalarField.__call__) == before
    assert traced.getvalue() == plain.getvalue()
    m = t.metrics()
    assert set(m) == set(metric_names())
    assert m["cli.self_s"] > 0.0
    assert m["core.scalar_field.calls"] > 0


def test_every_span_target_exists_in_the_program():
    for owner, attr, *_ in tracer.TARGETS:
        assert attr in vars(tracer._owner(owner)), f"{owner}.{attr}"
