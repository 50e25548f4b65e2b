import http.server

from perfbench import trace
from perfbench.trace import TARGETS, Tracer, installed


class _Handler(http.server.BaseHTTPRequestHandler):
    pass


def test_untraced_state_has_no_wrappers():
    assert installed(_Handler) == []


def test_install_wraps_every_target_and_uninstall_restores_them():
    originals = [getattr(trace._owner(m, o), a) for m, o, a, _l, _c in TARGETS]
    tracer = Tracer()
    tracer.install(_Handler)
    try:
        assert len(installed(_Handler)) == len(TARGETS) + 2
        assert "handle_one_request" in _Handler.__dict__
    finally:
        tracer.uninstall()
    assert installed(_Handler) == []
    assert "handle_one_request" not in _Handler.__dict__
    assert [getattr(trace._owner(m, o), a) for m, o, a, _l, _c in TARGETS] == originals


def test_self_time_excludes_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrap(lambda: None, "inner", "inner", None)
    outer = tracer._wrap(lambda: (inner(), inner()), "outer", "outer", None)
    outer()
    spans = {span[0] + str(i): span for i, span in enumerate(tracer.spans)}
    (o,) = [s for s in spans.values() if s[0] == "outer"]
    inners = [s for s in spans.values() if s[0] == "inner"]
    # outer: start 0, end 5; each inner spans one tick.
    assert o[3] - o[2] == 5 and o[4] == 3
    assert all(s[4] == 1 and s[5] == o[6]["serial"] for s in inners)
    assert o[5] is None
