import itertools

import pytest

from perfbench.plans import append_offsets, pick_by_count, session_plans

WORKLOADS = ("cold_mine", "warm_browse", "append_approx")


def _take(workload, seed, client, n=40):
    return list(itertools.islice(session_plans(workload, seed, client), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_plan(workload):
    assert _take(workload, 7, 0) == _take(workload, 7, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_and_clients_differ(workload):
    assert _take(workload, 7, 0) != _take(workload, 8, 0)
    assert _take(workload, 7, 0) != _take(workload, 7, 1)


def test_cold_mine_rarely_repeats_a_configuration():
    plans = _take("cold_mine", 3, 0, 300)
    configs = {(p.wf, p.mw) for p in plans}
    assert len(configs) > 280
    assert all(5.0 < p.mw < 5.002 for p in plans)
    assert {p.wf for p in plans} == {"size", "bits", "size_minus_one"}


def test_warm_browse_uses_the_popular_configuration_on_both_tables():
    plans = _take("warm_browse", 3, 1)
    assert {(p.wf, p.mw, p.k) for p in plans} == {("size", 5.0, 4)}
    assert {p.table for p in plans} == {0, 1}


def test_append_offsets_are_seeded_and_in_range():
    first = list(itertools.islice(append_offsets(1, 1000, 64), 50))
    assert first == list(itertools.islice(append_offsets(1, 1000, 64), 50))
    assert first != list(itertools.islice(append_offsets(2, 1000, 64), 50))
    assert all(0 <= o <= 1000 - 64 for o in first)


def test_pick_by_count_is_proportional():
    counts = [1.0, 3.0]
    assert pick_by_count(counts, 0.0) == 0
    assert pick_by_count(counts, 0.24) == 0
    assert pick_by_count(counts, 0.26) == 1
    assert pick_by_count(counts, 0.999) == 1


def _requests(workload, seed, n=40):
    """The first ``n`` requests a client script sends to a fake tier whose
    replies depend only on the request, as the real tier's do."""
    from perfbench.client import SESSION_END
    from perfbench.workloads import browse_script

    def reply(req):
        if req.path == "/sessions":
            return {"session_id": "s", "root": {"count": 100}}
        if req.path.endswith(("/expand", "/expand_star")):
            rule = req.body["rule"]
            free = [i for i, v in enumerate(rule) if v is None][:3]
            return {"children": [
                {"rule": [f"v{i}" if j == i else v for j, v in enumerate(rule)], "count": 10 + i}
                for i in free
            ]}
        return {}

    script = browse_script(session_plans(workload, seed, 0), ["a", "b"], [], reads=False)
    sent, answer = [], None
    while len(sent) < n:
        req = script.send(answer) if sent or answer else next(script)
        if req is SESSION_END:
            answer = None
            continue
        sent.append((req.method, req.path, req.body))
        answer = reply(req)
    return sent


@pytest.mark.parametrize("workload", ("cold_mine", "warm_browse"))
def test_one_seed_one_request_sequence(workload):
    assert _requests(workload, 5) == _requests(workload, 5)
    assert _requests(workload, 5) != _requests(workload, 6)
