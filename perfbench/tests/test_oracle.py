import json

from repro.datasets import generate_census
from repro.serving.http import node_to_wire, rule_to_wire
from repro.serving.server import DrillDownServer

from perfbench.oracle import replay, version_tables
from perfbench.workloads import SessionLog


def _served_log(table, wf="bits"):
    with DrillDownServer() as server:
        server.register_table("t", table)
        sid = server.create_session("t", wf=wf, k=3, mw=4.5)
        root = [None] * table.n_columns
        kids = server.expand(sid)
        wire = json.loads(json.dumps([node_to_wire(n) for n in kids]))
        log = SessionLog("t", wf, 4.5, 3, rows=table.n_rows, complete=True)
        log.ops.append(("expand", root, None, None, None, wire))
        child = kids[0]
        grand = server.expand(sid, child.rule)
        log.ops.append(("expand", rule_to_wire(child.rule), None, None, None,
                        json.loads(json.dumps([node_to_wire(n) for n in grand]))))
    return log


def test_replay_accepts_what_the_tier_served_and_flags_a_changed_count():
    table = generate_census(3000, n_columns=5, seed=4)
    log = _served_log(table)
    assert replay(log, table) == []
    log.ops[0][5][0]["count"] += 1
    problems = replay(log, table)
    assert len(problems) == 1 and "step 0" in problems[0]


def test_version_tables_rebuild_the_appended_versions():
    base = generate_census(100, n_columns=3, seed=1)
    pool = [list(r) for r in generate_census(50, n_columns=3, seed=2).rows()]
    got = dict(version_tables(base, pool, [0, 10, 20], 5, {100, 110}))
    assert sorted(got) == [100, 110]
    assert got[110].to_rows() == base.to_rows() + [tuple(r) for r in pool[0:5] + pool[10:15]]
