"""The three workloads: inputs, tier topology, and client scripts.

Every workload serves the real tier through ``repro.serving.http.serve``
on an ephemeral port and drives it from closed-loop clients in this
process.  Table sizes keep each workload's defining property:

* ``cold_mine`` — 1 client, in-process serial ``DrillDownServer`` with
  the CLI's defaults.  Sessions rotate through three weightings and
  each takes its own ``mw``, so no lattice is shared: the context store
  and first-pick cache miss, and Algorithm 2 plus the counting kernel
  do nearly all the work.
* ``warm_browse`` — 2 clients, 2-shard ``ShardRouter`` over two tables
  placed on different shards.  Every session uses the popular default
  configuration and the UI re-reads tree and render after each click,
  so lattices are leased from the store and HTTP, the router pipe and
  session bookkeeping dominate.
* ``append_approx`` — 2 clients on an in-process ``DrillDownServer``
  with a 2-worker pool, samples and a snapshot directory.  A writer
  appends a batch per cycle, probes the new version approximately and
  checkpoints every fourth cycle; a reader clicks approximately (plus
  exact star clicks) and abandons a quarter of its sessions, which the
  registry's LRU cap then evicts, releasing their version pins.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.datasets import generate_census
from repro.serving.http import serve
from repro.serving.router import ShardRouter
from repro.serving.server import DrillDownServer
from repro.table.table import Table

from perfbench.client import SESSION_END, Req, RequestFailed
from perfbench.plans import (
    MW_SPAN,
    STRATA,
    SessionPlan,
    append_offsets,
    pick_by_count,
    session_plans,
)

__all__ = ["SessionLog", "Stood", "WORKLOADS", "Workload", "stand_up", "tear_down"]

N_COLUMNS = 7

#: The tier knobs ``python -m repro.serving.http`` starts with.
CLI_DEFAULTS = dict(max_sessions=64, ttl_seconds=900.0, reaper_interval=30.0, marginal_mw=5.0)


@dataclass
class SessionLog:
    """What one session asked and what it was served (for the oracle)."""

    table: str
    wf: str
    mw: float
    k: int
    rows: int | None = None
    ops: list = field(default_factory=list)
    complete: bool = False


@dataclass
class Stood:
    """A tier serving HTTP, as :func:`stand_up` left it."""

    tier: Any
    httpd: Any
    thread: threading.Thread
    port: int
    tables: dict[str, Table]


@dataclass
class Workload:
    name: str
    why: str
    clients: int
    warmup_sessions: int
    oracle_sessions: int
    params: dict
    inputs: Callable[[int], dict]
    make_tier: Callable[[Path | None], Any]
    register: Callable[[Any, dict], dict[str, Table]]
    scripts: Callable[["Stood", dict, int, list], list]
    persist: bool = False


# -- tier lifecycle ----------------------------------------------------------------


def stand_up(workload: Workload, inputs: dict, persist_dir: Path | None) -> tuple[Stood, float]:
    """Build the tier, register its tables, bind HTTP, and wait for the
    first answered request; returns the tier and the seconds it took."""
    start = time.perf_counter()
    tier = workload.make_tier(persist_dir)
    try:
        tables = workload.register(tier, inputs)
        httpd = serve(tier, host="127.0.0.1", port=0)
    except BaseException:
        tier.close()
        raise
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, name="http-serve"
    )
    thread.start()
    port = httpd.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=60) as reply:
        if json.loads(reply.read()) != {"ok": True}:
            raise RuntimeError("tier did not answer /healthz")
    elapsed = time.perf_counter() - start
    return Stood(tier, httpd, thread, port, tables), elapsed


def tear_down(stood: Stood) -> None:
    stood.httpd.shutdown()
    stood.httpd.server_close()
    stood.thread.join(timeout=30)
    stood.tier.close()


# -- request helpers ---------------------------------------------------------------


def _click(log: SessionLog, sid: str, op: str, rule: list, kind: str, *,
           column: int | None = None, approx: bool | None = None,
           error_target: float | None = None, reads: bool = False):
    body: dict = {"rule": rule}
    if column is not None:
        body["column"] = column
    if approx is not None:
        body["approx"] = approx
    if error_target is not None:
        body["error_target"] = error_target
    reply = yield Req("POST", f"/sessions/{sid}/{op}", body, "click", kind)
    children = reply["children"]
    log.ops.append((op, rule, column, approx, error_target, children))
    if reads:
        yield from _reads(sid)
    return children


def _reads(sid: str):
    yield Req("GET", f"/sessions/{sid}", None, "read", "tree")
    yield Req("GET", f"/sessions/{sid}/render", None, "read", "render")


def _open(log: SessionLog, plan: SessionPlan):
    reply = yield Req(
        "POST", "/sessions",
        {"table": log.table, "wf": plan.wf, "k": plan.k, "mw": plan.mw},
        "open", "open",
    )
    log.rows = int(reply["root"]["count"])
    return reply["session_id"]


def _close(sid: str):
    yield Req("DELETE", f"/sessions/{sid}", None, "close", "close")


def _star_target(nodes: list, plan: SessionPlan) -> tuple[list, int] | None:
    """A displayed node picked by count, and a wildcard column of it.

    The draw names a table column; a column the node already fixes
    passes to the next wildcard one, so runs spread their stars evenly
    over the columns (a star's cost depends mostly on its column).
    """
    nodes = [n for n in nodes if None in n["rule"]]
    if not nodes:
        return None
    node = nodes[pick_by_count([n["count"] for n in nodes], plan.star_node_u)]
    width = len(node["rule"])
    first = int(plan.star_col_u * width)
    column = next(c % width for c in range(first, first + width) if node["rule"][c % width] is None)
    return node["rule"], column


def browse_script(plans: Iterator[SessionPlan], names: list[str], logs: list, *, reads: bool):
    """root → a child by count → a star → collapse → re-expand → close."""
    root = [None] * N_COLUMNS
    for plan in plans:
        log = SessionLog(names[plan.table], plan.wf, plan.mw, plan.k)
        logs.append(log)
        try:
            sid = yield from _open(log, plan)
            kids = yield from _click(log, sid, "expand", root, "root", reads=reads)
            grand: list = []
            child = None
            if kids:
                child = kids[pick_by_count([c["count"] for c in kids], plan.child_u)]
                grand = yield from _click(log, sid, "expand", child["rule"], "drill", reads=reads)
            target = _star_target(grand or [c for c in kids if c is not child], plan)
            if target is not None:
                yield from _click(log, sid, "expand_star", target[0], "star",
                                  column=target[1], reads=reads)
            if grand:
                yield Req("POST", f"/sessions/{sid}/collapse", {"rule": child["rule"]},
                          "read", "collapse")
                log.ops.append(("collapse", child["rule"], None, None, None, None))
                if reads:
                    yield from _reads(sid)
                yield from _click(log, sid, "expand", child["rule"], "reexpand", reads=reads)
            yield from _close(sid)
            log.complete = True
        except RequestFailed:
            pass
        yield SESSION_END


def approx_reader(plans: Iterator[SessionPlan], name: str, logs: list):
    """approx root → approx child → exact star → render; a quarter abandoned."""
    root = [None] * N_COLUMNS
    for plan in plans:
        log = SessionLog(name, plan.wf, plan.mw, plan.k)
        logs.append(log)
        try:
            sid = yield from _open(log, plan)
            kids = yield from _click(log, sid, "expand", root, "root",
                                     approx=True, error_target=plan.error_target)
            grand: list = []
            child = None
            if kids:
                child = kids[pick_by_count([c["count"] for c in kids], plan.child_u)]
                grand = yield from _click(log, sid, "expand", child["rule"], "drill",
                                          approx=True, error_target=plan.error_target)
            target = _star_target(grand or [c for c in kids if c is not child], plan)
            if target is not None:
                yield from _click(log, sid, "expand_star", target[0], "star",
                                  column=target[1], approx=False)
            yield Req("GET", f"/sessions/{sid}/render", None, "read", "render")
            if not plan.abandon:
                yield from _close(sid)
            log.complete = True
        except RequestFailed:
            pass
        yield SESSION_END


def approx_writer(plans: Iterator[SessionPlan], name: str, logs: list, pool: list,
                  offsets: Iterator[int], batch_rows: int, applied: list,
                  checkpoint: Callable[[], int]):
    """append a batch → probe the new version with an approximate root
    → close; ``checkpoint_all()`` every fourth cycle."""
    root = [None] * N_COLUMNS
    for cycle in itertools.count(1):
        offset = next(offsets)
        try:
            yield Req("POST", f"/tables/{name}/rows",
                      {"rows": pool[offset:offset + batch_rows]}, "append", "append")
            applied.append(offset)
            plan = next(plans)
            log = SessionLog(name, plan.wf, plan.mw, plan.k)
            logs.append(log)
            sid = yield from _open(log, plan)
            yield from _click(log, sid, "expand", root, "root",
                              approx=True, error_target=plan.error_target)
            yield Req("GET", f"/sessions/{sid}/render", None, "read", "render")
            yield from _close(sid)
            log.complete = True
            if cycle % 4 == 0:
                yield Req("CALL", "checkpoint_all", None, "checkpoint", "checkpoint",
                          call=checkpoint)
        except RequestFailed:
            pass
        yield SESSION_END


# -- the workloads -----------------------------------------------------------------

COLD_ROWS = 8_000
WARM_ROWS = 30_000
APPROX_ROWS = 40_000
APPROX_POOL_ROWS = 20_000
APPROX_BATCH_ROWS = 16
APPROX_SAMPLE_BUDGET = 2_000
APPROX_MAX_SESSIONS = 8


def _cold_inputs(seed: int) -> dict:
    return {"census": generate_census(COLD_ROWS, n_columns=N_COLUMNS, seed=7)}


def _register_all(tier, inputs: dict) -> dict[str, Table]:
    for name, table in inputs.items():
        tier.register_table(name, table)
    return dict(inputs)


def _cold_scripts(stood: Stood, inputs: dict, seed: int, logs: list) -> list:
    return [browse_script(session_plans("cold_mine", seed, 0), ["census"], logs, reads=False)]


def _warm_inputs(seed: int) -> dict:
    return {
        "tables": [
            generate_census(WARM_ROWS, n_columns=N_COLUMNS, seed=21),
            generate_census(WARM_ROWS, n_columns=N_COLUMNS, seed=22),
        ]
    }


def _warm_register(router: ShardRouter, inputs: dict) -> dict[str, Table]:
    """Name the two tables so consistent hashing puts one on each shard."""
    names: dict[int, str] = {}
    for i in itertools.count():
        names.setdefault(router.shard_of_table(f"census-{i}"), f"census-{i}")
        if len(names) == 2:
            break
    tables = {names[shard]: table for shard, table in enumerate(inputs["tables"])}
    return _register_all(router, tables)


def _warm_scripts(stood: Stood, inputs: dict, seed: int, logs: list) -> list:
    names = sorted(stood.tables, key=stood.tier.shard_of_table)
    return [
        browse_script(session_plans("warm_browse", seed, c), names, logs, reads=True)
        for c in range(2)
    ]


def _approx_inputs(seed: int) -> dict:
    pool = generate_census(APPROX_POOL_ROWS, n_columns=N_COLUMNS, seed=32)
    return {
        "census": generate_census(APPROX_ROWS, n_columns=N_COLUMNS, seed=31),
        "pool": [list(row) for row in pool.rows()],
        "applied": [],
    }


def _approx_scripts(stood: Stood, inputs: dict, seed: int, logs: list) -> list:
    offsets = append_offsets(seed, APPROX_POOL_ROWS, APPROX_BATCH_ROWS)
    return [
        approx_writer(session_plans("append_approx", seed, 0), "census", logs,
                      inputs["pool"], offsets, APPROX_BATCH_ROWS, inputs["applied"],
                      # Looked up per call, so a traced slice sees the wrapper.
                      lambda: stood.tier.checkpoint_all()),
        approx_reader(session_plans("append_approx", seed, 1), "census", logs),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold_mine",
            why="1 client, distinct mw and weighting per session: context store and "
                "first-pick cache miss, so Algorithm 2 and the counting kernel dominate",
            clients=1,
            warmup_sessions=1,
            oracle_sessions=4,
            params={"rows": COLD_ROWS, "columns": N_COLUMNS, "table_seed": 7, "k": 3,
                    "mw": list(MW_SPAN), "strata": STRATA,
                    "tier": "DrillDownServer, serial counting, CLI defaults"},
            inputs=_cold_inputs,
            make_tier=lambda persist_dir: DrillDownServer(**CLI_DEFAULTS),
            register=lambda tier, inputs: _register_all(tier, inputs),
            scripts=_cold_scripts,
        ),
        Workload(
            name="warm_browse",
            why="2 clients, popular config over a 2-shard router, tree and render after "
                "every click: lattices are leased, so HTTP, router pipe and session work dominate",
            clients=2,
            warmup_sessions=2,
            oracle_sessions=6,
            params={"rows": WARM_ROWS, "columns": N_COLUMNS, "table_seeds": [21, 22],
                    "k": 4, "mw": 5.0, "wf": "size",
                    "tier": "ShardRouter(2), CLI defaults"},
            inputs=_warm_inputs,
            make_tier=lambda persist_dir: ShardRouter(
                2, watchdog_interval=10.0, breaker_threshold=5, breaker_cooldown=1.0,
                **CLI_DEFAULTS,
            ),
            register=_warm_register,
            scripts=_warm_scripts,
        ),
        Workload(
            name="append_approx",
            why="appends beside approximate clicks on a pooled, durable tier: version "
                "installs, lazy sample rebuilds, estimates, snapshots and LRU pin release",
            clients=2,
            warmup_sessions=2,
            oracle_sessions=6,
            params={"rows": APPROX_ROWS, "columns": N_COLUMNS, "table_seed": 31,
                    "pool_seed": 32, "batch_rows": APPROX_BATCH_ROWS,
                    "sample_budget": APPROX_SAMPLE_BUDGET, "k": 4, "mw": 5.0,
                    "max_sessions": APPROX_MAX_SESSIONS, "checkpoint_every": 4,
                    "tier": "DrillDownServer(n_workers=2, sample_budget, persist_dir)"},
            inputs=_approx_inputs,
            make_tier=lambda persist_dir: DrillDownServer(
                n_workers=2, sample_budget=APPROX_SAMPLE_BUDGET, persist_dir=persist_dir,
                max_sessions=APPROX_MAX_SESSIONS, ttl_seconds=900.0, marginal_mw=5.0,
            ),
            register=lambda tier, inputs: _register_all(tier, {"census": inputs["census"]}),
            scripts=_approx_scripts,
            persist=True,
        ),
    )
}
