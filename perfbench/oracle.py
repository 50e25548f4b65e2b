"""Replay served sessions on standalone ``DrillDownSession``s.

Each sampled session is replayed op by op on a fresh in-memory session
over the same table version, and every click's children must equal
what the tier served, bit for bit once both pass through the wire
encoding: rules, counts, weights and, for approximate clicks, the
whole estimate (an escalated click therefore equals the exact answer).
Approximate replays mine the same deterministic sample set the catalog
builds for that version.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

import numpy as np

from repro.core.rule import cover_mask
from repro.serving.catalog import WEIGHT_FUNCTIONS
from repro.serving.http import node_to_wire, rule_from_wire
from repro.serving.samples import build_sample_set, derive_seed
from repro.session.session import DrillDownSession
from repro.table.table import Table

__all__ = ["approx_errors", "check_sessions", "check_versioned", "version_tables"]


def _wire(nodes) -> list:
    return json.loads(json.dumps([node_to_wire(n) for n in nodes], default=str))


def replay(log, table: Table, *, sample_budget: int | None = None) -> list[str]:
    """Mismatch descriptions for one session log (empty when identical)."""
    samples = None
    if sample_budget is not None:
        samples = build_sample_set(table, budget=sample_budget, seed=derive_seed(log.table, 0))
    session = DrillDownSession(
        table, wf=WEIGHT_FUNCTIONS[log.wf](table), k=log.k, mw=log.mw, samples=samples
    )
    problems = []
    try:
        for step, (op, rule, column, approx, error_target, served) in enumerate(log.ops):
            parsed = rule_from_wire(rule, table.n_columns)
            if op == "collapse":
                session.collapse(parsed)
                continue
            if op == "expand":
                got = session.expand(parsed, approx=approx, error_target=error_target)
            else:
                got = session.expand_star(
                    parsed, column, approx=approx, error_target=error_target
                )
            if _wire(got) != served:
                problems.append(
                    f"{log.table} wf={log.wf} mw={log.mw} step {step} {op} {rule}: "
                    f"served {served} but standalone gives {_wire(got)}"
                )
                break
    finally:
        session.close()
    return problems


def _sample(logs: list, n: int, seed: int) -> list:
    complete = [log for log in logs if log.complete and log.ops]
    return random.Random(f"oracle/{seed}").sample(complete, min(n, len(complete)))


def check_sessions(logs: list, tables: dict[str, Table], n: int, seed: int) -> tuple[int, list[str]]:
    """Replay a seeded sample of ``n`` complete sessions over static
    tables (keyed by name).  Returns (replayed, problems)."""
    chosen = _sample(logs, n, seed)
    problems: list[str] = []
    for log in chosen:
        problems.extend(replay(log, tables[log.table]))
    return len(chosen), problems


def check_versioned(logs: list, base: Table, pool: list, applied: list[int], batch_rows: int,
                    n: int, seed: int, sample_budget: int) -> tuple[int, list[str], list[float]]:
    """Like :func:`check_sessions` for an appended table: each session
    replays on the version it pinned (told apart by its row count).
    Also returns the relative error of every approx child served by any
    complete session."""
    chosen = {id(log) for log in _sample(logs, n, seed)}
    complete = [log for log in logs if log.complete and log.ops]
    wanted = {log.rows for log in complete}
    by_rows: dict[int, list] = {}
    for log in complete:
        by_rows.setdefault(log.rows, []).append(log)
    problems: list[str] = []
    errors: list[float] = []
    found: set[int] = set()
    for rows, table in version_tables(base, pool, applied, batch_rows, wanted):
        found.add(rows)
        for log in by_rows[rows]:
            errors.extend(approx_errors(log, table))
            if id(log) in chosen:
                problems.extend(replay(log, table, sample_budget=sample_budget))
    for rows in sorted(wanted - found):
        problems.append(f"no appended version has {rows} rows")
    return len(chosen), problems, errors


def version_tables(base: Table, pool: list, applied: list[int], batch_rows: int,
                   wanted: set[int]) -> Iterator[tuple[int, Table]]:
    """``(rows, table)`` for every wanted version, built by the same
    sequence of appends the catalog applied."""
    table = base
    if table.n_rows in wanted:
        yield table.n_rows, table
    for offset in applied:
        if table.n_rows >= max(wanted, default=0):
            return
        table = table.append_rows([tuple(r) for r in pool[offset:offset + batch_rows]])
        if table.n_rows in wanted:
            yield table.n_rows, table


def approx_errors(log, table: Table) -> list[float]:
    """|estimate − exact| / exact for every non-escalated approx child."""
    errors = []
    for op, _rule, _column, approx, _target, served in log.ops:
        if not approx or served is None:
            continue
        for child in served:
            estimate = child.get("estimate")
            if estimate is None or estimate["escalated"]:
                continue
            exact = float(np.count_nonzero(cover_mask(rule_from_wire(child["rule"], table.n_columns), table)))
            errors.append(abs(child["count"] - exact) / exact)
    return errors
