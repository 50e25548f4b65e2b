"""Seeded client plans: everything a workload chooses, drawn up front.

A plan is the stream of per-session decisions one client makes — the
weighting and ``mw`` it opens with, which displayed child it drills
into, which column it stars, whether it abandons the session.  The
choices that depend on a reply (a child picked in proportion to its
count) are stored as draws in [0, 1) and resolved against the reply,
so the tier's deterministic answers plus the plan fix the whole
request sequence.  Plans depend only on ``(workload, seed, client)``.

The click draws are stratified rather than independent: a session's
child, star node and star column come from one of :data:`STRATA` fixed
click paths, dealt like cards — every path once per cycle, each cycle in
a seeded order.  A run of a few dozen sessions then covers every path
about equally often, so runs hold nearly the same mix of cheap and
expensive clicks and their spread stays small, while each seed still
orders the sessions (and, in ``cold_mine``, draws every ``mw``)
differently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "MW_SPAN",
    "STRATA",
    "SessionPlan",
    "WEIGHTINGS",
    "append_offsets",
    "pick_by_count",
    "session_plans",
]

WEIGHTINGS = ("size", "bits", "size_minus_one")

#: ``cold_mine`` sessions take distinct ``mw`` values just above 5
#: (5.0001 to 5.0011 in steps of 1e-6): every configuration is new to
#: the context store and to the first-pick cache (built at exactly 5),
#: so both miss, while the lattice mined stays the one mw=5 gives and a
#: session's cost depends on its weighting and clicks alone.
MW_SPAN = (5.0001, 5.0011)

#: Click paths per weighting (``cold_mine``), per table (``warm_browse``)
#: or in all (``append_approx``).
STRATA = 4

#: Irrational steps, one per decision, so the sequences do not align.
_STEPS = {
    "mw": 0.7548776662466927,
    "child": 0.6180339887498949,
    "star_node": 0.4142135623730951,
    "star_col": 0.5698402909980532,
}


@dataclass(frozen=True)
class SessionPlan:
    """One session's decisions.  ``*_u`` are draws in [0, 1)."""

    table: int
    wf: str
    mw: float
    k: int
    child_u: float
    star_node_u: float
    star_col_u: float
    error_target: float | None = None
    abandon: bool = False


def pick_by_count(counts: Sequence[float], u: float) -> int:
    """Index chosen in proportion to ``counts`` by the draw ``u``."""
    total = float(sum(counts))
    acc = 0.0
    for index, count in enumerate(counts):
        acc += float(count)
        if u * total < acc:
            return index
    return len(counts) - 1


def _rng(workload: str, seed: int, client: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{client}")


def session_plans(workload: str, seed: int, client: int) -> Iterator[SessionPlan]:
    """The endless session stream of one client of ``workload``."""
    rng = _rng(workload, seed, client)
    mw_offset = rng.random()
    phase = rng.randrange(12)
    # Strata are dealt per weighting (cold_mine) or per table (warm_browse).
    groups = {"cold_mine": len(WEIGHTINGS), "warm_browse": 2}.get(workload, 1)
    decks: list[list[int]] = [[] for _ in range(groups)]

    def deal(group: int) -> int:
        if not decks[group]:
            decks[group] = list(range(STRATA))
            rng.shuffle(decks[group])
        return decks[group].pop()

    def draw(name: str, stratum: int) -> float:
        return ((stratum + 0.5) * _STEPS[name]) % 1.0

    index = 0
    while True:
        stratum = deal((index + phase) % groups)
        common = dict(
            child_u=draw("child", stratum),
            star_node_u=draw("star_node", stratum),
            star_col_u=draw("star_col", stratum),
        )
        if workload == "cold_mine":
            low, high = MW_SPAN
            mw = round(low + ((mw_offset + index * _STEPS["mw"]) % 1.0) * (high - low), 6)
            yield SessionPlan(
                table=0,
                wf=WEIGHTINGS[(index + phase) % len(WEIGHTINGS)],
                mw=mw,
                k=3,
                **common,
            )
        elif workload == "warm_browse":
            yield SessionPlan(table=(index + phase) % 2, wf="size", mw=5.0, k=4, **common)
        elif workload == "append_approx":
            yield SessionPlan(
                table=0,
                wf="size",
                mw=5.0,
                k=4,
                error_target=(0.2, 0.3, 0.5)[(index + phase) % 3],
                abandon=(index + phase) % 4 == 0,
                **common,
            )
        else:
            raise ValueError(f"unknown workload {workload!r}")
        index += 1


def append_offsets(seed: int, pool_rows: int, batch_rows: int) -> Iterator[int]:
    """Start offsets of the appended batches within the row pool."""
    rng = _rng("append_approx/batches", seed, 0)
    while True:
        yield rng.randrange(pool_rows - batch_rows + 1)
