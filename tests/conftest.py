"""Shared fixtures: small deterministic tables and cached paper datasets,
plus the cold-greedy reference the search-cache suites compare against."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BRSResult, RuleList, SearchStats, cover_mask, find_best_marginal_rule
from repro.datasets import generate_census, generate_marketing, generate_retail
from repro.table import Schema, Table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_table() -> Table:
    """A hand-written 8-row, 3-column table with known counts.

    Value layout (a appears 5×, b 4×, x 4×, (a, x) 3×, (a, x, p) 2×):

        A  B  C
        a  x  p
        a  x  p
        a  x  q
        a  y  q
        a  z  q
        b  x  p
        b  y  q
        b  z  r
    """
    rows = [
        ("a", "x", "p"),
        ("a", "x", "p"),
        ("a", "x", "q"),
        ("a", "y", "q"),
        ("a", "z", "q"),
        ("b", "x", "p"),
        ("b", "y", "q"),
        ("b", "z", "r"),
    ]
    return Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)


@pytest.fixture
def measure_table() -> Table:
    """A table with a numeric Sales measure for Sum-aggregate tests."""
    data = {
        "Store": ["W", "W", "T", "T", "T", "C"],
        "Item": ["x", "y", "x", "x", "y", "z"],
        "Sales": [10.0, 20.0, 5.0, 5.0, 30.0, 1.0],
    }
    return Table.from_dict(data)


@pytest.fixture(scope="session")
def retail() -> Table:
    return generate_retail()


@pytest.fixture(scope="session")
def marketing() -> Table:
    return generate_marketing()


@pytest.fixture(scope="session")
def marketing7(marketing: Table) -> Table:
    return marketing.select(
        ["Income", "Sex", "MaritalStatus", "Age", "Education", "Occupation", "TimeInBayArea"]
    )


@pytest.fixture(scope="session")
def census_small() -> Table:
    """A small synthetic Census slice (fast enough for unit tests)."""
    return generate_census(20_000, n_columns=7)


def random_table(
    rng: np.random.Generator,
    n_rows: int = 30,
    n_columns: int = 3,
    domain: int = 3,
) -> Table:
    """A uniform random categorical table (helper for property tests)."""
    names = [f"c{i}" for i in range(n_columns)]
    rows = [
        tuple(f"v{rng.integers(domain)}" for _ in range(n_columns)) for _ in range(n_rows)
    ]
    return Table.from_rows(Schema.categorical(names), rows)


def cold_greedy(
    table: Table,
    wf,
    k: int,
    mw: float,
    *,
    measures: np.ndarray | None = None,
    initial_top: np.ndarray | None = None,
    **search,
) -> BRSResult:
    """The BRS greedy as ``k`` independent cold searches.

    Each pick is one :func:`find_best_marginal_rule` call with nothing
    carried over from the previous pick except ``top``, which is raised
    over the picked rule's ``cover_mask`` — the reference a warm
    :class:`~repro.core.search_cache.SearchContext` must reproduce bit
    for bit.  ``search`` passes through (``max_rule_size``, ``prune``,
    ``pool``, ``first_pick``).
    """
    top = (
        np.zeros(table.n_rows, dtype=np.float64)
        if initial_top is None
        else initial_top.astype(np.float64).copy()
    )
    picks = []
    stats = SearchStats()
    while len(picks) < k:
        result = find_best_marginal_rule(table, wf, top, mw, measures=measures, **search)
        if result is None:
            break
        picks.append(result)
        stats.merge(result.stats)
        mask = cover_mask(result.rule, table)
        top[mask] = np.maximum(top[mask], result.weight)
    rule_list = RuleList((p.rule for p in picks), table, wf, measures)
    return BRSResult(rule_list=rule_list, picks=tuple(picks), stats=stats)
