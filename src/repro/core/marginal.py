"""Find-best-marginal-rule — the paper's Algorithm 2 (Section 3.5).

Given the current solution set ``S`` (summarised by a per-tuple array of
``W(TOP(t, S))`` weights), the search finds the rule of weight ≤ ``mw``
with the highest *marginal value*

    MarginalValue(r) = Σ_{t ∈ r} m(t) · ( W(r) − min(W(r), W(TOP(t, S))) )

where ``m(t)`` is the tuple measure (1 for Count, the measure column for
Sum, Section 6.3).  Candidates are enumerated a-priori style: a rule is
generated only from a surviving parent, extended on columns strictly
after its last instantiated column (so each rule is generated exactly
once), with values drawn from actual co-occurrence in the data.  A
candidate's descendants are pruned with the paper's upper bound

    MarginalVal(R') + Count(R') · (mw − W(R'))   for sub-rules R' of R,

compared against the best marginal value found so far.

The search itself lives in one place,
:class:`~repro.core.search_cache.SearchContext`, which persists the
counted lattice across the ``k`` greedy picks of one BRS run and
re-evaluates marginals CELF-style (arXiv:1412.0364).
:func:`find_best_marginal_rule` is the one-shot form: a cold context
running a single search.  Its result is the maximum over all supported
candidates of weight ≤ ``mw`` under the total order (marginal desc,
size asc, key asc), which ``tests/core/test_marginal.py`` and
``tests/integration/test_randomised_parity.py`` pin against the brute
force oracle of :mod:`repro.core.exhaustive`.

This module keeps the primitives the search, the counting backend
(:mod:`repro.core.parallel`) and the first-pick cache
(:mod:`repro.core.first_pick`) share: the result and work-counter
types, the fast-path column-set weight, the per-task extension weight,
and candidate-key decoding.  Computing those in one place is what keeps
every counting path bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

# The kernel is not called here; perfbench/trace.py resolves it under
# this module's name, so the name stays importable.
from repro.core.parallel import CountingPool, count_extensions_kernel  # noqa: F401
from repro.core.rule import Rule
from repro.core.weights import (
    ColumnSetWeight,
    MergedWeight,
    StarConstrainedWeight,
    WeightFunction,
)
from repro.table.column import CategoricalColumn
from repro.table.table import Table

__all__ = ["MarginalResult", "SearchStats", "find_best_marginal_rule"]

# Internal candidate key: ((cat_position, code), ...) sorted by position.
_Key = tuple[tuple[int, int], ...]


def _key_columns(key: _Key, cat_positions: Sequence[int]) -> tuple[int, ...]:
    """Table-column indexes instantiated by a candidate key."""
    return tuple(cat_positions[pos] for pos, _ in key)


def _extension_weight(
    fast_weight: Callable[[tuple[int, ...]], float],
    cat_positions: Sequence[int],
    parent_key: _Key,
    pos: int,
) -> float:
    """Fast-path weight shared by every value extension of one task.

    One definition for the search and the first-pick cache (and hence
    the counting backend's task construction) — the bit-identical
    guarantee requires the weight fed to
    :func:`repro.core.parallel.count_extensions_kernel` to be computed
    identically everywhere.
    """
    columns = _key_columns(parent_key, cat_positions) + (cat_positions[pos],)
    return fast_weight(tuple(sorted(columns)))


def _key_rule(key: _Key, table: Table, cat_positions: Sequence[int]) -> Rule:
    """Decode a candidate key into a :class:`Rule` over ``table``."""
    items: dict[int, Any] = {}
    for pos, code in key:
        table_idx = cat_positions[pos]
        col = table.column(table_idx)
        assert isinstance(col, CategoricalColumn)
        items[table_idx] = col.decode(code)
    return Rule.from_items(table.n_columns, items)


@dataclass
class SearchStats:
    """Work counters for one best-marginal-rule search.

    ``rows_scanned`` counts tuple visits across all bincount passes,
    row materialisations and marginal re-evaluations, and is the
    vectorised analogue of the paper's "passes over the table";
    ``parents_extended`` counts candidates whose extensions were
    counted.

    ``cache_hits`` is the number of candidate marginals re-evaluated
    from cached row sets instead of regenerated by a counting pass, and
    ``lazy_skips`` is the number of cached candidates whose
    re-evaluation the CELF lazy greedy avoided entirely (their stale
    marginal — an upper bound, by submodularity — never reached the top
    of the heap).
    """

    passes: int = 0
    candidates_generated: int = 0
    candidates_eligible: int = 0
    parents_extended: int = 0
    rows_scanned: int = 0
    cache_hits: int = 0
    lazy_skips: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another search's counters into this one."""
        self.passes += other.passes
        self.candidates_generated += other.candidates_generated
        self.candidates_eligible += other.candidates_eligible
        self.parents_extended += other.parents_extended
        self.rows_scanned += other.rows_scanned
        self.cache_hits += other.cache_hits
        self.lazy_skips += other.lazy_skips


@dataclass(frozen=True)
class MarginalResult:
    """The best marginal rule plus its statistics."""

    rule: Rule
    weight: float
    count: float
    marginal: float
    stats: SearchStats


def _column_set_weight(
    wf: WeightFunction,
) -> Callable[[tuple[int, ...]], float] | None:
    """Fast path: a ``column-index-set -> weight`` callable, when valid.

    All built-in weight functions depend only on the instantiated
    column set; star-constrained wrappers around such functions do too.
    Returns ``None`` for value-dependent callables (slow path).
    """
    if isinstance(wf, ColumnSetWeight):
        return wf.weight_of_columns
    if isinstance(wf, StarConstrainedWeight):
        inner = _column_set_weight(wf.base)
        if inner is None:
            return None
        star_col = wf.column

        def constrained(columns: tuple[int, ...]) -> float:
            if star_col not in columns:
                return 0.0
            return inner(columns)

        return constrained
    if isinstance(wf, MergedWeight):
        inner = _column_set_weight(wf.base)
        if inner is None:
            return None
        parent_columns = frozenset(wf.parent.instantiated_indexes)

        def merged(columns: tuple[int, ...]) -> float:
            return inner(tuple(sorted(parent_columns.union(columns))))

        return merged
    return None


def find_best_marginal_rule(
    table: Table,
    wf: WeightFunction,
    top: np.ndarray,
    mw: float,
    *,
    measures: np.ndarray | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    n_workers: int | None = None,
    pool: CountingPool | None = None,
    first_pick=None,
) -> MarginalResult | None:
    """Return the rule of weight ≤ ``mw`` with highest marginal value.

    One search through a cold
    :class:`~repro.core.search_cache.SearchContext`; a caller running
    several searches over one configuration (the BRS greedy) keeps the
    context instead, so later searches reuse its counted lattice.

    Parameters
    ----------
    table:
        The (possibly filtered or sampled) table to mine.
    wf:
        Monotonic non-negative weight function.
    top:
        Per-tuple ``W(TOP(t, S))`` of the already-selected set ``S``
        (zeros for the first iteration); see
        :func:`repro.core.scoring.top_weights`.
    mw:
        Max-weight parameter: the search only considers rules with
        ``W(r) <= mw`` and uses ``mw`` in its pruning bound.  Smaller
        values run faster; values below the optimal rule's weight may
        return a sub-optimal rule (Section 3.5's approximation-ratio
        analysis).
    measures:
        Optional per-tuple measure array (Sum aggregation); defaults to
        all-ones (Count).
    max_rule_size:
        Optional cap on rule size (number of passes).
    prune:
        Disable to measure the value of the a-priori bound (ablation);
        the result is unchanged, only more candidates are explored.
    n_workers:
        Parallel counting: ``None`` or ``1`` runs serially (the
        default), ``0`` uses every core, ``>= 2`` shards the level-wise
        counting passes over the process-wide shared-memory worker pool
        (:mod:`repro.core.parallel`).  The selected rule is identical
        either way; small tables and value-dependent weight functions
        silently fall back to serial counting.
    pool:
        An explicit :class:`~repro.core.parallel.CountingPool` to count
        through (overrides ``n_workers``); lets callers control worker
        lifecycle and share one pool — and one shared-memory table
        export — across searches.
    first_pick:
        Optional :class:`~repro.core.first_pick.FirstPickCache` built
        for exactly ``(table, wf, mw)``: when ``top`` is the base
        vector (all zeros) the first pass becomes a heap-build over the
        cached level-1 marginals instead of a scan.  Provably identical
        result either way; a non-matching cache is ignored.

    Returns ``None`` when no rule adds positive marginal value.
    """
    from repro.core.search_cache import SearchContext  # imports this module

    context = SearchContext(
        table,
        wf,
        mw,
        measures=measures,
        max_rule_size=max_rule_size,
        prune=prune,
        n_workers=n_workers,
        pool=pool,
        first_pick=first_pick,
    )
    return context.find_best(top)
