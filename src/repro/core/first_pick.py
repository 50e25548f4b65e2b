"""Shared first-pick marginal cache: registration-time level-1 precompute.

Every fresh :class:`~repro.core.search_cache.SearchContext` pays a full
level-wise scan for its *first* pick even though picks 2..k are nearly
free.  Tables in the serving catalog
are registered once and shared by every tenant, so the level-1
(single-column) count/marginal vectors are the same for every cold
session over the same ``(table, weighting, mw)``.  This module
precomputes them once and serves them read-only.

Bit-identity is the design constraint: the greedy operator must return
*provably identical* rule lists with or without the cache, and IEEE
floats are not distributive — ``weight * count`` is not always the same
float as the kernel's per-row gain accumulation.  So the cache stores
the *actual output* of :func:`~repro.core.parallel
.count_extensions_kernel` run at the fixed base vector ``top == 0.0``,
and consumers use it only when their own ``top`` is elementwise equal
to that base (the cold first build; warmed searches fall back to the
normal scan).  Accumulation order matches too: ``np.bincount`` adds
weights in ascending row order, exactly like the cold pass.

The optional bounded level-2 extension caches the child counts of *hot*
single-column parents, observed through a small access-stats hook
(:meth:`FirstPickCache.note_pair`).  A joint
``codes_p * n_q + codes_q`` bincount accumulates every
``(parent code, child code)`` bin over the same rows in the same
ascending order as the cold per-parent kernel call, so the served
arrays are bit-identical there as well; it is only served while the
search ``top`` is still the base vector (i.e. expansions performed to
settle the very first pick).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.core.marginal import _column_set_weight, _extension_weight
from repro.core.parallel import count_extensions_kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.weights import WeightFunction
    from repro.table.table import Table

__all__ = ["FirstPickCache", "build_first_pick_cache", "extend_first_pick_cache"]


class FirstPickCache:
    """Read-only level-1 marginals for one ``(table, weighting, mw)``.

    ``entries[pos]`` holds ``(weight, supported, counts, marginals)``
    for categorical position ``pos`` — the exact kernel output of the
    cold first pass at ``top == 0.0``.  Consumers key the cache by
    *identity* (``matches``): the same ``Table`` object and the same
    ``WeightFunction`` instance, so a re-registered (changed) table or
    a per-call derived weighting can never alias into stale marginals.

    Instances are shared across sessions and threads; the level-1
    entries are immutable after construction, the level-2 pair map only
    grows (fully-built immutable values published under a lock), and
    the counters are best-effort statistics.
    """

    def __init__(
        self,
        table: "Table",
        wf: "WeightFunction",
        mw: float,
        entries,
        *,
        pair_limit: int = 0,
        pair_threshold: int = 2,
    ):
        self.table = table
        self.wf = wf
        self.mw = float(mw)
        self.entries = tuple(entries)
        self.pair_limit = int(pair_limit)
        self.pair_threshold = max(1, int(pair_threshold))
        self._fast_weight = _column_set_weight(wf)
        self._cat_positions = tuple(table.schema.categorical_indexes)
        self._codes = table.categorical_code_arrays()
        self._distinct = tuple(
            table.categorical(idx).distinct_count for idx in self._cat_positions
        )
        self._measures = np.ones(table.n_rows, dtype=np.float64)
        self._base_top = np.zeros(table.n_rows, dtype=np.float64)
        # Level-2: (p, q) -> (weight, {parent code: (supported, counts,
        # marginals)}).  Grows under _lock, read lock-free (the GIL
        # makes dict reads of fully-built values safe).
        self._pairs: dict = {}
        self._pair_seen: dict = {}
        self._lock = threading.Lock()
        # Best-effort counters, surfaced through catalog /stats.
        self.hits = 0
        self.misses = 0
        self.pair_hits = 0
        self.pair_misses = 0
        self.pairs_built = 0

    # -- validity ---------------------------------------------------------------

    def matches(self, table: "Table", wf: "WeightFunction", mw: float) -> bool:
        """True when this cache is valid for a search over exactly
        ``(table, wf, mw)`` — identity on the objects, equality on mw."""
        return table is self.table and wf is self.wf and float(mw) == self.mw

    # -- level 1 ----------------------------------------------------------------

    def level1(self, pos: int):
        """``(weight, supported, counts, marginals)`` for categorical
        position ``pos`` at the base ``top``."""
        return self.entries[pos]

    # -- level 2 ----------------------------------------------------------------

    def pair(self, p: int, code: int, q: int):
        """Cached extensions of single-column parent ``(p, code)`` on
        column ``q``, or ``None`` when the pair is not cached."""
        built = self._pairs.get((p, q))
        if built is None:
            self.pair_misses += 1
            return None
        self.pair_hits += 1
        weight, per_code = built
        entry = per_code.get(int(code))
        if entry is None:  # parent code carries rows, so this is only
            # reachable for codes filtered out at build time; serve the
            # (empty) truth rather than falling back to a scan.
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            return weight, empty_i, empty_f, empty_f
        return (weight, *entry)

    def note_pair(self, p: int, q: int) -> None:
        """Access-stats hook: record a cold expansion of pair ``(p, q)``
        and build its level-2 entry once it crosses the threshold."""
        if self.pair_limit <= 0:
            return
        key = (p, q)
        with self._lock:
            if key in self._pairs:
                return
            seen = self._pair_seen.get(key, 0) + 1
            self._pair_seen[key] = seen
            if seen < self.pair_threshold or len(self._pairs) >= self.pair_limit:
                return
            self._pairs[key] = self._build_pair(p, q)
            self.pairs_built += 1

    def _build_pair(self, p: int, q: int):
        """Joint bincount over ``(codes_p, codes_q)``: per-bin weight
        accumulation runs over the same rows in the same ascending order
        as the cold per-parent kernel call, hence bit-identical."""
        n_q = self._distinct[q]
        joint = self._codes[p].astype(np.int64) * n_q + self._codes[q]
        n_bins = self._distinct[p] * n_q
        # The fast-path weight depends only on the column *positions*,
        # so any parent code stands in for the whole column.
        weight = _extension_weight(self._fast_weight, self._cat_positions, ((p, 0),), q)
        counts = np.bincount(joint, weights=self._measures, minlength=n_bins)
        gains = np.maximum(weight - self._base_top, 0.0) * self._measures
        marginals = np.bincount(joint, weights=gains, minlength=n_bins)
        per_code: dict = {}
        for code in range(self._distinct[p]):
            seg = slice(code * n_q, (code + 1) * n_q)
            seg_counts = counts[seg]
            supported = np.nonzero(seg_counts > 0)[0]
            if supported.size:
                per_code[code] = (
                    supported,
                    seg_counts[supported],
                    marginals[seg][supported],
                )
        return weight, per_code

    # -- statistics -------------------------------------------------------------

    def describe(self) -> dict:
        """Counter snapshot for the serving ``/stats`` surface."""
        return {
            "columns": len(self.entries),
            "mw": self.mw,
            "hits": self.hits,
            "misses": self.misses,
            "pairs": len(self._pairs),
            "pairs_built": self.pairs_built,
            "pair_hits": self.pair_hits,
            "pair_misses": self.pair_misses,
        }


def build_first_pick_cache(
    table: "Table",
    wf: "WeightFunction",
    mw: float,
    *,
    pair_limit: int = 0,
    pair_threshold: int = 2,
) -> FirstPickCache | None:
    """Build the level-1 cache for ``(table, wf, mw)``, or ``None``.

    ``None`` means the combination has no fast path to cache: a
    weighting outside the scalar column-set family, or a table with no
    categorical columns.  The arrays come from the same
    :func:`~repro.core.parallel.count_extensions_kernel` a cold
    search's first pass calls (measures all-ones — the cache serves only
    Count searches — and ``top == 0.0``), so serving them is
    bit-identical to re-running the scan.
    """
    fast_weight = _column_set_weight(wf)
    if fast_weight is None:
        return None
    cat_positions = tuple(table.schema.categorical_indexes)
    if not cat_positions:
        return None
    codes = table.categorical_code_arrays()
    measures = np.ones(table.n_rows, dtype=np.float64)
    top = np.zeros(table.n_rows, dtype=np.float64)
    entries = []
    for pos, idx in enumerate(cat_positions):
        weight = _extension_weight(fast_weight, cat_positions, (), pos)
        n_values = table.categorical(idx).distinct_count
        supported, counts, marginals = count_extensions_kernel(
            codes[pos], measures, top, None, n_values, weight
        )
        entries.append((weight, supported, counts, marginals))
    return FirstPickCache(
        table,
        wf,
        mw,
        entries,
        pair_limit=pair_limit,
        pair_threshold=pair_threshold,
    )


def extend_first_pick_cache(
    cache: FirstPickCache,
    table: "Table",
    wf: "WeightFunction",
    *,
    pair_limit: int = 0,
    pair_threshold: int = 2,
) -> FirstPickCache | None:
    """Delta-maintain ``cache`` onto ``table``, an appended version of
    the cache's table, in O(appended rows).

    The level-1 vectors are per-bin fold-left sums in ascending row
    order (that is how ``np.bincount`` accumulates).  The old entry
    already holds the fold over the prefix rows, and ``np.add.at``
    applies its updates unbuffered in index order, so folding only the
    appended rows on top reproduces the cold pass's IEEE accumulation
    order exactly — the returned cache's entries are bit-identical to
    ``build_first_pick_cache(table, wf, cache.mw)``.

    Returns ``None`` whenever the delta cannot be maintained and the
    caller must rebuild cold: a weighting outside the scalar
    column-set family, a per-position weight that changed between
    versions (e.g. a ``bits`` weighting over a dictionary that grew),
    or tables that do not stand in the dictionary-prefix append
    relation.  Level-2 pair entries are never carried over — they
    rebuild lazily through :meth:`FirstPickCache.note_pair`.
    """
    old = cache.table
    n_old = old.n_rows
    if table.n_rows < n_old or table.schema != old.schema:
        return None
    fast_weight = _column_set_weight(wf)
    if fast_weight is None:
        return None
    cat_positions = tuple(table.schema.categorical_indexes)
    if not cat_positions or len(cache.entries) != len(cat_positions):
        return None
    codes = table.categorical_code_arrays()
    old_codes = old.categorical_code_arrays()
    for pos, idx in enumerate(cat_positions):
        old_col = old.categorical(idx)
        if table.categorical(idx).values[: old_col.distinct_count] != old_col.values:
            return None
        if not np.array_equal(codes[pos][:n_old], old_codes[pos]):
            return None
    entries = []
    for pos, idx in enumerate(cat_positions):
        weight = _extension_weight(fast_weight, cat_positions, (), pos)
        old_entry = cache.entries[pos]
        if old_entry is None or old_entry[0] != weight:
            return None
        _weight, old_supported, old_counts, old_marginals = old_entry
        n_values = table.categorical(idx).distinct_count
        counts = np.zeros(n_values, dtype=np.float64)
        marginals = np.zeros(n_values, dtype=np.float64)
        counts[old_supported] = old_counts
        marginals[old_supported] = old_marginals
        tail = codes[pos][n_old:]
        # Cold per-row values at the base vector: measures are all-ones
        # and top == 0.0, so every appended row adds 1.0 to its count
        # bin and max(weight - 0.0, 0.0) * 1.0 to its marginal bin.
        np.add.at(counts, tail, np.ones(tail.size, dtype=np.float64))
        gain = float(np.maximum(weight - 0.0, 0.0) * 1.0)
        np.add.at(marginals, tail, np.full(tail.size, gain, dtype=np.float64))
        supported = np.nonzero(counts > 0)[0]
        entries.append((weight, supported, counts[supported], marginals[supported]))
    return FirstPickCache(
        table,
        wf,
        cache.mw,
        entries,
        pair_limit=pair_limit,
        pair_threshold=pair_threshold,
    )
