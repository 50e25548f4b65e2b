"""Equivalence + lifecycle tests for the shared-memory counting pool.

The parallel backend (:mod:`repro.core.parallel`) must produce
*bit-identical* rule lists, weights, counts, and marginals to the
serial search across weight functions, warm and cold searches, and
worker counts — a task is one whole (parent, column) bincount pair, so
not even float accumulation order may differ.  The lifecycle half covers the serial
fallbacks (``n_workers=1``, small tables, slow-path weights, closed
pools) and shared-memory cleanup on pool/session close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BitsWeight,
    CallableWeight,
    CountingPool,
    MergedWeight,
    Rule,
    SearchContext,
    SizeMinusOneWeight,
    SizeWeight,
    StarConstrainedWeight,
    brs,
    default_pool,
    find_best_marginal_rule,
    resolve_pool,
    rule_drilldown,
    star_drilldown,
    tuple_measures,
)
from repro.session import DrillDownSession
from tests.conftest import cold_greedy

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None


@pytest.fixture(scope="module")
def pool2():
    """A two-worker pool with thresholds zeroed so tiny tables dispatch."""
    with CountingPool(2, min_table_rows=0, min_task_rows=0) as pool:
        yield pool


def _weighting(name: str, table):
    if name == "size":
        return SizeWeight()
    if name == "bits":
        return BitsWeight.for_table(table)
    if name == "size_minus_one":
        return SizeMinusOneWeight()
    if name == "merged":
        return MergedWeight(SizeWeight(), Rule.from_items(table.n_columns, {0: "v0"}))
    if name == "star":
        return StarConstrainedWeight(SizeWeight(), min(1, table.n_columns - 1))
    raise AssertionError(name)


def _assert_identical(a, b):
    """Byte-identical pick sequences: rules, weights, counts, marginals."""
    assert [p.rule for p in a.picks] == [p.rule for p in b.picks]
    assert [p.weight for p in a.picks] == [p.weight for p in b.picks]
    assert [p.count for p in a.picks] == [p.count for p in b.picks]
    assert [p.marginal for p in a.picks] == [p.marginal for p in b.picks]
    assert a.rules == b.rules
    assert a.score == b.score


class TestParallelEquivalence:
    @pytest.mark.parametrize(
        "weighting", ["size", "bits", "size_minus_one", "merged", "star"]
    )
    def test_weight_functions(self, marketing7, weighting, pool2):
        wf = _weighting(weighting, marketing7)
        serial = brs(marketing7, wf, 4, 5.0)
        parallel = brs(marketing7, wf, 4, 5.0, pool=pool2)
        _assert_identical(serial, parallel)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_worker_counts(self, marketing7, n_workers):
        wf = SizeWeight()
        serial = brs(marketing7, wf, 4, 5.0)
        with CountingPool(n_workers, min_table_rows=0, min_task_rows=0) as pool:
            parallel = brs(marketing7, wf, 4, 5.0, pool=pool)
        _assert_identical(serial, parallel)

    def test_cold_search_per_pick(self, marketing7, pool2):
        wf = SizeWeight()
        serial = cold_greedy(marketing7, wf, 4, 5.0)
        parallel = cold_greedy(marketing7, wf, 4, 5.0, pool=pool2)
        _assert_identical(serial, parallel)
        _assert_identical(serial, brs(marketing7, wf, 4, 5.0, pool=pool2))

    def test_census_workload_dispatches(self, census_small, pool2):
        wf = SizeWeight()
        serial = brs(census_small, wf, 5, 5.0)
        ctx = SearchContext(census_small, wf, 5.0, pool=pool2)
        parallel = brs(census_small, wf, 5, 5.0, context=ctx)
        _assert_identical(serial, parallel)
        assert ctx.backend is not None
        assert ctx.backend.tasks_dispatched > 0  # workers really ran

    def test_sum_measures(self, measure_table, pool2):
        wf = SizeWeight()
        measures = tuple_measures(measure_table, "Sales")
        serial = brs(measure_table, wf, 4, 2.0, measures=measures)
        parallel = brs(measure_table, wf, 4, 2.0, measures=measures, pool=pool2)
        _assert_identical(serial, parallel)

    def test_single_search(self, marketing7, pool2):
        wf = SizeWeight()
        top = np.zeros(marketing7.n_rows)
        cold = find_best_marginal_rule(marketing7, wf, top, 5.0)
        warm = find_best_marginal_rule(marketing7, wf, top, 5.0, pool=pool2)
        assert (warm.rule, warm.weight, warm.count, warm.marginal) == (
            cold.rule,
            cold.weight,
            cold.count,
            cold.marginal,
        )

    def test_rule_drilldown(self, marketing7, pool2):
        wf = SizeWeight()
        parent = Rule.from_items(
            marketing7.n_columns, {0: marketing7.categorical(0).decode(0)}
        )
        serial = rule_drilldown(marketing7, parent, wf, 3, 5.0)
        parallel = rule_drilldown(marketing7, parent, wf, 3, 5.0, pool=pool2)
        assert serial.rules == parallel.rules
        assert [e.mcount for e in serial.rule_list] == [
            e.mcount for e in parallel.rule_list
        ]

    def test_star_drilldown(self, marketing7, pool2):
        wf = SizeWeight()
        parent = Rule.trivial(marketing7.n_columns)
        serial = star_drilldown(marketing7, parent, 1, wf, 3, 5.0)
        parallel = star_drilldown(marketing7, parent, 1, wf, 3, 5.0, pool=pool2)
        assert serial.rules == parallel.rules

    def test_interleaved_contexts_share_one_export(self, marketing7, pool2):
        """Alternating searches from two contexts over one shared export
        must each see their own ``top`` (the segment is re-published on
        ownership change), not the other search's."""
        wf = SizeWeight()
        c1 = SearchContext(marketing7, wf, 5.0, pool=pool2)
        c2 = SearchContext(marketing7, wf, 5.0, pool=pool2)
        assert c1.backend.export is c2.backend.export
        tops = [np.zeros(marketing7.n_rows), np.zeros(marketing7.n_rows)]
        picks = [[], []]
        for _ in range(3):
            for i, ctx in enumerate((c1, c2)):
                result = ctx.find_best(tops[i].copy())
                picks[i].append((result.rule, result.marginal))
                rows = ctx.last_rows
                tops[i][rows] = np.maximum(tops[i][rows], result.weight)
        assert picks[0] == picks[1]
        reference = brs(marketing7, wf, 3, 5.0)
        assert [p.rule for p in reference.picks] == [r for r, _ in picks[0]]

    def test_float_top_normalised(self, marketing7, pool2):
        """A non-float64 top is normalised identically on the serial and
        parallel paths (local fallback vs shared segment)."""
        wf = SizeWeight()
        top = np.zeros(marketing7.n_rows, dtype=np.float32)
        top[: marketing7.n_rows // 2] = 1.5
        cold = find_best_marginal_rule(marketing7, wf, top, 5.0)
        warm = find_best_marginal_rule(marketing7, wf, top, 5.0, pool=pool2)
        assert (cold.rule, cold.marginal, cold.count) == (
            warm.rule,
            warm.marginal,
            warm.count,
        )

    def test_session_expansions(self, marketing7, pool2):
        serial = DrillDownSession(marketing7, k=3, mw=5.0)
        serial.expand(serial.root.rule)
        with DrillDownSession(marketing7, k=3, mw=5.0, pool=pool2) as parallel:
            parallel.expand(parallel.root.rule)
            assert [n.rule for n in serial.displayed()] == [
                n.rule for n in parallel.displayed()
            ]


class TestSerialFallbacks:
    def test_n_workers_one_is_serial(self, marketing7):
        assert resolve_pool(None, None) is None
        assert resolve_pool(None, 1) is None
        ctx = SearchContext(marketing7, SizeWeight(), 5.0, n_workers=1)
        assert ctx.backend is None
        result = brs(marketing7, SizeWeight(), 3, 5.0, n_workers=1)
        _assert_identical(result, brs(marketing7, SizeWeight(), 3, 5.0))

    def test_n_workers_zero_means_all_cores(self):
        import os

        pool = resolve_pool(None, 0)
        if (os.cpu_count() or 1) > 1:
            assert pool is not None and pool.n_workers == os.cpu_count()
        else:
            assert pool is None

    def test_small_table_not_exported(self, tiny_table, pool2):
        with CountingPool(2) as strict:  # default min_table_rows
            assert strict.backend_for(tiny_table) is None
        # zeroed thresholds do export it, and results still agree
        serial = brs(tiny_table, SizeWeight(), 3, 3.0)
        parallel = brs(tiny_table, SizeWeight(), 3, 3.0, pool=pool2)
        _assert_identical(serial, parallel)

    def test_slow_path_weight_falls_back(self, tiny_table, pool2):
        wf = CallableWeight(lambda rule: float(rule.size))
        ctx = SearchContext(tiny_table, wf, 3.0, pool=pool2)
        assert ctx.backend is None  # value-dependent weights stay serial
        serial = brs(tiny_table, wf, 3, 3.0)
        parallel = brs(tiny_table, wf, 3, 3.0, pool=pool2)
        _assert_identical(serial, parallel)

    def test_pool_of_one_never_dispatches(self, marketing7):
        pool = CountingPool(1, min_table_rows=0, min_task_rows=0)
        assert not pool.usable
        assert pool.backend_for(marketing7) is None
        pool.close()

    def test_tasks_below_threshold_run_locally(self, marketing7):
        wf = SizeWeight()
        with CountingPool(2, min_table_rows=0, min_task_rows=10**9) as pool:
            ctx = SearchContext(marketing7, wf, 5.0, pool=pool)
            result = brs(marketing7, wf, 3, 5.0, context=ctx)
            assert ctx.backend is not None
            assert ctx.backend.tasks_dispatched == 0
            assert ctx.backend.tasks_local > 0
        _assert_identical(result, brs(marketing7, SizeWeight(), 3, 5.0))

    def test_closed_pool_is_serial(self, marketing7):
        pool = CountingPool(2, min_table_rows=0)
        pool.close()
        assert pool.backend_for(marketing7) is None
        result = brs(marketing7, SizeWeight(), 3, 5.0, pool=pool)
        _assert_identical(result, brs(marketing7, SizeWeight(), 3, 5.0))


@pytest.mark.skipif(shared_memory is None, reason="no shared_memory support")
class TestLifecycle:
    def test_export_reused_across_searches(self, marketing7, pool2):
        a = pool2.backend_for(marketing7)
        b = pool2.backend_for(marketing7)
        assert a is not b and a.export is b.export

    def test_pool_close_unlinks_segments(self, marketing7):
        pool = CountingPool(2, min_table_rows=0, min_task_rows=0)
        backend = pool.backend_for(marketing7)
        data_name, top_name = backend.export.meta[0], backend.export.meta[1]
        probe = shared_memory.SharedMemory(name=data_name)
        probe.close()
        pool.close()
        for name in (data_name, top_name):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_session_close_releases_owned_pool(self, marketing7):
        session = DrillDownSession(marketing7, k=3, mw=5.0, n_workers=2)
        pool = session.pool
        assert pool is not None and pool.n_workers == 2
        session.expand(session.root.rule)
        session.close()
        assert pool.closed
        assert session.pool is None
        assert not session._search_contexts

    def test_session_close_keeps_shared_pool(self, marketing7, pool2):
        session = DrillDownSession(marketing7, k=3, mw=5.0, pool=pool2)
        session.expand(session.root.rule)
        session.close()
        assert not pool2.closed  # shared pools outlive the session

    def test_session_n_workers_one_owns_no_pool(self, marketing7):
        session = DrillDownSession(marketing7, k=3, mw=5.0, n_workers=1)
        assert session.pool is None
        session.expand(session.root.rule)
        session.close()

    def test_default_pool_cached_and_reopened(self):
        a = default_pool(2)
        assert default_pool(2) is a
        a.close()
        b = default_pool(2)
        assert b is not a and not b.closed
        b.close()
