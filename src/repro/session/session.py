"""Interactive drill-down sessions — the paper's prototype tool (§2.3, §4.3).

A :class:`DrillDownSession` owns the displayed rule tree ``U``: it
starts at the trivial rule with the table's total count (the paper's
Table 1), expands rules into rule-lists on click, collapses them on a
second click (the roll-up of Section 2.3), and — when the table lives
on simulated disk — routes every expansion through the
:class:`~repro.sampling.handler.SampleHandler`, scaling displayed
counts by the sample's ``N_s`` and pre-fetching samples for the newly
displayed leaves in the background.

Expansions run through a
:class:`~repro.core.search_cache.SearchContext`; an in-memory session
additionally keeps the context of every node it has expanded, so re-expanding a node (say after a
collapse, or with a larger ``k``) reuses the cached candidate lattice
instead of re-filtering and re-mining the sub-table.  Sampled (disk)
sessions do not retain contexts — they would pin evicted sample tables
past the handler's memory budget, and a swapped sample invalidates
them anyway.  :meth:`DrillDownSession.clear_search_cache` drops the
retained ones to reclaim memory.

Sessions built with ``n_workers >= 2`` (or a shared ``pool=``) mine
their expansions through the shared-memory parallel counting backend
(:mod:`repro.core.parallel`).

**Ownership and lifecycle.**  Who closes what:

* A session built with ``n_workers >= 2`` *owns* its
  :class:`~repro.core.parallel.CountingPool` and releases the workers
  and shared-memory exports in :meth:`DrillDownSession.close` (or the
  context-manager exit).  A pool passed in via ``pool=`` — the
  multi-tenant pattern, where a
  :class:`~repro.serving.TableCatalog` owns one pool for every
  tenant — is only borrowed and is never closed by the session.
* Search contexts retained by the session (``_search_contexts``) are
  session-owned and dropped on close.  When a ``context_store=`` is
  supplied (the serving tier's
  :class:`~repro.serving.ContextStore`), the session additionally
  *leases* clones of contexts published by other sessions with an
  identical drill-down configuration and publishes its own freshly
  built ones back; leased clones are still private to this session —
  the store only ever hands out copies, so sessions cannot corrupt
  each other.
* :meth:`close` is idempotent and safe to call from another thread —
  e.g. a registry evicting this session — while an expansion is in
  flight: the in-flight operation completes (an owned pool's release
  is deferred until it drains), and every *later* mutating call
  raises :class:`~repro.errors.SessionClosedError`.  ``on_close=``
  registers a callback fired exactly once on the first close, which
  the serving registry uses for eviction bookkeeping.
"""

from __future__ import annotations

import numbers
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.drilldown import (
    drilldown_tag,
    rule_drilldown,
    star_drilldown,
    traditional_drilldown,
)
from repro.core.parallel import CountingPool
from repro.core.rule import Rule
from repro.core.scoring import ScoredRule
from repro.core.search_cache import SearchContext
from repro.core.weights import SizeWeight, WeightFunction
from repro.errors import SessionClosedError, SessionError
from repro.sampling.estimate import estimate_count
from repro.sampling.handler import SampleHandler
from repro.storage.disk import DiskTable
from repro.table.table import Table

__all__ = ["ExpansionRecord", "SessionNode", "DrillDownSession"]


def _validated_k(k: Any) -> int:
    """``k`` as a positive int, or :class:`SessionError`.

    ``k=0`` used to fall back to the session default silently (the
    ``k or self.k`` idiom); an explicit zero/negative/fractional ``k``
    is a caller bug and must say so (HTTP maps it to 400).  Integral
    numpy scalars (``np.int64(4)`` from an ``argmax``/count) coerce.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise SessionError(f"k must be an integer >= 1, got {k!r}")
    if k < 1:
        raise SessionError(f"k must be >= 1, got {k}")
    return int(k)


def _validated_error_target(value: Any) -> float:
    """``error_target`` as a positive float, or :class:`SessionError`."""
    try:
        target = float(value)
    except (TypeError, ValueError):
        raise SessionError(f"error_target must be a number > 0, got {value!r}") from None
    if not target > 0:
        raise SessionError(f"error_target must be > 0, got {value!r}")
    return target


def _validated_mw(mw: Any) -> float:
    """``mw`` as a positive float, or :class:`SessionError`."""
    try:
        value = float(mw)
    except (TypeError, ValueError):
        raise SessionError(f"mw must be a number > 0, got {mw!r}") from None
    if not value > 0:
        raise SessionError(f"mw must be > 0, got {mw!r}")
    return value


@dataclass
class SessionNode:
    """One displayed rule with its statistics and expansion state.

    ``estimate`` is present only on nodes produced by an *approximate*
    expansion (sample-based mining, §4.3): a plain dict of
    :class:`~repro.sampling.estimate.CountEstimate` metadata —
    ``estimate``/``low``/``high``/``confidence``/``sample_size``/
    ``scale``/``escalated``/``exact`` — that travels verbatim through
    the shard wire, snapshots and the HTTP response.  Exact expansions
    leave it ``None`` and serialise byte-identically to before the
    field existed.
    """

    rule: Rule
    count: float
    weight: float
    depth: int
    children: list["SessionNode"] = field(default_factory=list)
    expanded_via: str | None = None  # "rule" | "star" | "traditional"
    estimate: dict | None = None

    @property
    def is_expanded(self) -> bool:
        return bool(self.children)


@dataclass(frozen=True)
class ExpansionRecord:
    """Telemetry for one expansion (drives the §5.2 experiments)."""

    rule: Rule
    kind: str
    k: int
    wall_seconds: float
    simulated_io_seconds: float
    sample_method: str  # "find" | "combine" | "create" | "direct" | "approx" | "approx-escalated"
    sample_size: int
    scale: float


def _node_state(node: SessionNode) -> dict:
    """One displayed node (and its subtree) as replayable plain data.

    ``estimate`` is emitted only when present, so exact-session
    snapshots keep their pre-approx byte layout.
    """
    state = {
        "rule": node.rule,
        "count": node.count,
        "weight": node.weight,
        "depth": node.depth,
        "expanded_via": node.expanded_via,
        "children": [_node_state(child) for child in node.children],
    }
    if node.estimate is not None:
        state["estimate"] = dict(node.estimate)
    return state


def _record_state(record: ExpansionRecord) -> dict:
    """One history record as a plain dict (rules stay ``Rule`` objects)."""
    return {
        "rule": record.rule,
        "kind": record.kind,
        "k": record.k,
        "wall_seconds": record.wall_seconds,
        "simulated_io_seconds": record.simulated_io_seconds,
        "sample_method": record.sample_method,
        "sample_size": record.sample_size,
        "scale": record.scale,
    }


class DrillDownSession:
    """A stateful smart drill-down exploration of one table.

    Parameters
    ----------
    source:
        An in-memory :class:`~repro.table.Table` (expansions run on the
        full data) or a :class:`~repro.storage.DiskTable` (expansions
        run on dynamically maintained samples, Section 4).
    wf:
        Weight function; defaults to Size weighting.
    k:
        Rules per expansion (the paper's default display is 3–4).
    mw:
        Max-weight parameter for the BRS search.
    measure:
        Optional numeric column for Sum aggregation.
    memory_capacity, min_sample_size, allocator, rng:
        SampleHandler settings (disk sources only).
    prefetch:
        Pre-fetch samples for new leaves after each expansion (§4.3).
    n_workers:
        Parallel counting for expansions: ``None`` or ``1`` (the
        default) mines serially; ``0`` uses every core; ``>= 2`` spins
        up a session-owned shared-memory
        :class:`~repro.core.parallel.CountingPool` of that many
        workers, released by :meth:`close` (the session is also a
        context manager).  Expansions are identical either way.
    pool:
        An existing :class:`~repro.core.parallel.CountingPool` to share
        (e.g. one pool serving many sessions — the multi-tenant
        pattern).  Overrides ``n_workers``; a shared pool is *not*
        closed by :meth:`close`.
    context_store:
        Optional cross-session :class:`~repro.serving.ContextStore`.
        In-memory sessions then lease cached candidate lattices built
        by other sessions with an identical (table, weighting, ``mw``,
        measure) configuration — skipping the full-table first-pick
        passes — and publish their own fresh contexts back.  Leases
        are private clones; results are identical with or without a
        store.
    tenant:
        Opaque tenant label forwarded to the counting backend so a
        shared pool's :class:`~repro.serving.FairScheduler` (when
        installed) can round-robin dispatch across tenants.
    samples:
        Optional pre-built :class:`~repro.serving.TableSampleSet` over
        the *same* table, enabling approximate expansions
        (``approx=True``, or ``default_approx=``): mining runs on the
        best matching sample, displayed counts are scaled estimates,
        and every child carries :class:`CountEstimate` metadata in
        :attr:`SessionNode.estimate`.  In-memory sources only — a
        :class:`~repro.storage.DiskTable` session already mines on the
        handler's dynamic samples.
    default_approx:
        When true, expansions mine approximately unless the call says
        ``approx=False``.  Requires ``samples``.
    error_target:
        Default relative half-width bound for approximate expansions:
        a child whose confidence interval's half-width exceeds
        ``error_target × max(estimate, 1)`` sits too close to the
        greedy decision boundary, and the whole expansion escalates to
        exact mining.  Tight targets therefore converge to the exact
        rule list.  Overridable per call.
    approx_confidence:
        Confidence level of the per-child intervals (default 0.95).
    on_close:
        Callback invoked exactly once, with this session, when the
        session transitions to closed (explicit :meth:`close`, context
        exit, or registry eviction).
    """

    def __init__(
        self,
        source: Table | DiskTable,
        *,
        wf: WeightFunction | None = None,
        k: int = 3,
        mw: float = 5.0,
        measure: str | None = None,
        memory_capacity: int = 50_000,
        min_sample_size: int = 5_000,
        allocator: str = "dp",
        rng: np.random.Generator | None = None,
        prefetch: bool = True,
        n_workers: int | None = None,
        pool: CountingPool | None = None,
        context_store: Any = None,
        tenant: Any = None,
        samples: Any = None,
        marginals: Any = None,
        default_approx: bool = False,
        error_target: float = 0.1,
        approx_confidence: float = 0.95,
        on_close: Callable[["DrillDownSession"], None] | None = None,
    ):
        self.wf = wf or SizeWeight()
        self.k = _validated_k(k)
        self.mw = _validated_mw(mw)
        self.measure = measure
        self.prefetch_enabled = prefetch
        self.tenant = tenant
        if isinstance(source, DiskTable) and samples is not None:
            raise SessionError(
                "samples= applies to in-memory tables only; a DiskTable "
                "session mines on its SampleHandler's dynamic samples"
            )
        if default_approx and samples is None:
            raise SessionError("default_approx=True requires pre-built samples=")
        self._samples = samples
        # Registration-time first-pick marginal cache (read-only,
        # shared across sessions).  Only in-memory sessions can use it:
        # a DiskTable session mines on dynamic sample tables, which the
        # cache's identity keying would never match anyway.
        self._marginals = None if isinstance(source, DiskTable) else marginals
        self.default_approx = bool(default_approx)
        self.error_target = _validated_error_target(error_target)
        if not 0.0 < float(approx_confidence) < 1.0:
            raise SessionError("approx_confidence must be in (0, 1)")
        self.approx_confidence = float(approx_confidence)
        self._context_store = context_store
        self._on_close = on_close
        self._closed = False
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._deferred_pool: CountingPool | None = None
        if pool is not None:
            self._pool: CountingPool | None = pool
            self._owns_pool = False
        elif n_workers is not None and n_workers != 1:
            self._pool = CountingPool(n_workers)
            self._owns_pool = True
        else:
            self._pool = None
            self._owns_pool = False
        if isinstance(source, DiskTable):
            self._disk: DiskTable | None = source
            self._table: Table | None = None
            self.handler: SampleHandler | None = SampleHandler(
                source,
                memory_capacity=memory_capacity,
                min_sample_size=min_sample_size,
                allocator=allocator,  # type: ignore[arg-type]
                rng=rng,
            )
            n_columns = source.n_columns
            total = float(source.n_rows)
        else:
            self._disk = None
            self._table = source
            self.handler = None
            n_columns = source.n_columns
            total = float(source.n_rows)
        self._n_columns = n_columns
        self.root = SessionNode(
            rule=Rule.trivial(n_columns), count=total, weight=self.wf.weight(Rule.trivial(n_columns)), depth=0
        )
        self._nodes: dict[Rule, SessionNode] = {self.root.rule: self.root}
        self.history: list[ExpansionRecord] = []
        # Incremental-search state per expanded node, keyed by
        # (kind, rule, column); survives collapse so re-expansion is
        # nearly free (see repro.core.search_cache).  Only in-memory
        # sessions retain contexts: in a sampled session they would pin
        # evicted sample tables and their row caches, bypassing the
        # SampleHandler's memory budget.
        self._search_contexts: dict[tuple, "SearchContext"] = {}

    # -- lookup -----------------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        if self._table is not None:
            return self._table.column_names
        assert self._disk is not None
        return self._disk.schema.names

    def node(self, rule: Rule) -> SessionNode:
        """Return the displayed node for ``rule``."""
        try:
            return self._nodes[rule]
        except KeyError:
            raise SessionError(f"rule {rule} is not displayed") from None

    def displayed(self) -> list[SessionNode]:
        """Pre-order walk of the displayed tree (the rendered rows)."""
        out: list[SessionNode] = []

        def walk(node: SessionNode) -> None:
            out.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return out

    def leaves(self) -> list[SessionNode]:
        """Displayed nodes with no children (drill-down candidates)."""
        return [n for n in self.displayed() if not n.children]

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (mutating calls now raise)."""
        return self._closed

    @property
    def source_rows(self) -> int:
        """Rows in the session's source (table or simulated disk).

        The serving tier's :class:`~repro.serving.FairScheduler` uses
        this as the token cost of one expansion.
        """
        if self._table is not None:
            return self._table.n_rows
        assert self._disk is not None
        return self._disk.n_rows

    # -- expansion machinery ------------------------------------------------------

    def _begin_op(self) -> None:
        """Enter a mutating operation; reject it on a closed session."""
        with self._state_lock:
            if self._closed:
                raise SessionClosedError("session is closed")
            self._inflight += 1

    def _end_op(self) -> None:
        """Leave a mutating operation; run any close deferred behind it."""
        release = None
        with self._state_lock:
            self._inflight -= 1
            if self._closed and self._inflight == 0 and self._deferred_pool is not None:
                release = self._deferred_pool
                self._deferred_pool = None
        if release is not None:
            release.close()

    def _lease_context(
        self, cache_key: tuple, tag: tuple, source: Table | None = None
    ) -> "SearchContext | None":
        """A context for this expansion: session-owned first, then a store lease.

        ``source`` is the table the expansion will actually mine —
        the session's own table by default, a shared sample table for
        approximate expansions (the store keys prototypes by table
        identity, so approx and exact contexts can never collide).
        """
        context = self._search_contexts.get(cache_key)
        if (
            context is None
            and tag is not None
            and self._context_store is not None
            and self.handler is None
        ):
            context = self._context_store.lease(
                self._table if source is None else source,
                tag, pool=self._pool, tenant=self.tenant,
            )
        return context

    def _retain_context(
        self,
        cache_key: tuple,
        tag: tuple,
        context: "SearchContext | None",
        source: Table | None = None,
    ) -> None:
        """Keep a fresh context for re-expansion and share it via the store.

        Retention is guarded on ``_closed`` *under the state lock*: a
        concurrent :meth:`close` racing an in-flight expansion runs
        :meth:`clear_search_cache` once, and an unguarded retain landing
        after that clear would pin the table and candidate lattice past
        session death.  Either the retain commits first (and the close's
        clear removes it) or the flag is already set (and we skip) —
        both leave a closed session holding nothing.  (The store's
        prototype is a frozen clone owned by the store itself, so
        publishing is independent of this session's lifetime.)
        """
        if context is None or tag is None or self.handler is not None:
            return
        with self._state_lock:
            if self._closed:
                return
            self._search_contexts[cache_key] = context
        if self._context_store is not None:
            self._context_store.publish(
                self._table if source is None else source, tag, context
            )

    def _expandable_node(self, rule: Rule) -> SessionNode:
        """The displayed, not-yet-expanded node for ``rule``.

        Validated *before* any table work runs: an already-expanded (or
        undisplayed) rule must fail here, not after a full mining pass —
        the serving tier refunds a rejected expansion's budget charge on
        the promise that rejection costs nothing.
        """
        node = self.node(rule)
        if node.children:
            raise SessionError(f"rule {rule} is already expanded; collapse it first")
        return node

    def _acquire(self, rule: Rule) -> tuple[Table, float, str, int]:
        """Table to mine for ``rule``: a sample (scaled) or the full data."""
        if self.handler is None:
            assert self._table is not None
            return self._table, 1.0, "direct", self._table.n_rows
        sample, method = self.handler.get_sample(rule)
        return sample.table, sample.scale, method, sample.size

    def _attach(
        self,
        parent: SessionNode,
        entries: Sequence[ScoredRule],
        scale: float,
        kind: str,
    ) -> list[SessionNode]:
        if parent.children:
            raise SessionError(f"rule {parent.rule} is already expanded; collapse it first")
        children: list[SessionNode] = []
        for entry in entries:
            if entry.rule in self._nodes:
                continue  # a rule is displayed at most once
            child = SessionNode(
                rule=entry.rule,
                count=entry.count * scale,
                weight=entry.weight,
                depth=parent.depth + 1,
            )
            self._nodes[entry.rule] = child
            children.append(child)
        parent.children = children
        parent.expanded_via = kind
        return children

    def _record(
        self,
        rule: Rule,
        kind: str,
        k: int,
        wall: float,
        method: str,
        sample_size: int,
        scale: float,
        io_before: float,
    ) -> None:
        io_now = self._disk.io_stats.simulated_seconds if self._disk else 0.0
        self.history.append(
            ExpansionRecord(
                rule=rule,
                kind=kind,
                k=k,
                wall_seconds=wall,
                simulated_io_seconds=io_now - io_before,
                sample_method=method,
                sample_size=sample_size,
                scale=scale,
            )
        )

    def _prefetch(self, parent: SessionNode) -> None:
        if self.handler is None or not self.prefetch_enabled or not parent.children:
            return
        self.handler.prefetch(parent.rule, [c.rule for c in parent.children])

    # -- approximate expansion (§4.3 over pre-built serving samples) ---------------

    def _resolve_approx(self, approx: Any, error_target: Any) -> tuple[bool, float]:
        """Resolve the per-call ``approx``/``error_target`` knobs.

        Validation happens before any table work so the serving tier's
        refund-on-rejection policy holds for bad knobs too.
        """
        target = (
            self.error_target if error_target is None else _validated_error_target(error_target)
        )
        use = self.default_approx if approx is None else bool(approx)
        if use and self._samples is None:
            raise SessionError(
                "approximate expansion requires pre-built samples "
                "(register the table with a sample_budget, or pass samples=)"
            )
        return use, target

    def _run_approx(
        self,
        node: SessionNode,
        rule: Rule,
        k: int | None,
        kind: str,
        target: float,
        cache_key: tuple,
        tag: tuple | None,
        mine: Callable[[Table, "SearchContext | None"], Any],
    ) -> list[SessionNode]:
        """One approximate expansion: mine on the best stored sample,
        stamp per-child :class:`CountEstimate` metadata, and escalate
        the whole expansion to exact mining when any child's interval
        half-width crosses the greedy decision boundary
        (``target × max(estimate, 1)``) — so a tight ``error_target``
        provably returns the exact rule list.
        """
        assert self._samples is not None and self._table is not None
        start = time.perf_counter()
        sample = self._samples.sample_for(rule)
        approx_key = (*cache_key, "approx", sample.filter_rule)
        result = mine(sample.table, self._lease_context(approx_key, tag, source=sample.table))
        self._retain_context(approx_key, tag, result.context, source=sample.table)
        entries = result.rule_list.entries
        estimates = {
            entry.rule: estimate_count(sample, entry.rule, confidence=self.approx_confidence)
            for entry in entries
        }
        escalate = any(
            est.half_width > target * max(est.estimate, 1.0)
            for est in estimates.values()
        )
        if escalate:
            result = mine(self._table, self._lease_context(cache_key, tag))
            self._retain_context(cache_key, tag, result.context)
            children = self._attach(node, result.rule_list.entries, 1.0, kind)
            for child in children:
                child.estimate = {
                    "estimate": child.count,
                    "low": child.count,
                    "high": child.count,
                    "confidence": self.approx_confidence,
                    "sample_size": self._table.n_rows,
                    "scale": 1.0,
                    "escalated": True,
                    "exact": True,
                }
            method, sample_size, scale = "approx-escalated", self._table.n_rows, 1.0
        else:
            children = self._attach(node, entries, sample.scale, kind)
            for child in children:
                est = estimates[child.rule]
                child.estimate = {
                    "estimate": est.estimate,
                    "low": est.low,
                    "high": est.high,
                    "confidence": est.confidence,
                    "sample_size": est.sample_size,
                    "scale": sample.scale,
                    "escalated": False,
                    "exact": est.half_width == 0.0,
                }
            method, sample_size, scale = "approx", sample.size, sample.scale
        wall = time.perf_counter() - start
        self._record(
            rule, kind, k if k is not None else len(children),
            wall, method, sample_size, scale, 0.0,
        )
        return children

    # -- the user-facing operations -------------------------------------------------

    def expand(
        self,
        rule: Rule,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
    ) -> list[SessionNode]:
        """Smart drill-down on ``rule`` (click on a rule, §2.3).

        ``approx=True`` (or ``default_approx``) mines on the pre-built
        sample instead of the full table, attaching
        :attr:`SessionNode.estimate` metadata to every child and
        escalating to exact mining when an estimate crosses the
        ``error_target`` decision boundary.
        """
        self._begin_op()
        try:
            node = self._expandable_node(rule)
            k = self.k if k is None else _validated_k(k)
            use_approx, target = self._resolve_approx(approx, error_target)
            cache_key = ("rule", rule, None)
            tag = drilldown_tag(
                "rule", rule, None, measure=self.measure, wf=self.wf, mw=self.mw
            )
            if use_approx:
                def mine(table: Table, context: "SearchContext | None"):
                    return rule_drilldown(
                        table, rule, self.wf, k, self.mw, measure=self.measure,
                        context=context, pool=self._pool, tenant=self.tenant,
                    )

                return self._run_approx(node, rule, k, "rule", target, cache_key, tag, mine)
            io_before = self._disk.io_stats.simulated_seconds if self._disk else 0.0
            start = time.perf_counter()
            mined, scale, method, sample_size = self._acquire(rule)
            result = rule_drilldown(
                mined, rule, self.wf, k, self.mw, measure=self.measure,
                context=self._lease_context(cache_key, tag), pool=self._pool,
                tenant=self.tenant, first_pick=self._marginals,
            )
            self._retain_context(cache_key, tag, result.context)
            children = self._attach(node, result.rule_list.entries, scale, "rule")
            wall = time.perf_counter() - start
            self._record(rule, "rule", k, wall, method, sample_size, scale, io_before)
            self._prefetch(node)
            return children
        finally:
            self._end_op()

    def expand_star(
        self,
        rule: Rule,
        column: int | str,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
    ) -> list[SessionNode]:
        """Smart drill-down on a ``?`` cell of ``rule`` (§2.3)."""
        self._begin_op()
        try:
            node = self._expandable_node(rule)
            k = self.k if k is None else _validated_k(k)
            use_approx, target = self._resolve_approx(approx, error_target)
            if use_approx:
                assert self._table is not None
                resolved_column = (
                    self._table.schema.index_of(column) if isinstance(column, str) else column
                )
                cache_key = ("star", rule, resolved_column)
                tag = drilldown_tag(
                    "star", rule, resolved_column,
                    measure=self.measure, wf=self.wf, mw=self.mw,
                )

                def mine(table: Table, context: "SearchContext | None"):
                    return star_drilldown(
                        table, rule, resolved_column, self.wf, k, self.mw,
                        measure=self.measure, context=context, pool=self._pool,
                        tenant=self.tenant,
                    )

                return self._run_approx(node, rule, k, "star", target, cache_key, tag, mine)
            io_before = self._disk.io_stats.simulated_seconds if self._disk else 0.0
            start = time.perf_counter()
            mined, scale, method, sample_size = self._acquire(rule)
            resolved_column = (
                mined.schema.index_of(column) if isinstance(column, str) else column
            )
            cache_key = ("star", rule, resolved_column)
            tag = drilldown_tag(
                "star", rule, resolved_column,
                measure=self.measure, wf=self.wf, mw=self.mw,
            )
            result = star_drilldown(
                mined, rule, resolved_column, self.wf, k, self.mw, measure=self.measure,
                context=self._lease_context(cache_key, tag), pool=self._pool,
                tenant=self.tenant, first_pick=self._marginals,
            )
            self._retain_context(cache_key, tag, result.context)
            children = self._attach(node, result.rule_list.entries, scale, "star")
            wall = time.perf_counter() - start
            self._record(rule, "star", k, wall, method, sample_size, scale, io_before)
            self._prefetch(node)
            return children
        finally:
            self._end_op()

    def expand_traditional(
        self,
        rule: Rule,
        column: int | str,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
    ) -> list[SessionNode]:
        """Classic OLAP drill-down on one column (Figure 4)."""
        self._begin_op()
        try:
            node = self._expandable_node(rule)
            if k is not None:
                k = _validated_k(k)
            use_approx, target = self._resolve_approx(approx, error_target)
            if use_approx:
                def mine(table: Table, context: Any):
                    # Traditional drill-down has no incremental context;
                    # the lease/retain around it degrades to a no-op.
                    return traditional_drilldown(
                        table, rule, column, measure=self.measure, k=k
                    )

                return self._run_approx(
                    node, rule, k, "traditional", target,
                    ("traditional", rule, column), None, mine,
                )
            io_before = self._disk.io_stats.simulated_seconds if self._disk else 0.0
            start = time.perf_counter()
            mined, scale, method, sample_size = self._acquire(rule)
            result = traditional_drilldown(mined, rule, column, measure=self.measure, k=k)
            children = self._attach(node, result.rule_list.entries, scale, "traditional")
            wall = time.perf_counter() - start
            self._record(
                rule, "traditional", k or len(children), wall, method, sample_size, scale, io_before
            )
            self._prefetch(node)
            return children
        finally:
            self._end_op()

    def collapse(self, rule: Rule) -> None:
        """Undo an expansion — the paper's roll-up equivalent (§2.3)."""
        self._begin_op()
        try:
            node = self.node(rule)
            if not node.children:
                raise SessionError(f"rule {rule} is not expanded")

            def forget(n: SessionNode) -> None:
                for child in n.children:
                    forget(child)
                    self._nodes.pop(child.rule, None)
                n.children = []

            forget(node)
            node.expanded_via = None
        finally:
            self._end_op()

    def clear_search_cache(self) -> None:
        """Drop all retained incremental-search contexts.

        Contexts are kept across :meth:`collapse` precisely so that
        re-expanding a node is nearly free; call this to reclaim their
        memory (cached candidate row sets) in a long session.
        """
        self._search_contexts.clear()

    @property
    def pool(self) -> CountingPool | None:
        """The parallel counting pool serving this session (None = serial)."""
        return self._pool

    # -- durability (snapshot / replay) --------------------------------------------

    def snapshot(self) -> dict:
        """This session's replayable exploration state, as plain data.

        Everything :meth:`restore` needs to rebuild an equivalent
        session over the same source *without re-mining*: the displayed
        rule tree ``U`` (rules, counts, weights, depths, expansion
        kinds), the expansion history, and the ``k``/``mw``/``measure``
        configuration plus tenant label.  Rules stay :class:`Rule`
        objects — serialisation (the versioned on-disk format) is the
        job of :mod:`repro.serving.persistence`.

        Deliberately **not** captured: search contexts (rebuilt, or
        re-leased from a :class:`~repro.serving.ContextStore`, on the
        first expansion after restore — the engine is deterministic, so
        results are identical either way), the pool, and the sample
        handler's in-memory samples.

        The caller must serialise against concurrent mutation — the
        serving tier snapshots under its per-session entry lock.
        """
        return {
            "k": self.k,
            "mw": self.mw,
            "measure": self.measure,
            "tenant": self.tenant,
            "columns": list(self.column_names),
            "tree": _node_state(self.root),
            "history": [_record_state(record) for record in self.history],
        }

    @classmethod
    def restore(
        cls,
        source: Table | DiskTable,
        state: dict,
        *,
        wf: WeightFunction | None = None,
        tenant: Any = None,
        **kwargs: Any,
    ) -> "DrillDownSession":
        """Rebuild a session from a :meth:`snapshot` state, replaying the
        tree without re-mining.

        ``source`` must hold the same data the snapshot was taken over
        (the snapshot stores no table rows); ``wf`` must be the same
        weighting configuration.  Remaining keyword arguments
        (``pool=``, ``context_store=``, ``n_workers=``, ``on_close=``,
        ...) are forwarded to the constructor.  The restored session's
        :meth:`to_text` is bit-identical to the snapshotted one, and —
        same engine, contexts rebuilt or store-leased — so are the rule
        lists of every subsequent expansion.

        Raises :class:`~repro.errors.SessionError` when the state does
        not fit ``source`` (column mismatch, malformed tree).
        """
        if tenant is None:
            tenant = state.get("tenant")
        session = cls(
            source,
            wf=wf,
            k=state["k"],
            mw=state["mw"],
            measure=state.get("measure"),
            tenant=tenant,
            **kwargs,
        )
        session._replay(state)
        return session

    def _replay(self, state: dict) -> None:
        """Install a snapshot's tree and history over the fresh root."""
        columns = [str(c) for c in state.get("columns", ())]
        if columns != [str(c) for c in self.column_names]:
            raise SessionError(
                f"snapshot columns {columns} do not match the source's "
                f"{list(self.column_names)} — restore needs the same table"
            )

        def build(node_state: dict) -> SessionNode:
            estimate = node_state.get("estimate")
            node = SessionNode(
                rule=node_state["rule"],
                count=float(node_state["count"]),
                weight=float(node_state["weight"]),
                depth=int(node_state["depth"]),
                expanded_via=node_state.get("expanded_via"),
                estimate=dict(estimate) if estimate is not None else None,
            )
            node.children = [build(c) for c in node_state.get("children", ())]
            return node

        try:
            root = build(state["tree"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionError(f"malformed snapshot tree: {exc}") from None
        if root.rule != Rule.trivial(self._n_columns):
            raise SessionError("snapshot tree must be rooted at the trivial rule")
        nodes: dict[Rule, SessionNode] = {}

        def index(node: SessionNode) -> None:
            if node.rule in nodes:
                raise SessionError(f"snapshot displays rule {node.rule} twice")
            nodes[node.rule] = node
            for child in node.children:
                index(child)

        index(root)
        if float(root.count) != float(self.root.count):
            raise SessionError(
                f"snapshot root count {root.count:g} does not match the "
                f"source's {self.root.count:g} rows — the table's data changed"
            )
        try:
            history = [ExpansionRecord(**record) for record in state.get("history", ())]
        except TypeError as exc:
            raise SessionError(f"malformed snapshot history: {exc}") from None
        self.root = root
        self._nodes = nodes
        self.history = history

    def close(self) -> None:
        """Close the session: idempotent, thread-safe, eviction-safe.

        Releases the retained search contexts and — if this session
        created its own :class:`~repro.core.parallel.CountingPool` (the
        ``n_workers`` constructor knob) — the pool's workers and
        shared-memory table exports.  A pool passed in via ``pool=`` is
        shared (typically catalog-owned) and left running, exports
        intact, for the sessions still using it.

        Safe to call any number of times and from any thread, including
        a registry evicting this session while an expansion is in
        flight on another thread: the in-flight operation completes
        (an owned pool's release is deferred until it drains), the
        ``on_close`` callback fires exactly once, and every subsequent
        mutating call raises
        :class:`~repro.errors.SessionClosedError`.  Read-only accessors
        (:meth:`displayed`, :meth:`to_text`, ...) keep working on the
        last displayed tree.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            release = pool if (pool is not None and self._owns_pool) else None
            if release is not None and self._inflight > 0:
                self._deferred_pool = release  # drained by _end_op
                release = None
        self.clear_search_cache()
        if release is not None:
            release.close()
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback(self)

    def __enter__(self) -> "DrillDownSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def refresh_exact_counts(self) -> dict[Rule, float]:
        """Replace displayed estimated counts with exact counts (§4.3).

        For sampled sessions this pays one metered pass (the paper runs
        it inside the background pre-fetch pass); for in-memory sessions
        counts are recomputed directly.  Returns the per-rule deltas
        applied, so callers can surface "count corrected" feedback.
        """
        self._begin_op()
        try:
            return self._refresh_exact_counts()
        finally:
            self._end_op()

    def _refresh_exact_counts(self) -> dict[Rule, float]:
        nodes = [n for n in self.displayed() if not n.rule.is_trivial]
        deltas: dict[Rule, float] = {}
        if self.handler is not None:
            exact = self.handler.exact_counts([n.rule for n in nodes])
            for node in nodes:
                new = float(exact[node.rule])
                if new != node.count:
                    deltas[node.rule] = new - node.count
                    node.count = new
        else:
            assert self._table is not None
            from repro.core.rule import cover_mask

            measures = None
            if self.measure is not None:
                from repro.core.scoring import tuple_measures

                measures = tuple_measures(self._table, self.measure)
            for node in nodes:
                mask = cover_mask(node.rule, self._table)
                new = float(mask.sum()) if measures is None else float(measures[mask].sum())
                if new != node.count:
                    deltas[node.rule] = new - node.count
                    node.count = new
        return deltas

    # -- rendering --------------------------------------------------------------------

    def to_text(self, *, sort_display_by_count: bool = False) -> str:
        """Render the displayed tree as the paper's dotted table."""
        from repro.ui.render import render_session

        return render_session(self, sort_display_by_count=sort_display_by_count)
