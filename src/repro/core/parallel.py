"""Parallel candidate counting over shared memory — the first-pick backend.

The cached search (:mod:`repro.core.search_cache`) made picks
2..k of a BRS run nearly free, so interactive latency is dominated by
the *first* pick's level-wise a-priori counting: for every surviving
(parent, extension-column) pair, two weighted ``np.bincount`` passes
over the parent's covered rows (see
:func:`count_extensions_kernel`).  Those passes are independent of one
another, which makes them embarrassingly parallel — this module shards
them across a persistent worker-pool.

Architecture
------------

* **Shared immutable region.**  :class:`CountingPool` exports a table
  once: every dictionary-encoded code array plus the measure array is
  copied into one :mod:`multiprocessing.shared_memory` segment, and a
  second (small, mutable) segment holds the per-tuple ``top`` weights
  of the search in flight.  Workers attach by name and build zero-copy
  ``numpy`` views — after the one-time export, no table data ever
  crosses the IPC channel again.  The same region can serve any number
  of searches (and, down the road, any number of sessions — the
  multi-tenant story in ROADMAP.md mirrors shared-sample stores in
  VerdictDB-style approximate engines).  Backends sharing one export
  serialise their dispatching batches on the export's lock and
  re-publish their ``top`` array on ownership change, so concurrent
  searches stay correct (they interleave, they do not corrupt).
* **Persistent process pool.**  Workers are forked (or spawned) once
  and reused; a counting batch ships only task descriptors — a
  categorical position, an optional covered-row index array, and the
  scalar fast-path weight — and receives back the supported codes with
  their Counts and MarginalValues.
* **The backend seam.**  The search talks to a :class:`CountingBackend`:
  :class:`~repro.core.search_cache.SearchContext` batches its size-1
  build and per-candidate expansions.  When no backend is configured
  (``n_workers=None``/``1``), it runs its serial code path, byte for
  byte.
* **Registration-time precompute.**  The serving catalog's first-pick
  marginal cache (:mod:`repro.core.first_pick`) is a third client of
  :func:`count_extensions_kernel`: it runs the level-1 passes once per
  ``(table, weighting, mw)`` at registration and serves the kernel's
  output read-only, so a cold session's first pick skips both the
  serial scan *and* the pool dispatch (which the recorded 1-core bench
  shows can be slower than serial for that single batch).  Shard
  workers rebuild the identical cache from their wire-decoded table
  copies — same kernel, same arrays, bit for bit.
* **Bit-identical results.**  The unit of work is one whole
  (parent, column) bincount pair — row ranges are never split, so
  float accumulation order inside every bincount is exactly the serial
  order and the returned Counts/MarginalValues are bit-identical.
  Batching only changes where a task runs, never what it returns, so
  the selected rule lists are identical — the equivalence suite
  ``tests/core/test_parallel.py`` pins this across weight functions
  and worker counts.

Serial fallbacks
----------------

The backend quietly degrades to in-process counting when parallelism
cannot help or cannot work: tables below ``min_table_rows``, tasks
below ``min_task_rows`` (computed locally *while* the big tasks are in
flight), batches with fewer than two shippable tasks, platforms without
``multiprocessing.shared_memory``, value-dependent (slow-path) weight
functions, and pools that failed to start or have been closed.

Lifecycle and ownership
-----------------------

A :class:`CountingPool` owns its executor and every exported segment;
:meth:`CountingPool.close` (also a context-manager exit, also run at
interpreter exit) terminates the workers and unlinks the segments.
Exports are keyed per table and freed early when the table is garbage
collected.  Whoever *creates* a pool closes it — nobody else:

* a :class:`~repro.session.session.DrillDownSession` built with
  ``n_workers >= 2`` owns its pool and releases it in ``close()``
  (deferred until any in-flight expansion drains);
* a session handed a shared ``pool=`` only borrows it — its ``close()``
  leaves the pool (and every export other sessions may be counting
  against) untouched;
* in the multi-tenant serving tier, the
  :class:`~repro.serving.TableCatalog` owns the pool: tables register
  once, export once, and stay exported until the catalog (not any
  individual tenant session) is closed.

Fair scheduling hook
--------------------

Setting :attr:`CountingPool.scheduler` installs a dispatch gate on the
pool's task queue: every batch a backend ships to the workers first
enters ``scheduler.dispatch_turn(tenant)`` (a context manager), where
``tenant`` is the label given to :meth:`CountingPool.backend_for`.
:class:`repro.serving.FairScheduler` implements round-robin turns
across tenants, so one tenant's deep drill-down queues behind — not
ahead of — everyone else's next batch.  The gate wraps only batch
*submission* (publish ``top``, queue the buckets): it is released
before worker results are awaited, so tenants' batches compute
concurrently and only their entry into the work queue is ordered.
Serial fallback counting never waits on it, and with no scheduler
installed (the default) the hook costs one attribute read.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

try:  # gate: some platforms build python without POSIX shared memory
    from multiprocessing import get_all_start_methods, get_context
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exercised only on exotic builds
    _shared_memory = None

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.table.table import Table

__all__ = [
    "CountTask",
    "CountingBackend",
    "CountingPool",
    "count_extensions_kernel",
    "current_deadline",
    "deadline_scope",
    "default_pool",
    "resolve_pool",
]


# -- request deadlines -----------------------------------------------------------

_DEADLINES = threading.local()


def current_deadline() -> float | None:
    """The calling thread's absolute deadline, if one is in scope."""
    return getattr(_DEADLINES, "at", None)


@contextmanager
def deadline_scope(deadline_at: float | None) -> Iterator[None]:
    """Bind an absolute deadline to the calling thread.

    The serving facade wraps each expansion in this scope so the fair
    scheduler's dispatch gate (deep inside
    :meth:`CountingBackend.count_batch`, reached through session and
    search-engine code that knows nothing about deadlines) can bound
    its queue wait.  ``deadline_at`` is in the clock domain of whoever
    set it — the serving tier uses the same injectable clock for its
    scheduler and this scope.  Scopes nest; the previous value is
    restored on exit.  The scope bounds *queue entry* only: a batch
    already submitted to the workers runs to completion.
    """
    previous = getattr(_DEADLINES, "at", None)
    _DEADLINES.at = deadline_at
    try:
        yield
    finally:
        _DEADLINES.at = previous


def count_extensions_kernel(
    codes: np.ndarray,
    measures: np.ndarray,
    top: np.ndarray,
    rows: np.ndarray | None,
    n_values: int,
    weight: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count all value extensions of one parent on one column.

    The counting primitive shared by the serial search and the worker
    processes — keeping it in one place is what makes the parallel
    backend bit-identical to the serial path.  Two weighted bincounts
    over the parent's covered rows (``rows``; ``None`` means the whole
    table) yield the Count and MarginalValue of every value extension
    under the scalar fast-path ``weight``:

        Count(v)        = Σ_{t ∈ parent, t.c = v} m(t)
        MarginalVal(v)  = Σ_{t ∈ parent, t.c = v} m(t) · max(W − top(t), 0)

    Returns ``(supported, counts, marginals)`` where ``supported`` holds
    the codes with positive Count and the other two arrays align to it.
    """
    if rows is None:
        c, m, t = codes, measures, top
    else:
        c = codes[rows]
        m = measures[rows]
        t = top[rows]
    counts = np.bincount(c, weights=m, minlength=n_values)
    gains = np.maximum(weight - t, 0.0) * m
    marginals = np.bincount(c, weights=gains, minlength=n_values)
    supported = np.nonzero(counts > 0)[0]
    return supported, counts[supported], marginals[supported]


@dataclass(frozen=True)
class CountTask:
    """One (parent, extension-column) counting unit.

    ``rows`` is the parent's covered-row index array, or ``None`` for
    the trivial (whole-table) parent; ``weight`` is the scalar fast-path
    weight shared by every value extension of this task.  ``task_id``
    is caller-chosen and echoed back so batched results can be matched
    to their tasks regardless of completion order.
    """

    task_id: int
    pos: int
    n_values: int
    weight: float
    rows: np.ndarray | None


def _task_cost(task: CountTask, full_cost: int) -> int:
    """Rows a task scans — the load-balancing and threshold estimate."""
    return full_cost if task.rows is None else int(task.rows.size)


# -- worker side ---------------------------------------------------------------

#: Per-worker cache of attached shared tables, LRU-capped so a
#: long-lived pool serving many tables cannot accumulate stale
#: attachments (close drops the mapping; the parent owns unlinking).
_WORKER_TABLES: "OrderedDict[str, tuple]" = OrderedDict()
_WORKER_CACHE_LIMIT = 8


def _worker_attach(meta: tuple) -> tuple:
    """Attach (or retrieve) the shared table described by ``meta``."""
    data_name, top_name, n_rows, cat_offsets, measures_offset = meta
    cached = _WORKER_TABLES.get(data_name)
    if cached is not None:
        _WORKER_TABLES.move_to_end(data_name)
        return cached
    data_shm = _shared_memory.SharedMemory(name=data_name)
    top_shm = _shared_memory.SharedMemory(name=top_name)
    codes = [
        np.ndarray((n_rows,), dtype=np.int32, buffer=data_shm.buf, offset=off)
        for off in cat_offsets
    ]
    measures = np.ndarray(
        (n_rows,), dtype=np.float64, buffer=data_shm.buf, offset=measures_offset
    )
    top = np.ndarray((n_rows,), dtype=np.float64, buffer=top_shm.buf)
    entry = (data_shm, top_shm, codes, measures, top)
    _WORKER_TABLES[data_name] = entry
    while len(_WORKER_TABLES) > _WORKER_CACHE_LIMIT:
        old_data, old_top, old_codes, old_measures, old_t = _WORKER_TABLES.popitem(
            last=False
        )[1]
        del old_codes, old_measures, old_t
        old_data.close()
        old_top.close()
    return entry


def _worker_count(
    meta: tuple, rows_arrays: list[np.ndarray], tasks: list[tuple]
) -> list[tuple]:
    """Run a batch of counting tasks against an attached shared table.

    ``rows_arrays`` carries each distinct covered-row array once; tasks
    reference them by index (``None`` = whole table), so a parent
    extended on several columns ships its rows a single time.
    """
    _data, _top_shm, codes, measures, top = _worker_attach(meta)
    out: list[tuple] = []
    for task_id, pos, n_values, weight, rows_idx in tasks:
        rows = None if rows_idx is None else rows_arrays[rows_idx]
        supported, counts, marginals = count_extensions_kernel(
            codes[pos], measures, top, rows, n_values, weight
        )
        out.append((task_id, supported, counts, marginals))
    return out


# -- parent side ---------------------------------------------------------------


class _TableExport:
    """One table's shared-memory residency: codes + measures + top scratch.

    The immutable segment concatenates every categorical code array
    (int32) followed by the measure array (float64); the mutable
    segment holds the ``top`` array of the search whose batch is in
    flight.  ``lock`` serialises dispatching batches from different
    backends sharing this export (e.g. two sessions over one pool):
    the owning backend re-publishes its ``top`` only when it lost
    ownership, and holds the lock until its workers finish, so a
    concurrent search can never overwrite the segment mid-batch.
    ``meta`` is the picklable attachment descriptor shipped to workers.
    """

    def __init__(self, table: "Table", measures: np.ndarray):
        n = table.n_rows
        code_arrays = table.categorical_code_arrays()
        data_bytes = sum(a.nbytes for a in code_arrays) + measures.nbytes
        self._data_shm = _shared_memory.SharedMemory(create=True, size=max(data_bytes, 1))
        self._top_shm = _shared_memory.SharedMemory(create=True, size=max(n * 8, 1))
        self._views: list[np.ndarray] = []
        cat_offsets = []
        offset = 0
        for arr in code_arrays:
            view = np.ndarray(arr.shape, arr.dtype, buffer=self._data_shm.buf, offset=offset)
            view[:] = arr
            self._views.append(view)
            cat_offsets.append(offset)
            offset += arr.nbytes
        mview = np.ndarray(measures.shape, np.float64, buffer=self._data_shm.buf, offset=offset)
        mview[:] = measures
        self._views.append(mview)
        self._top_view: np.ndarray | None = np.ndarray(
            (n,), np.float64, buffer=self._top_shm.buf
        )
        self.measures = measures
        self.meta = (
            self._data_shm.name,
            self._top_shm.name,
            n,
            tuple(cat_offsets),
            offset,
        )
        self.lock = threading.Lock()
        #: (backend id, top version) the segment currently holds.
        self.top_owner: tuple[int, int] | None = None
        self.closed = False

    @classmethod
    def grown(
        cls, old: "_TableExport", table: "Table", measures: np.ndarray
    ) -> "_TableExport":
        """Build ``table``'s export by growing ``old``'s data segment.

        The append fast path: ``table`` extends ``old``'s table row-wise
        (dictionary-prefix invariant), so every exported array is the
        old bytes plus a tail.  The old segment's regions are copied
        once into a freshly sized segment — the grow-and-copy — and only
        the appended tails are read from the table's own arrays.
        Workers attach the new segment by name as usual; the bytes are
        identical to a cold export of ``table``.
        """
        self = cls.__new__(cls)
        n = table.n_rows
        _, _, n_old, old_offsets, old_measures_offset = old.meta
        code_arrays = table.categorical_code_arrays()
        data_bytes = sum(a.nbytes for a in code_arrays) + measures.nbytes
        self._data_shm = _shared_memory.SharedMemory(create=True, size=max(data_bytes, 1))
        self._top_shm = _shared_memory.SharedMemory(create=True, size=max(n * 8, 1))
        self._views = []
        old_buf = old._data_shm.buf
        cat_offsets = []
        offset = 0
        for arr, old_off in zip(code_arrays, old_offsets):
            view = np.ndarray(arr.shape, arr.dtype, buffer=self._data_shm.buf, offset=offset)
            view[:n_old] = np.ndarray((n_old,), np.int32, buffer=old_buf, offset=old_off)
            view[n_old:] = arr[n_old:]
            self._views.append(view)
            cat_offsets.append(offset)
            offset += arr.nbytes
        mview = np.ndarray(measures.shape, np.float64, buffer=self._data_shm.buf, offset=offset)
        mview[:n_old] = np.ndarray(
            (n_old,), np.float64, buffer=old_buf, offset=old_measures_offset
        )
        mview[n_old:] = measures[n_old:]
        self._views.append(mview)
        self._top_view = np.ndarray((n,), np.float64, buffer=self._top_shm.buf)
        self.measures = measures
        self.meta = (
            self._data_shm.name,
            self._top_shm.name,
            n,
            tuple(cat_offsets),
            offset,
        )
        self.lock = threading.Lock()
        self.top_owner = None
        self.closed = False
        return self

    def publish_top(self, top: np.ndarray, owner: tuple[int, int]) -> None:
        """Write ``top`` into the shared segment unless ``owner`` already did.

        Callers must hold :attr:`lock` across this call *and* the batch
        that depends on it.
        """
        if not self.closed and self.top_owner != owner:
            self._top_view[:] = top
            self.top_owner = owner

    def close(self) -> None:
        """Release the numpy views, close, and unlink both segments."""
        if self.closed:
            return
        self.closed = True
        self._views.clear()
        self._top_view = None
        for shm in (self._data_shm, self._top_shm):
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - already gone
                pass


@dataclass
class CountingBackend:
    """The seam the search counts through.

    Built by :meth:`CountingPool.backend_for` for one (table, measures)
    pair.  :meth:`set_top` publishes the per-tuple selected-weight
    array before a search dispatches; :meth:`count_batch` executes a
    batch of :class:`CountTask`, sharding large tasks over the pool and
    computing small ones locally while the futures are in flight.

    ``tasks_dispatched``/``tasks_local`` count where work actually ran,
    which the tests and the parallel-counting benchmark use to assert
    the pool was (or was not) exercised.  ``tenant`` labels this
    backend's dispatched batches for the pool's optional fair
    :attr:`~CountingPool.scheduler`; it never affects results.
    """

    pool: "CountingPool"
    export: _TableExport
    codes: list[np.ndarray]
    measures: np.ndarray
    top: np.ndarray | None = None
    tenant: Any = None
    tasks_dispatched: int = 0
    tasks_local: int = 0
    batches: int = 0
    _top_version: int = 0

    def set_top(self, top: np.ndarray) -> None:
        """Stage ``top`` for the next batches.

        The array is normalised to float64 once (the shared segment is
        float64, and local fallback tasks must see bit-identical values
        to the workers); the write into the shared segment is deferred
        to the next dispatching batch, which re-publishes only if
        another backend used the segment in between.
        """
        self.top = np.asarray(top, dtype=np.float64)
        self._top_version += 1

    def count_columns(
        self, specs: Sequence[tuple[int, int, float]]
    ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Count whole-table extensions for ``(pos, n_values, weight)`` specs.

        The search's size-1 pass
        (:meth:`repro.core.search_cache.SearchContext._build`) runs
        through this.  Results are keyed by ``pos``.
        """
        return self.count_batch(
            [CountTask(pos, pos, n_values, weight, None) for pos, n_values, weight in specs]
        )

    def _count_local(self, task: CountTask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self.tasks_local += 1
        return count_extensions_kernel(
            self.codes[task.pos],
            self.measures,
            self.top,
            task.rows,
            task.n_values,
            task.weight,
        )

    def count_batch(
        self, tasks: Sequence[CountTask]
    ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Count every task, returning ``{task_id: (codes, counts, marginals)}``.

        Tasks scanning at least ``pool.min_task_rows`` rows are packed
        into per-worker buckets (greedy balance on scan cost, tasks
        sharing a parent's rows kept together so each distinct row
        array ships at most once per bucket) and dispatched; everything
        else — and everything, when fewer than two tasks are shippable
        or the pool is unavailable — runs locally, overlapping with the
        in-flight futures.  The export's lock is held from publishing
        ``top`` until the last worker result lands, so backends sharing
        one export serialise rather than corrupt each other's batches.
        """
        assert self.top is not None, "set_top() must run before count_batch()"
        self.batches += 1
        full_cost = self.top.size
        remote = [t for t in tasks if _task_cost(t, full_cost) >= self.pool.min_task_rows]
        if len(remote) < 2 or self.pool.closed:
            remote = []
        executor = self.pool._ensure_executor() if remote else None
        if executor is None:
            remote = []
        results: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if not remote:
            for task in tasks:
                results[task.task_id] = self._count_local(task)
            return results
        shipped = {t.task_id for t in remote}
        local = [t for t in tasks if t.task_id not in shipped]
        scheduler = self.pool.scheduler
        with self.export.lock:
            # The fair-dispatch turn covers only *submission*: once this
            # backend's buckets are queued (in round-robin order across
            # tenants), the turn is released so other tenants — notably
            # ones on other tables, whose export locks are free — can
            # queue theirs while these compute.  The export lock is
            # taken first, so a backend waiting for it never holds the
            # turn hostage.
            deadline_at = current_deadline()
            if scheduler is None:
                gate = nullcontext()
            elif deadline_at is not None:
                # Threaded through the thread-local scope (set by the
                # serving facade): an expired deadline aborts the queue
                # wait with DeadlineExceededError, which the facade
                # catches to refund the expansion's budget charge.
                gate = scheduler.dispatch_turn(self.tenant, deadline_at=deadline_at)
            else:
                gate = scheduler.dispatch_turn(self.tenant)
            with gate:
                self.export.publish_top(self.top, (id(self), self._top_version))
                futures = []
                try:
                    for bucket in self.pool._pack(remote, full_cost):
                        rows_arrays: list[np.ndarray] = []
                        rows_index: dict[int, int] = {}
                        payload = []
                        for t in bucket:
                            if t.rows is None:
                                idx = None
                            else:
                                idx = rows_index.get(id(t.rows))
                                if idx is None:
                                    idx = len(rows_arrays)
                                    rows_index[id(t.rows)] = idx
                                    rows_arrays.append(t.rows)
                            payload.append((t.task_id, t.pos, t.n_values, t.weight, idx))
                        futures.append(
                            executor.submit(
                                _worker_count, self.export.meta, rows_arrays, payload
                            )
                        )
                    self.tasks_dispatched += len(remote)
                except Exception:  # pool broke between batches: go serial
                    self.pool._mark_broken()
                    futures = []
                    local = list(tasks)
            for task in local:  # overlaps with the in-flight futures
                results[task.task_id] = self._count_local(task)
            failed: list[CountTask] = []
            for future in futures:
                try:
                    for task_id, supported, counts, marginals in future.result():
                        results[task_id] = (supported, counts, marginals)
                except Exception:  # worker died / pool broke: recompute locally
                    self.pool._mark_broken()
                    failed = [t for t in remote if t.task_id not in results]
                    break
            for task in failed:
                results[task.task_id] = self._count_local(task)
        return results


class CountingPool:
    """A persistent worker pool plus its shared-memory table registry.

    Parameters
    ----------
    n_workers:
        Worker processes; ``0`` means ``os.cpu_count()``.  A pool built
        with ``n_workers <= 1`` is permanently serial — every backend
        request returns ``None`` and the search keeps its in-process
        paths (the documented ``n_workers=1`` fallback).
    min_table_rows:
        Tables smaller than this are never exported; sub-second already,
        the export + dispatch overhead would only slow them down.
    min_task_rows:
        Tasks scanning fewer rows run locally even when a pool is up.
    start_method:
        Optional :mod:`multiprocessing` start method; defaults to
        ``fork`` where available (cheap on Linux), else ``spawn``.

    The pool is a context manager; :meth:`close` terminates workers and
    unlinks every exported segment, and is also registered ``atexit``
    so segments cannot outlive the interpreter.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        min_table_rows: int = 25_000,
        min_task_rows: int = 8_192,
        start_method: str | None = None,
    ):
        if n_workers == 0 or n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = int(n_workers)
        self.min_table_rows = int(min_table_rows)
        self.min_task_rows = int(min_task_rows)
        self._start_method = start_method
        self._executor = None
        self._broken = False
        self.closed = False
        #: Optional fair-dispatch gate (see "Fair scheduling hook" in the
        #: module docstring).  Anything with a ``dispatch_turn(tenant)``
        #: context-manager method works; the serving tier installs a
        #: :class:`repro.serving.FairScheduler`.
        self.scheduler = None
        # Both keyed by id(table): Table defines __eq__ without
        # __hash__, so identity keys it.  _exports maps to the table's
        # [(measures, export), ...] list; _finalizers holds the
        # weakref.finalize that unlinks those exports when the table is
        # garbage collected.
        self._exports: dict[int, list[tuple[np.ndarray, _TableExport]]] = {}
        self._finalizers: dict[int, weakref.finalize] = {}
        #: Exports built by the append fast path (:meth:`append_export`
        #: growing a resident segment instead of a cold re-copy).
        self.exports_grown = 0
        _live_pools.add(self)

    # -- executor lifecycle ----------------------------------------------------

    def _ensure_executor(self):
        if self.closed or self._broken or self.n_workers <= 1:
            return None
        if self._executor is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                method = self._start_method or (
                    "fork" if "fork" in get_all_start_methods() else None
                )
                ctx = get_context(method) if method else get_context()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=ctx
                )
            except Exception:  # pragma: no cover - sandboxed platforms
                self._broken = True
                return None
        return self._executor

    def _mark_broken(self) -> None:
        """Degrade to serial permanently after a worker failure."""
        self._broken = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    @property
    def usable(self) -> bool:
        """Whether backends from this pool may dispatch to workers."""
        return (
            _shared_memory is not None
            and not self.closed
            and not self._broken
            and self.n_workers > 1
        )

    # -- table exports ---------------------------------------------------------

    def backend_for(
        self, table: "Table", measures: np.ndarray | None = None, *, tenant: Any = None
    ) -> CountingBackend | None:
        """Return a counting backend for ``table``, or ``None`` for serial.

        ``None`` (the serial fallback) is returned when the pool is not
        usable, the table is smaller than ``min_table_rows``, or the
        table has no categorical columns.  The table's shared-memory
        export is created on first request and reused for subsequent
        backends with the same measures (compared by identity, then
        value).  ``tenant`` labels the backend's batches for the
        optional fair :attr:`scheduler`.
        """
        if not self.usable or table.n_rows < self.min_table_rows:
            return None
        cat_positions = table.schema.categorical_indexes
        if not cat_positions:
            return None
        if measures is None:
            measures = np.ones(table.n_rows, dtype=np.float64)
        else:
            measures = np.asarray(measures, dtype=np.float64)
        key = id(table)
        entries = self._exports.setdefault(key, [])
        export = None
        for stored, candidate in entries:
            if stored is measures or np.array_equal(stored, measures):
                export = candidate
                break
        if export is None:
            try:
                export = _TableExport(table, measures)
            except OSError:  # pragma: no cover - /dev/shm unavailable
                self._broken = True
                return None
            entries.append((measures, export))
            if key not in self._finalizers:
                self._finalizers[key] = weakref.finalize(
                    table, self._drop_table, key
                )
        codes = list(table.categorical_code_arrays())
        return CountingBackend(
            pool=self, export=export, codes=codes, measures=export.measures,
            tenant=tenant,
        )

    def append_export(self, old_table: "Table", table: "Table") -> bool:
        """Export ``table`` (an appended version of ``old_table``) incrementally.

        The versioned catalog's export-maintenance hook: when
        ``old_table`` has a resident default-measures export, the new
        version's segment is built by one grow-and-copy of the old
        bytes (:meth:`_TableExport.grown`) instead of re-reading every
        array from the table.  Returns ``True`` when the grown path
        ran; on any miss (pool unusable, table below threshold, no old
        export) the cold :meth:`backend_for` path is taken instead and
        ``False`` is returned — either way a subsequent
        :meth:`backend_for` call finds the export resident.

        ``table`` must extend ``old_table`` row-wise with the
        dictionary-prefix invariant (:meth:`repro.table.table.Table.append_rows`);
        the caller (the catalog) owns that guarantee.
        """
        if (
            not self.usable
            or table.n_rows < self.min_table_rows
            or not table.schema.categorical_indexes
        ):
            return False
        measures = np.ones(table.n_rows, dtype=np.float64)
        n_old = old_table.n_rows
        old_export = None
        for stored, candidate in self._exports.get(id(old_table), []):
            if not candidate.closed and np.array_equal(stored, measures[:n_old]):
                old_export = candidate
                break
        if old_export is None:
            self.backend_for(table)
            return False
        try:
            export = _TableExport.grown(old_export, table, measures)
        except OSError:  # pragma: no cover - /dev/shm unavailable
            self._broken = True
            return False
        key = id(table)
        self._exports.setdefault(key, []).append((measures, export))
        if key not in self._finalizers:
            self._finalizers[key] = weakref.finalize(table, self._drop_table, key)
        self.exports_grown += 1
        return True

    def drop_export(self, table: "Table") -> int:
        """Unlink ``table``'s exports *now* (the version-reap path).

        The weakref finalizer frees exports when a table is garbage
        collected, but a reaped version should release its shared
        memory deterministically, not whenever the collector gets
        around to it.  Returns the number of exports closed; idempotent
        (a later GC finalizer finds nothing to drop).
        """
        key = id(table)
        fin = self._finalizers.get(key)
        if fin is not None:
            fin.detach()
        n = len(self._exports.get(key, ()))
        self._drop_table(key)
        return n

    def export_count(self, table: "Table | None" = None) -> int:
        """Live shared-memory exports — for ``table`` only, when given.

        The public accessor the serving tier's stats and the benchmarks
        use to assert the register-once/export-once invariant (one
        export per (table, measures) pair, shared by every backend).
        """
        if table is None:
            return sum(len(entries) for entries in self._exports.values())
        return len(self._exports.get(id(table), []))

    def _drop_table(self, key: int) -> None:
        """Unlink a dead table's segments (weakref finalizer target)."""
        for _measures, export in self._exports.pop(key, []):
            export.close()
        self._finalizers.pop(key, None)

    # -- scheduling ------------------------------------------------------------

    def _pack(self, tasks: list[CountTask], full_cost: int) -> list[list[CountTask]]:
        """Greedy-balance tasks into at most ``n_workers`` buckets by cost.

        Tasks sharing one parent's row array are packed as a unit, so
        the (deduplicated) array is pickled at most once per batch.
        """
        groups: dict[int | None, list[CountTask]] = {}
        for task in tasks:
            groups.setdefault(None if task.rows is None else id(task.rows), []).append(task)
        units = list(groups.values())
        n_buckets = min(self.n_workers, len(units))
        buckets: list[list[CountTask]] = [[] for _ in range(n_buckets)]
        loads = [0] * n_buckets
        for unit in sorted(
            units, key=lambda u: sum(_task_cost(t, full_cost) for t in u), reverse=True
        ):
            i = loads.index(min(loads))
            buckets[i].extend(unit)
            loads[i] += sum(_task_cost(t, full_cost) for t in unit)
        return [b for b in buckets if b]

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down and unlink every exported segment."""
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for key in list(self._exports):
            for _measures, export in self._exports.pop(key, []):
                export.close()
        for fin in self._finalizers.values():
            fin.detach()
        self._finalizers.clear()
        _live_pools.discard(self)

    def __enter__(self) -> "CountingPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("broken" if self._broken else "open")
        return (
            f"CountingPool(n_workers={self.n_workers}, tables={len(self._exports)}, "
            f"{state})"
        )


#: Pools with live shared-memory exports, unlinked at interpreter exit.
_live_pools: "weakref.WeakSet[CountingPool]" = weakref.WeakSet()


@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_live_pools):
        pool.close()


_default_pools: dict[int, CountingPool] = {}


def default_pool(n_workers: int) -> CountingPool:
    """Return the process-wide shared pool for ``n_workers``.

    Lets bare ``brs(..., n_workers=4)`` calls amortise worker start-up
    and table exports across invocations without explicit pool
    management; the pools are closed ``atexit``.
    """
    if n_workers == 0:
        n_workers = os.cpu_count() or 1
    pool = _default_pools.get(n_workers)
    if pool is None or pool.closed:
        pool = CountingPool(n_workers)
        _default_pools[n_workers] = pool
    return pool


def resolve_pool(
    pool: CountingPool | None, n_workers: int | None
) -> CountingPool | None:
    """Resolve the public ``pool=``/``n_workers=`` knobs to a pool.

    An explicit ``pool`` wins.  Otherwise ``n_workers`` of ``None`` or
    ``1`` means serial (no pool), ``0`` means all cores, and ``>= 2``
    returns the shared :func:`default_pool` of that size.
    """
    if pool is not None:
        return pool
    if n_workers is None:
        return None
    if n_workers == 0:
        n_workers = os.cpu_count() or 1
    if n_workers <= 1:
        return None
    return default_pool(n_workers)
