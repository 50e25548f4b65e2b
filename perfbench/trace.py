"""Traced-run tooling: spans around the calls into each layer.

Wrappers are installed on the public functions and methods of each
layer for the traced phases only and restored afterwards;
:func:`installed` lists every target still wrapped, so an untraced run
can prove it measured the unmodified program.

A span is one call: its layer, name, start and end, its *self* time
(duration minus the time covered by the spans it caused on the same
thread), the outermost span of its thread (its ``root``), and counters
for the work it did.  Spans are kept in memory and written out once.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["TARGETS", "Tracer", "installed"]

_MARK = "__perfbench_wrapped__"
_ABSENT = object()


def _len_tasks(args, kwargs, result) -> dict:
    return {"tasks": len(args[1])}


def _kernel_rows(args, kwargs, result) -> dict:
    codes, rows = args[0], args[3]
    return {"rows": int(codes.shape[0] if rows is None else rows.shape[0])}


def _search_stats(args, kwargs, result) -> dict:
    stats = result.stats
    return {
        "rows_scanned": stats.rows_scanned,
        "passes": stats.passes,
        "candidates_generated": stats.candidates_generated,
        "cache_hits": stats.cache_hits,
        "lazy_skips": stats.lazy_skips,
    }


def _pipe_op(args, kwargs, result) -> dict:
    return {"op": args[1]}


def _saved_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(result).stat().st_size}


#: ``(module, owner or None for a module attribute, attribute, layer,
#: counters)``.  The drill-down, kernel and estimate functions are
#: patched where their callers look them up (they are imported by name).
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    ("repro.serving.server", "DrillDownServer", "create_session", "server", None),
    ("repro.serving.server", "DrillDownServer", "expand", "server", None),
    ("repro.serving.server", "DrillDownServer", "expand_star", "server", None),
    ("repro.serving.server", "DrillDownServer", "collapse", "server", None),
    ("repro.serving.server", "DrillDownServer", "tree", "server", None),
    ("repro.serving.server", "DrillDownServer", "render", "server", None),
    ("repro.serving.server", "DrillDownServer", "close_session", "server", None),
    ("repro.serving.server", "DrillDownServer", "session_columns", "server", None),
    ("repro.serving.server", "DrillDownServer", "append_rows", "server", None),
    ("repro.serving.server", "DrillDownServer", "checkpoint_all", "server", None),
    ("repro.serving.router", "ShardRouter", "create_session", "router", None),
    ("repro.serving.router", "ShardRouter", "expand", "router", None),
    ("repro.serving.router", "ShardRouter", "expand_star", "router", None),
    ("repro.serving.router", "ShardRouter", "collapse", "router", None),
    ("repro.serving.router", "ShardRouter", "tree", "router", None),
    ("repro.serving.router", "ShardRouter", "render", "router", None),
    ("repro.serving.router", "ShardRouter", "close_session", "router", None),
    ("repro.serving.router", "ShardRouter", "session_columns", "router", None),
    ("repro.serving.shard", "ShardProcess", "request", "shard.pipe", _pipe_op),
    ("repro.serving.contexts", "ContextStore", "lease", "contexts", None),
    ("repro.serving.contexts", "ContextStore", "publish", "contexts", None),
    ("repro.serving.catalog", "TableCatalog", "append_rows", "catalog", None),
    ("repro.serving.catalog", "TableCatalog", "samples_for", "samples", None),
    ("repro.serving.persistence", "SnapshotStore", "save", "persistence", _saved_bytes),
    ("repro.session.session", "DrillDownSession", "expand", "session", None),
    ("repro.session.session", "DrillDownSession", "expand_star", "session", None),
    ("repro.session.session", "DrillDownSession", "collapse", "session", None),
    ("repro.session.session", "DrillDownSession", "to_text", "session", None),
    ("repro.session.session", None, "rule_drilldown", "drilldown", _search_stats),
    ("repro.session.session", None, "star_drilldown", "drilldown", _search_stats),
    ("repro.session.session", None, "estimate_count", "estimate", None),
    ("repro.core.search_cache", "SearchContext", "find_best", "search", None),
    ("repro.core.search_cache", None, "count_extensions_kernel", "kernel", _kernel_rows),
    ("repro.core.parallel", None, "count_extensions_kernel", "kernel", _kernel_rows),
    ("repro.core.marginal", None, "count_extensions_kernel", "kernel", _kernel_rows),
    ("repro.core.first_pick", None, "count_extensions_kernel", "kernel", _kernel_rows),
    ("repro.core.parallel", "CountingBackend", "count_batch", "pool", _len_tasks),
)


def _owner(module: str, owner: str | None) -> Any:
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


def installed(handler_class: type | None = None) -> list[str]:
    """Every target (and HTTP handler hook) currently wrapped."""
    found = [
        f"{module}.{owner + '.' if owner else ''}{attr}"
        for module, owner, attr, _layer, _counters in TARGETS
        if getattr(getattr(_owner(module, owner), attr), _MARK, False)
    ]
    if handler_class is not None:
        for attr in ("handle_one_request", "parse_request"):
            if getattr(getattr(handler_class, attr), _MARK, False):
                found.append(f"{handler_class.__name__}.{attr}")
    return found


class _Frame:
    __slots__ = ("start", "children")

    def __init__(self, start: float | None):
        self.start = start
        self.children = 0.0


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``spans`` holds one tuple per finished call:
    ``(layer, name, start, end, self_seconds, root, attrs)`` where
    ``root`` is the serial number of the outermost span of the thread
    the call ran on (``None`` for an outermost span, which then carries
    its own serial in ``attrs["serial"]``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._serial = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.root = None
        return stack

    def _enter(self, start: float | None) -> _Frame:
        stack = self._stack()
        if not stack:
            self._tls.root = next(self._serial)
        frame = _Frame(start)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, layer: str, name: str, attrs: dict, keep: bool = True) -> None:
        end = self.clock()
        stack = self._tls.stack
        stack.pop()
        root = self._tls.root
        if not keep or frame.start is None:
            return
        duration = end - frame.start
        if stack:
            stack[-1].children += duration
            parent_root = root
        else:
            parent_root = None
            attrs = {**attrs, "serial": root}
        self.spans.append(
            (layer, name, frame.start, end, duration - frame.children, parent_root, attrs)
        )

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str, counters: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(tracer.clock())
            attrs: dict = {}
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    attrs = counters(args, kwargs, result)
                return result
            finally:
                tracer._exit(frame, layer, name, attrs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        own = owner.__dict__.get(attr, _ABSENT) if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def install(self, handler_class: type | None = None) -> None:
        """Wrap every target, and the HTTP handler when given."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, owner_name, attr, layer, counters in TARGETS:
            owner = _owner(module, owner_name)
            name = f"{owner_name or module.rsplit('.', 1)[1]}.{attr}"
            self._patch(owner, attr, self._wrap(getattr(owner, attr), layer, name, counters))
        if handler_class is not None:
            self._install_http(handler_class)

    def _install_http(self, handler_class: type) -> None:
        """One ``http`` span per request: from the moment its request
        line has arrived (``parse_request``) until the response is
        written, so the wait for a keep-alive client's next request is
        excluded.  ``attrs`` carry the client port, which the client
        side uses to pair the span with its own round trip."""
        tracer = self
        handle = handler_class.handle_one_request
        parse = handler_class.parse_request

        def parse_request(handler):
            stack = tracer._stack()
            if stack and stack[0].start is None:
                stack[0].start = tracer.clock()
            return parse(handler)

        def handle_one_request(handler):
            frame = tracer._enter(None)
            try:
                return handle(handler)
            finally:
                tracer._exit(
                    frame,
                    "http",
                    f"{handler.command} {getattr(handler, 'path', '')}",
                    {"port": handler.client_address[1]},
                    keep=bool(getattr(handler, "raw_requestline", b"")),
                )

        for attr, fn in (("parse_request", parse_request), ("handle_one_request", handle_one_request)):
            setattr(fn, _MARK, True)
            self._patch(handler_class, attr, fn)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as gzipped JSON (called once, at the end):
        ``{"fields": [...], "spans": [[...], ...]}``."""
        fields = ["layer", "name", "start", "end", "self", "root", "attrs"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)
