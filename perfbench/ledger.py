"""Turn client records, spans and tier counters into metrics."""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

from perfbench.stats import nearest_rank, percentile

__all__ = ["counters", "delta", "end_to_end", "layer_ledger"]

MS = 1000.0


def _ms(records) -> list[float]:
    return [r.seconds * MS for r in records]


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def counters(stats: dict) -> dict[str, float]:
    """The tier counters the ledger reads, summed over shards."""
    servers = [s["server"] for s in stats["shards"] if "server" in s] if "shards" in stats else [stats]
    out: dict[str, float] = defaultdict(float)
    for server in servers:
        contexts = server.get("contexts") or {}
        out["contexts.hits"] += contexts.get("hits", 0)
        out["contexts.misses"] += contexts.get("misses", 0)
        for table, per_table in server["marginals"]["tables"].items():
            for weighting, cache in per_table.items():
                out[f"marginals/{table}/{weighting}/hits"] += cache["hits"]
                out[f"marginals/{table}/{weighting}/misses"] += cache["misses"]
        registry = server["registry"]
        out["registry.evicted"] += registry["ttl_evictions"] + registry["lru_evictions"]
        out["scheduler.throttled"] += sum(
            t["throttled"] for t in server["scheduler"]["tenants"].values()
        )
        versions = server["versions"]
        out["catalog.versions_reaped"] += versions["reaped"]
        out["catalog.marginals_delta"] += versions["marginals_delta"]
        out["catalog.exports_grown"] += versions["exports_grown"]
        out["samples.lazy_rebuilt"] += versions["samples_lazy_rebuilt"]
    out["router.restarts"] = stats.get("router", {}).get("restarts", 0)
    return dict(out)


def delta(before: dict, after: dict) -> dict[str, float]:
    """Counter growth over the window.

    An append replaces a table's first-pick caches, and a new cache
    counts from zero: where a cache counter went down, the growth is
    its count since the replacement (a lower bound).  The per-cache
    marginal counters are then folded into ``marginals.hits`` and
    ``marginals.misses``.
    """
    out: dict[str, float] = defaultdict(float)
    for key, value in after.items():
        grown = value - before.get(key, 0.0)
        if key.startswith("marginals/"):
            out[f"marginals.{key.rsplit('/', 1)[1]}"] += grown if grown >= 0 else value
        else:
            out[key] = grown
    out.setdefault("marginals.hits", 0.0)
    out.setdefault("marginals.misses", 0.0)
    return dict(out)


def _ratio(hits: float, misses: float) -> tuple[float, int]:
    base = int(hits + misses)
    return (hits / base if base else 0.0), base


def end_to_end(records, window_s: float, setup_times, peak_rss: int, server_cpu_s: float) -> dict:
    """Every end-to-end metric, plus the percentile sample counts.

    The click tail (``click_p90_ms``, ``click_p95_ms``) is reported in
    the record but not gated: it does not repeat within a bound across
    runs (see README).
    """
    by = defaultdict(list)
    for r in records:
        if r.ok:
            by[r.cls].append(r)
            by[f"kind:{r.kind}"].append(r)
    clicks = _ms(by["click"])
    drills = _ms(by["kind:drill"] + by["kind:star"] + by["kind:reexpand"])
    values = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "clicks_per_s": (len(clicks) / window_s, "1/s", len(clicks)),
        "click_p50_ms": (nearest_rank(clicks, 50), "ms", len(clicks)),
        "click_p90_ms": (nearest_rank(clicks, 90), "ms", len(clicks)),
        "click_p95_ms": (nearest_rank(clicks, 95), "ms", len(clicks)),
        "root_p50_ms": (nearest_rank(_ms(by["kind:root"]), 50), "ms", len(by["kind:root"])),
        "drill_p50_ms": (nearest_rank(drills, 50), "ms", len(drills)),
        "read_p50_ms": (nearest_rank(_ms(by["read"]), 50), "ms", len(by["read"])),
        "open_p50_ms": (nearest_rank(_ms(by["open"]), 50), "ms", len(by["open"])),
        "peak_rss_mb": (peak_rss / 2**20, "MB", 1),
        "cpu_ms_per_click": (server_cpu_s * MS / max(1, len(clicks)), "ms", len(clicks)),
    }
    return {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in values.items()}


def _pair(records, spans) -> list[tuple]:
    """``(record, http span)`` for each traced request the server saw."""
    by_port = defaultdict(list)
    for span in spans:
        if span[0] == "http":
            by_port[span[6]["port"]].append(span)
    for port_spans in by_port.values():
        port_spans.sort(key=lambda s: s[2])
    pairs = []
    for record in records:
        candidates = by_port.get(record.port, [])
        starts = [s[2] for s in candidates]
        at = bisect.bisect_left(starts, record.start)
        if at < len(candidates) and candidates[at][3] <= record.end:
            pairs.append((record, candidates[at]))
    return pairs


def layer_ledger(traced, untraced, spans, delta: dict, approx_rel_err: float) -> tuple[dict, dict]:
    """Per-layer metrics for the traced phases; returns (metrics, detail).

    Self times are summed per request over the spans that request
    caused.  ``trace.unattributed_ms`` is the client round trip minus
    the server-side HTTP span: client library, kernel socket transit and
    thread hand-off, where no layer of the program runs.
    """
    per_root_self: dict = defaultdict(lambda: defaultdict(float))
    per_root_dur: dict = defaultdict(lambda: defaultdict(float))
    per_root_count: dict = defaultdict(lambda: defaultdict(float))
    roots = {}
    lease_ms, pipe_render_ms = [], []
    checkpoint_bytes: dict = defaultdict(float)
    for layer, name, start, end, self_s, root, attrs in spans:
        serial = attrs.get("serial") if root is None else root
        if root is None:
            roots[serial] = (layer, name)
        per_root_self[serial][layer] += self_s
        per_root_dur[serial][layer] += end - start
        per_root_count[serial][f"{layer}.calls"] += 1
        for key, value in attrs.items():
            if key not in ("serial", "port") and isinstance(value, (int, float)):
                per_root_count[serial][f"{layer}.{key}"] += value
        if name == "ContextStore.lease":
            lease_ms.append((end - start) * MS)
        if layer == "shard.pipe" and attrs.get("op") == "render":
            pipe_render_ms.append((end - start) * MS)
        if layer == "persistence":
            checkpoint_bytes[serial] += attrs["bytes"]

    pairs = _pair([r for r in traced if r.port is not None and r.ok], spans)
    rows = []
    for record, span in pairs:
        serial = span[6]["serial"]
        rtt = record.seconds
        layers = dict(per_root_self[serial])
        rows.append({
            "record": record,
            "rtt": rtt,
            "unattributed": rtt - (span[3] - span[2]),
            "self": layers,
            "dur": per_root_dur[serial],
            "count": per_root_count[serial],
        })
    clicks = [row for row in rows if row["record"].cls == "click"]

    def click_median(key: str, table: str = "self", rows_=None) -> float:
        """Median per click of a layer's time or counter (0 where it did not run)."""
        rows_ = clicks if rows_ is None else rows_
        return _median([row[table].get(key, 0.0) * (MS if table != "count" else 1) for row in rows_])

    def ran_ms(layer: str, table: str = "self", rows_=None) -> list[float]:
        """A layer's time per request, over the requests it ran in."""
        rows_ = clicks if rows_ is None else rows_
        return [row[table][layer] * MS for row in rows_ if layer in row[table]]

    # The decomposition the ledger promises: layer self times plus the
    # unattributed remainder equal the round trip, request by request.
    breakdown = defaultdict(float)
    for row in clicks:
        for layer, value in row["self"].items():
            breakdown[layer] += value * MS / len(clicks)
        breakdown["unattributed"] += row["unattributed"] * MS / len(clicks)
    mean_rtt = sum(r["rtt"] for r in clicks) * MS / len(clicks) if clicks else 0.0
    closure = abs(sum(breakdown.values()) - mean_rtt)

    traced_clicks = [r.seconds * MS for r in traced if r.cls == "click" and r.ok]
    untraced_clicks = [r.seconds * MS for r in untraced if r.cls == "click" and r.ok]
    ctx_ratio, ctx_base = _ratio(delta["contexts.hits"], delta["contexts.misses"])
    marg_ratio, marg_base = _ratio(delta["marginals.hits"], delta["marginals.misses"])
    approx_clicks = [
        r for r in traced + untraced
        if r.cls == "click" and r.ok and r.reply["children"] and "estimate" in r.reply["children"][0]
    ]
    escalated = [r for r in approx_clicks if r.reply["children"][0]["estimate"]["escalated"]]
    reexpand = [row for row in clicks if row["record"].kind == "reexpand"]
    approx_ids = {id(r) for r in approx_clicks}
    approx_rows = [row for row in clicks if id(row["record"]) in approx_ids]
    appends = [row for row in rows if row["record"].cls == "append"]
    checkpoints = [r.seconds * MS for r in traced if r.cls == "checkpoint" and r.ok]
    checkpoint_roots = [s for s, (layer, name) in roots.items() if name == "DrillDownServer.checkpoint_all"]

    metrics = {
        "http.self_ms": (_median([row["self"].get("http", 0.0) * MS for row in rows]), "ms"),
        "http.resp_bytes": (_median([r.nbytes for r in traced if r.ok and r.port is not None]), "bytes"),
        "trace.unattributed_ms": (_median([row["unattributed"] * MS for row in clicks]), "ms"),
        "trace.overhead_ratio": (
            nearest_rank(traced_clicks, 50) / nearest_rank(untraced_clicks, 50), "ratio"),
        "contexts.hit_ratio": (ctx_ratio, "ratio"),
        "marginals.hit_ratio": (marg_ratio, "ratio"),
        "registry.evicted": (delta["registry.evicted"], "count"),
        "scheduler.throttled": (delta["scheduler.throttled"], "count"),
        "router.restarts": (delta["router.restarts"], "count"),
        "search.rows_scanned": (click_median("drilldown.rows_scanned", "count"), "count"),
        "search.passes": (click_median("drilldown.passes", "count"), "count"),
        "search.candidates_generated": (click_median("drilldown.candidates_generated", "count"), "count"),
        "search.cache_hits": (click_median("drilldown.cache_hits", "count"), "count"),
        "search.lazy_skips": (click_median("drilldown.lazy_skips", "count"), "count"),
        "kernel.calls": (click_median("kernel.calls", "count"), "count"),
        "kernel.rows": (click_median("kernel.rows", "count"), "count"),
        "pool.tasks": (click_median("pool.tasks", "count"), "count"),
        "samples.escalation_ratio": (len(escalated) / len(approx_clicks) if approx_clicks else 0.0, "ratio"),
        "samples.lazy_rebuilt": (delta["samples.lazy_rebuilt"], "count"),
        "catalog.marginals_delta": (delta["catalog.marginals_delta"], "count"),
        "catalog.exports_grown": (delta["catalog.exports_grown"], "count"),
        "catalog.versions_reaped": (delta["catalog.versions_reaped"], "count"),
        "persistence.bytes": (_median([checkpoint_bytes[s] for s in checkpoint_roots]), "bytes"),
        "approx_rel_err": (approx_rel_err, "ratio"),
    }
    # Layers this workload's process can see, as medians over the
    # requests each ran in; a layer behind the shard pipe, or one the
    # workload never reaches, is absent, not zero.
    observed = {
        "server.self_ms": ran_ms("server"),
        "router.call_ms": ran_ms("router", rows_=rows),
        "router.rtt_ms": pipe_render_ms,
        "contexts.lease_ms": lease_ms,
        "session.self_ms": ran_ms("session"),
        "session.reexpand_ms": ran_ms("session", "dur", reexpand),
        "drilldown.ms": ran_ms("drilldown", "dur"),
        "search.find_best_self_ms": ran_ms("search"),
        "kernel.ms": ran_ms("kernel"),
        "pool.batch_ms": ran_ms("pool"),
        "estimate.ms": ran_ms("estimate", "dur", approx_rows),
        "catalog.append_ms": ran_ms("catalog", "dur", appends),
        "persistence.checkpoint_ms": checkpoints,
    }
    seen = {layer for row in rows for layer in row["self"]} | {layer for layer, _ in roots.values()}
    detail = {
        "layers_seen": sorted(seen),
        "observed": {k: {"median": _median(v), "n": len(v)} for k, v in observed.items() if v},
        "contexts_base": ctx_base,
        "marginals_base": marg_base,
        "approx_clicks": len(approx_clicks),
        "paired_requests": len(rows),
        "traced_requests": sum(1 for r in traced if r.port is not None and r.ok),
        "click_breakdown_mean_ms": dict(sorted(breakdown.items())),
        "click_rtt_mean_ms": mean_rtt,
        "breakdown_closure_ms": closure,
        "unattributed_share": (breakdown["unattributed"] / mean_rtt) if mean_rtt else None,
        "traced_click_p50": percentile(traced_clicks, 50),
        "untraced_click_p50": percentile(untraced_clicks, 50),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}, detail
