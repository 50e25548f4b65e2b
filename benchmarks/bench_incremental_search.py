"""Cross-pick search cache: first-pick vs later-pick latency + speedup.

The §6.1 interactivity claim ("display as many rules as we can find
within a 5-second limit") depends on the latency of repeated
best-marginal-rule searches.  This benchmark times the k=10 greedy on
the census workload two ways and records:

* per-pick latency through one search context — the first pick builds
  the candidate cache, later picks are CELF heap re-evaluations;
* the wall-clock speedup of :func:`~repro.core.brs.brs` (one context
  across all picks) over a greedy of ``k`` cold
  :func:`~repro.core.marginal.find_best_marginal_rule` picks, asserted
  to be at least 3×;
* exact equivalence of the two rule sequences and marginals.

A JSON perf record is written next to this file
(``BENCH_incremental_search.json``) so future changes can track the
latency trajectory.  Run via pytest (the ``smoke`` marker selects it:
``pytest benchmarks/bench_incremental_search.py -m smoke``) or
directly::

    PYTHONPATH=src python benchmarks/bench_incremental_search.py [--smoke]

Both modes finish well under a minute; ``--smoke`` runs one repeat
instead of three.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SizeWeight, brs, brs_iter, cover_mask, find_best_marginal_rule
from repro.datasets import generate_census

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_incremental_search.json"
CENSUS_ROWS = 100_000
N_COLUMNS = 7
K = 10
MW = 5.0
MIN_SPEEDUP = 3.0


def cold_greedy(table) -> list:
    """The k=10 greedy as independent cold searches, one per pick."""
    wf = SizeWeight()
    top = np.zeros(table.n_rows)
    picks = []
    while len(picks) < K:
        result = find_best_marginal_rule(table, wf, top, MW)
        if result is None:
            break
        picks.append(result)
        mask = cover_mask(result.rule, table)
        top[mask] = np.maximum(top[mask], result.weight)
    return picks


def warm_greedy(table) -> list:
    """The k=10 greedy through one search context (:func:`brs`)."""
    return list(brs(table, SizeWeight(), K, MW).picks)


def _time_run(table, greedy) -> float:
    start = time.perf_counter()
    greedy(table)
    return time.perf_counter() - start


def _per_pick_times(table) -> list[float]:
    """Latency of each warm greedy pick, streamed through :func:`brs_iter`."""
    times: list[float] = []
    stream = brs_iter(table, SizeWeight(), MW)
    while len(times) < K:
        start = time.perf_counter()
        result = next(stream, None)
        times.append(time.perf_counter() - start)
        if result is None:
            times.pop()
            break
    return times


def _totals(picks) -> dict:
    return {
        "rows_scanned": sum(p.stats.rows_scanned for p in picks),
        "candidates_generated": sum(p.stats.candidates_generated for p in picks),
        "cache_hits": sum(p.stats.cache_hits for p in picks),
        "lazy_skips": sum(p.stats.lazy_skips for p in picks),
    }


def run_benchmark(table, repeats: int = 3) -> dict:
    """Time both greedies, check equivalence, and build the perf record."""
    cold = min(_time_run(table, cold_greedy) for _ in range(repeats))
    warm = min(_time_run(table, warm_greedy) for _ in range(repeats))
    picks_cold = cold_greedy(table)
    picks_warm = warm_greedy(table)
    identical = [(p.rule, p.marginal) for p in picks_cold] == [
        (p.rule, p.marginal) for p in picks_warm
    ]
    per_pick = _per_pick_times(table)
    later = per_pick[1:] or [0.0]
    return {
        "workload": {
            "dataset": "census",
            "rows": table.n_rows,
            "columns": N_COLUMNS,
            "k": K,
            "mw": MW,
            "weighting": "size",
            "repeats": repeats,
        },
        "cold_greedy_seconds": round(cold, 6),
        "warm_context_seconds": round(warm, 6),
        "speedup": round(cold / warm, 3),
        "first_pick_seconds": round(per_pick[0], 6),
        "later_pick_mean_seconds": round(sum(later) / len(later), 6),
        "later_vs_first_ratio": round((sum(later) / len(later)) / per_pick[0], 4),
        "identical_rule_lists": identical,
        "warm_stats": _totals(picks_warm),
        "cold_stats": _totals(picks_cold),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def write_record(record: dict) -> None:
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")


def check_record(record: dict) -> None:
    assert record["identical_rule_lists"], "warm and cold greedies disagreed on the rule list"
    assert record["speedup"] >= MIN_SPEEDUP, (
        f"search-context speedup {record['speedup']:.2f}x is below the "
        f"{MIN_SPEEDUP}x floor "
        f"({record['cold_greedy_seconds']:.3f}s vs "
        f"{record['warm_context_seconds']:.3f}s)"
    )
    # Later picks must be much cheaper than the cache-building first pick.
    assert record["later_pick_mean_seconds"] < record["first_pick_seconds"]


@pytest.mark.smoke
def test_incremental_engine_speedup(census):
    """Smoke target: ≥3× on brs(k=10), identical rules, record emitted."""
    record = run_benchmark(census, repeats=1)
    write_record(record)
    print()
    print(
        f"BX incremental search: cold {record['cold_greedy_seconds']*1000:.0f} ms, "
        f"warm {record['warm_context_seconds']*1000:.0f} ms "
        f"({record['speedup']:.1f}x); first pick "
        f"{record['first_pick_seconds']*1000:.1f} ms, later picks "
        f"{record['later_pick_mean_seconds']*1000:.2f} ms"
    )
    check_record(record)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="single repeat (fast CI smoke run)"
    )
    args = parser.parse_args()
    table = generate_census(CENSUS_ROWS, n_columns=N_COLUMNS)
    record = run_benchmark(table, repeats=1 if args.smoke else 3)
    write_record(record)
    print(json.dumps(record, indent=2))
    check_record(record)
    print(f"\nperf record written to {RECORD_PATH}")


if __name__ == "__main__":
    main()
