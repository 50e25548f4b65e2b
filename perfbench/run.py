#!/usr/bin/env python3
"""Closed-loop HTTP benchmark of the smart drill-down serving tier.

    python3 perfbench/run.py --workload cold_mine --seed 1 --seconds 20 --trace 0

Stands the real tier up behind ``repro.serving.http.serve`` (timing the
set-up several times and keeping the last), drives it with the
workload's closed-loop clients for ``--seconds``, replays a seeded
sample of the served sessions on standalone sessions, tears everything
down and checks nothing leaked.  The second-to-last line of standard
output is the full record (environment stamp, per-class latencies with
sample counts, the layer ledger); the last line is the result:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Run from the repository root; no build step.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11
#: A traced run alternates untraced and traced slices of the window,
#: so the overhead ratio compares like with like.
TRACE_SLICES = 6
#: Allowed to finish after the last tier process is told to stop.
EXIT_GRACE_S = 15.0


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a repository checkout")
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path[:0] = [str(src), str(ROOT)]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_mine", "warm_browse", "append_approx"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _bootstrap()
    from perfbench import procs

    try:
        return _run(args)
    finally:
        # Nothing this run started may outlive it, on any way out.
        procs.stop_all()


def _run(args: argparse.Namespace) -> int:
    from perfbench import ledger, oracle, procs, trace
    from perfbench.client import Client, run_phase
    from perfbench.envstamp import stamp
    from perfbench.stats import InsufficientSamples, summary
    from perfbench.workloads import WORKLOADS, stand_up, tear_down

    workload = WORKLOADS[args.workload]
    shm_before = procs.shm_entries()
    scratch = OUT / f"tmp-{os.getpid()}"
    inputs = workload.inputs(args.seed)

    # -- set-up, timed several times; the last tier serves the run ---------------
    setup_times = []
    for attempt in range(SETUPS):
        persist = scratch / f"persist-{attempt}" if workload.persist else None
        stood, seconds = stand_up(workload, inputs, persist)
        setup_times.append(seconds)
        if attempt < SETUPS - 1:
            tear_down(stood)
            shutil.rmtree(scratch, ignore_errors=True)

    logs: list = []
    clock = time.perf_counter
    clients = [
        Client("127.0.0.1", stood.port, script, clock)
        for script in workload.scripts(stood, inputs, args.seed, logs)
    ]
    handler = stood.httpd.RequestHandlerClass
    tracer = trace.Tracer(clock) if args.trace else None
    leftover_wrappers: list[str] = []
    try:
        run_phase(clients, 0, sessions=workload.warmup_sessions, clock=clock)
        before = ledger.counters(stood.tier.stats())
        client_cpu = sum(c.cpu_seconds for c in clients)
        children_cpu = {pid: procs.cpu_seconds(pid) for pid in procs.descendants()}
        own_cpu = time.process_time()
        sampler = procs.RssSampler()
        sampler.start()
        slices = [(1, False)] if not args.trace else [
            (i + 1, i % 2 == 1) for i in range(TRACE_SLICES)
        ]
        window = 0.0
        for phase, traced in slices:
            if traced:
                tracer.install(handler)
            else:
                leftover_wrappers += trace.installed(handler)
            try:
                window += run_phase(clients, phase, seconds=args.seconds / len(slices), clock=clock)
            finally:
                if traced:
                    tracer.uninstall()
        peak_rss = sampler.stop()
        server_cpu = (
            time.process_time() - own_cpu
            - (sum(c.cpu_seconds for c in clients) - client_cpu)
            - sampler.cpu_seconds
            + sum(procs.cpu_seconds(pid) - children_cpu.get(pid, 0.0) for pid in procs.descendants())
        )
        after = ledger.counters(stood.tier.stats())
    finally:
        for client in clients:
            client.close()
        tear_down(stood)
    leftover_wrappers += trace.installed(handler)

    # -- hygiene: nothing the tier started may outlive it ------------------------
    give_up = time.monotonic() + EXIT_GRACE_S
    while procs.descendants() and time.monotonic() < give_up:
        time.sleep(0.1)
    shutil.rmtree(scratch, ignore_errors=True)
    hygiene = {
        "live_processes": procs.descendants(),
        "leaked_shm": sorted(
            n for n in procs.shm_entries() - shm_before if n.startswith(("psm_", "repro"))
        ),
        "persist_dir_left": scratch.exists(),
        "wrappers_left": leftover_wrappers,
    }
    leaks = (len(hygiene["live_processes"]) + len(hygiene["leaked_shm"])
             + int(hygiene["persist_dir_left"]) + len(leftover_wrappers))

    # -- correctness oracle ------------------------------------------------------
    rel_errors: list[float] = []
    if workload.persist:
        replayed, problems, rel_errors = oracle.check_versioned(
            logs, inputs["census"], inputs["pool"], inputs["applied"],
            workload.params["batch_rows"], workload.oracle_sessions, args.seed,
            workload.params["sample_budget"],
        )
    else:
        replayed, problems = oracle.check_sessions(
            logs, stood.tables, workload.oracle_sessions, args.seed
        )
    for problem in problems:
        print(f"perfbench: ORACLE MISMATCH: {problem}", file=sys.stderr)
    if leaks:
        print(f"perfbench: LEAK: {hygiene}", file=sys.stderr)

    # -- metrics -----------------------------------------------------------------
    window_records = [r for c in clients for r in c.records if r.phase >= 1]
    failed_requests = [r for r in window_records if not r.ok]
    for record in failed_requests[:10]:
        print(f"perfbench: FAILED {record.cls}/{record.kind}: {record.reply}", file=sys.stderr)
    attempted = len(window_records)
    failed = len(failed_requests) + len(problems) + leaks + (0 if replayed else 1)
    delta = ledger.delta(before, after)
    approx_rel_err = sum(rel_errors) / len(rel_errors) if rel_errors else 0.0
    classes = {}
    for cls in sorted({r.cls for r in window_records} | {f"kind:{r.kind}" for r in window_records}):
        picked = [r for r in window_records if r.ok and (r.cls == cls or f"kind:{r.kind}" == cls)]
        classes[cls] = summary([r.seconds * 1000.0 for r in picked])
    record = {
        "workload": workload.name,
        "why": workload.why,
        "env": stamp(ROOT, args.seed, {**workload.params, "clients": workload.clients,
                                       "seconds": args.seconds, "trace": args.trace}),
        "setup_times_s": setup_times,
        "window_s": window,
        "latency_ms": classes,
        "error_ratio": failed / attempted if attempted else None,
        "approx_rel_err": {"value": approx_rel_err, "n": len(rel_errors)},
        "counters_delta": delta,
        "oracle": {"replayed_sessions": replayed, "mismatches": len(problems)},
        "hygiene": hygiene,
    }
    try:
        if args.trace:
            traced = [r for r in window_records if r.phase % 2 == 0]
            untraced = [r for r in window_records if r.phase % 2 == 1]
            metrics, detail = ledger.layer_ledger(
                traced, untraced, tracer.spans, delta, approx_rel_err
            )
            record["per_layer"] = metrics
            record["ledger"] = detail
            tracer.dump(OUT / f"spans-{workload.name}-{args.seed}.json.gz")
        else:
            metrics = ledger.end_to_end(window_records, window, setup_times, peak_rss, server_cpu)
            record["end_to_end"] = metrics
    except InsufficientSamples as exc:
        # A percentile the run cannot support is a benchmark failure,
        # not a number: no result line.
        record["error"] = str(exc)
        print(json.dumps(record, default=str))
        print(f"perfbench: {exc}; run longer", file=sys.stderr)
        return 1
    print(json.dumps(record, default=str))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    reported = {name: metrics[name]["unit"] for name in expected if name in metrics}
    if reported != expected:
        print(f"perfbench: metrics {reported} do not match BENCHMARK.json {expected}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in expected.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
