"""One workload process: set up, run timed passes, check every output.

Started by run.py, several times per measured run.  Prints one JSON object
on its last stdout line: the set-up time, peak memory, the per-op seconds of
every pass and the check outcomes.  Set-up and op times are wall time scaled
to the reference host speed (hostspeed.py); the sampler runs from the start
of set-up to the end of the last pass.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at MONOTONIC
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedSampler

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

MIN_PASSES = 1
MAX_PASSES = 12


def run_pass(wl, stats: dict, speed: SpeedSampler, untimed=contextlib.nullcontext):
    """Run every operation once and return (per-op scaled seconds, kept
    results, unscaled seconds of all ops).

    Each op is checked right after it returns, outside its timed region and
    inside `untimed()`.  Only what the final checks need is kept, so the live
    heap does not grow along the pass; a full collection before the pass
    gives every pass the same starting heap."""
    times, kept, raw = [], [], 0.0
    gc.collect()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            result, raised = op.run(), None
        except Exception:  # an op failure is a counted outcome, not a crash
            result, raised = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        times.append(speed.scaled(t0, t1))
        raw += t1 - t0
        with untimed():
            if raised is None:
                status = wl.check(op, result)
                kept.append(op.keep(result))
            else:
                status = f"{op.name}: raised {raised.strip().splitlines()[-1]}"
                kept.append(None)
            tally(stats, status)
        del result
    return times, kept, raw


def tally(stats: dict, status: str):
    stats["attempted"] += 1
    if status == "known":
        stats["known"] += 1
    elif status != "ok":
        stats["failed"] += 1
        stats["errors"].append(status)


def measure(wl, seconds: float, stats: dict, speed: SpeedSampler):
    """Timed passes until the next one would overrun `seconds` of wall time."""
    pass_times = []
    start = time.perf_counter()
    while True:
        times, kept, _ = run_pass(wl, stats, speed)
        pass_times.append(times)
        elapsed = time.perf_counter() - start
        if len(pass_times) >= MAX_PASSES:
            break
        if len(pass_times) >= MIN_PASSES and elapsed * (1 + 1 / len(pass_times)) > seconds:
            break
    return pass_times, kept


def final(stats: dict, wl, kept):
    for name, error in wl.final_checks([(op, k) for op, k in zip(wl.ops, kept) if k is not None]):
        stats["failed"] += 1
        stats["errors"].append(f"{name}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    # -- set-up: import, seeded inputs and configs, session warm-up -------------
    speed = SpeedSampler()
    speed.start()
    before_sampler_s = time.monotonic() - args.spawned_at
    t0 = time.perf_counter()
    import workloads

    rundir = HERE / "runs" / f"{args.workload}-seed{args.seed}"
    rundir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, rundir)
    setup_s = before_sampler_s + speed.scaled(t0, time.perf_counter())

    stats = {"attempted": 0, "failed": 0, "known": 0, "errors": []}
    out = {"setup_s": setup_s, "ops": len(wl.ops)}
    if not args.trace:
        out["pass_times"], kept = measure(wl, args.seconds, stats, speed)
        speed.stop()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        final(stats, wl, kept)
    else:
        import probes
        import tracing

        pass_times, _ = measure(wl, args.seconds / 2, stats, speed)
        tracer = tracing.Tracer()
        tracer.register_algebras(wl.algebras())
        tracer.install(extra_modules=[workloads])
        try:
            times, kept, raw = run_pass(wl, stats, speed, untimed=tracer.suspended)
            cache_entries = tracer.cache_entries()
        finally:
            tracer.uninstall()
            speed.stop()
        final(stats, wl, kept)
        tracer.write_spans(rundir / "spans.tsv")
        out["trace"] = tracer.summary()
        out["trace"]["counts"] = dict(tracer.counts, cache_entries=cache_entries)
        out["trace"]["traced_wall_s"] = sum(times)
        out["trace"]["traced_raw_s"] = raw  # the same clock as the spans
        out["pass_times"] = pass_times
        out["probes"] = probes.run_all()
    out.update(stats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
