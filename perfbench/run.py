"""The cherednik benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check [--seed N] [--workload NAME]

Run from the root of a source checkout.  A measured run starts WORKERS
fresh worker processes one after the other; each sets up cold (import,
seeded inputs, warm-up) and then runs timed passes for its share of the
seconds.  Pooling the passes of several processes averages out the speed
differences between processes (memory layout).  Every time is wall time
scaled to a fixed reference host speed by the sampler in hostspeed.py,
which takes out the host's own speed changes over time.  wall_s is the sum
over operations of each operation's median over all passes; setup_s and
peak_rss_mb are medians over the workers.  The last stdout line is the
result object; diagnostics go to stderr.

`--check` runs the operation list of every workload (or of one) without
timing and exits non-zero if any report digest or oracle disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verma-q", "verma-cyclotomic", "pbw-banach", "session-warm")
WORKERS = 3
TIME_LIMIT_S = 170.0
DEFAULT_SEED = 0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one worker to completion and return its result object."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {workload} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {workload} printed no result")
    return json.loads(lines[-1])


def wall_seconds(pass_times) -> float:
    """Seconds for the op list once: the sum over ops of each op's median."""
    return sum(statistics.median(col) for col in zip(*pass_times))


def ok_frac(res: dict) -> float:
    """Share of operations that returned a verified result."""
    bad = res["failed"] + res["known"]
    return max(0.0, (res["attempted"] - bad) / res["attempted"])


def end_to_end(parts: list) -> dict:
    res = pool(parts)
    return {
        "wall_s": {"value": wall_seconds(res["pass_times"]), "unit": "s"},
        "setup_s": {"value": statistics.median(p["setup_s"] for p in parts), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in parts), "unit": "MB"},
        "ok_frac": {"value": ok_frac(res), "unit": "frac"},
    }


def pool(parts: list) -> dict:
    """Passes, counts and errors of several workers taken together."""
    return {
        "pass_times": [t for p in parts for t in p["pass_times"]],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "known": sum(p["known"] for p in parts),
        "errors": [e for p in parts for e in p["errors"]],
    }


# per-function stats reported by the traced run: metric prefix -> stats
TRACED_STATS = {
    "linalg.rref": ("calls", "incl_s"),
    "linalg.nullspace": ("incl_s",),
    "linalg.extend_echelon": ("calls", "incl_s"),
    "linalg.reduce_against": ("incl_s",),
    "category_o.apply_x_full": ("calls", "incl_s"),
    "category_o.apply_y_full": ("calls", "incl_s"),
    "category_o.apply_g_full": ("calls", "incl_s"),
    "category_o.apply_term_full": ("calls", "incl_s"),
    "category_o.singular_vectors": ("incl_s",),
    "category_o.kill_submodule": ("incl_s",),
    "category_o.graded_character": ("incl_s",),
    "category_o.verma_action": ("calls",),
    "pbw.multiply": ("calls", "incl_s", "self_s"),
    "pbw.straighten": ("calls", "incl_s"),
    "pbw.parse_element": ("incl_s",),
    "groups.enumerate_group": ("incl_s",),
    "groups.irrep_from_generators": ("incl_s",),
    "groups.find_reflections": ("incl_s",),
    "banach.lattice_check": ("calls", "incl_s"),
    "banach.level_tower": ("incl_s",),
    "banach.from_pbw": ("incl_s",),
    "banach.gauss_norm": ("calls",),
    "scalars.val": ("calls", "incl_s"),
    "scalars.hensel_embed": ("incl_s",),
    "scalars.Scalar.inverse": ("calls",),
    "cli.main": ("incl_s",),
    "cli.build_algebra": ("incl_s",),
    "cli.emit_report": ("incl_s",),
}


def _frac(num, den):
    return num / den if den else 0.0


def per_layer(res: dict) -> dict:
    trace = res["trace"]
    fns, counts = trace["functions"], trace["counts"]
    out = {}
    for prefix, stats in TRACED_STATS.items():
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            out[f"{prefix}.{stat}"] = {"value": fns[prefix][stat], "unit": unit}
    for layer in LAYERS:
        out[f"{layer}.total.incl_s"] = {"value": trace["layer_incl_s"][layer], "unit": "s"}
        out[f"{layer}.total.self_s"] = {"value": trace["layer_self_s"][layer], "unit": "s"}
    ratios = {
        "linalg.rref.cells": (counts["rref.cells"], None, "count"),
        "linalg.rref.nonzero_frac": (counts["rref.nonzero"], counts["rref.cells"], "frac"),
        "linalg.extend_echelon.new_frac": (
            counts["extend_echelon.new"], fns["linalg.extend_echelon"]["calls"], "frac"),
        "category_o.apply.nonzero_frac": (counts["apply.nonzero"], counts["apply.inputs"], "frac"),
        "pbw.straighten.hit_frac": (counts["straighten.hits"], fns["pbw.straighten"]["calls"], "frac"),
        "pbw.cache_entries": (counts["cache_entries"], None, "count"),
        "banach.lattice_check.pass_frac": (
            counts["lattice_check.passed"], fns["banach.lattice_check"]["calls"], "frac"),
    }
    for name, (num, den, unit) in ratios.items():
        out[name] = {"value": num if den is None else _frac(num, den), "unit": unit}
    for name, value in res["probes"].items():
        unit = name.rsplit("_", 1)[1]
        out[name] = {"value": value, "unit": unit}
    # Span times above are unscaled wall seconds (they include the speed
    # sampler's ~2 %), so a layer's share is of traced_unscaled_wall_s; the
    # other pass totals are scaled like wall_s.
    untraced = wall_seconds(res["pass_times"])
    out["trace.traced_unscaled_wall_s"] = {"value": trace["traced_raw_s"], "unit": "s"}
    out["trace.traced_wall_s"] = {"value": trace["traced_wall_s"], "unit": "s"}
    out["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    out["trace.overhead_s"] = {"value": trace["traced_wall_s"] - untraced, "unit": "s"}
    return out


def print_trace_table(workload: str, metrics: dict, file=sys.stderr):
    """Layer totals as a table, then every per-layer metric by name.  The
    shares are of the traced pass's unscaled wall time, the spans' clock."""
    wall = metrics["trace.traced_wall_s"]["value"]
    raw_wall = metrics["trace.traced_unscaled_wall_s"]["value"]
    print(f"# traced {workload}: scaled wall {wall:.3f} s, overhead "
          f"{metrics['trace.overhead_s']['value']:+.3f} s; unscaled wall {raw_wall:.3f} s",
          file=file)
    print(f"# {'layer':<11} {'incl_s':>9} {'self_s':>9} {'incl%':>6}", file=file)
    for layer in LAYERS:
        inc = metrics[f"{layer}.total.incl_s"]["value"]
        slf = metrics[f"{layer}.total.self_s"]["value"]
        print(f"# {layer:<11} {inc:9.3f} {slf:9.3f} {100 * _frac(inc, raw_wall):6.1f}", file=file)
    for name in sorted(metrics):
        print(f"# {name:<40} {metrics[name]['value']:14.6g} {metrics[name]['unit']}", file=file)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        parts = [spawn(workload, seed, seconds, 1, deadline)]
    else:
        parts = [spawn(workload, seed, seconds / WORKERS, 0, deadline) for _ in range(WORKERS)]
    res = pool(parts)
    for err in res["errors"]:
        print(f"# FAIL {err}", file=sys.stderr)
    if res["known"]:
        print(f"# known defect: {res['known']} run(s) of ws-decompose {{y1*x1^1500}} "
              "exited 3 (RecursionError reported as computation failed)", file=sys.stderr)
    if trace:
        metrics = per_layer(parts[0])
        print_trace_table(workload, metrics)
    else:
        metrics = end_to_end(parts)
        for i, part in enumerate(parts):
            print(f"# {workload} worker {i}: set-up {part['setup_s']:.3f} s, pass seconds "
                  + " ".join(f"{sum(t):.3f}" for t in part["pass_times"]), file=sys.stderr)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def check(seed: int, workloads) -> int:
    """Each workload's operation list, with every check; exit 1 on any mismatch."""
    bad = 0
    for workload in workloads:
        res = spawn(workload, seed, 0.0, 0, time.monotonic() + 900)
        status = "ok" if res["failed"] == 0 else "FAIL"
        print(f"{workload}: {status}, {res['attempted']} operations, {res['failed']} failed, "
              f"{res['known']} known-defect")
        for err in res["errors"]:
            print(f"  {err}")
        bad += res["failed"]
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cherednik" / "__init__.py").is_file():
        print("perfbench: no cherednik sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.check:
            return check(args.seed, [args.workload] if args.workload else WORKLOADS)
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
