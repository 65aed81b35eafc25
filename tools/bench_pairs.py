"""Alternating parent/change pairs of the benchmark, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV [--change REV] --out BENCH_46.json \
        [--workload NAME ...] [--seeds 1-10] [--claim WORKLOAD:METRIC] \
        [--unseen-seeds 11-20] [--traced 3] [--stress S1,S2,S3]

Run from the root of a git checkout.  Each revision is exported with
`git archive` into its own fresh temporary directory, so a run sees the
committed files only.  For every workload and seed, one pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 4 --trace 0

once in each tree; pair i runs the parent first when i is even and the
change first when it is odd, so a drift in host speed does not favour one
side.  The output holds every pair of the four end-to-end metrics, each
side's median and quartiles (inclusive method), the pairs the change wins
and the change of the median.

With --claim, the claim rule is computed on the claimed workload and
metric: the change wins at least 9 of 10 pairs (the same share of any other
count) and its median beats the parent's by more than the parent's
interquartile range.  --unseen-seeds repeats the claimed workload on further
seeds and applies the rule to them too.  --traced K runs K traced passes
(`--trace 1`, seed 0) per side on the claimed workload, alternating as the
pairs do, and records the median of each of TRACE_METRICS.  --stress IDS
runs STRESS_PAIRS alternating pairs of `python3 stress/run.py ID` per job id,
each a fresh process in each tree, and records each side's wall time (the
whole runner process, timed here) and the job's verdict: `ok`, or the
runner's line when its digest differs or the job fails.

Standard library only; the children run with PYTHONDONTWRITEBYTECODE=1, so
every worker compiles the sources as a fresh checkout does.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

END_TO_END = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower", "ok_frac": "higher"}
WORKLOADS = ("session-warm", "pbw-banach", "verma-q", "verma-cyclotomic")
SECONDS = 4
STRESS_PAIRS = 5
# the trace metrics that show where a saving on the claimed workload lies
TRACE_METRICS = (
    "pbw.multiply.self_s",
    "pbw.multiply.calls",
    "category_o.total.self_s",
    "category_o.verma_action.calls",
    "trace.traced_wall_s",
)
RULE = (
    "the change wins at least 9 of 10 pairs and the median drop exceeds "
    "the parent's interquartile spread"
)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def export(repo: Path, rev: str, dest: Path) -> str:
    """Write the tree of rev into dest; returns the abbreviated commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()
    data = subprocess.run(["git", "archive", commit], cwd=repo, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The metric values of one benchmark run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode} in {tree}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def stress_run(tree: Path, job: str) -> dict:
    """Wall seconds and verdict of `python3 stress/run.py job` in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "stress/run.py", job], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    line = proc.stdout.strip().split("\n", 1)[0]
    return {"wall_s": wall, "status": "ok" if proc.returncode == 0 else line or proc.stderr[-200:]}


def alternate(i: int, trees: dict, job) -> dict:
    """job(tree) on both sides, the parent first when i is even."""
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    return {side: job(trees[side]) for side in order}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metric_rows(pairs: list, seeds: list) -> dict:
    """Per end-to-end metric: the pairs, both sides' summaries, the pairs
    the change wins and the change of the median as a fraction."""
    out = {}
    for name, better in END_TO_END.items():
        rows = [{"seed": s, "parent": p["parent"][name], "change": p["change"][name]}
                for s, p in zip(seeds, pairs)]
        parent = summary([r["parent"] for r in rows])
        change = summary([r["change"] for r in rows])
        wins = sum((r["change"] < r["parent"]) if better == "lower" else (r["change"] > r["parent"])
                   for r in rows)
        frac = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
        out[name] = {"better": better, "pairs": rows, "parent": parent, "change": change,
                     "change_better_pairs": wins, "median_change_frac": frac}
    return out


def claim_verdict(row: dict, metric: str) -> dict:
    """The claim rule on one metric's row (see the module docstring)."""
    n, wins = len(row["pairs"]), row["change_better_pairs"]
    parent, change = row["parent"], row["change"]
    drop = parent["median"] - change["median"]
    if row["better"] == "higher":
        drop = -drop
    iqr = parent["q3"] - parent["q1"]
    unit = metric.rsplit("_", 1)[1]
    return {"change_better_pairs": wins, "pairs": n, f"median_drop_{unit}": drop,
            f"parent_iqr_{unit}": iqr, "met": 10 * wins >= 9 * n and drop > iqr}


def measure(trees: dict, workload: str, seeds: list) -> dict:
    pairs = []
    for i, seed in enumerate(seeds):
        pairs.append(alternate(i, trees, lambda t: run(t, workload, seed, 0)))
        p, c = pairs[-1]["parent"]["wall_s"], pairs[-1]["change"]["wall_s"]
        print(f"# {workload} seed {seed}: wall_s parent {p:.4f} change {c:.4f}", file=sys.stderr)
    return metric_rows(pairs, seeds)


def measure_stress(trees: dict, jobs: list) -> dict:
    """STRESS_PAIRS alternating pairs per stress job: the pairs, both sides'
    wall-time summaries, the pairs the change wins and the change of the
    median as a fraction."""
    out = {}
    for job in jobs:
        pairs = [alternate(i, trees, lambda t: stress_run(t, job)) for i in range(STRESS_PAIRS)]
        walls = {side: [p[side]["wall_s"] for p in pairs] for side in ("parent", "change")}
        parent, change = summary(walls["parent"]), summary(walls["change"])
        print(f"# stress {job}: wall_s parent {parent['median']:.2f} change "
              f"{change['median']:.2f}", file=sys.stderr)
        out[job] = {"pairs": pairs, "parent": parent, "change": change,
                    "change_better_pairs": sum(c < p for p, c in zip(*walls.values())),
                    "median_change_frac": change["median"] / parent["median"] - 1}
    return out


def record(trees: dict, revs: dict, workloads: list, seeds: list, claim, unseen_seeds,
           traced: int, stress: list) -> dict:
    """The BENCH_<pr>.json contents: the pairs of every workload, with a
    claim its verdicts, its unseen seeds and its traced runs, and the pairs
    of each stress job named."""
    command = f"`python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0`"
    out = {
        "what": f"alternating parent/change pairs of {command}, each tree run from its own "
                "checkout; pair i runs the parent first when i is even, the change first when "
                "odd (tools/bench_pairs.py)",
        "parent": revs["parent"],
        "change": revs["change"],
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
            "system": platform.system(),
            "note": "times are scaled to the reference host speed by perfbench/hostspeed.py; "
                    "PYTHONDONTWRITEBYTECODE=1, so every worker compiles the sources",
        },
        "workloads": {},
    }
    for workload in workloads:
        out["workloads"][workload] = measure(trees, workload, seeds)

    if claim:
        workload, metric = claim
        verdicts = {f"seeds_{seeds[0]}_{seeds[-1]}":
                    claim_verdict(out["workloads"][workload][metric], metric)}
        if unseen_seeds:
            rows = measure(trees, workload, unseen_seeds)
            seeds = unseen_seeds
            verdicts[f"seeds_{seeds[0]}_{seeds[-1]}"] = claim_verdict(rows[metric], metric)
            out["unseen_seeds"] = {
                "what": f"{len(seeds)} more pairs on {workload}, seeds {seeds[0]}-{seeds[-1]}, "
                        "same command and alternation",
                "workloads": {workload: rows},
            }
        out["claim"] = {"workload": workload, "metric": metric, "rule": RULE, **verdicts}
        if traced:
            runs = [alternate(i, trees, lambda t: run(t, workload, 0, 1))
                    for i in range(traced)]
            out["traced"] = {
                "what": f"median of {traced} traced runs per side (`--trace 1`, seed 0) "
                        f"on {workload}, alternating as the pairs do",
                "metrics": {
                    name: {side: statistics.median(r[side][name] for r in runs)
                           for side in ("parent", "change")}
                    for name in TRACE_METRICS
                },
            }
        print(json.dumps(out["claim"], indent=1), file=sys.stderr)

    if stress:
        out["stress"] = {
            "what": f"{STRESS_PAIRS} alternating pairs per job of `python3 stress/run.py ID`, "
                    "each a fresh process timed whole; status is `ok` when the report's sha256 "
                    "matches stress/digests.json",
            "jobs": measure_stress(trees, stress),
        }

    order = ("what", "parent", "change", "machine", "claim", "workloads", "unseen_seeds", "traced",
             "stress")
    return {key: out[key] for key in order if key in out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--unseen-seeds", type=seed_range)
    parser.add_argument("--traced", default=0, type=int)
    parser.add_argument("--stress", type=lambda text: text.split(","), default=[],
                        help="comma-separated stress job ids, such as S1,S2,S3")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    claim = args.claim.split(":") if args.claim else None
    if claim and (claim[0] not in workloads or claim[1] not in END_TO_END):
        parser.error("--claim names a measured workload and an end-to-end metric")
    if (args.unseen_seeds or args.traced) and not claim:
        parser.error("--unseen-seeds and --traced need --claim")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        revs = {side: export(Path.cwd(), rev, trees[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        out = record(trees, revs, workloads, args.seeds, claim, args.unseen_seeds, args.traced,
                     args.stress)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
