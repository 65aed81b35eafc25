"""Record the report digests that the benchmark checks against.

    python3 perfbench/record.py digests

runs every job any seed can draw (every pool member of every element-valued
job) once through `cherednik.cli.main` and writes perfbench/digests.json:
the exit code and the sha256 of the TSV report of each job, keyed by the
sha256 of its command and config text.  Run it only on a commit whose
reports are known to be right; a later PR that intends to change report
bytes re-records and says why.

    python3 perfbench/record.py baseline [--runs 10] [--seconds S] [--workload W]

runs `run.py` on every workload with seeds 1..runs (untraced) plus one
traced run each, and writes perfbench/baseline.json: per (metric, workload)
the median, quartiles, sample count and raw samples, the spread as a share
of the median, and the traced per-layer breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
from run import WORKLOADS  # noqa: E402


def record_digests() -> int:
    from cherednik import __version__, cli
    from workloads import DIGESTS, digest_key

    entries = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cfg, out = Path(tmp) / "job.cfg", Path(tmp) / "job.tsv"
        for command, keys in jobs.all_recordable_jobs():
            text = jobs.config_text(keys)
            cfg.write_text(text, encoding="utf-8")
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            entry = {"command": command, "config": text, "exit": code}
            if code == 0:
                entry["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
            else:
                entry["stderr"] = err.getvalue().strip()
            entries[digest_key(command, text)] = entry
            print(f"{code} {command} {' '.join(f'{k}={v}' for k, v in sorted(keys.items()))}")
    doc = {"cherednik_version": __version__, "jobs": entries}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _run(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "samples": values}


def record_baseline(runs: int, seconds: int, workloads: list, out: Path) -> int:
    doc = {"seconds": seconds, "seeds": list(range(1, runs + 1)),
           "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                       "arch": platform.machine(), "system": platform.system()},
           "end_to_end": {}, "traced": {}}
    for workload in workloads:
        samples: dict = {}
        for seed in range(1, runs + 1):
            res = _run(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"])
            for name, metric in res["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in samples.items()}, flush=True)
        doc["end_to_end"][workload] = {name: _summary(vals) for name, vals in samples.items()}
        traced = _run(["--workload", workload, "--seed", "1",
                       "--seconds", str(seconds), "--trace", "1"])
        doc["traced"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record digests or a baseline")
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    if args.what == "digests":
        return record_digests()
    return record_baseline(args.runs, args.seconds, args.workload or WORKLOADS, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
