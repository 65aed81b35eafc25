"""Run the stress jobs through the CLI and compare each report's sha256.

Usage (from the repository root):

    python3 stress/run.py            # every job
    python3 stress/run.py S2 S3      # only these

Each `<id>-<command>.cfg` here is run as `cherednik <command> --config` in a
fresh process.  One line per job gives its wall time, its peak RSS and
whether the report's sha256 matches `digests.json`; the exit code is 1 when
any job fails or any digest differs.  This is a check on the report bytes,
not a timing gate.  `--record` rewrites `digests.json` from this run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"


def jobs() -> dict:
    """Job id -> (command, config path), from the config file names."""
    out = {}
    for path in sorted(HERE.glob("*.cfg")):
        job_id, _, command = path.stem.partition("-")
        out[job_id] = (command, path)
    return out


def run_job(command: str, config: Path) -> tuple[int, bytes, float, float, str]:
    """Exit code, report bytes, wall seconds, peak RSS in MB and stderr of
    one CLI run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "cherednik.cli", command, "--config", str(config)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # reaped here, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            out.read(),
            wall,
            usage.ru_maxrss / 1024,
            err.read().decode(errors="replace"),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="job ids such as S2 (default: all)")
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    table = jobs()
    ids = args.ids or list(table)
    unknown = [i for i in ids if i not in table]
    if unknown:
        parser.error(f"unknown job ids {unknown}; known: {list(table)}")
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    status = 0
    for job_id in ids:
        command, config = table[job_id]
        code, report, wall, rss, err = run_job(command, config)
        if code:
            print(f"{job_id}\t{command}\texit {code}\t{wall:.1f} s\n{err}")
            status = 1
            continue
        sha = hashlib.sha256(report).hexdigest()
        if args.record:
            digests[job_id] = sha
            verdict = "recorded"
        elif digests.get(job_id) == sha:
            verdict = "ok"
        else:
            verdict = f"MISMATCH {sha}"
            status = 1
        print(f"{job_id}\t{command}\t{wall:.1f} s\t{rss:.0f} MB\t{verdict}")
    if args.record:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
