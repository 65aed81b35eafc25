"""Every job any benchmark seed can draw, run in-process and checked as the
benchmark checks it: the sha256 of its report against perfbench/digests.json,
the closed-form oracles of perfbench/oracles.py where a job has one, and the
deep-degree ws-decompose job against `oracles.deep_ws_report`.

A single seed draws one member of each element pool, so seeds 0-3 leave some
members unchecked; this runs all of them.  The benchmark's modules import
each other by bare name, so perfbench/ is on sys.path only while they load.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import jobs
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

JOBS = jobs.all_recordable_jobs()
DIGESTS = workloads.load_digests()


def test_every_recorded_job_is_drawable():
    keys = {workloads.digest_key(cmd, jobs.config_text(k)) for cmd, k in JOBS}
    assert keys == set(DIGESTS)


@pytest.mark.parametrize(
    "index", range(len(JOBS)), ids=[f"{i:02d}-{cmd}" for i, (cmd, _) in enumerate(JOBS)]
)
def test_report_matches_the_recorded_digest(index, tmp_path):
    command, keys = JOBS[index]
    op = workloads.CliOp(index, command, keys, tmp_path)
    assert op.check(op.run(), DIGESTS) == "ok"
