"""The `file:` group route against the built-in groups: every recorded
benchmark job on s3 or s4, run once with the built-in group and once with
the same group written as a group file, gives the same exit code and the
same report apart from the `# config:` line that names the group.

Only rational groups are written: `str` of a Q(zeta_l) entry holds spaces,
which the group-file format reads as entry separators.  The benchmark's
modules import each other by bare name, so perfbench/ is on sys.path only
while they load, as in tests/test_report_digests.py.
"""

import sys
from pathlib import Path

import pytest

from cherednik import cli
from helpers import group_file_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import jobs
finally:
    sys.path.remove(str(PERFBENCH))

JOBS = [(cmd, keys) for cmd, keys in jobs.all_recordable_jobs() if keys["group"] in ("s3", "s4")]


def run_job(command, keys, tmp_path, name):
    cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.tsv"
    cfg.write_text(jobs.config_text(keys), encoding="utf-8")
    code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines() if out.exists() else []
    return code, [line for line in lines if not line.startswith("# config:")]


def test_every_s3_and_s4_job_is_covered():
    assert len(JOBS) == 13
    assert {keys["group"] for _, keys in JOBS} == {"s3", "s4"}


@pytest.mark.parametrize(
    "command, keys", JOBS, ids=[f"{i:02d}-{cmd}" for i, (cmd, _) in enumerate(JOBS)]
)
def test_file_group_report_equals_the_builtin_one(command, keys, tmp_path):
    group_file = tmp_path / f"{keys['group']}.txt"
    group_file.write_text(group_file_text(keys["group"]), encoding="utf-8")
    builtin = run_job(command, keys, tmp_path, "builtin")
    from_file = run_job(command, {**keys, "group": f"file:{group_file}"}, tmp_path, "file")
    assert builtin[0] == 0 and builtin[1]
    assert from_file == builtin
