"""tools/bench_pairs.py exports each revision with `git archive`; the
export must unpack without a warning (the tar `data` filter, whose absence
Python 3.12 and 3.13 warn about), so it runs only inside a git checkout."""

import importlib.util
import shutil
import subprocess
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_head():
    """The abbreviated HEAD commit, or None outside a git checkout."""
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def test_export_unpacks_head_without_a_warning(tmp_path):
    head = git_head()
    if head is None:
        pytest.skip("not a git checkout")
    bench_pairs = load_bench_pairs()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        commit = bench_pairs.export(ROOT, "HEAD", tmp_path / "tree")
    assert [str(w.message) for w in caught] == []
    assert commit == head
    assert (tmp_path / "tree" / "src" / "cherednik" / "category_o.py").is_file()
    assert (tmp_path / "tree" / "stress" / "run.py").is_file()
