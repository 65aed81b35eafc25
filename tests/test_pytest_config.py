"""The repository's pytest configuration, run on a throwaway test file."""

from pathlib import Path

import pytest

from helpers import python_job

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    # with libcst installed, Hypothesis's failure report imports it, and the
    # DeprecationWarning of that import, made an error by filterwarnings,
    # used to abort the run with INTERNALERROR (exit 3) before any other
    # test ran
    pytest.importorskip("libcst")
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    done = python_job([*args, "--rootdir", str(tmp_path), "test_property.py"], 120, tmp_path)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
