"""The project's pytest settings: warnings fail the run, yet a failing
hypothesis test is reported like any other and the run goes on."""

import os
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    assert True
'''


def ini_options():
    """The ``[tool.pytest.ini_options]`` table of pyproject.toml, as text."""
    lines = PYPROJECT.read_text().splitlines()
    start = lines.index("[tool.pytest.ini_options]")
    end = next(
        (k for k in range(start + 1, len(lines)) if lines[k].startswith("[")),
        len(lines),
    )
    return "\n".join(lines[start:end]) + "\n"


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    (tmp_path / "pyproject.toml").write_text(ini_options())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(SAMPLE)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text
    assert "1 failed, 1 passed" in text
