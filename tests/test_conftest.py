"""The suite's pytest setup: one failing hypothesis test under ``-W error``
must not end the session."""

import subprocess
import sys
from pathlib import Path

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_lets_the_rest_run(tmp_path):
    (tmp_path / "conftest.py").write_text(Path(__file__).with_name("conftest.py").read_text())
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
                          "test_sample.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
