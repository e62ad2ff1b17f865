"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, deadline=None, database=None)
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under this repo's settings a failing @given test is one failure: the
    # test after it still runs, and the session exits 1, not 3
    (tmp_path / "test_pair.py").write_text(PAIR)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-q",
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed in "), done.stdout
