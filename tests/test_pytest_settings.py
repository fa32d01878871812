"""The suite's own pytest settings in pyproject.toml."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # the warnings the suite turns into errors must not abort the run while
    # hypothesis reports a failure
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "test_fails.py"], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
