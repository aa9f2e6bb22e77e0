"""The suite's warning filters: a failing property test fails alone and
the run goes on, while numpy's warnings still fail the test that raised
them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_numpy_warning():
    np.log(np.zeros(1))


def test_later():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis may import libcst to print a failing example's patch,
    # which raises a DeprecationWarning from mypy_extensions outside any
    # test; as an error it ended the run with INTERNALERROR (exit 3)
    (tmp_path / "test_order.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_order.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert "FAILED test_order.py::test_numpy_warning" in run.stdout
