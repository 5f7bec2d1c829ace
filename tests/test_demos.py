"""Each narrative demo runs to completion against the package the tests import:
``src`` in a checkout, or an installed one run from outside it with ``-o pythonpath=``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import PACKAGE_ROOT

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
