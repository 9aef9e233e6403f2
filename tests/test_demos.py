"""The demos and the README's python tour run in a fresh interpreter.

Each starts from the repository root, with PYTHONPATH set to the directory
that holds the logsym package imported here (the checkout's src, or the
install location), as criterion 9 does for the CLI.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logsym

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = str(Path(logsym.__file__).resolve().parent.parent)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(*args):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, env=env)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    run = _python(str(demo))
    assert run.returncode == 0, run.stderr


def test_readme_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    run = _python("-c", tour)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "-y"
