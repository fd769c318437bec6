"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pacioli
import support


def test_readme_library_example_runs():
    root = support.DATA.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    src = Path(pacioli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == "Assets = Liabilities + Equity".split()
    assert lines[1].split() == "(9700, 40, 20) = (9200, 0, 0) + (500, 40, 20)".split()
    assert lines[3].split() == "14500 = 9200 + 5300".split()
