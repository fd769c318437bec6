"""What an import loads, and the namespace the package presents.

The package resolves its names on first use (PEP 562), so an import loads
only the modules it needs.  Each import is checked in a fresh interpreter
with the directory `pacioli` was imported from on PYTHONPATH: `src/` in a
plain run, and the installed copy after ``pip install .`` with no
PYTHONPATH.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pacioli
import support

ROOT = Path(pacioli.__file__).resolve().parent.parent
# The modules whose `__all__`, joined in this order, is the package's.
MODULES = ("algebra", "fractions", "ledger", "sss", "table", "valuation", "fileformat")
# Every module on a CLI path: the tracer of perfbench/ finds them all in
# `sys.modules` after `import pacioli.cli`.
CLI = ("algebra", "cli", "fileformat", "ledger", "reports", "sss", "table", "valuation")


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """`python *argv` in a new interpreter that imports pacioli from ROOT."""
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def loaded_by(statement: str) -> set[str]:
    """The `pacioli` modules, stdlib `fractions` and `decimal` that
    `statement` loads in a fresh interpreter."""
    code = f"import sys\nbefore = set(sys.modules)\n{statement}\n"
    code += "print(*set(sys.modules) - before)\n"
    done = fresh("-c", code)
    assert done.returncode == 0, done.stderr
    return {
        name
        for name in done.stdout.split()
        if name.partition(".")[0] == "pacioli" or name in ("fractions", "decimal")
    }


@pytest.mark.parametrize(
    "statement, loads",
    [
        ("import pacioli.cli", {"pacioli", *(f"pacioli.{m}" for m in CLI)}),
        ("import pacioli.algebra", {"pacioli", "pacioli.algebra"}),
        ("from pacioli import TTerm", {"pacioli", "pacioli.algebra"}),
    ],
    ids=["import-cli", "import-algebra", "from-pacioli-import-TTerm"],
)
def test_an_import_loads_only_what_it_needs(statement, loads):
    assert loaded_by(statement) == loads


def test_value_loads_fractions_when_it_needs_them():
    # Stdlib `fractions` is off the import path; the first price and the
    # error text of a non-integer value import it.
    ledger = str(support.DATA / "scalar.ledger")
    done = fresh("-m", "pacioli.cli", "value", "--ledger", ledger, "--prices", "1/3")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: account 'Liabilities' values to non-integer 10000/3\n"


def test_the_namespace_is_the_modules_own():
    modules = [importlib.import_module(f"pacioli.{m}") for m in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert pacioli.__all__ == [*names, "__version__"]
    # Each name has one home, so the first module that exports it (the lazy
    # lookup) and the last (a star import of each in turn) agree.
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(pacioli, name) is getattr(module, name), name
    star = {}
    exec("from pacioli import *", star)
    del star["__builtins__"]
    assert star.keys() == set(pacioli.__all__)
    assert all(star[name] is getattr(pacioli, name) for name in star)
    assert pacioli.fractions is modules[MODULES.index("fractions")]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pacioli.no_such_name
    assert set(pacioli.__all__) <= set(dir(pacioli))
