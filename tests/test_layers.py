"""The package's import layers.

The diagram calculus, the operator layer and the Fock layer load neither
the expression language nor the command line, and every import of the
package sits at the top of its module.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import motzkin

SRC = Path(motzkin.__file__).resolve().parent


@pytest.mark.parametrize(
    "module", ["motzkin.diagram_core", "motzkin.representation", "motzkin.fock"]
)
def test_core_layers_load_no_front_end(module):
    # The package __init__ re-exports every layer, so the module is loaded
    # under a bare package object that skips it.
    code = "\n".join(
        [
            "import importlib, sys, types",
            "package = types.ModuleType('motzkin')",
            f"package.__path__ = [{str(SRC)!r}]",
            "sys.modules['motzkin'] = package",
            f"importlib.import_module({module!r})",
            "print(sorted({'motzkin.expression', 'motzkin.cli'} & set(sys.modules)))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
