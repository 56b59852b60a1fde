"""The engine imports nothing outside the standard library, and its CLI loads no thread pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fqsim"


def statements(nodes):
    """Every statement, nested ones too: an import is never an expression."""
    for node in nodes:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from statements(getattr(node, field, ()))


def test_every_import_is_stdlib():
    allowed = sys.stdlib_module_names | {"__future__"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    imported = set()
    for path in sources:
        for node in statements(ast.parse(path.read_text(encoding="utf-8"), str(path)).body):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.partition(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module.partition(".")[0]))
    assert {"functools", "itertools", "fractions"} <= {module for _, module in imported}
    assert sorted((name, module) for name, module in imported if module not in allowed) == []


def test_cli_import_loads_no_thread_pool_or_logging():
    probe = ("import sys, fqsim.cli; "
             "print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
