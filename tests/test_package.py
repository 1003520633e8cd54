"""Package hygiene: module-level imports only, and no stale exports."""

import ast
from pathlib import Path

import adaptive_sgp

SRC = Path(adaptive_sgp.__file__).parent


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside function bodies: {found}"


def test_every_export_resolves():
    missing = [name for name in adaptive_sgp.__all__
               if not hasattr(adaptive_sgp, name)]
    assert not missing, f"__all__ names with no binding: {missing}"
