"""ddr reports every fault in its input as a `ddr.core.DdrError`: `src/ddr`
defines no other `ValueError` subclass, so a caller tells ddr's own faults
from internal errors by one type."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ddr"


def test_one_value_error_subclass():
    subclasses = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "ddr" if path.stem == "__init__" else f"ddr.{path.stem}"
        namespace = vars(importlib.import_module(module))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [eval(ast.unparse(base), namespace) for base in node.bases]
                if any(isinstance(b, type) and issubclass(b, ValueError) for b in bases):
                    subclasses.append(f"{path.stem}.{node.name}")
    assert subclasses == ["core.DdrError"]
