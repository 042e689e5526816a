"""The runtime stays pure standard library: every import in `src/ddr` is
relative or names a standard-library module.  Test-only dependencies
(pytest, hypothesis, oracles) must never leak into the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ddr"


def test_package_imports_only_stdlib_or_relative():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert outside == []
