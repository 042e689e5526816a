"""Lint: every top-level function and class in `src/ddr` is read somewhere
in `src/ddr` other than its own definition, unless `UNREAD` names it with
the reason it stays; and every name a module of `src/ddr` imports is read
in that module, unless `UNREAD_IMPORTS` names it (as `module.name`) with
the reason it stays.

A read is a name or an attribute in any module's code; an import alone is
not one.  Each allowlist entry must still be defined (or imported) and
still unread, so the lists only shrink as code gains callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ddr"

UNREAD = {
    "replay_collapse": "bench/gate.py re-checks finite certificates with it",
    "solve_feasibility": "bench/run.py traces it as the weight LP layer",
    "sub_lots": "bench/run.py traces it; the tests use the lattice as an oracle",
    "double_disc": "public API named in the README",
    "matched_surface": "public API named in the README",
    "check_small_cancellation": "public API: the C(p), T(q) report, tested on its own",
    "dumps_diagram": "public API: the writer paired with loads_diagram",
    "parse_word": "test helper: builds words from text",
    "folding_edges": "test helper: the validating folding scan",
    "abelian_free_rank": "test helper: the free rank of the abelianization",
}

UNREAD_IMPORTS = {
    "cli.search_weights": "bench/test_harness.py checks that its tracer rebinds it",
    "lot.search_weights": "bench/test_harness.py checks that its tracer rebinds it",
    "smallcancel.build_whitehead": "bench/test_harness.py checks that its tracer rebinds it",
}


def _definitions_and_reads() -> tuple[set[str], set[str]]:
    defined: set[str] = set()
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return defined, read


def test_every_definition_is_read():
    defined, read = _definitions_and_reads()
    assert sorted(defined - read - set(UNREAD)) == []


def test_allowlist_names_only_unread_definitions():
    defined, read = _definitions_and_reads()
    assert sorted(set(UNREAD) - defined) == []
    assert sorted(set(UNREAD) & read) == []


def _unread_imports() -> tuple[set[str], set[str]]:
    """Every `module.name` that a module of `src/ddr` imports, and those
    among them that the module never reads as a name."""
    imported: set[str] = set()
    unread: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported |= {f"{path.stem}.{name}" for name in bound}
        unread |= {f"{path.stem}.{name}" for name in bound - read}
    return imported, unread


def test_every_import_is_read():
    _, unread = _unread_imports()
    assert sorted(unread - set(UNREAD_IMPORTS)) == []


def test_import_allowlist_names_only_unread_imports():
    imported, unread = _unread_imports()
    assert sorted(set(UNREAD_IMPORTS) - imported) == []
    assert sorted(set(UNREAD_IMPORTS) - unread) == []
