"""Lint: every top-level function and class in `src/ddr` is read somewhere
in `src/ddr` other than its own definition, unless `UNREAD` names it with
the reason it stays; every method and property of a class there (dunders
aside) is read likewise, unless `UNREAD_MEMBERS` names it (as
`Class.member`); and every name a module of `src/ddr` imports is read in
that module, unless `UNREAD_IMPORTS` names it (as `module.name`).

A read is a name or an attribute in any module's code; an import alone is
not one.  Each allowlist entry must still be defined (or imported) and
still unread, so the lists only shrink as code gains callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ddr"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

UNREAD = {
    "replay_collapse": "bench/gate.py re-checks finite certificates with it",
    "solve_feasibility": "bench/run.py traces it as the weight LP layer",
    "sub_lots": "bench/run.py traces it; the tests use the lattice as an oracle",
    "double_disc": "public API named in the README",
    "matched_surface": "public API named in the README",
    "dumps_diagram": "public API named in the README: the writer paired with loads_diagram",
}

UNREAD_MEMBERS = {
    "_Parser.error": "argparse calls it on a usage error",
    "WeightAssignment.serialize": "public API: the writer of the weight-file format in the README",
}

UNREAD_IMPORTS = {
    "cli.search_weights": "bench/test_harness.py checks that its tracer rebinds it",
    "lot.search_weights": "bench/test_harness.py checks that its tracer rebinds it",
    "smallcancel.build_whitehead": "bench/test_harness.py checks that its tracer rebinds it",
}


def _reads(node: ast.AST, own: frozenset[str] = frozenset()) -> set[str]:
    """The names and attributes read under `node`, except a definition's
    reads of its own name."""
    if isinstance(node, DEFS):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, own)
    return found - own


def _definitions_and_reads() -> tuple[set[str], dict[str, str], set[str]]:
    """The top-level definitions, the members (`Class.member` -> member
    name) and the names read, over every module of `src/ddr`."""
    defined: set[str] = set()
    members: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _reads(tree)
        for node in tree.body:
            if isinstance(node, DEFS):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                members.update((f"{node.name}.{m.name}", m.name) for m in node.body
                               if isinstance(m, DEFS[:2])
                               and not (m.name.startswith("__") and m.name.endswith("__")))
    return defined, members, read


def test_every_definition_is_read():
    defined, _, read = _definitions_and_reads()
    assert sorted(defined - read - set(UNREAD)) == []


def test_allowlist_names_only_unread_definitions():
    defined, _, read = _definitions_and_reads()
    assert sorted(set(UNREAD) - defined) == []
    assert sorted(set(UNREAD) & read) == []


def test_every_member_is_read():
    _, members, read = _definitions_and_reads()
    assert sorted(key for key, name in members.items()
                  if name not in read and key not in UNREAD_MEMBERS) == []


def test_member_allowlist_names_only_unread_members():
    _, members, read = _definitions_and_reads()
    assert sorted(set(UNREAD_MEMBERS) - set(members)) == []
    assert sorted(key for key in UNREAD_MEMBERS if members[key] in read) == []


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
