"""Lint: every top-level function and class in `src/ddr` is read somewhere
in `src/ddr` other than its own definition, unless `UNREAD` names it with
the reason it stays.

A read is a name or an attribute in any module's code; an import alone is
not one.  Each `UNREAD` entry must still be defined and still unread, so the
list only shrinks as code gains callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ddr"

UNREAD = {
    "replay_collapse": "bench/gate.py re-checks finite certificates with it",
    "solve_feasibility": "bench/run.py traces it as the weight LP layer",
    "sub_lots": "bench/run.py traces it; the tests use the lattice as an oracle",
    "parse_lot": "bench/ builds its LOT inputs with it",
    "double_disc": "public API named in the README",
    "matched_surface": "public API named in the README",
    "check_small_cancellation": "public API: the C(p), T(q) report, tested on its own",
    "dumps_diagram": "public API: the writer paired with loads_diagram",
    "parse_word": "test helper: builds words from text",
    "folding_edges": "test helper: the validating folding scan",
    "abelian_free_rank": "test helper: the free rank of the abelianization",
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
