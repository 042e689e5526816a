"""Labeled oriented trees: parsing, presentations, sub-LOT lattice,
collapse, reorientation search, and the collapse-transfer certificate.

A LOT is a tree with oriented edges labeled by vertices.  Each edge
(source u1, target u2, label u3) contributes the relator u1 u3 u2^-1 u3^-1,
so every relator has length four and exponent sum zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .certificates import CERTIFIED_DR_AWAY_FROM, UNKNOWN, Certificate
from .core import Letter, Presentation, presentation_digest
# search_weights is unused here; bench/test_harness.py checks its tracer rebinds it
from .weights import search_weights
from .whitehead import (NEGATIVE, POSITIVE, GraphView, build_whitehead, is_forest,
                        reduced_girth)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# reorient_positive_tree refuses trees with more orientations than this
MAX_REORIENT_CANDIDATES = 1 << 22


class LotError(ValueError):
    def __init__(self, message: str, *, code: str = "INVALID", line: int | None = None):
        super().__init__(message + (f" (line {line})" if line is not None else ""))
        self.code = code
        self.line = line


@dataclass(frozen=True, slots=True)
class LotEdge:
    source: str
    target: str
    label: str


@dataclass(frozen=True)
class LOT:
    vertices: tuple[str, ...]
    edges: tuple[LotEdge, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if not _NAME_RE.match(v):
                raise LotError(f"invalid vertex name {v!r}", code="BAD_NAME")
            if v in seen:
                raise LotError(f"duplicate vertex {v!r}", code="DUPLICATE_VERTEX")
            seen.add(v)
        for e in self.edges:
            for v in (e.source, e.target):
                if v not in seen:
                    raise LotError(f"edge endpoint {v!r} is not a vertex", code="NOT_A_TREE")
            if e.label not in seen:
                raise LotError(f"edge label {e.label!r} is not a vertex",
                               code="LABEL_NOT_A_VERTEX")
            if e.source == e.target:
                raise LotError("self-loop edge", code="NOT_A_TREE")
        # no vertices means no edges, so the length test fails first
        if len(self.edges) != len(self.vertices) - 1 or \
                _reach(self.edges, self.vertices[0], None) != self.vertex_set:
            raise LotError("underlying graph is not a tree", code="NOT_A_TREE")

    @cached_property
    def source_sides(self) -> tuple[frozenset[str], ...]:
        """Per edge, the vertices left on its source's side when it is cut."""
        return tuple(_reach(self.edges, e.source, i) for i, e in enumerate(self.edges))

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class SubLot:
    """A connected, label-closed subtree with at least one edge, identified
    by its vertex set (the edges are the induced ones)."""

    parent: LOT
    vertex_subset: frozenset[str]
    edge_indices: frozenset[int]


def make_sublot(lot: LOT, vertices) -> SubLot:
    vs = frozenset(vertices)
    unknown = vs - lot.vertex_set
    if unknown:
        raise LotError(f"sub-LOT vertices {sorted(unknown)} not in the LOT", code="BAD_SUBLOT")
    edge_idx = frozenset(i for i, e in enumerate(lot.edges)
                         if e.source in vs and e.target in vs)
    _validate_sublot(lot, vs, edge_idx)
    return SubLot(lot, vs, edge_idx)


def _validate_sublot(lot: LOT, vs: frozenset[str], edge_idx: frozenset[int]) -> None:
    if not edge_idx:
        raise LotError("a sub-LOT needs at least one edge", code="BAD_SUBLOT")
    if _endpoints(lot, edge_idx) != vs:
        raise LotError("sub-LOT vertex set does not match its edges (disconnected vertex?)",
                       code="BAD_SUBLOT")
    if label_closure(lot, edge_idx) != edge_idx:
        outside = sorted({lot.edges[i].label for i in edge_idx} - vs)
        raise LotError(f"sub-LOT is not label-closed: label {outside[0]!r} outside" if outside
                       else "sub-LOT is not connected", code="BAD_SUBLOT")


def _reach(edges: tuple[LotEdge, ...], start: str, cut: int | None) -> frozenset[str]:
    """The vertices joined to `start` by the edges, edges[cut] left out."""
    adj: dict[str, list[str]] = {}
    for i, e in enumerate(edges):
        if i != cut:
            adj.setdefault(e.source, []).append(e.target)
            adj.setdefault(e.target, []).append(e.source)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def _endpoints(lot: LOT, edge_idx) -> frozenset[str]:
    return frozenset(v for i in edge_idx for v in (lot.edges[i].source, lot.edges[i].target))


def label_closure(lot: LOT, edges) -> frozenset[int]:
    """The smallest sub-LOT containing `edges` (empty for no edges): take
    their endpoints and labels, add every edge whose cut separates two of
    those vertices, and repeat until nothing changes.  A sub-LOT is exactly
    a nonempty edge set equal to its own closure."""
    closed = frozenset(edges)
    while True:
        vs = _endpoints(lot, closed) | {lot.edges[i].label for i in closed}
        grown = frozenset(i for i, side in enumerate(lot.source_sides)
                          if not vs.isdisjoint(side) and not vs <= side)
        if grown == closed:
            return closed
        closed = grown


@dataclass(frozen=True)
class SubLotInfo:
    sublot: SubLot
    proper: bool
    maximal_proper: bool


def sub_lots(lot: LOT) -> tuple[SubLotInfo, ...]:
    """Every sub-LOT, sorted by size then edges, with the maximal proper ones
    flagged.  Grown from the closure of each single edge by closing each
    one-edge extension; a proper sub-LOT is maximal iff every extension
    closes to the whole tree.  The cost is per sub-LOT found, and a tree can
    have exponentially many."""
    n = len(lot.edges)
    whole = frozenset(range(n))
    found = {label_closure(lot, {i}) for i in range(n)}
    todo = list(found)
    maximal = set()
    while todo:
        t = todo.pop()
        extensions = {label_closure(lot, t | {i}) for i in whole - t}
        if extensions == {whole}:
            maximal.add(t)
        todo.extend(extensions - found)
        found |= extensions
    return tuple(SubLotInfo(SubLot(lot, _endpoints(lot, t), t), t != whole, t in maximal)
                 for t in sorted(found, key=lambda t: (len(t), sorted(t))))


def parse_lot(text: str) -> LOT:
    return parse_lot_document(text).lot


@dataclass(frozen=True)
class LotDocument:
    lot: LOT
    sublots: Mapping[str, SubLot]


def parse_lot_document(text: str) -> LotDocument:
    """LOT text format: optional `vertices:` line; `edge <source> <target>
    <label>` lines; optional `sublot: <name> <v1> <v2> ...` lines naming
    vertex subsets for certification requests."""
    declared: list[str] = []
    edges: list[LotEdge] = []
    sublot_specs: list[tuple[str, list[str], int]] = []
    saw_vertices = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "vertices:":
            if saw_vertices:
                raise LotError("second vertices: line", code="SYNTAX", line=lineno)
            saw_vertices = True
            declared.extend(tokens[1:])
        elif head == "edge":
            if len(tokens) != 4:
                raise LotError("expected: edge <source> <target> <label>",
                               code="SYNTAX", line=lineno)
            edges.append(LotEdge(tokens[1], tokens[2], tokens[3]))
        elif head == "sublot:":
            if len(tokens) < 3:
                raise LotError("expected: sublot: <name> <v1> <v2> ...",
                               code="SYNTAX", line=lineno)
            sublot_specs.append((tokens[1], tokens[2:], lineno))
        else:
            raise LotError(f"unrecognized directive {head!r}", code="SYNTAX", line=lineno)
    vertices = list(declared)
    for e in edges:
        for v in (e.source, e.target):
            if v not in vertices:
                vertices.append(v)
    lot = LOT(tuple(vertices), tuple(edges))
    sublots = {}
    for name, vs, lineno in sublot_specs:
        if name in sublots:
            raise LotError(f"duplicate sublot name {name!r}", code="SYNTAX", line=lineno)
        try:
            sublots[name] = make_sublot(lot, vs)
        except LotError as exc:
            raise LotError(f"sublot {name!r}: {exc}", code=exc.code, line=lineno) from exc
    return LotDocument(lot, sublots)


def serialize_lot(lot: LOT) -> str:
    lines = ["vertices: " + " ".join(lot.vertices)]
    for e in lot.edges:
        lines.append(f"edge {e.source} {e.target} {e.label}")
    return "\n".join(lines) + "\n"


def lot_presentation(lot: LOT) -> Presentation:
    relators = []
    for e in lot.edges:
        relators.append((Letter(e.source, 1), Letter(e.label, 1),
                         Letter(e.target, -1), Letter(e.label, -1)))
    return Presentation(lot.vertices, tuple(relators))


@dataclass(frozen=True)
class LotProperties:
    compressed: bool  # each edge: source, target, label pairwise distinct
    injective: bool   # edge labels pairwise distinct


def lot_properties(lot: LOT) -> LotProperties:
    compressed = all(len({e.source, e.target, e.label}) == 3 for e in lot.edges)
    labels = [e.label for e in lot.edges]
    return LotProperties(compressed, len(set(labels)) == len(labels))


def collapse(lot: LOT, t: SubLot, y: str) -> LOT:
    """Collapse the sub-LOT to a single vertex y: its edges disappear and
    every occurrence of its vertices (endpoint or label) becomes y."""
    if t.parent != lot:
        raise LotError("sub-LOT does not belong to this LOT", code="BAD_SUBLOT")
    _validate_sublot(lot, t.vertex_subset, t.edge_indices)
    if y in lot.vertex_set - t.vertex_subset:
        raise LotError(f"collapse vertex {y!r} collides with a remaining vertex",
                       code="NAME_COLLISION")
    vertices: list[str] = []
    placed = False
    for v in lot.vertices:
        if v in t.vertex_subset:
            if not placed:
                vertices.append(y)
                placed = True
        else:
            vertices.append(v)
    sub = t.vertex_subset

    def image(v: str) -> str:
        return y if v in sub else v

    edges = tuple(LotEdge(image(e.source), image(e.target), image(e.label))
                  for i, e in enumerate(lot.edges) if i not in t.edge_indices)
    return LOT(tuple(vertices), edges)


def reorient_positive_tree(lot: LOT) -> LOT:
    """Find a reorientation whose presentation has a positive Whitehead
    graph that is a forest.

    Flipping an edge swaps its endpoints and keeps the label.  Each oriented
    edge contributes the positive-graph edge {label+, source+}, or a loop
    when label == source, so the search is a backtracking orientation
    assignment with a union-find cycle/loop prune.  The final candidate is
    double-checked on the genuine Whitehead graph of its presentation.
    """
    if len(lot.edges) == 0:
        return lot
    if 1 << len(lot.edges) > MAX_REORIENT_CANDIDATES:
        raise LotError("reorientation search space exceeds the configured limit",
                       code="SEARCH_EXHAUSTED")
    order = list(range(len(lot.edges)))
    chosen: list[bool] = []  # True = flipped

    def positive_edge(e: LotEdge, flipped: bool) -> tuple[str, str] | None:
        source = e.target if flipped else e.source
        if e.label == source:
            return None  # loop in the positive graph
        return (e.label, source)

    def find(parent_map: dict[str, str], v: str) -> str:
        # no path compression: unions must be undoable on backtrack
        while parent_map[v] != v:
            v = parent_map[v]
        return v

    def backtrack(k: int, parent_map: dict[str, str]) -> bool:
        if k == len(order):
            return True
        e = lot.edges[order[k]]
        for flipped in (False, True):
            pe = positive_edge(e, flipped)
            if pe is None:
                continue
            u, v = pe
            ru, rv = find(parent_map, u), find(parent_map, v)
            if ru == rv:
                continue  # would close a cycle
            parent_map[ru] = rv
            chosen.append(flipped)
            if backtrack(k + 1, parent_map):
                return True
            chosen.pop()
            parent_map[ru] = ru
        return False

    parents = {v: v for v in lot.vertices}
    if not backtrack(0, parents):
        raise LotError("no reorientation with a forest positive graph was found",
                       code="SEARCH_EXHAUSTED")
    edges = []
    for i, e in enumerate(lot.edges):
        if chosen[i]:
            edges.append(LotEdge(e.target, e.source, e.label))
        else:
            edges.append(e)
    candidate = LOT(lot.vertices, tuple(edges))
    graph = build_whitehead(lot_presentation(candidate))
    if not is_forest(GraphView(graph, POSITIVE)).forest:
        raise LotError("reorientation search accepted a non-forest candidate",
                       code="SEARCH_EXHAUSTED")
    return candidate


def _fresh_vertex(lot: LOT) -> str:
    if "y" not in lot.vertex_set:
        return "y"
    k = 0
    while f"y{k}" in lot.vertex_set:
        k += 1
    return f"y{k}"


def certify_lot(lot: LOT, t: SubLot) -> Certificate:
    """Collapse-transfer certificate: collapse the maximal proper sub-LOT to
    a vertex y, certify the collapsed LOT directed away from {y} (forest
    test on the positive or negative graph, or reduced girth >= 4), and
    transfer the conclusion back: the full presentation is directed away
    from the sub-LOT's vertex set.

    The certificate carries no consequences; `derive_consequences` adds
    them, asphericity included when the sub-LOT's own presentation passes
    the reducibility ladder.
    """
    digest = presentation_digest(lot_presentation(lot))
    s = tuple(sorted(t.vertex_subset))

    def failure(reason: str, **extra) -> Certificate:
        evidence = {"failed_hypothesis": reason}
        evidence.update(extra)
        return Certificate(digest, s, UNKNOWN, "lot_collapse", evidence=evidence)

    if t.parent != lot:
        raise LotError("sub-LOT does not belong to this LOT", code="BAD_SUBLOT")
    _validate_sublot(lot, t.vertex_subset, t.edge_indices)
    if not lot_properties(lot).compressed:
        return failure("the LOT is not compressed")
    whole = frozenset(range(len(lot.edges)))
    if t.edge_indices == whole:
        return failure("the sub-LOT is not proper")
    if any(label_closure(lot, t.edge_indices | {i}) != whole for i in whole - t.edge_indices):
        enclosing = [sorted(i.sublot.vertex_subset) for i in sub_lots(lot)
                     if i.maximal_proper and t.edge_indices < i.sublot.edge_indices]
        return failure("the sub-LOT is not maximal among proper sub-LOTs",
                       enclosing_maximal=enclosing)

    y = _fresh_vertex(lot)
    collapsed = collapse(lot, t, y)
    if not lot_properties(collapsed).compressed:
        return failure("the collapsed LOT is not compressed",
                       collapsed=serialize_lot(collapsed))
    graph = build_whitehead(lot_presentation(collapsed))
    forest_pos = is_forest(GraphView(graph, POSITIVE))
    forest_neg = is_forest(GraphView(graph, NEGATIVE))
    girth = reduced_girth(graph)
    evidence = {
        "collapsed": serialize_lot(collapsed),
        "collapse_vertex": y,
        "positive_graph_forest": forest_pos.forest,
        "negative_graph_forest": forest_neg.forest,
        "reduced_girth": girth,
    }
    if forest_pos.forest or forest_neg.forest:
        evidence["test"] = "forest"
        evidence["side"] = POSITIVE if forest_pos.forest else NEGATIVE
    elif girth is None or girth >= 4:
        evidence["test"] = "girth"
    else:
        return failure("collapsed LOT fails both the forest test and the girth bound",
                       **evidence)

    return Certificate(digest, s, CERTIFIED_DR_AWAY_FROM, "lot_collapse", evidence=evidence,
                       notes=("transfer: collapsing the sub-LOT to a single vertex induces "
                              "a homomorphism of presentations; reducibility directed away "
                              "from the collapse vertex pulls back to the sub-LOT's vertex "
                              "set.",))

