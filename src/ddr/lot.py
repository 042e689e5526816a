"""Labeled oriented trees: parsing, presentations, maximal proper
sub-LOTs, collapse, reorientation by leaf peeling, and the collapse-transfer
certificate.

A LOT is a tree with oriented edges labeled by vertices.  Each edge
(source u1, target u2, label u3) contributes the relator u1 u3 u2^-1 u3^-1,
so every relator has length four and exponent sum zero.

A sub-LOT is a connected, label-closed subtree.  The maximal proper ones
(`LOT.maximal_sublots`) come from one fixpoint per leaf edge, never from the
sub-LOT lattice; `sub_lots` and `label_closure` list the lattice and serve
as test oracles only.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .certificates import CERTIFIED_DR_AWAY_FROM, UNKNOWN, Certificate
from .core import _NAME_RE, DdrError, Letter, Presentation, UnionFind, _significant_lines
# search_weights is unused here; bench/test_harness.py checks its tracer rebinds it
from .weights import search_weights
from .whitehead import NEGATIVE, POSITIVE, GraphView, is_forest, reduced_girth


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
                raise DdrError(f"invalid vertex name {v!r}", code="BAD_NAME")
            if v in seen:
                raise DdrError(f"duplicate vertex {v!r}", code="DUPLICATE_VERTEX")
            seen.add(v)
        for e in self.edges:
            for v in (e.source, e.target):
                if v not in seen:
                    raise DdrError(f"edge endpoint {v!r} is not a vertex", code="NOT_A_TREE")
            if e.label not in seen:
                raise DdrError(f"edge label {e.label!r} is not a vertex",
                               code="LABEL_NOT_A_VERTEX")
            if e.source == e.target:
                raise DdrError("self-loop edge", code="NOT_A_TREE")
        # no vertices means no edges, so the length test fails first
        if len(self.edges) != len(self.vertices) - 1 or \
                _reach(self.edges, self.vertices[0], None) != self.vertex_set:
            raise DdrError("underlying graph is not a tree", code="NOT_A_TREE")

    @cached_property
    def presentation(self) -> Presentation:
        """One relator u1 u3 u2^-1 u3^-1 per edge, in edge order; kept with
        the LOT, so a command builds it, its digest and its graph once."""
        return Presentation(self.vertices, tuple(
            (Letter(e.source, 1), Letter(e.label, 1), Letter(e.target, -1), Letter(e.label, -1))
            for e in self.edges))

    @cached_property
    def source_sides(self) -> tuple[frozenset[str], ...]:
        """Per edge, the vertices left on its source's side when it is cut."""
        return tuple(_reach(self.edges, e.source, i) for i, e in enumerate(self.edges))

    @cached_property
    def maximal_sublots(self) -> tuple[SubLot, ...]:
        """The maximal proper sub-LOTs, sorted by size then edges.

        A proper sub-LOT misses some leaf edge l, since a subtree holding
        every leaf edge is the whole tree.  So it lies in one of the
        components that `_largest_sublots` finds in "every edge but l", and
        each such component is a proper sub-LOT.  A maximal proper sub-LOT
        therefore is a component, and a component is maximal exactly when
        it lies strictly inside no other component.  The list is kept with
        the LOT, so a command's targets and every `certify_lot` call share
        one computation.
        """
        degree = Counter(v for e in self.edges for v in (e.source, e.target))
        found = set()
        for leaf, e in enumerate(self.edges):
            if degree[e.source] == 1 or degree[e.target] == 1:
                found.update(_largest_sublots(
                    self, [i for i in range(len(self.edges)) if i != leaf]))
        maximal = sorted((t for t in found if not any(t < other for other in found)),
                         key=lambda t: (len(t), sorted(t)))
        return tuple(SubLot(self, _endpoints(self, t), t) for t in maximal)

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class SubLot:
    """A connected, label-closed subtree of `parent` with at least one edge,
    identified by its vertex set (the edges are the induced ones), checked
    when made; k edges of a tree are connected iff they span k + 1 vertices."""

    parent: LOT
    vertex_subset: frozenset[str]
    edge_indices: frozenset[int]

    def __post_init__(self):
        vs, edge_idx = self.vertex_subset, self.edge_indices
        if not edge_idx:
            raise DdrError("a sub-LOT needs at least one edge", code="BAD_SUBLOT")
        if not edge_idx <= set(range(len(self.parent.edges))):
            raise DdrError(f"sub-LOT edges {sorted(edge_idx)} not in the LOT", code="BAD_SUBLOT")
        if _endpoints(self.parent, edge_idx) != vs:
            raise DdrError("sub-LOT vertex set does not match its edges (disconnected vertex?)",
                           code="BAD_SUBLOT")
        outside = sorted({self.parent.edges[i].label for i in edge_idx} - vs)
        if outside:
            raise DdrError(f"sub-LOT is not label-closed: label {outside[0]!r} outside",
                           code="BAD_SUBLOT")
        if len(vs) != len(edge_idx) + 1:
            raise DdrError("sub-LOT is not connected", code="BAD_SUBLOT")


def make_sublot(lot: LOT, vertices) -> SubLot:
    vs = frozenset(vertices)
    unknown = vs - lot.vertex_set
    if unknown:
        raise DdrError(f"sub-LOT vertices {sorted(unknown)} not in the LOT", code="BAD_SUBLOT")
    return SubLot(lot, vs, frozenset(i for i, e in enumerate(lot.edges)
                                     if e.source in vs and e.target in vs))


def _reach(edges: tuple[LotEdge, ...], start: str, cut: int | None) -> frozenset[str]:
    """The vertices joined to `start` by the edges, edges[cut] left out."""
    classes = UnionFind()
    for i, e in enumerate(edges):
        if i != cut:
            classes.union(e.source, e.target)
    find = classes.find
    root = find(start)  # its class: the root and the joined items under it
    return frozenset([root, *(v for v in classes.parent if find(v) == root)])


def _largest_sublots(lot: LOT, edge_idx: list[int]) -> list[frozenset[int]]:
    """The largest sub-LOTs made of the given edges.

    Join the edges' endpoints in a union-find, drop every edge whose label
    is not in its own component, and repeat until nothing is dropped.  A
    sub-LOT inside the edges is connected and carries its labels, so none
    of its edges is ever dropped; each remaining component is connected and
    label-closed.  So the components are exactly the largest sub-LOTs.
    """
    edges = lot.edges
    while True:
        classes = UnionFind()
        for i in edge_idx:
            classes.union(edges[i].source, edges[i].target)
        find = classes.find
        kept = [i for i in edge_idx if find(edges[i].label) == find(edges[i].source)]
        if len(kept) == len(edge_idx):
            break
        edge_idx = kept
    components = defaultdict(set)
    for i in edge_idx:
        components[find(edges[i].source)].add(i)
    return [frozenset(c) for c in components.values()]


def _endpoints(lot: LOT, edge_idx) -> frozenset[str]:
    return frozenset(v for i in edge_idx for v in (lot.edges[i].source, lot.edges[i].target))


def label_closure(lot: LOT, edges) -> frozenset[int]:
    """The smallest sub-LOT containing `edges` (empty for no edges): take
    their endpoints and labels, add every edge whose cut separates two of
    those vertices, and repeat until nothing changes.  A sub-LOT is exactly
    a nonempty edge set equal to its own closure.  A test oracle: nothing
    in `ddr` calls it but `sub_lots`."""
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
    have exponentially many, so it is a test oracle for
    `LOT.maximal_sublots`."""
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


@dataclass(frozen=True)
class LotDocument:
    lot: LOT
    sublots: Mapping[str, SubLot]


def parse_lot_document(text: str) -> LotDocument:
    """LOT text format: optional `vertices:` line; `edge <source> <target>
    <label>` lines; optional `sublot: <name> <v1> <v2> ...` lines naming
    vertex subsets for certification requests.  Lines are read as in a
    presentation file; a fault found on a line names it and a column."""
    declared: list[str] = []
    edges: list[LotEdge] = []
    sublot_specs: list[tuple[str, list[str], int, int]] = []
    saw_vertices = False
    for lineno, tokens in _significant_lines(text):
        head, _, col = tokens[0]
        names = [name for name, _, _ in tokens[1:]]
        if head == "vertices:":
            if saw_vertices:
                raise DdrError("second vertices: line", code="SYNTAX", line=lineno, column=col)
            saw_vertices = True
            declared.extend(names)
        elif head == "edge":
            if len(names) != 3:
                raise DdrError("expected: edge <source> <target> <label>",
                               code="SYNTAX", line=lineno, column=col)
            edges.append(LotEdge(*names))
        elif head == "sublot:":
            if len(names) < 2:
                raise DdrError("expected: sublot: <name> <v1> <v2> ...",
                               code="SYNTAX", line=lineno, column=col)
            sublot_specs.append((names[0], names[1:], lineno, tokens[1][2]))
        else:
            raise DdrError(f"unrecognized directive {head!r}", code="SYNTAX",
                           line=lineno, column=col)
    known = set(declared)  # declared vertices first, then new endpoints in order
    try:
        lot = LOT(tuple(declared) + tuple(dict.fromkeys(
            v for e in edges for v in (e.source, e.target) if v not in known)), tuple(edges))
    except DdrError as exc:
        line, column = _lot_fault_at(text)
        raise DdrError(str(exc), code=exc.code, line=line, column=column) from exc
    sublots = {}
    for name, vs, lineno, col in sublot_specs:
        if name in sublots:
            raise DdrError(f"duplicate sublot name {name!r}", code="SYNTAX",
                           line=lineno, column=col)
        try:
            sublots[name] = make_sublot(lot, vs)
        except DdrError as exc:
            raise DdrError(f"sublot {name!r}: {exc}", code=exc.code,
                           line=lineno, column=col) from exc
    return LotDocument(lot, sublots)


def _lot_fault_at(text: str) -> tuple[int | None, int | None]:
    """The line and column of the first fault `LOT` finds in a LOT file, in
    its order: each declared vertex's name and repetition, each endpoint's
    name, each edge's label and ends.  (None, None) for a cycle or a forest."""
    rows = [tokens for _, tokens in _significant_lines(text)]
    declared = next((row[1:] for row in rows if row[0][0] == "vertices:"), [])
    edges = [row for row in rows if row[0][0] == "edge"]
    seen = set()
    for k, (name, line, col) in enumerate(declared + [end for row in edges for end in row[1:3]]):
        if not _NAME_RE.match(name) or (k < len(declared) and name in seen):
            return line, col
        seen.add(name)
    for head, source, target, label in edges:
        if label[0] not in seen:
            return label[1:]
        if source[0] == target[0]:
            return head[1:]
    return None, None


def serialize_lot(lot: LOT) -> str:
    lines = ["vertices: " + " ".join(lot.vertices)]
    for e in lot.edges:
        lines.append(f"edge {e.source} {e.target} {e.label}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LotProperties:
    compressed: bool  # each edge: source, target, label pairwise distinct
    injective: bool   # edge labels pairwise distinct


def lot_properties(lot: LOT) -> LotProperties:
    compressed = all(len({e.source, e.target, e.label}) == 3 for e in lot.edges)
    labels = [e.label for e in lot.edges]
    return LotProperties(compressed, len(set(labels)) == len(labels))


def collapse(t: SubLot, y: str) -> LOT:
    """Collapse the sub-LOT to a single vertex y in its LOT: its edges
    disappear and every occurrence of its vertices (endpoint or label)
    becomes y."""
    lot = t.parent
    if y in lot.vertex_set - t.vertex_subset:
        raise DdrError(f"collapse vertex {y!r} collides with a remaining vertex",
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
    """A reorientation whose presentation has a positive Whitehead graph
    that is a forest; one always exists.

    Flipping an edge swaps its endpoints and keeps the label.  Each oriented
    edge contributes the positive-graph edge {label+, source+}, or a loop
    when label == source, so an orientation works when a union-find over
    those edges never joins two vertices already joined.  The identity
    orientation is kept when it works.
    Otherwise the tree is peeled leaf by leaf: the leaf l on edge (l, p)
    becomes the source unless the label's class already holds l, and then p
    does.  Each class keeps exactly one unpeeled vertex, so the chosen edge
    never closes a cycle.  The result is re-checked on the genuine Whitehead
    graph of its presentation.
    """
    classes = UnionFind()
    sources = [e.source for e in lot.edges]
    if not all(classes.union(e.label, e.source) for e in lot.edges):
        classes = UnionFind()
        incident: dict[str, set[int]] = {v: set() for v in lot.vertices}
        for i, e in enumerate(lot.edges):
            incident[e.source].add(i)
            incident[e.target].add(i)
        leaves = [v for v, ids in incident.items() if len(ids) == 1]
        for _ in lot.edges:
            leaf = leaves.pop()
            i = incident[leaf].pop()
            e = lot.edges[i]
            other = e.target if e.source == leaf else e.source
            incident[other].remove(i)
            if len(incident[other]) == 1:
                leaves.append(other)
            sources[i] = other if classes.find(e.label) == classes.find(leaf) else leaf
            classes.union(e.label, sources[i])
    candidate = LOT(lot.vertices, tuple(
        e if s == e.source else LotEdge(e.target, e.source, e.label)
        for e, s in zip(lot.edges, sources)))
    if not is_forest(GraphView(candidate.presentation.whitehead, POSITIVE)).forest:
        raise AssertionError("leaf peeling produced a positive graph with a cycle")
    return candidate


def _fresh_vertex(lot: LOT) -> str:
    if "y" not in lot.vertex_set:
        return "y"
    k = 0
    while f"y{k}" in lot.vertex_set:
        k += 1
    return f"y{k}"


def certify_lot(t: SubLot) -> Certificate:
    """Collapse-transfer certificate: collapse the maximal proper sub-LOT to
    a vertex y, certify the collapsed LOT directed away from {y} (forest
    test on the positive or negative graph, or reduced girth >= 4), and
    transfer the conclusion back: the full presentation is directed away
    from the sub-LOT's vertex set.

    The certificate carries no consequences; `derive_consequences` adds
    them, asphericity included when the sub-LOT's own presentation passes
    the reducibility ladder.
    """
    lot = t.parent
    digest, s = lot.presentation.digest, tuple(sorted(t.vertex_subset))

    def failure(reason: str, **extra) -> Certificate:
        return Certificate(digest, s, UNKNOWN, "lot_collapse",
                           evidence={"failed_hypothesis": reason, **extra})

    if not lot_properties(lot).compressed:
        return failure("the LOT is not compressed")
    if len(t.edge_indices) == len(lot.edges):
        return failure("the sub-LOT is not proper")
    if all(m.edge_indices != t.edge_indices for m in lot.maximal_sublots):
        enclosing = [sorted(m.vertex_subset) for m in lot.maximal_sublots
                     if t.edge_indices < m.edge_indices]
        return failure("the sub-LOT is not maximal among proper sub-LOTs",
                       enclosing_maximal=enclosing)

    y = _fresh_vertex(lot)
    collapsed = collapse(t, y)
    if not lot_properties(collapsed).compressed:
        return failure("the collapsed LOT is not compressed",
                       collapsed=serialize_lot(collapsed))
    graph = collapsed.presentation.whitehead
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

