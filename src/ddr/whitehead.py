"""Whitehead (star) graphs and their cycle tests.

The graph is the boundary of a regular neighborhood of the unique vertex of
the presentation complex: one vertex x+ near the start and one vertex x-
near the end of each generator edge, and one edge per relator corner.  It is
a genuine multigraph; parallel corner edges stay distinct because tests
weight corners individually.

Reduced cycles are closed dart walks that never follow a dart immediately by
its own reverse, including across the wrap-around.  Traversing two distinct
parallel edges back and forth is reduced.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from .core import Letter, Presentation, PresentationError

FULL = "full"
POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True, slots=True)
class WVertex:
    gen: str
    sign: int  # +1 for the x+ vertex, -1 for x-

    def __str__(self) -> str:
        return f"{self.gen}{'+' if self.sign > 0 else '-'}"


def _after(letter: Letter) -> WVertex:
    # vertex met when arriving along the letter: reading x lands near x's end
    return WVertex(letter.gen, -letter.sign)


def _before(letter: Letter) -> WVertex:
    # vertex met when departing along the letter
    return WVertex(letter.gen, letter.sign)


@dataclass(frozen=True, slots=True)
class CornerEdge:
    id: int
    relator_index: int
    corner_position: int
    a: WVertex
    b: WVertex

    @property
    def is_loop(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True)
class WhiteheadGraph:
    vertices: tuple[WVertex, ...]
    edges: tuple[CornerEdge, ...]

    # Darts: edge e yields dart 2e (a -> b) and dart 2e+1 (b -> a).
    @property
    def dart_count(self) -> int:
        return 2 * len(self.edges)

    def tail(self, dart: int) -> WVertex:
        e = self.edges[dart // 2]
        return e.a if dart % 2 == 0 else e.b

    def head(self, dart: int) -> WVertex:
        e = self.edges[dart // 2]
        return e.b if dart % 2 == 0 else e.a

    @staticmethod
    def reverse(dart: int) -> int:
        return dart ^ 1

    @cached_property
    def darts_from(self) -> Mapping[WVertex, tuple[int, ...]]:
        out: dict[WVertex, list[int]] = {v: [] for v in self.vertices}
        for d in range(self.dart_count):
            out[self.tail(d)].append(d)
        return {v: tuple(ds) for v, ds in out.items()}


def build_whitehead(p: Presentation) -> WhiteheadGraph:
    """One edge per corner: the consecutive letter pair (y_p, y_{p+1}),
    read cyclically, joins after(y_p) to before(y_{p+1})."""
    vertices = []
    for g in p.generators:
        vertices.append(WVertex(g, 1))
        vertices.append(WVertex(g, -1))
    edges: list[CornerEdge] = []
    for r_idx, rel in enumerate(p.relators):
        if not rel:
            raise PresentationError(f"relator {r_idx} is empty", code="EMPTY_RELATOR")
        n = len(rel)
        for pos in range(n):
            cur, nxt = rel[pos], rel[(pos + 1) % n]
            edges.append(CornerEdge(len(edges), r_idx, pos, _after(cur), _before(nxt)))
    return WhiteheadGraph(tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class GraphView:
    """A full subgraph of a Whitehead graph: FULL, or the POSITIVE/NEGATIVE
    subgraph on the plus/minus vertices.  An edge belongs to the view iff
    both endpoints do."""

    parent: WhiteheadGraph
    mode: str = FULL

    def __post_init__(self):
        if self.mode not in (FULL, POSITIVE, NEGATIVE):
            raise ValueError(f"unknown view mode {self.mode!r}")

    def vertex_set(self) -> frozenset[WVertex]:
        if self.mode == FULL:
            return frozenset(self.parent.vertices)
        want = 1 if self.mode == POSITIVE else -1
        return frozenset(v for v in self.parent.vertices if v.sign == want)

    def edge_ids(self) -> tuple[int, ...]:
        vs = self.vertex_set()
        return tuple(e.id for e in self.parent.edges if e.a in vs and e.b in vs)


@dataclass(frozen=True)
class ForestReport:
    forest: bool
    witness_cycle: Optional[tuple[int, ...]]  # edge ids forming one cycle


def is_forest(view: GraphView) -> ForestReport:
    """Multigraph forest test; a parallel pair counts as a length-2 cycle,
    a loop as a length-1 cycle."""
    graph = view.parent
    adj: dict[WVertex, list[tuple[WVertex, int]]] = {v: [] for v in view.vertex_set()}
    for eid in view.edge_ids():
        e = graph.edges[eid]
        if e.is_loop:
            return ForestReport(False, (eid,))
        if _would_cycle(adj, e.a, e.b):
            path = _tree_path(adj, e.a, e.b)
            return ForestReport(False, tuple(path + [eid]))
        adj[e.a].append((e.b, eid))
        adj[e.b].append((e.a, eid))
    return ForestReport(True, None)


def _would_cycle(adj, u, v) -> bool:
    seen = {u}
    stack = [u]
    while stack:
        cur = stack.pop()
        if cur == v:
            return True
        for nxt, _ in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _tree_path(adj, u, v) -> list[int]:
    # BFS through already-accepted edges; returns the edge id path u..v
    prev: dict[WVertex, tuple[WVertex, int]] = {u: (u, -1)}
    queue = [u]
    while queue:
        cur = queue.pop(0)
        if cur == v:
            break
        for nxt, eid in adj[cur]:
            if nxt not in prev:
                prev[nxt] = (cur, eid)
                queue.append(nxt)
    path = []
    cur = v
    while cur != u:
        cur, eid = prev[cur]
        path.append(eid)
    path.reverse()
    return path


@dataclass(frozen=True)
class CycleReport:
    """weight is None when no reduced cycle exists at all."""

    weight: Optional[Fraction]
    cycle: Optional[tuple[int, ...]]  # darts, in traversal order


def _edge_weights(graph: WhiteheadGraph,
                  weights: Mapping[int, Fraction] | None) -> list[Fraction]:
    if weights is None:
        return [Fraction(1)] * len(graph.edges)
    table = []
    for e in graph.edges:
        if e.id not in weights:
            raise ValueError(f"weight missing for edge {e.id}")
        w = Fraction(weights[e.id])
        if w < 0:
            raise ValueError(f"negative weight on edge {e.id}")
        table.append(w)
    return table


def min_weight_reduced_cycle(graph: WhiteheadGraph,
                             weights: Mapping[int, Fraction] | None = None) -> CycleReport:
    """Minimum edge-weight sum over all reduced closed dart walks.

    weights=None means unit weights, so the result is the reduced girth.
    Any minimal reduced closed walk repeats no dart (a repeat splits the walk
    into two shorter reduced closed walks), so the search runs over the
    dart-transition graph: arcs d -> d' with head(d) = tail(d') and
    d' != reverse(d).  One nonnegative-weight shortest-path sweep per start
    dart, restricted to darts with id >= start so each cycle is found from
    its lowest dart; ties resolve to the first (lowest) start.
    """
    wt = _edge_weights(graph, weights)
    best_weight: Optional[Fraction] = None
    best_cycle: Optional[tuple[int, ...]] = None
    n_darts = graph.dart_count
    for start in range(n_darts):
        dist: dict[int, Fraction] = {start: wt[start // 2]}
        parent: dict[int, int] = {start: -1}
        heap: list[tuple[Fraction, int]] = [(dist[start], start)]
        settled: set[int] = set()
        start_tail = graph.tail(start)
        while heap:
            d_cost, dart = heapq.heappop(heap)
            if dart in settled:
                continue
            settled.add(dart)
            if best_weight is not None and d_cost >= best_weight:
                # cannot improve: every extension only adds weight
                continue
            head = graph.head(dart)
            for nxt in graph.darts_from[head]:
                if nxt < start or nxt == graph.reverse(dart):
                    continue
                cand = d_cost + wt[nxt // 2]
                if nxt not in dist or cand < dist[nxt]:
                    dist[nxt] = cand
                    parent[nxt] = dart
                    heapq.heappush(heap, (cand, nxt))
        for dart in sorted(settled):
            if graph.head(dart) != start_tail:
                continue
            if start == graph.reverse(dart):
                continue
            total = dist[dart]
            if best_weight is None or total < best_weight:
                cycle = []
                cur = dart
                while cur != -1:
                    cycle.append(cur)
                    cur = parent[cur]
                cycle.reverse()
                best_weight, best_cycle = total, tuple(cycle)
    return CycleReport(best_weight, best_cycle)


def reduced_girth(graph: WhiteheadGraph) -> Optional[int]:
    report = min_weight_reduced_cycle(graph)
    return None if report.weight is None else int(report.weight)


def shortest_reduced_cycle_in_range(graph: WhiteheadGraph, min_len: int,
                                    max_len: int) -> Optional[tuple[int, ...]]:
    """First reduced closed dart walk with min_len <= length < max_len, in
    increasing length then lexicographic dart order; walks may repeat darts."""
    for target in range(min_len, max_len):
        for start in range(graph.dart_count):
            found = _closed_walk_dfs(graph, [start], target)
            if found is not None:
                return found
    return None


def _closed_walk_dfs(graph, walk: list[int], target: int) -> Optional[tuple[int, ...]]:
    if len(walk) == target:
        last, first = walk[-1], walk[0]
        if graph.head(last) == graph.tail(first) and first != graph.reverse(last):
            return tuple(walk)
        return None
    last = walk[-1]
    for nxt in graph.darts_from[graph.head(last)]:
        if nxt == graph.reverse(last):
            continue
        walk.append(nxt)
        found = _closed_walk_dfs(graph, walk, target)
        if found is not None:
            return found
        walk.pop()
    return None


def dump_graph(graph: WhiteheadGraph) -> str:
    lines = []
    for e in graph.edges:
        lines.append(f"edge {e.id} rel={e.relator_index} pos={e.corner_position} "
                     f"{e.a} -- {e.b}")
    return "\n".join(lines) + ("\n" if lines else "")
