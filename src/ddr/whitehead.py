"""Whitehead (star) graphs and their cycle tests.

The graph is the boundary of a regular neighborhood of the unique vertex of
the presentation complex: one vertex x+ near the start and one vertex x-
near the end of each generator edge, and one edge per relator corner.  It is
a genuine multigraph; parallel corner edges stay distinct because tests
weight corners individually.

Reduced cycles are closed dart walks that never follow a dart immediately by
its own reverse, including across the wrap-around.  Traversing two distinct
parallel edges back and forth is reduced.

Every weighted cycle question goes through one sweep: a Dijkstra from a
start dart in integer weights (the weights scaled by the LCM of their
denominators), pruned at a bound, returning that dart's cheapest closing
walk.  `reduced_cycles_below` bounds each sweep by a threshold and yields
one cycle per start dart; `min_weight_reduced_cycle` bounds each by the best
cycle so far; `reduced_girth` is the minimum under unit weights.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from typing import Iterator, Mapping, Optional

from .core import DdrError, Letter, Presentation, UnionFind

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

    @cached_property
    def darts_from(self) -> Mapping[WVertex, tuple[int, ...]]:
        out: dict[WVertex, list[int]] = {v: [] for v in self.vertices}
        for d in range(self.dart_count):
            out[self.tail(d)].append(d)
        return {v: tuple(ds) for v, ds in out.items()}

    # Dart tables for the cycle sweeps: the vertex index of each dart's tail
    # (its reverse's is its head's), and the darts that may follow each dart
    # in a reduced walk.
    @cached_property
    def tail_index(self) -> tuple[int, ...]:
        index = {v: i for i, v in enumerate(self.vertices)}
        return tuple(index[self.tail(d)] for d in range(self.dart_count))

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(n for n in self.darts_from[self.head(d)] if n != d ^ 1)
                     for d in range(self.dart_count))

    @cached_property
    def relator_edges(self) -> Mapping[int, tuple[int, ...]]:
        """Edge ids per relator index, in corner order."""
        out: dict[int, list[int]] = {}
        for e in self.edges:
            out.setdefault(e.relator_index, []).append(e.id)
        return {r: tuple(ids) for r, ids in out.items()}


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
            raise DdrError(f"relator {r_idx} is empty", code="EMPTY_RELATOR")
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

    def edge_ids(self) -> tuple[int, ...]:
        if self.mode == FULL:
            return tuple(e.id for e in self.parent.edges)
        want = 1 if self.mode == POSITIVE else -1
        return tuple(e.id for e in self.parent.edges if e.a.sign == want == e.b.sign)


@dataclass(frozen=True)
class ForestReport:
    forest: bool


def is_forest(view: GraphView) -> ForestReport:
    """Multigraph forest test; a parallel pair counts as a length-2 cycle,
    a loop as a length-1 cycle.  A union-find meets the edges in order; the
    first whose ends are already joined closes a cycle."""
    edges = view.parent.edges
    classes = UnionFind()
    return ForestReport(all(classes.union(edges[eid].a, edges[eid].b)
                            for eid in view.edge_ids()))


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


def _scaled(values: list[Fraction]) -> tuple[list[int], int]:
    """The values over their least common denominator: (numerators, scale)."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _cheapest_cycle_from(graph: WhiteheadGraph, wt: list[int], start: int,
                         bound) -> Optional[tuple[int, tuple[int, ...]]]:
    """The cheapest reduced closed dart walk that starts with `start` and
    uses no dart below it, if it costs less than `bound`: (cost, darts).

    The sweep is a Dijkstra over the dart-transition graph (arcs d -> d'
    with head(d) = tail(d') and d' != reverse(d)) in integer weights.  No
    label at or above the bound is ever stored, and the sweep stops once
    every dart as cheap as the first closing dart is settled; ties go to the
    lowest closing dart.
    """
    succ, tail = graph.successors, graph.tail_index
    cost = wt[start >> 1]
    if cost >= bound:
        return None
    home, no_close = tail[start], start ^ 1
    dist = {start: cost}
    parent = {start: -1}
    heap = [(cost, start)]
    found = close = None
    while heap:
        cost, dart = heapq.heappop(heap)
        if cost > dist[dart]:
            continue  # a stale label
        if found is not None and cost > found:
            break
        if tail[dart ^ 1] == home and dart != no_close and (found is None or dart < close):
            found, close, bound = cost, dart, cost + 1
        for nxt in succ[dart]:
            if nxt < start:
                continue
            cand = cost + wt[nxt >> 1]
            if cand < dist.get(nxt, bound):
                dist[nxt] = cand
                parent[nxt] = dart
                heapq.heappush(heap, (cand, nxt))
    if found is None:
        return None
    cycle = []
    while close != -1:
        cycle.append(close)
        close = parent[close]
    return found, tuple(reversed(cycle))


def reduced_cycles_below(graph: WhiteheadGraph, weights: Mapping[int, Fraction] | None,
                         threshold: Fraction | int) -> Iterator[CycleReport]:
    """Per start dart, in increasing order, the cheapest reduced closed walk
    through it over darts >= it, when that walk weighs less than the
    threshold.  Yields something iff some reduced cycle weighs less than the
    threshold; every yielded walk repeats no dart."""
    scaled, scale = _scaled([*_edge_weights(graph, weights), Fraction(threshold)])
    wt, bound = scaled[:-1], scaled[-1]
    for start in range(graph.dart_count):
        found = _cheapest_cycle_from(graph, wt, start, bound)
        if found is not None:
            yield CycleReport(Fraction(found[0], scale), found[1])


def min_weight_reduced_cycle(graph: WhiteheadGraph,
                             weights: Mapping[int, Fraction] | None = None) -> CycleReport:
    """Minimum edge-weight sum over all reduced closed dart walks.

    weights=None means unit weights, so the result is the reduced girth.
    Any minimal reduced closed walk repeats no dart (a repeat splits the walk
    into two shorter reduced closed walks), so one sweep per start dart,
    restricted to darts >= start, finds each cycle from its lowest dart.
    Each sweep is bounded by the best cycle so far, so ties resolve to the
    lowest start, then to the lowest closing dart.
    """
    wt, scale = _scaled(_edge_weights(graph, weights))
    best = None
    for start in range(graph.dart_count):
        found = _cheapest_cycle_from(graph, wt, start, inf if best is None else best[0])
        if found is not None:
            best = found
    if best is None:
        return CycleReport(None, None)
    return CycleReport(Fraction(best[0], scale), best[1])


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
    last = walk[-1]
    if len(walk) == target:
        first = walk[0]
        if graph.tail_index[last ^ 1] == graph.tail_index[first] and first != last ^ 1:
            return tuple(walk)
        return None
    for nxt in graph.successors[last]:
        walk.append(nxt)
        found = _closed_walk_dfs(graph, walk, target)
        if found is not None:
            return found
        walk.pop()
    return None
