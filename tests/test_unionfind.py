"""The union-find of `ddr.core` and the connectivity answers built on it,
against networkx connected components."""

import random

import pytest

from conftest import random_lot, random_presentation
from ddr.core import DdrError, UnionFind
from ddr.diagram import (BoundaryStep, DiagramEdge, DiagramFace,
                         SurfaceDiagram, matched_surface, validate_diagram)

nx = pytest.importorskip("networkx")


def random_multigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Up to 30 vertices, some isolated, with loops and parallel edges."""
    n = rng.randint(1, 30)
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        a = rng.randrange(n)
        roll = rng.random()
        if roll < 0.1:
            edges.append((a, a))  # a loop
        elif roll < 0.2 and edges:
            edges.append(rng.choice(edges))  # a parallel edge
        else:
            edges.append((a, rng.randrange(n)))
    return n, edges


class TestUnionFind:
    def test_classes_are_connected_components(self):
        rng = random.Random(1975)
        for _ in range(300):
            n, edges = random_multigraph(rng)
            classes = UnionFind()
            graph = nx.MultiGraph()
            graph.add_nodes_from(range(n))
            for a, b in edges:
                # a join succeeds exactly when no path joined a and b before
                assert classes.union(a, b) == (not nx.has_path(graph, a, b))
                graph.add_edge(a, b)
            by_root: dict = {}
            for v in range(n):
                by_root.setdefault(classes.find(v), set()).add(v)
            assert sorted(map(sorted, by_root.values())) == \
                sorted(map(sorted, nx.connected_components(graph)))

    def test_unseen_items_are_their_own_roots(self):
        classes = UnionFind()
        assert classes.find(("f", 1)) == ("f", 1)
        assert classes.union("a", "a") is False
        assert classes.parent == {}


def test_source_sides_are_cut_components():
    rng = random.Random(60)
    for _ in range(300):
        lot = random_lot(rng, max_vertices=60)
        tree = nx.Graph()
        tree.add_nodes_from(lot.vertices)
        tree.add_edges_from((e.source, e.target) for e in lot.edges)
        for i, e in enumerate(lot.edges):
            tree.remove_edge(e.source, e.target)
            assert lot.source_sides[i] == nx.node_connected_component(tree, e.source)
            tree.add_edge(e.source, e.target)


def _disjoint_union(parts: list[SurfaceDiagram], isolated: int) -> SurfaceDiagram:
    """The diagrams side by side, renumbered, then `isolated` extra vertices."""
    edges, faces, vertices, ids = [], [], 0, 0
    for d in parts:
        renumber = {e.id: ids + k for k, e in enumerate(d.edges)}
        edges += [DiagramEdge(renumber[e.id], e.label, vertices + e.tail, vertices + e.head)
                  for e in d.edges]
        faces += [DiagramFace(f.relator_index, f.sign,
                              tuple(BoundaryStep(renumber[s.edge], s.direction)
                                    for s in f.boundary)) for f in d.faces]
        vertices += d.vertex_count
        ids += len(d.edges)
    return SurfaceDiagram(vertices + isolated, tuple(edges), tuple(faces))


def test_diagram_connected_agrees_with_networkx():
    rng = random.Random(1)
    checked, outcomes = 0, set()
    while checked < 150:
        p = random_presentation(rng, max_gens=3, max_rels=2, max_len=5)
        parts = []
        for _ in range(rng.randint(1, 3)):
            try:
                parts.append(matched_surface(p, rng.choice(p.generators)))
            except DdrError:
                pass  # a generator that occurs once or not at all
        if not parts:
            continue
        d = _disjoint_union(parts, rng.choice((0, 0, 1, 3)))
        report = validate_diagram(d, p)
        assert report.valid, report.errors
        graph = nx.MultiGraph()
        graph.add_nodes_from(range(d.vertex_count))
        graph.add_edges_from((e.tail, e.head) for e in d.edges)
        assert report.connected == nx.is_connected(graph)
        outcomes.add(report.connected)
        checked += 1
    assert outcomes == {True, False}
