import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation
from oracles import (brute_component_count, brute_min_cycle_ends, brute_min_reduced_cycle,
                     dump_graph)
from ddr.core import parse_presentation
from ddr.whitehead import (FULL, POSITIVE, CornerEdge, GraphView,
                           WhiteheadGraph, WVertex, build_whitehead, is_forest,
                           min_weight_reduced_cycle, reduced_cycles_below,
                           reduced_girth, shortest_reduced_cycle_in_range)


def V(gen, sign):
    return WVertex(gen, sign)


def synthetic_graph(vertex_names, pairs):
    """Build a corner multigraph directly from (vertex, vertex) pairs."""
    vertices = tuple(V(n, 1) for n in vertex_names)
    by_name = {n: v for n, v in zip(vertex_names, vertices)}
    edges = tuple(CornerEdge(i, 0, i, by_name[a], by_name[b])
                  for i, (a, b) in enumerate(pairs))
    return WhiteheadGraph(vertices, edges)


class TestBuild:
    def test_fx4_edges(self, fx4):
        g = build_whitehead(fx4)
        pairs = {frozenset((e.a, e.b)) for e in g.edges}
        assert pairs == {
            frozenset({V("a", -1), V("b", 1)}),
            frozenset({V("b", -1), V("a", -1)}),
            frozenset({V("a", 1), V("b", -1)}),
            frozenset({V("b", 1), V("a", 1)}),
        }

    def test_edge_count_is_total_relator_length(self, fx1, fx3, fx4):
        for p in (fx1, fx3, fx4):
            g = build_whitehead(p)
            assert len(g.edges) == sum(len(r) for r in p.relators)
        assert len(build_whitehead(fx1).edges) == 13

    def test_parallel_edges(self):
        p = parse_presentation("gens: a\nrel: a a")
        g = build_whitehead(p)
        assert len(g.edges) == 2
        assert all(frozenset((e.a, e.b)) == frozenset({V("a", 1), V("a", -1)})
                   for e in g.edges)

    def test_no_loops_when_cyclically_reduced(self, fx1, fx3, fx4):
        for p in (fx1, fx3, fx4):
            assert not any(e.a == e.b for e in build_whitehead(p).edges)

    def test_loop_for_unreduced_relator(self):
        p = parse_presentation("gens: a b\nrel: a b b^-1 a")
        g = build_whitehead(p)
        assert any(e.a == e.b for e in g.edges)

    def test_provenance_recorded(self, fx1):
        g = build_whitehead(fx1)
        assert [(e.relator_index, e.corner_position) for e in g.edges] == \
            [(i, p) for i, r in enumerate(fx1.relators) for p in range(len(r))]

    def test_dump_format(self, fx4):
        lines = dump_graph(build_whitehead(fx4)).splitlines()
        assert lines[0] == "edge 0 rel=0 pos=0 a- -- b+"


class TestForest:
    def test_fx4_positive_is_single_edge_forest(self, fx4):
        g = build_whitehead(fx4)
        view = GraphView(g, POSITIVE)
        assert view.edge_ids() == (3,)
        assert is_forest(view).forest

    def test_fx3_positive_is_four_cycle(self, fx3):
        g = build_whitehead(fx3)
        report = is_forest(GraphView(g, POSITIVE))
        assert not report.forest

    def test_empty_view(self):
        p = parse_presentation("gens: a\nrel: a a")
        report = is_forest(GraphView(build_whitehead(p), POSITIVE))
        assert report.forest

    def test_parallel_pair_is_cycle(self):
        g = synthetic_graph(["u", "v"], [("u", "v"), ("u", "v")])
        report = is_forest(GraphView(g, FULL))
        assert not report.forest

    def test_loop_is_cycle(self):
        g = synthetic_graph(["u"], [("u", "u")])
        report = is_forest(GraphView(g, FULL))
        assert not report.forest

    def test_forest_matches_component_count(self):
        rng = random.Random(5)
        for _ in range(200):
            names = [f"v{i}" for i in range(rng.randint(1, 5))]
            pairs = [(rng.choice(names), rng.choice(names))
                     for _ in range(rng.randint(0, 6))]
            g = synthetic_graph(names, pairs)
            view = GraphView(g, FULL)
            vs, es = set(g.vertices), view.edge_ids()
            components = brute_component_count(g, vs, es)
            assert is_forest(view).forest == (len(es) == len(vs) - components)


class TestMinCycle:
    def test_fx4_unit_girth_four(self, fx4):
        report = min_weight_reduced_cycle(build_whitehead(fx4))
        assert report.weight == 4
        assert len(report.cycle) == 4

    def test_two_parallel_edges(self):
        g = synthetic_graph(["u", "v"], [("u", "v"), ("u", "v")])
        report = min_weight_reduced_cycle(g)
        assert report.weight == 2

    def test_single_edge_no_cycle(self):
        g = synthetic_graph(["u", "v"], [("u", "v")])
        report = min_weight_reduced_cycle(g)
        assert report.weight is None and report.cycle is None

    def test_loop_is_one_cycle(self):
        g = synthetic_graph(["u"], [("u", "u")])
        assert min_weight_reduced_cycle(g).weight == 1

    def test_negative_weight_rejected(self, fx4):
        g = build_whitehead(fx4)
        with pytest.raises(ValueError):
            min_weight_reduced_cycle(g, {e.id: Fraction(-1) for e in g.edges})

    def test_weighted_cycle(self, fx4):
        g = build_whitehead(fx4)
        w = {e.id: Fraction(1, 2) for e in g.edges}
        assert min_weight_reduced_cycle(g, w).weight == 2

    def test_cycle_is_reduced_and_closed(self, fx3):
        g = build_whitehead(fx3)
        report = min_weight_reduced_cycle(g)
        cycle = report.cycle
        for i, dart in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            assert g.head(dart) == g.tail(nxt)
            assert nxt != dart ^ 1

    def test_matches_brute_force_on_fixtures(self, fx1, fx3, fx4):
        for p in (fx1, fx3, fx4):
            g = build_whitehead(p)
            if g.dart_count <= 12:
                expected, _ = brute_min_reduced_cycle(g)
                assert min_weight_reduced_cycle(g).weight == expected

    def test_monotone_in_weights(self):
        rng = random.Random(9)
        for _ in range(50):
            names = [f"v{i}" for i in range(rng.randint(1, 4))]
            pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(1, 5))]
            g = synthetic_graph(names, pairs)
            w = {e.id: Fraction(rng.randint(0, 4)) for e in g.edges}
            base = min_weight_reduced_cycle(g, w).weight
            if base is None:
                continue
            bumped = dict(w)
            bump_edge = rng.choice(list(w))
            bumped[bump_edge] += Fraction(rng.randint(1, 3))
            after = min_weight_reduced_cycle(g, bumped).weight
            assert after is not None and after >= base


small_fractions = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))


@st.composite
def weighted_multigraphs(draw, max_edges=7):
    """Up to four vertices and `max_edges` edges, loops and parallel edges
    allowed, each edge weighted by a small nonnegative fraction."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=max_edges))
    g = synthetic_graph(names, pairs)
    weights = {e.id: draw(small_fractions) for e in g.edges}
    return g, weights


def networkx_min_cycle(g, weights):
    """Lightest cycle by an independent route: per edge, its weight plus the
    shortest path between its ends with that edge removed; a loop alone."""
    nx = pytest.importorskip("networkx")
    multi = nx.MultiGraph()
    multi.add_nodes_from(g.vertices)
    for e in g.edges:
        multi.add_edge(e.a, e.b, key=e.id, weight=weights[e.id])
    best = None
    for e in g.edges:
        if e.a == e.b:
            total = weights[e.id]
        else:
            multi.remove_edge(e.a, e.b, key=e.id)
            try:
                total = weights[e.id] + nx.dijkstra_path_length(multi, e.a, e.b)
            except nx.NetworkXNoPath:
                total = None
            multi.add_edge(e.a, e.b, key=e.id, weight=weights[e.id])
        if total is not None and (best is None or total < best):
            best = total
    return best


class TestCyclesBelow:
    @settings(max_examples=300, deadline=None)
    @given(weighted_multigraphs(), small_fractions)
    def test_agrees_with_brute_force_and_networkx(self, drawn, threshold):
        g, weights = drawn
        expected, _ = brute_min_reduced_cycle(g, weights)
        assert networkx_min_cycle(g, weights) == expected
        assert min_weight_reduced_cycle(g, weights).weight == expected
        found = list(reduced_cycles_below(g, weights, threshold))
        assert bool(found) == (expected is not None and expected < threshold)
        for report in found:
            cycle = report.cycle
            for i, dart in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert g.head(dart) == g.tail(nxt) and nxt != dart ^ 1
            assert report.weight == sum(weights[d // 2] for d in cycle)
            assert report.weight < threshold
        if expected is not None:
            assert next(reduced_cycles_below(g, weights, expected), None) is None

    @settings(max_examples=300, deadline=None)
    @given(weighted_multigraphs(max_edges=4))
    def test_minimum_keeps_its_tie_rule(self, drawn):
        # the lowest start dart, then the lowest closing dart; zero weights
        # make many ties, and few edges keep the oracle's search small
        g, weights = drawn
        report = min_weight_reduced_cycle(g, weights)
        ends = None if report.cycle is None else \
            (report.weight, report.cycle[0], report.cycle[-1])
        assert ends == brute_min_cycle_ends(g, weights)

    @settings(max_examples=100, deadline=None)
    @given(weighted_multigraphs())
    def test_girth_is_brute_unit_minimum(self, drawn):
        g, _ = drawn
        expected, _ = brute_min_reduced_cycle(g)
        assert reduced_girth(g) == expected

    def test_one_cycle_per_start_dart(self, fx4):
        g = build_whitehead(fx4)
        starts = [r.cycle[0] for r in reduced_cycles_below(g, None, 5)]
        assert starts == sorted(set(starts)) and starts
        assert all(min(r.cycle) == r.cycle[0]
                   for r in reduced_cycles_below(g, None, 5))


class TestShortCycles:
    def test_excludes_two_cycles(self):
        g = synthetic_graph(["u", "v"], [("u", "v"), ("u", "v")])
        assert shortest_reduced_cycle_in_range(g, 3, 4) is None

    def test_finds_triangle(self):
        g = synthetic_graph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("w", "u")])
        found = shortest_reduced_cycle_in_range(g, 3, 4)
        assert found is not None and len(found) == 3

    def test_reduced_girth_helper(self, fx4):
        assert reduced_girth(build_whitehead(fx4)) == 4


def test_random_presentations_edge_counts():
    rng = random.Random(12)
    for _ in range(50):
        p = random_presentation(rng)
        g = build_whitehead(p)
        assert len(g.edges) == sum(len(r) for r in p.relators)
        assert len(g.vertices) == 2 * len(p.generators)
