import json
import random
from collections import Counter

import pytest

from conftest import random_compressed_lot, random_lot
from ddr import lot as lot_module
from ddr.cli import main
from ddr.core import DdrError, parse_word, word_stats
from ddr.lot import (LOT, LotEdge, SubLot, certify_lot, collapse, lot_properties, make_sublot,
                     parse_lot_document, reorient_positive_tree, serialize_lot, sub_lots)
from ddr.pipeline import derive_consequences
from ddr.whitehead import POSITIVE, GraphView, build_whitehead, is_forest
from oracles import insert

W = parse_word


def sublot_as_lot(t):
    lot = t.parent
    return LOT(tuple(v for v in lot.vertices if v in t.vertex_subset),
               tuple(lot.edges[i] for i in sorted(t.edge_indices)))


class TestParse:
    def test_label_must_be_vertex(self):
        with pytest.raises(DdrError) as exc:
            parse_lot_document("edge x1 x2 x3").lot
        assert exc.value.code == "LABEL_NOT_A_VERTEX"

    def test_disconnected_rejected(self):
        with pytest.raises(DdrError) as exc:
            parse_lot_document("vertices: x1 x2 x3\nedge x1 x2 x3").lot
        assert exc.value.code == "NOT_A_TREE"

    def test_fxl1(self, fxl1_doc):
        lot = fxl1_doc.lot
        assert len(lot.vertices) == 7
        assert len(lot.edges) == 6

    def test_fxl2_with_sublot(self, fxl2_doc):
        assert len(fxl2_doc.lot.vertices) == 9
        assert set(fxl2_doc.sublots) == {"T"}
        assert fxl2_doc.sublots["T"].vertex_subset == {"x1", "x2", "x3", "x4", "x5"}

    def test_serialize_round_trip(self, fxl2_doc):
        lot = fxl2_doc.lot
        assert parse_lot_document(serialize_lot(lot)).lot == lot

    def test_single_vertex(self):
        lot = parse_lot_document("vertices: a").lot
        assert lot.vertices == ("a",) and lot.edges == ()

    def test_cycle_rejected(self):
        with pytest.raises(DdrError) as exc:
            parse_lot_document("edge a b a\nedge b c a\nedge c a b").lot
        assert exc.value.code == "NOT_A_TREE"

    @pytest.mark.parametrize("text, code, line, column", [
        ("vertices: a b\n  edge a b\n", "SYNTAX", 2, 3),
        ("edge a b a\nvertices: a\nvertices: b\n", "SYNTAX", 3, 1),
        ("edge a b a  # ok\n\n  bogus a\n", "SYNTAX", 3, 3),
        ("edge a b a\nsublot: T\n", "SYNTAX", 2, 1),
        ("vertices: a b\nedge a b a\nsublot: T a\n", "BAD_SUBLOT", 3, 9),
        ("edge a b a\nedge b c b\nsublot: T a b\nsublot: T b c\n", "SYNTAX", 4, 9),
    ])
    def test_errors_name_line_and_column(self, text, code, line, column):
        with pytest.raises(DdrError) as exc:
            parse_lot_document(text)
        assert (exc.value.code, exc.value.line, exc.value.column) == (code, line, column)
        assert str(exc.value).endswith(f" (line {line}, column {column})")


class TestPresentation:
    def test_relator_formula(self):
        # source, then label, then inverse target, then inverse label
        lot = LOT(("a", "b", "c"),
                  (LotEdge("a", "b", "c"), LotEdge("b", "c", "a")))
        p = lot.presentation
        assert p.relators[0] == W("a c b^-1 c^-1")
        assert p.relators[1] == W("b a c^-1 a^-1")

    def test_label_equal_source(self):
        p = LOT(("a", "b"), (LotEdge("a", "b", "a"),)).presentation
        assert p.relators == (W("a a b^-1 a^-1"),)

    def test_fxl1_shape(self, fxl1_doc):
        p = fxl1_doc.lot.presentation
        assert len(p.generators) == 7 and len(p.relators) == 6

    def test_relator_invariants_random(self):
        rng = random.Random(2)
        for _ in range(100):
            lot = random_lot(rng)
            p = lot.presentation
            assert len(p.relators) == len(lot.vertices) - 1
            for r, edge in zip(p.relators, lot.edges):
                stats = word_stats(r)
                assert len(r) == 4
                assert stats.total_exponent_sum == 0
                assert stats.exponent_sum[edge.label] in (0, stats.exponent_sum.get(edge.label))
                if len({edge.source, edge.target, edge.label}) == 3:
                    # compressed edge: the label's occurrences cancel and the
                    # endpoints contribute +1/-1
                    assert stats.exponent_sum == {edge.source: 1, edge.target: -1,
                                                  edge.label: 0}


class TestProperties:
    def test_fxl1(self, fxl1_doc):
        props = lot_properties(fxl1_doc.lot)
        assert props.compressed and props.injective

    def test_not_compressed(self):
        lot = LOT(("a", "b"), (LotEdge("a", "b", "a"),))
        assert not lot_properties(lot).compressed

    def test_not_injective(self):
        lot = LOT(("a", "b", "c"),
                  (LotEdge("a", "b", "c"), LotEdge("b", "c", "a")))
        assert lot_properties(lot).injective
        lot2 = LOT(("a", "b", "c"),
                   (LotEdge("a", "b", "c"), LotEdge("b", "c", "c")))
        assert not lot_properties(lot2).injective


class TestSubLots:
    def test_fxl2_contains_the_marked_one(self, fxl2_doc):
        infos = sub_lots(fxl2_doc.lot)
        subsets = {info.sublot.vertex_subset for info in infos}
        assert frozenset({"x1", "x2", "x3", "x4", "x5"}) in subsets
        marked = next(i for i in infos
                      if i.sublot.vertex_subset == {"x1", "x2", "x3", "x4", "x5"})
        assert marked.proper and marked.maximal_proper

    def test_single_edge_lot_only_itself(self):
        lot = LOT(("a", "b"), (LotEdge("a", "b", "a"),))
        infos = sub_lots(lot)
        assert len(infos) == 1
        assert not infos[0].proper

    def test_fxl1_no_proper(self, fxl1_doc):
        infos = sub_lots(fxl1_doc.lot)
        assert [i for i in infos if i.proper] == []

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(60):
            lot = random_lot(rng)
            expected = set()
            n = len(lot.edges)
            for mask in range(1, 1 << n):
                idx = {i for i in range(n) if mask >> i & 1}
                vs = set()
                for i in idx:
                    vs |= {lot.edges[i].source, lot.edges[i].target}
                # label closure
                if any(lot.edges[i].label not in vs for i in idx):
                    continue
                # connectivity by repeated expansion
                comp = {next(iter(vs))}
                grew = True
                while grew:
                    grew = False
                    for i in idx:
                        e = lot.edges[i]
                        if (e.source in comp) != (e.target in comp):
                            comp |= {e.source, e.target}
                            grew = True
                        elif e.source in comp:
                            pass
                if comp != vs:
                    continue
                expected.add(frozenset(idx))
            whole = frozenset(range(n))
            proper = [s for s in expected if s != whole]
            flags = {s: (s != whole, s != whole and not any(s < o for o in proper))
                     for s in expected}
            got = {info.sublot.edge_indices: (info.proper, info.maximal_proper)
                   for info in sub_lots(lot)}
            assert got == flags

    def test_path_labeled_by_sources(self):
        # beyond the brute force's reach: the sub-LOTs are the contiguous
        # sub-paths, and only the two 19-edge ones are maximal proper
        names = tuple(f"v{i}" for i in range(21))
        lot = LOT(names, tuple(LotEdge(names[i], names[i + 1], names[i]) for i in range(20)))
        infos = sub_lots(lot)
        assert len(infos) == 210
        assert all(max(i.sublot.edge_indices) - min(i.sublot.edge_indices)
                   == len(i.sublot.edge_indices) - 1 for i in infos)
        assert [sorted(i.sublot.edge_indices) for i in infos if i.maximal_proper] == \
            [list(range(19)), list(range(1, 20))]


def lattice_maximal(lot):
    """The maximal proper sub-LOTs by definition, from the whole lattice."""
    proper = [i.sublot for i in sub_lots(lot) if i.proper]
    return [t for t in proper if not any(t.edge_indices < o.edge_indices for o in proper)]


class TestSubLotChecks:
    """A sub-LOT is checked when it is made, however it is made."""

    LOT3 = LOT(("a", "b", "c"), (LotEdge("a", "b", "c"), LotEdge("b", "c", "a")))

    @pytest.mark.parametrize("vertices, edges, message", [
        ({"a", "b"}, {0}, "not label-closed: label 'c' outside"),
        (set(), set(), "needs at least one edge"),
        ({"a", "b", "c"}, {0}, "does not match its edges"),
        ({"b", "c"}, {-1}, r"edges \[-1\] not in the LOT"),
        ({"a", "b", "c"}, {0, 1, 2}, "not in the LOT"),
    ])
    def test_direct_construction_is_checked(self, vertices, edges, message):
        with pytest.raises(DdrError, match=message) as exc:
            SubLot(self.LOT3, frozenset(vertices), frozenset(edges))
        assert exc.value.code == "BAD_SUBLOT"


class TestMaximalSubLots:
    def test_matches_the_lattice_flags_and_order(self):
        rng = random.Random(29)
        for k in range(2000):
            lot = random_lot(rng) if k % 2 else random_compressed_lot(rng, rng.randint(2, 9))
            assert [t.edge_indices for t in lot.maximal_sublots] == \
                [i.sublot.edge_indices for i in sub_lots(lot) if i.maximal_proper]

    def test_certify_lot_answers_maximality_by_the_lattice(self):
        rng = random.Random(31)
        answers = Counter()
        for _ in range(150):
            lot = random_compressed_lot(rng, rng.randint(3, 7))
            maximal = lattice_maximal(lot)
            for t in (i.sublot for i in sub_lots(lot) if i.proper):
                evidence = certify_lot(t).evidence
                answers[t in maximal] += 1
                if t in maximal:
                    assert "enclosing_maximal" not in evidence
                else:
                    assert evidence["failed_hypothesis"] == \
                        "the sub-LOT is not maximal among proper sub-LOTs"
                    assert evidence["enclosing_maximal"] == \
                        [sorted(m.vertex_subset) for m in maximal
                         if t.edge_indices < m.edge_indices]
        assert answers[True] and answers[False]

    def test_forty_edge_path_needs_no_lattice(self, monkeypatch):
        # the lattice has 820 sub-LOTs; only the two 39-edge sub-paths are maximal
        def refuse(*args):
            raise AssertionError("the lattice was enumerated")

        monkeypatch.setattr(lot_module, "sub_lots", refuse)
        monkeypatch.setattr(lot_module, "label_closure", refuse)
        names = tuple(f"v{i}" for i in range(41))
        lot = LOT(names, tuple(LotEdge(names[i], names[i + 1], names[i]) for i in range(40)))
        assert [sorted(t.edge_indices) for t in lot.maximal_sublots] == \
            [list(range(39)), list(range(1, 40))]

    def test_single_edge_has_none(self):
        assert LOT(("a", "b"), (LotEdge("a", "b", "a"),)).maximal_sublots == ()

    def test_compressed_lot_needs_two_edges(self):
        with pytest.raises(ValueError):
            random_compressed_lot(random.Random(0), 1)


class TestCollapseInsert:
    def test_fxl2_collapse_matches_printed_form(self, fxl2_doc):
        lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
        bar = collapse(t, "y")
        assert bar.vertices == ("u3", "u2", "u1", "y", "u4")
        assert bar.edges == (LotEdge("u2", "u3", "u1"), LotEdge("u1", "u2", "u3"),
                             LotEdge("y", "u1", "u4"), LotEdge("y", "u4", "u3"))

    def test_collapse_to_two_vertices(self):
        lot = LOT(("a", "b", "c"), (LotEdge("a", "b", "b"), LotEdge("b", "c", "a")))
        t = make_sublot(lot, {"a", "b"})
        bar = collapse(t, "z")
        assert bar.vertices == ("z", "c")
        assert bar.edges == (LotEdge("z", "c", "z"),)

    def test_name_collision_rejected(self, fxl2_doc):
        lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
        with pytest.raises(DdrError) as exc:
            collapse(t, "u1")
        assert exc.value.code == "NAME_COLLISION"

    def test_reused_name_allowed(self, fxl2_doc):
        lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
        bar = collapse(t, "x1")
        assert "x1" in bar.vertices

    def test_insert_round_trip_fxl2(self, fxl2_doc):
        lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
        bar = collapse(t, "y")
        rebuilt = insert(bar, "y", sublot_as_lot(t), {2: "x1", 3: "x5"}, {})
        assert set(rebuilt.vertices) == set(lot.vertices)
        assert sorted(map(str, rebuilt.edges)) == sorted(map(str, lot.edges))
        assert collapse(make_sublot(rebuilt, t.vertex_subset), "y") == bar

    def test_insert_single_vertex_renames(self):
        bar = LOT(("y", "c"), (LotEdge("y", "c", "c"),))
        t = LOT(("q",), ())
        out = insert(bar, "y", t, {0: "q"}, {})
        assert out == LOT(("q", "c"), (LotEdge("q", "c", "c"),))

    def test_insert_underspecified(self):
        bar = LOT(("y", "c"), (LotEdge("y", "c", "c"),))
        t = LOT(("q",), ())
        with pytest.raises(DdrError) as exc:
            insert(bar, "y", t, {}, {})
        assert exc.value.code == "ATTACHMENT_UNDERSPECIFIED"

    def test_random_round_trips(self):
        rng = random.Random(17)
        done = 0
        while done < 200:
            lot = random_lot(rng, max_vertices=8)
            proper = [i for i in sub_lots(lot) if i.proper]
            if not proper:
                continue
            t = rng.choice(proper).sublot
            y = "zz"
            bar = collapse(t, y)
            endpoint_att = {}
            label_att = {}
            kept = [i for i in range(len(lot.edges)) if i not in t.edge_indices]
            for new_idx, old_idx in enumerate(kept):
                e = lot.edges[old_idx]
                if e.source in t.vertex_subset:
                    endpoint_att[new_idx] = e.source
                elif e.target in t.vertex_subset:
                    endpoint_att[new_idx] = e.target
                if e.label in t.vertex_subset:
                    label_att[new_idx] = e.label
            rebuilt = insert(bar, y, sublot_as_lot(t), endpoint_att, label_att)
            assert set(rebuilt.vertices) == set(lot.vertices)
            assert sorted(map(str, rebuilt.edges)) == sorted(map(str, lot.edges))
            assert collapse(make_sublot(rebuilt, t.vertex_subset), y) == bar
            done += 1


def assert_forest_reorientation(lot, out):
    """`out` is `lot` with some edges flipped, and its positive-graph edges
    {label, source} form a forest without loops, by networkx."""
    nx = pytest.importorskip("networkx")
    assert out.vertices == lot.vertices
    assert [(e.label, {e.source, e.target}) for e in out.edges] == \
        [(e.label, {e.source, e.target}) for e in lot.edges]
    graph = nx.MultiGraph()
    graph.add_nodes_from(lot.vertices)
    graph.add_edges_from((e.label, e.source) for e in out.edges)
    assert nx.number_of_selfloops(graph) == 0
    assert nx.is_forest(graph)


class TestReorient:
    def test_fxl2_bar_needs_no_flip(self, fxl2_doc):
        lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
        bar = collapse(t, "y")
        out = reorient_positive_tree(bar)
        assert out == bar  # the identity reorientation already works

    def test_single_edge(self):
        lot = LOT(("a", "b"), (LotEdge("a", "b", "b"),))
        out = reorient_positive_tree(lot)
        g = build_whitehead(out.presentation)
        assert is_forest(GraphView(g, POSITIVE)).forest

    def test_forced_flip_for_label_equal_source(self):
        lot = LOT(("a", "b"), (LotEdge("a", "b", "a"),))
        out = reorient_positive_tree(lot)
        assert out.edges == (LotEdge("b", "a", "a"),)

    def test_random_always_succeeds_and_is_tree(self):
        rng = random.Random(23)
        for _ in range(200):
            lot = random_lot(rng, max_vertices=8)
            out = reorient_positive_tree(lot)
            assert {frozenset((e.source, e.target)) for e in out.edges} == \
                {frozenset((e.source, e.target)) for e in lot.edges}
            assert [e.label for e in out.edges] == [e.label for e in lot.edges]
            g = build_whitehead(out.presentation)
            assert is_forest(GraphView(g, POSITIVE)).forest

    def test_agrees_with_networkx_up_to_sixty_vertices(self):
        rng = random.Random(2042)
        for k in range(400):
            lot = random_lot(rng, max_vertices=60) if k % 2 else \
                random_compressed_lot(rng, rng.randint(2, 59))
            assert_forest_reorientation(lot, reorient_positive_tree(lot))

    def test_five_thousand_edges(self):
        lot = random_compressed_lot(random.Random(5), 5000)
        assert_forest_reorientation(lot, reorient_positive_tree(lot))


class TestCertify:
    def test_fxl2_full_chain(self, fxl2_doc):
        lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
        cert = certify_lot(t)
        assert cert.verdict == "CERTIFIED_DR_AWAY_FROM"
        assert cert.subset == ("x1", "x2", "x3", "x4", "x5")
        assert cert.evidence["test"] == "forest"
        assert cert.evidence["side"] == "positive"
        consequences = derive_consequences(cert, lot.presentation, t.vertex_subset, {})
        assert cert.evidence["sublot_presentation_dr"]["method"] == "forest"
        assert any(c["kind"] == "aspherical" for c in consequences)

    def test_fig3_certifies_with_girth_at_least_four(self, fig3_doc):
        lot, t = fig3_doc.lot, fig3_doc.sublots["T"]
        cert = certify_lot(t)
        assert cert.verdict == "CERTIFIED_DR_AWAY_FROM"
        assert cert.evidence["reduced_girth"] is None or \
            cert.evidence["reduced_girth"] >= 4

    def test_non_maximal_rejected_with_suggestion(self, fxl2_doc):
        lot = fxl2_doc.lot
        small = make_sublot(lot, {"x1", "x2", "x3"})
        cert = certify_lot(small)
        assert cert.verdict == "UNKNOWN"
        assert "maximal" in cert.evidence["failed_hypothesis"]
        assert ["x1", "x2", "x3", "x4", "x5"] in cert.evidence["enclosing_maximal"]

    def test_whole_lot_rejected(self, fxl2_doc):
        lot = fxl2_doc.lot
        whole = make_sublot(lot, set(lot.vertices))
        cert = certify_lot(whole)
        assert cert.verdict == "UNKNOWN"
        assert "proper" in cert.evidence["failed_hypothesis"]


class TestRelabelling:
    """`ddr lot --reorient` under renamed vertices and reordered edges."""

    @staticmethod
    def run_lot(lot, tmp_path, capsys):
        """The exit code, per maximal sub-LOT its verdict, test and
        asphericity, and the printed reorientation."""
        lot_file, json_file = tmp_path / "t.lot", tmp_path / "t.json"
        lot_file.write_text(serialize_lot(lot))
        code = main(["lot", str(lot_file), "--reorient", "--json", str(json_file)])
        printed = capsys.readouterr().out.splitlines()[2:3 + len(lot.edges)]
        verdicts = {frozenset(c["subset"]): (c["verdict"], c["evidence"].get("test"),
                                             any(q["kind"] == "aspherical"
                                                 for q in c["consequences"]))
                    for c in json.loads(json_file.read_text())["certificates"]}
        return code, verdicts, parse_lot_document("\n".join(printed)).lot

    def test_verdicts_survive_relabelling(self, tmp_path, capsys):
        rng = random.Random(11)
        certified = 0
        for _ in range(150):
            lot = random_compressed_lot(rng, rng.randint(4, 9))
            names = [f"w{i}" for i in range(len(lot.vertices))]
            rng.shuffle(names)
            rename = dict(zip(lot.vertices, names))
            edges = [LotEdge(rename[e.source], rename[e.target], rename[e.label])
                     for e in lot.edges]
            rng.shuffle(edges)
            variant = LOT(tuple(rng.sample(names, len(names))), tuple(edges))
            code, verdicts, reoriented = self.run_lot(lot, tmp_path, capsys)
            variant_code, variant_verdicts, variant_reoriented = \
                self.run_lot(variant, tmp_path, capsys)
            assert variant_code == code
            assert variant_verdicts == {frozenset(rename[v] for v in s): outcome
                                        for s, outcome in verdicts.items()}
            assert_forest_reorientation(lot, reoriented)
            assert_forest_reorientation(variant, variant_reoriented)
            certified += code == 0
        assert certified  # some LOT has a certified maximal sub-LOT
