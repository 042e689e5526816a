import json
import random

import pytest

from conftest import FIXTURES, random_presentation
from ddr.cli import main
from oracles import brute_folding_edges, vertex_count_from_links
from ddr.core import DdrError, free_edge_generators, parse_presentation
from ddr.diagram import (BoundaryStep, DiagramEdge, DiagramFace,
                         SurfaceDiagram, crossed_occurrence, directed_verdict,
                         diagram_to_json_dict, double_disc, dumps_diagram,
                         folding_edges, loads_diagram, matched_surface,
                         orientation_double_cover, validate_diagram)


@pytest.fixture(scope="session")
def fx2_disc():
    return loads_diagram((FIXTURES / "fx2_disc.json").read_text())


def triangle_sphere(p):
    """Two faces over relator 0 = abc: the disc and its mirror."""
    edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 2),
             DiagramEdge(2, "c", 2, 0))
    front = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1), BoundaryStep(2, 1)))
    back = DiagramFace(0, -1, (BoundaryStep(2, -1), BoundaryStep(1, -1), BoundaryStep(0, -1)))
    return SurfaceDiagram(3, edges, (front, back))


def open_up(sphere, f, spur_label=None):
    """Remove face f from a sphere: its boundary becomes the boundary cycle
    of a disc, followed by a spur out and back when a label is given.  The
    rest is a genuine disc when the face's boundary meets no vertex twice."""
    cycle = sphere.faces[f].boundary
    edges, vertices = sphere.edges, sphere.vertex_count
    if spur_label is not None:
        spur = max(e.id for e in edges) + 1
        edges += (DiagramEdge(spur, spur_label, sphere.step_tail(cycle[0]), vertices),)
        cycle += (BoundaryStep(spur, 1), BoundaryStep(spur, -1))
        vertices += 1
    return SurfaceDiagram(vertices, edges, sphere.faces[:f] + sphere.faces[f + 1:], (cycle,))


PINCHED_PRES = "gens: a b c\nrel: a b a^-1 b^-1\nrel: c c\n"


def pinched_torus_and_spheres():
    """A one-vertex torus over relator 0 and two spheres, each the faces
    `c c` and `c^-1 c^-1` over relator 1, chained at single vertices: the
    torus vertex is a vertex of sphere 1, and sphere 1's other vertex one of
    sphere 2.  Closed, connected, orientable and chi = 2, yet no sphere."""
    edges = (DiagramEdge(0, "a", 0, 0), DiagramEdge(1, "b", 0, 0),
             DiagramEdge(2, "c", 0, 1), DiagramEdge(3, "c", 1, 0),
             DiagramEdge(4, "c", 1, 2), DiagramEdge(5, "c", 2, 1))
    torus = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1),
                               BoundaryStep(0, -1), BoundaryStep(1, -1)))
    spheres = tuple(face for e, f in ((2, 3), (4, 5))
                    for face in (DiagramFace(1, 1, (BoundaryStep(e, 1), BoundaryStep(f, 1))),
                                 DiagramFace(1, -1, (BoundaryStep(f, -1), BoundaryStep(e, -1)))))
    return SurfaceDiagram(3, edges, (torus,) + spheres)


class TestValidate:
    def test_pinched_complex_is_no_sphere(self):
        p = parse_presentation(PINCHED_PRES)
        report = validate_diagram(pinched_torus_and_spheres(), p)
        assert report.valid and report.closed and report.orientable and report.connected
        assert report.euler_characteristic == 2
        assert report.pinched == (0, 1)
        assert not report.sphere and not report.disc and report.surface_genus is None
        with pytest.raises(DdrError, match=r"pinched at vertices \[0, 1\]") as exc:
            directed_verdict(pinched_torus_and_spheres(), p, {"c"})
        assert exc.value.code == "UNSUPPORTED_SURFACE"

    @pytest.mark.parametrize("command", ["diagram", "check"])
    def test_pinched_complex_exits_three(self, command, tmp_path, capsys):
        pres, diag = tmp_path / "p.pres", tmp_path / "d.json"
        pres.write_text(PINCHED_PRES)
        diag.write_text(dumps_diagram(pinched_torus_and_spheres()))
        argv = (["diagram", str(diag), "--pres", str(pres)] if command == "diagram"
                else ["check", str(pres), "--run-all", "--diagram", str(diag)])
        assert main(argv + ["--away-from", "c"]) == 3
        assert "neither a sphere nor a disc (pinched at vertices [0, 1])" in \
            capsys.readouterr().err

    def test_wedge_of_discs_is_a_singular_disc(self):
        # two triangles sharing only vertex 0: capping the boundary walk
        # through both gives a sphere, so the link at the cut vertex is one cycle
        p = parse_presentation("gens: a b c x\nrel: a b c\nrel: x b c")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 2), DiagramEdge(2, "c", 2, 0),
                 DiagramEdge(3, "x", 0, 3), DiagramEdge(4, "b", 3, 4), DiagramEdge(5, "c", 4, 0))
        faces = tuple(DiagramFace(r, 1, tuple(BoundaryStep(e, 1) for e in es))
                      for r, es in ((0, (0, 1, 2)), (1, (3, 4, 5))))
        cycle = tuple(BoundaryStep(e, -1) for e in (2, 1, 0, 5, 4, 3))
        report = validate_diagram(SurfaceDiagram(5, edges, faces, (cycle,)), p)
        assert report.valid and report.disc and report.pinched == ()

    def test_huge_vertex_count_is_disconnected_without_a_vertex_table(self):
        # a table of 10^12 vertices would exhaust memory; the edge count decides
        p = parse_presentation("gens: a b c\nrel: a b c")
        sphere = triangle_sphere(p)
        for d in (SurfaceDiagram(10 ** 12, (), ()),
                  SurfaceDiagram(10 ** 12, sphere.edges, sphere.faces)):
            report = validate_diagram(d, p)
            assert report.valid and not report.connected and not report.sphere

    def test_triangle_double_is_sphere(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        report = validate_diagram(triangle_sphere(p), p)
        assert report.valid and report.sphere
        assert report.euler_characteristic == 2
        assert report.orientable and report.connected and report.closed

    def test_fx2_disc(self, fx2, fx2_disc):
        report = validate_diagram(fx2_disc, fx2)
        assert report.valid
        assert report.euler_characteristic == 1
        assert report.disc and not report.closed

    def test_word_mismatch_rejected(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 2),
                 DiagramEdge(2, "a", 2, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1), BoundaryStep(2, 1)))
        mirror = DiagramFace(0, -1, (BoundaryStep(2, -1), BoundaryStep(1, -1), BoundaryStep(0, -1)))
        report = validate_diagram(SurfaceDiagram(3, edges, (face, mirror)), p)
        assert not report.valid
        assert any("not the relator" in e for e in report.errors)

    def test_side_count_enforced(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        d = triangle_sphere(p)
        broken = SurfaceDiagram(d.vertex_count, d.edges, (d.faces[0],))
        report = validate_diagram(broken, p)
        assert not report.valid
        assert any("sides" in e for e in report.errors)

    def test_open_walk_rejected(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 0, 2),
                 DiagramEdge(2, "c", 2, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1), BoundaryStep(2, 1)))
        report = validate_diagram(SurfaceDiagram(3, edges, (face, face)), p)
        assert not report.valid
        assert any("not closed" in e for e in report.errors)

    def test_nonorientable_detected(self):
        # a bigon with both sides glued aligned is the projective plane
        p = parse_presentation("gens: a\nrel: a a")
        edges = (DiagramEdge(0, "a", 0, 0),)
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(0, 1)))
        report = validate_diagram(SurfaceDiagram(1, edges, (face,)), p)
        assert report.valid
        assert report.euler_characteristic == 1
        assert report.orientable is False
        assert report.sphere is False

    def test_torus_single_face(self, fx4):
        edges = (DiagramEdge(0, "a", 0, 0), DiagramEdge(1, "b", 0, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1),
                                  BoundaryStep(0, -1), BoundaryStep(1, -1)))
        report = validate_diagram(SurfaceDiagram(1, edges, (face,)), fx4)
        assert report.valid and report.closed and report.orientable
        assert report.euler_characteristic == 0
        assert report.surface_genus == 1


class TestFolding:
    def test_double_of_single_face_folds_everywhere(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        d = triangle_sphere(p)
        folds = folding_edges(d, p)
        assert sorted(f.edge_id for f in folds) == [0, 1, 2]

    def test_fx2_disc_no_foldings(self, fx2, fx2_disc):
        assert folding_edges(fx2_disc, fx2) == ()

    def test_torus_face_not_self_folding(self, fx4):
        edges = (DiagramEdge(0, "a", 0, 0), DiagramEdge(1, "b", 0, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1),
                                  BoundaryStep(0, -1), BoundaryStep(1, -1)))
        d = SurfaceDiagram(1, edges, (face,))
        assert folding_edges(d, fx4) == ()

    def test_same_sign_pillowcase_folds(self):
        # two faces listing identical walks: valid, orientable after
        # re-spinning, and every edge folds
        p = parse_presentation("gens: a b\nrel: a b")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1)))
        d = SurfaceDiagram(2, edges, (face, face))
        report = validate_diagram(d, p)
        assert report.valid and report.sphere
        assert sorted(f.edge_id for f in folding_edges(d, p)) == [0, 1]

    def test_duplicate_relators_fold_by_index_only(self):
        # same word twice: gluing face over relator 0 to face over relator 1
        # is never a fold
        p = parse_presentation("gens: a b\nrel: a b\nrel: a b")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 0))
        f0 = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1)))
        f1 = DiagramFace(1, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1)))
        d = SurfaceDiagram(2, edges, (f0, f1))
        assert validate_diagram(d, p).valid
        assert folding_edges(d, p) == ()

    def test_stacked_commutator_pair_folds_y_edges(self, fx3):
        # a commutator face and its mirror sharing the connecting y-edges:
        # the y-labeled edges fold
        edges = (DiagramEdge(0, "x1", 0, 0), DiagramEdge(1, "x1", 1, 1),
                 DiagramEdge(2, "y1", 0, 1), DiagramEdge(3, "y1", 0, 1))
        face_plus = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(2, 1),
                                       BoundaryStep(1, -1), BoundaryStep(3, -1)))
        face_minus = DiagramFace(0, -1, (BoundaryStep(3, 1), BoundaryStep(1, 1),
                                         BoundaryStep(2, -1), BoundaryStep(0, -1)))
        d = SurfaceDiagram(2, edges, (face_plus, face_minus))
        assert validate_diagram(d, fx3).valid
        fold_labels = {d.edge_by_id[f.edge_id].label for f in folding_edges(d, fx3)}
        assert "y1" in fold_labels
        assert [f.edge_id for f in folding_edges(d, fx3)] == brute_folding_edges(d, fx3)

    def test_matches_brute_force_on_random_diagrams(self):
        rng = random.Random(31)
        count = 0
        while count < 60:
            p = random_presentation(rng, max_gens=3, max_rels=2, max_len=6)
            free = free_edge_generators(p)
            candidates = [g for g in p.generators
                          if g not in free and any(l.gen == g for r in p.relators for l in r)]
            if not candidates:
                continue
            d = matched_surface(p, rng.choice(candidates))
            expected = brute_folding_edges(d, p)
            got = [f.edge_id for f in folding_edges(d, p)]
            assert got == expected
            count += 1

    def test_proper_power_occurrence_alignment(self):
        # abab: gluing occurrence 0 of the relator against occurrence 2 of
        # the mirror matches letter-for-letter but crosses different
        # occurrences, so it is not a fold
        p = parse_presentation("gens: a b\nrel: a b a b")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 2),
                 DiagramEdge(2, "a", 2, 3), DiagramEdge(3, "b", 3, 0))
        plus = DiagramFace(0, 1, tuple(BoundaryStep(i, 1) for i in range(4)))
        # mirror rotated by two: reads b^-1 a^-1 b^-1 a^-1 starting at edge 1
        minus = DiagramFace(0, -1, (BoundaryStep(1, -1), BoundaryStep(0, -1),
                                    BoundaryStep(3, -1), BoundaryStep(2, -1)))
        d = SurfaceDiagram(4, edges, (plus, minus))
        report = validate_diagram(d, p)
        assert report.valid and report.sphere
        folds = folding_edges(d, p)
        brute = brute_folding_edges(d, p)
        assert [f.edge_id for f in folds] == brute == []


class TestDirectedVerdict:
    def test_fx2_disc_refutes(self, fx2, fx2_disc):
        verdict = directed_verdict(fx2_disc, fx2, {"a", "b"})
        assert verdict.verdict == "REFUTES"
        assert verdict.mode == "disc"
        assert verdict.outside_edges == (2,)

    def test_sphere_consistent_when_all_fold(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        assert directed_verdict(triangle_sphere(p), p, set()).verdict == "CONSISTENT"

    def test_vacuous_when_labels_inside(self, fx2, fx2_disc):
        verdict = directed_verdict(fx2_disc, fx2, {"a", "b", "c"} - {"q"})
        # S must be proper for the notion, but the diagram op itself only
        # needs the labels: everything inside S is consistent vacuously
        assert verdict.verdict == "CONSISTENT"

    def test_disc_boundary_hypothesis(self, fx2, fx2_disc):
        with pytest.raises(DdrError) as exc:
            directed_verdict(fx2_disc, fx2, {"c"})
        assert exc.value.code == "HYPOTHESIS_NOT_MET"

    def test_unsupported_surface(self, fx4):
        edges = (DiagramEdge(0, "a", 0, 0), DiagramEdge(1, "b", 0, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1),
                                  BoundaryStep(0, -1), BoundaryStep(1, -1)))
        torus = SurfaceDiagram(1, edges, (face,))
        with pytest.raises(DdrError) as exc:
            directed_verdict(torus, fx4, set())
        assert exc.value.code == "UNSUPPORTED_SURFACE"


class TestDouble:
    def test_single_face_disc(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        edges = (DiagramEdge(0, "a", 0, 1), DiagramEdge(1, "b", 1, 2),
                 DiagramEdge(2, "c", 2, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1), BoundaryStep(2, 1)))
        cycle = (BoundaryStep(0, 1), BoundaryStep(1, 1), BoundaryStep(2, 1))
        disc = SurfaceDiagram(3, edges, (face,), (cycle,))
        assert validate_diagram(disc, p).valid
        doubled = double_disc(disc)
        report = validate_diagram(doubled, p)
        assert report.sphere
        assert len(doubled.faces) == 2

    def test_fx2_double_keeps_c_unfolded(self, fx2, fx2_disc):
        doubled = double_disc(fx2_disc)
        report = validate_diagram(doubled, fx2)
        assert report.sphere
        assert len(doubled.faces) == 4
        labels = {doubled.edge_by_id[f.edge_id].label
                  for f in folding_edges(doubled, fx2)}
        assert "c" not in labels
        assert any(e.label == "c" for e in doubled.edges)
        assert directed_verdict(doubled, fx2, {"a", "b"}).verdict == "REFUTES"

    def test_double_always_sphere_random(self):
        rng = random.Random(41)
        count = 0
        while count < 30:
            p = random_presentation(rng, max_gens=3, max_rels=2, max_len=5)
            rel = rng.randrange(len(p.relators))
            word = p.relators[rel]
            n = len(word)
            edges = []
            for i, letter in enumerate(word):
                src, dst = (i, (i + 1) % n) if letter.sign > 0 else ((i + 1) % n, i)
                edges.append(DiagramEdge(i, letter.gen, src, dst))
            face = DiagramFace(rel, 1, tuple(BoundaryStep(i, word[i].sign)
                                             for i in range(n)))
            cycle = tuple(BoundaryStep(i, word[i].sign) for i in range(n))
            disc = SurfaceDiagram(n, tuple(edges), (face,), (cycle,))
            if not validate_diagram(disc, p).valid:
                continue
            assert validate_diagram(double_disc(disc), p).sphere
            count += 1

    def test_multi_face_discs_double_to_spheres(self, fx2, fx2_disc):
        rng = random.Random(43)
        spheres = [(fx2, double_disc(fx2_disc))]
        while len(spheres) < 40:
            p = random_presentation(rng, max_gens=3, max_rels=2, max_len=6)
            free = free_edge_generators(p)
            candidates = [g for g in p.generators
                          if g not in free and any(l.gen == g for r in p.relators for l in r)]
            if candidates:
                d = matched_surface(p, rng.choice(candidates))
                if validate_diagram(d, p).sphere:
                    spheres.append((p, d))
        for p, sphere in spheres:
            embedded = [f for f, face in enumerate(sphere.faces)
                        if len({sphere.step_tail(s) for s in face.boundary}) == len(face.boundary)]
            f = rng.choice(embedded)
            disc = open_up(sphere, f)
            assert validate_diagram(disc, p).disc
            doubled = double_disc(disc)
            assert validate_diagram(doubled, p).sphere
            assert len(doubled.faces) == 2 * (len(sphere.faces) - 1)
            # a spur has no face side: it drops out and changes nothing else
            spurred = open_up(sphere, f, p.generators[0])
            assert validate_diagram(spurred, p).disc
            assert double_disc(spurred) == doubled

    def test_spur_disc(self):
        p = parse_presentation("gens: a b c d\nrel: a b c")
        disc = open_up(triangle_sphere(p), 1, "d")
        assert validate_diagram(disc, p).disc
        doubled = double_disc(disc)
        assert validate_diagram(doubled, p).sphere
        assert sorted(e.label for e in doubled.edges) == ["a", "b", "c"]

    def test_not_a_disc_rejected(self):
        p = parse_presentation("gens: a b c\nrel: a b c")
        with pytest.raises(DdrError) as exc:
            double_disc(triangle_sphere(p))
        assert exc.value.code == "NOT_A_DISC"


class TestMatchedSurface:
    def test_fx1_foldings_only_free_labels(self, fx1):
        d = matched_surface(fx1, "a")
        report = validate_diagram(d, fx1)
        assert report.valid and report.closed and report.orientable
        assert any(e.label == "a" for e in d.edges)
        labels = {d.edge_by_id[f.edge_id].label for f in folding_edges(d, fx1)}
        assert labels <= free_edge_generators(fx1)
        assert labels == {"c"}

    def test_fx4(self, fx4):
        d = matched_surface(fx4, "a")
        report = validate_diagram(d, fx4)
        assert report.valid and report.closed and report.orientable
        assert folding_edges(d, fx4) == ()

    def test_two_digons(self):
        p = parse_presentation("gens: a\nrel: a a")
        d = matched_surface(p, "a")
        report = validate_diagram(d, p)
        assert report.valid and report.sphere
        assert len(d.faces) == 2 and len(d.edges) == 2

    def test_free_edge_generator_rejected(self, fx1):
        with pytest.raises(DdrError) as exc:
            matched_surface(fx1, "c")
        assert exc.value.code == "FREE_EDGE_GENERATOR"

    def test_absent_generator_rejected(self):
        p = parse_presentation("gens: a b\nrel: a a")
        with pytest.raises(DdrError) as exc:
            matched_surface(p, "b")
        assert exc.value.code == "ABSENT_GENERATOR"

    def test_euler_characteristic_from_links(self, fx1, fx4):
        for p, x in ((fx1, "a"), (fx1, "b"), (fx4, "a"), (fx4, "b")):
            d = matched_surface(p, x)
            assert vertex_count_from_links(d) == d.vertex_count


class TestOrientationCover:
    def test_projective_plane_cover_is_sphere(self):
        p = parse_presentation("gens: a\nrel: a a")
        edges = (DiagramEdge(0, "a", 0, 0),)
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(0, 1)))
        rp2 = SurfaceDiagram(1, edges, (face,))
        cover = orientation_double_cover(rp2)
        report = validate_diagram(cover, p)
        assert report.valid and report.orientable
        assert report.euler_characteristic == 2

    def test_klein_bottle_cover_is_torus(self):
        p = parse_presentation("gens: a b\nrel: a b a b^-1")
        edges = (DiagramEdge(0, "a", 0, 0), DiagramEdge(1, "b", 0, 0))
        face = DiagramFace(0, 1, (BoundaryStep(0, 1), BoundaryStep(1, 1),
                                  BoundaryStep(0, 1), BoundaryStep(1, -1)))
        klein = SurfaceDiagram(1, edges, (face,))
        report = validate_diagram(klein, p)
        assert report.valid and not report.orientable
        cover = orientation_double_cover(klein)
        cr = validate_diagram(cover, p)
        assert cr.valid and cr.orientable and cr.euler_characteristic == 0

    def test_cover_of_orientable_is_two_copies(self, fx4):
        d = matched_surface(fx4, "a")
        cover = orientation_double_cover(d)
        assert len(cover.faces) == 2 * len(d.faces)
        report = validate_diagram(cover, fx4)
        assert report.valid and report.orientable and not report.connected


class TestJson:
    def test_round_trip_identity(self, fx2_disc):
        text = dumps_diagram(fx2_disc)
        again = loads_diagram(text)
        assert again == fx2_disc
        assert dumps_diagram(again) == text

    def test_fixture_file_round_trip(self):
        raw = (FIXTURES / "fx2_disc.json").read_text()
        d = loads_diagram(raw)
        assert diagram_to_json_dict(d)["vertexCount"] == 4
        assert dumps_diagram(loads_diagram(dumps_diagram(d))) == dumps_diagram(d)

    def test_malformed_rejected(self):
        # a label is a JSON string: null would read as the generator "None"
        edge = '{{"vertexCount": 2, "edges": [{{"id": 0, "label": {}, "from": 0, "to": 1}}], ' \
            '"faces": []}}'
        for text in ("{not json", "{\"vertexCount\": 1}", *map(edge.format, ("null", "false", "5"))):
            with pytest.raises(DdrError) as exc:
                loads_diagram(text)
            assert exc.value.code == "SYNTAX"
        assert loads_diagram(edge.format('"a"')).edges[0].label == "a"

    @pytest.mark.parametrize("count", ["1e400", "-1e400", "NaN", "\"four\"", "4.5", "true",
                                       "\"2\""])
    def test_non_integer_vertex_count_is_a_syntax_error(self, count):
        with pytest.raises(DdrError) as exc:
            loads_diagram(f'{{"vertexCount": {count}, "edges": [], "faces": []}}')
        assert exc.value.code == "SYNTAX"
        # the same value in every other integer field of the fixture disc
        for field in [("edges", 0, "id"), ("edges", 0, "from"), ("edges", 0, "to"),
                      ("faces", 1, "relator"), ("faces", 1, "sign"),
                      ("faces", 1, "boundary", 2, "edge"), ("faces", 1, "boundary", 2, "dir"),
                      ("boundaryCycles", 0, 1, "edge"), ("boundaryCycles", 0, 1, "dir")]:
            obj = json.loads((FIXTURES / "fx2_disc.json").read_text())
            holder = obj
            for key in field[:-1]:
                holder = holder[key]
            holder[field[-1]] = "@"
            with pytest.raises(DdrError) as exc:
                loads_diagram(json.dumps(obj).replace('"@"', count))
            assert exc.value.code == "SYNTAX", field


def test_crossed_occurrence_convention():
    face_plus = DiagramFace(0, 1, (BoundaryStep(0, 1),) * 4)
    face_minus = DiagramFace(0, -1, (BoundaryStep(0, 1),) * 4)
    assert [crossed_occurrence(face_plus, p) for p in range(4)] == [0, 1, 2, 3]
    assert [crossed_occurrence(face_minus, p) for p in range(4)] == [3, 2, 1, 0]
