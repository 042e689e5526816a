"""Combinatorial surface and disc diagrams over a presentation complex.

A face records which relator it carries, a sign, and a boundary dart walk;
the walk's label word must equal the relator (sign +1) or its inverse
(sign -1) on the nose, so the face data pins down how the face maps onto
the relator's 2-cell.  The side of a face at boundary position p therefore
crosses a definite letter occurrence of the relator: occurrence p for sign
+1 and occurrence n-1-p for sign -1.

An edge is a folding edge exactly when its two sides lie on faces over the
same relator index crossing the same letter occurrence.  (With the faces'
occurrence alignments fixed, the letter-for-letter mirror match around the
edge is equivalent to that single equation; listing a face's walk backwards
flips its sign and mirrors its positions but never changes which occurrence
a side crosses, so the test does not depend on how face walks were chosen.)

Every surface built here (the matched surface of a generator, a doubled
disc, an orientation double cover) is a quotient of labeled polygons, each
with its mirror image, under one gluing that numbers vertices and edges in
gluing order.  Validation runs once per diagram: `validate_diagram`,
`folding_edges` and `directed_verdict` each check their input, and the
verdict scans for foldings on the diagram it has already validated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .core import (DdrError, Letter, Presentation, UnionFind, Word, free_edge_generators,
                   inverse_word)


@dataclass(frozen=True, slots=True)
class DiagramEdge:
    id: int
    label: str
    tail: int  # "from" vertex
    head: int  # "to" vertex


@dataclass(frozen=True, slots=True)
class BoundaryStep:
    edge: int
    direction: int  # +1 tail->head, -1 head->tail


@dataclass(frozen=True, slots=True)
class DiagramFace:
    relator_index: int
    sign: int
    boundary: tuple[BoundaryStep, ...]


@dataclass(frozen=True)
class SurfaceDiagram:
    vertex_count: int
    edges: tuple[DiagramEdge, ...]
    faces: tuple[DiagramFace, ...]
    boundary_cycles: tuple[tuple[BoundaryStep, ...], ...] = ()

    @cached_property
    def edge_by_id(self) -> Mapping[int, DiagramEdge]:
        return {e.id: e for e in self.edges}

    def step_letter(self, step: BoundaryStep) -> Letter:
        return Letter(self.edge_by_id[step.edge].label, step.direction)

    def step_tail(self, step: BoundaryStep) -> int:
        e = self.edge_by_id[step.edge]
        return e.tail if step.direction > 0 else e.head

    def step_head(self, step: BoundaryStep) -> int:
        e = self.edge_by_id[step.edge]
        return e.head if step.direction > 0 else e.tail

    def face_word(self, face: DiagramFace) -> Word:
        return tuple(self.step_letter(s) for s in face.boundary)


def crossed_occurrence(face: DiagramFace, position: int) -> int:
    """Which letter occurrence of the relator the side at this boundary
    position crosses."""
    n = len(face.boundary)
    return position if face.sign > 0 else n - 1 - position


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    errors: tuple[str, ...]
    euler_characteristic: Optional[int] = None
    orientable: Optional[bool] = None
    sphere: Optional[bool] = None
    surface_genus: Optional[int] = None
    connected: Optional[bool] = None
    closed: Optional[bool] = None
    disc: Optional[bool] = None
    pinched: Optional[tuple[int, ...]] = None  # vertices whose capped link is several cycles


def validate_diagram(d: SurfaceDiagram, p: Presentation) -> ValidationReport:
    """Check every structural invariant against the presentation and compute
    the surface data (Euler characteristic, orientability, sphere/disc).

    A vertex is pinched when its link, with each boundary cycle capped by a
    face, is more than one cycle.  A pinched diagram is no surface: it has
    no genus and is neither a sphere nor a disc, whatever its Euler
    characteristic.  A disc is thus a diagram that a cap turns into a
    sphere, so singular discs, with spurs or cut vertices on the boundary,
    stay discs."""
    errors: list[str] = []
    ids = [e.id for e in d.edges]
    if len(set(ids)) != len(ids):
        errors.append("duplicate edge ids")
    if d.vertex_count < 0:
        errors.append("negative vertex count")
    gens = p.generator_set
    for e in d.edges:
        if e.label not in gens:
            errors.append(f"edge {e.id}: label {e.label!r} is not a generator")
        if not (0 <= e.tail < d.vertex_count and 0 <= e.head < d.vertex_count):
            errors.append(f"edge {e.id}: endpoint out of range")
    if errors:
        return ValidationReport(False, tuple(errors))

    side_count: dict[int, int] = {e.id: 0 for e in d.edges}

    def check_walk(steps: Sequence[BoundaryStep], where: str) -> bool:
        ok = True
        if not steps:
            errors.append(f"{where}: empty walk")
            return False
        for i, step in enumerate(steps):
            if step.edge not in d.edge_by_id:
                errors.append(f"{where} step {i}: unknown edge {step.edge}")
                return False
            if step.direction not in (1, -1):
                errors.append(f"{where} step {i}: direction must be +1 or -1")
                return False
        for i, step in enumerate(steps):
            nxt = steps[(i + 1) % len(steps)]
            if d.step_head(step) != d.step_tail(nxt):
                errors.append(f"{where} steps {i}->{(i + 1) % len(steps)}: walk is not closed")
                ok = False
        return ok

    for f_idx, face in enumerate(d.faces):
        if not (0 <= face.relator_index < len(p.relators)):
            errors.append(f"face {f_idx}: relator index {face.relator_index} out of range")
            continue
        if face.sign not in (1, -1):
            errors.append(f"face {f_idx}: sign must be +1 or -1")
            continue
        if not check_walk(face.boundary, f"face {f_idx}"):
            continue
        relator = p.relators[face.relator_index]
        expected = relator if face.sign > 0 else inverse_word(relator)
        got = d.face_word(face)
        if got != expected:
            errors.append(f"face {f_idx}: boundary word {' '.join(map(str, got))} "
                          f"is not the relator{'' if face.sign > 0 else ' inverse'}")
        for step in face.boundary:
            side_count[step.edge] += 1
    for b_idx, cycle in enumerate(d.boundary_cycles):
        if check_walk(cycle, f"boundary cycle {b_idx}"):
            for step in cycle:
                side_count[step.edge] += 1
    for eid, count in side_count.items():
        if count != 2:
            errors.append(f"edge {eid}: {count} sides (needs exactly 2)")
    if errors:
        return ValidationReport(False, tuple(errors))

    chi = d.vertex_count - len(d.edges) + len(d.faces)
    closed = len(d.boundary_cycles) == 0
    orientable = _orientable(d)
    connected = _connected(d)
    pinched = tuple(v for v, count in sorted(_link_cycles(d).items()) if count > 1)
    surface = connected and not pinched
    sphere = closed and orientable and surface and chi == 2
    genus = (2 - chi) // 2 if (closed and orientable and surface) else None
    disc = (not closed) and surface and len(d.boundary_cycles) == 1 and chi == 1
    return ValidationReport(True, (), chi, orientable, sphere, genus, connected, closed, disc,
                            pinched)


def _link_cycles(d: SurfaceDiagram) -> Mapping[int, int]:
    """The number of link cycles at each vertex that an edge ends at, with
    every boundary cycle capped by a face.  The corner between two steps of
    a walk joins the end of one at their vertex to the start of the next.
    An edge end is (edge id, 0 at the tail or 1 at the head); with two sides
    per edge it lies on two corners, so each link is a union of cycles."""
    ends = UnionFind()
    for walk in [face.boundary for face in d.faces] + list(d.boundary_cycles):
        for step, nxt in zip(walk, walk[1:] + walk[:1]):
            ends.union((step.edge, 1 if step.direction > 0 else 0),
                       (nxt.edge, 0 if nxt.direction > 0 else 1))
    roots: dict[int, set] = {}
    for e in d.edges:
        for end, v in ((0, e.tail), (1, e.head)):
            roots.setdefault(v, set()).add(ends.find((e.id, end)))
    return {v: len(r) for v, r in roots.items()}


def _face_sides(d: SurfaceDiagram) -> Mapping[int, list[tuple[int, int]]]:
    sides: dict[int, list[tuple[int, int]]] = {e.id: [] for e in d.edges}
    for f_idx, face in enumerate(d.faces):
        for pos, step in enumerate(face.boundary):
            sides[step.edge].append((f_idx, pos))
    return sides


def _side_pairs(d: SurfaceDiagram) -> list[tuple[int, tuple[int, int], tuple[int, int], int]]:
    """Per edge with two face sides, in edge id order: (edge id, side, side,
    relation), where the relation -d1*d2 is the spin ratio of the two faces
    under which they traverse the edge in opposite directions."""
    out = []
    for eid, lst in sorted(_face_sides(d).items()):
        if len(lst) == 2:
            (f1, p1), (f2, p2) = lst
            rel = -d.faces[f1].boundary[p1].direction * d.faces[f2].boundary[p2].direction
            out.append((eid, (f1, p1), (f2, p2), rel))
    return out


def _orientable(d: SurfaceDiagram) -> bool:
    # spin labels on faces: across an interior edge, spin(f2) = rel * spin(f1);
    # (f, s) stands for "f has spin s", and no face may have both spins
    spins = UnionFind()
    for _, (f1, _), (f2, _), rel in _side_pairs(d):
        spins.union((f1, 1), (f2, rel))
        spins.union((f1, -1), (f2, -rel))
    return all(spins.find((f, 1)) != spins.find((f, -1)) for f in range(len(d.faces)))


def _connected(d: SurfaceDiagram) -> bool:
    # V vertices form one class after exactly V - 1 successful joins
    classes = UnionFind()
    joins = sum(classes.union(e.tail, e.head) for e in d.edges)
    return joins == max(d.vertex_count - 1, 0)


@dataclass(frozen=True)
class FoldingEdge:
    edge_id: int
    side_a: tuple[int, int]  # (face index, boundary position)
    side_b: tuple[int, int]


def _validated(d: SurfaceDiagram, p: Presentation) -> ValidationReport:
    report = validate_diagram(d, p)
    if not report.valid:
        raise DdrError("invalid diagram: " + "; ".join(report.errors), code="INVALID_DIAGRAM")
    return report


def folding_edges(d: SurfaceDiagram, p: Presentation) -> tuple[FoldingEdge, ...]:
    """Edges whose two sides lie on faces over the same relator index and
    cross the same letter occurrence; a face may fold onto itself."""
    _validated(d, p)
    return _folding_scan(d)


def _folding_scan(d: SurfaceDiagram) -> tuple[FoldingEdge, ...]:
    # the folding edges of a diagram that has already been validated
    out = []
    for eid, (f1, p1), (f2, p2), _ in _side_pairs(d):
        face1, face2 = d.faces[f1], d.faces[f2]
        if (face1.relator_index == face2.relator_index
                and crossed_occurrence(face1, p1) == crossed_occurrence(face2, p2)):
            out.append(FoldingEdge(eid, (f1, p1), (f2, p2)))
    return tuple(out)


CONSISTENT = "CONSISTENT"
REFUTES = "REFUTES"


@dataclass(frozen=True)
class DirectedVerdict:
    verdict: str
    mode: str  # "sphere" or "disc"
    outside_edges: tuple[int, ...]       # edges labeled outside the subset
    outside_foldings: tuple[int, ...]    # folding edges labeled outside the subset


def directed_verdict(d: SurfaceDiagram, p: Presentation, subset) -> DirectedVerdict:
    """Test a diagram against "directed away from the subset".

    Spheres are tested directly; a disc must have its boundary labeled
    inside the subset (the doubling hypothesis) and is then judged by its
    interior folding edges.  REFUTES means the diagram carries a label
    outside the subset but no folding edge outside the subset: a
    counterexample certificate.
    """
    s = frozenset(subset)
    report = _validated(d, p)
    if report.sphere:
        mode = "sphere"
    elif report.disc:
        mode = "disc"
        boundary_labels = {d.edge_by_id[step.edge].label for step in d.boundary_cycles[0]}
        if not boundary_labels <= s:
            raise DdrError(
                f"disc boundary labels {sorted(boundary_labels - s)} are outside the subset",
                code="HYPOTHESIS_NOT_MET")
    else:
        pinched = f" (pinched at vertices {list(report.pinched)})" if report.pinched else ""
        raise DdrError("diagram is neither a sphere nor a disc" + pinched,
                       code="UNSUPPORTED_SURFACE")
    outside = tuple(e.id for e in d.edges if e.label not in s)
    outside_foldings = tuple(f.edge_id for f in _folding_scan(d)
                             if d.edge_by_id[f.edge_id].label not in s)
    verdict = REFUTES if outside and not outside_foldings else CONSISTENT
    return DirectedVerdict(verdict, mode, outside, outside_foldings)


def double_disc(d: SurfaceDiagram) -> SurfaceDiagram:
    """Double a disc along its boundary: the sphere glued from every face and
    its mirror image.  The two sides of an interior edge are matched within
    each copy, and the face side of a boundary edge to its mirror side; an
    edge with no face side (a spur the boundary walk runs along both ways)
    has nothing to glue and drops out.  Each face is followed by its mirror,
    and vertices and edges are numbered in gluing order."""
    if len(d.boundary_cycles) != 1:
        raise DdrError("not a disc: need exactly one boundary cycle", code="NOT_A_DISC")
    chi = d.vertex_count - len(d.edges) + len(d.faces)
    if chi != 1:
        raise DdrError("not a disc: Euler characteristic is not 1", code="NOT_A_DISC")
    base = _face_polygons(d)
    matches = []
    for sides in _face_sides(d).values():
        if len(sides) == 2:
            matches += [tuple(_sheet_side(base, side, spin) for side in sides) for spin in (1, -1)]
        elif len(sides) == 1:
            matches.append((_sheet_side(base, sides[0], 1), _sheet_side(base, sides[0], -1)))
    return _glue_polygons(_with_mirrors(base), matches)


# --- polygon gluing -------------------------------------------------------

def _face_polygons(d: SurfaceDiagram) -> list[tuple[int, int, Word]]:
    return [(face.relator_index, face.sign, d.face_word(face)) for face in d.faces]


def _with_mirrors(polys: Sequence[tuple[int, int, Word]]) -> list[tuple[int, int, Word]]:
    """Polygon k as polygon 2k, followed by its mirror image (sign flipped,
    word inverted) as polygon 2k+1."""
    return [poly for rel_idx, sign, word in polys
            for poly in ((rel_idx, sign, word), (rel_idx, -sign, inverse_word(word)))]


def _sheet_side(polys: Sequence[tuple[int, int, Word]], side: tuple[int, int],
                spin: int) -> tuple[int, int]:
    # side (k, pos) of polygon k on its plain (+1) or mirrored (-1) copy in
    # _with_mirrors(polys); the mirror of position pos sits at n-1-pos
    k, pos = side
    return (2 * k, pos) if spin > 0 else (2 * k + 1, len(polys[k][2]) - 1 - pos)


def _glue_polygons(polys: Sequence[tuple[int, int, Word]],
                   matches: Sequence[tuple[tuple[int, int], tuple[int, int]]],
                   ) -> SurfaceDiagram:
    """Quotient of labeled polygons by a perfect matching of their sides.

    polys: (relator_index, sign, boundary word) triples; polygon k has
    corners (k, 0..n-1) and side (k, s) runs corner s -> corner s+1 reading
    word[s].  Every side must appear in exactly one match.  Side letters in
    a matched pair must name the same generator; the identification is
    orientation-reversing when the letters are inverse and aligned when they
    are equal.
    """
    seen_sides = set()
    for (i, s1), (j, s2) in matches:
        for key in ((i, s1), (j, s2)):
            if key in seen_sides:
                raise DdrError(f"side {key} matched twice", code="BAD_MATCHING")
            seen_sides.add(key)
    expected = {(k, s) for k, (_, _, w) in enumerate(polys) for s in range(len(w))}
    if seen_sides != expected:
        raise DdrError("matching does not cover every side exactly once", code="BAD_MATCHING")

    corners = UnionFind()

    def corner(k, c):
        return (k, c % len(polys[k][2]))

    for (i, s1), (j, s2) in matches:
        l1 = polys[i][2][s1]
        l2 = polys[j][2][s2]
        if l2 == l1.inverse():
            corners.union(corner(i, s1), corner(j, s2 + 1))
            corners.union(corner(i, s1 + 1), corner(j, s2))
        elif l2 == l1:
            corners.union(corner(i, s1), corner(j, s2))
            corners.union(corner(i, s1 + 1), corner(j, s2 + 1))
        else:
            raise DdrError(f"matched sides read different generators: {l1} vs {l2}",
                           code="BAD_MATCHING")

    vertex_ids: dict[tuple[int, int], int] = {}

    def vertex(c) -> int:
        root = corners.find(c)
        if root not in vertex_ids:
            vertex_ids[root] = len(vertex_ids)
        return vertex_ids[root]

    edges: list[DiagramEdge] = []
    side_to_step: dict[tuple[int, int], BoundaryStep] = {}
    for eid, ((i, s1), (j, s2)) in enumerate(matches):
        l1 = polys[i][2][s1]
        if l1.sign > 0:
            tail, head = vertex(corner(i, s1)), vertex(corner(i, s1 + 1))
        else:
            tail, head = vertex(corner(i, s1 + 1)), vertex(corner(i, s1))
        edges.append(DiagramEdge(eid, l1.gen, tail, head))
        side_to_step[(i, s1)] = BoundaryStep(eid, l1.sign)
        l2 = polys[j][2][s2]
        side_to_step[(j, s2)] = BoundaryStep(eid, l2.sign)

    faces = []
    for k, (rel_idx, sign, word) in enumerate(polys):
        steps = tuple(side_to_step[(k, s)] for s in range(len(word)))
        faces.append(DiagramFace(rel_idx, sign, steps))
    return SurfaceDiagram(len(vertex_ids), tuple(edges), tuple(faces), ())


def _restrict_to_faces(d: SurfaceDiagram, face_indices: Iterable[int]) -> SurfaceDiagram:
    keep = sorted(set(face_indices))
    used_edges = {s.edge for f in keep for s in d.faces[f].boundary}
    used_vertices = sorted({v for eid in used_edges
                            for v in (d.edge_by_id[eid].tail, d.edge_by_id[eid].head)})
    vmap = {v: i for i, v in enumerate(used_vertices)}
    edges = tuple(DiagramEdge(e.id, e.label, vmap[e.tail], vmap[e.head])
                  for e in d.edges if e.id in used_edges)
    faces = tuple(d.faces[f] for f in keep)
    return SurfaceDiagram(len(used_vertices), edges, faces, ())


def orientation_double_cover(d: SurfaceDiagram) -> SurfaceDiagram:
    """The two-sheeted orientation cover of a closed surface diagram, built
    by regluing one plain and one mirrored copy of every face."""
    if d.boundary_cycles:
        raise DdrError("orientation cover needs a closed surface", code="NOT_CLOSED")
    base = _face_polygons(d)
    matches = [(_sheet_side(base, side1, spin), _sheet_side(base, side2, spin * rel))
               for _, side1, side2, rel in _side_pairs(d) for spin in (1, -1)]
    return _glue_polygons(_with_mirrors(base), matches)


def matched_surface(p: Presentation, x: str) -> SurfaceDiagram:
    """A closed oriented surface diagram containing an x-labeled edge whose
    folding edges all carry labels of generators occurring exactly once.

    Construction: two polygons per relator (the relator and its inverse,
    occurrence labels mirrored).  A generator occurring once has its two
    sides matched directly; for every other generator, the plus-polygon
    occurrence list is matched cyclically against the minus-polygon list
    shifted by one, which never pairs a side with its own mirror.  The
    component containing x is extracted and, when non-orientable, replaced
    by its orientation double cover.
    """
    if x not in p.generator_set:
        raise DdrError(f"{x!r} is not a generator", code="BAD_GENERATOR")
    if x in free_edge_generators(p):
        raise DdrError(f"{x!r} occurs exactly once: it is a free edge", code="FREE_EDGE_GENERATOR")
    if not any(x == l.gen for r in p.relators for l in r):
        raise DdrError(f"{x!r} occurs in no relator", code="ABSENT_GENERATOR")
    for idx, r in enumerate(p.relators):
        if not r:
            raise DdrError(f"relator {idx} is empty", code="EMPTY_RELATOR")

    base = [(idx, 1, rel) for idx, rel in enumerate(p.relators)]
    matches = []
    for g in p.generators:
        occurrences = [(idx, pos) for idx, rel in enumerate(p.relators)
                       for pos, letter in enumerate(rel) if letter.gen == g]
        # each occurrence meets the mirror of the next one, cyclically; a
        # lone occurrence thus meets its own mirror
        for n_pos, side in enumerate(occurrences):
            mate = occurrences[(n_pos + 1) % len(occurrences)]
            matches.append((_sheet_side(base, side, 1), _sheet_side(base, mate, -1)))

    glued = _glue_polygons(_with_mirrors(base), matches)
    surface = _component_with_label(glued, x)
    if not _orientable(surface):
        cover = orientation_double_cover(surface)
        surface = _component_with_label(cover, x)
    return surface


def _component_with_label(d: SurfaceDiagram, x: str) -> SurfaceDiagram:
    # join faces that share an edge; restrict to the class of the first face,
    # by index, whose class carries an x-labeled edge
    faces = UnionFind()
    for sides in _face_sides(d).values():
        for f, _ in sides:
            faces.union(sides[0][0], f)
    carriers = {faces.find(f) for f, face in enumerate(d.faces)
                if any(d.edge_by_id[s.edge].label == x for s in face.boundary)}
    for root in map(faces.find, range(len(d.faces))):
        if root in carriers:
            return _restrict_to_faces(d, [f for f in range(len(d.faces)) if faces.find(f) == root])
    raise DdrError(f"no component contains {x!r}", code="ABSENT_GENERATOR")


# --- JSON interchange -----------------------------------------------------

def diagram_to_json_dict(d: SurfaceDiagram) -> dict:
    out = {
        "vertexCount": d.vertex_count,
        "edges": [{"id": e.id, "label": e.label, "from": e.tail, "to": e.head}
                  for e in d.edges],
        "faces": [{"relator": f.relator_index, "sign": f.sign,
                   "boundary": [{"edge": s.edge, "dir": s.direction} for s in f.boundary]}
                  for f in d.faces],
    }
    if d.boundary_cycles:
        out["boundaryCycles"] = [[{"edge": s.edge, "dir": s.direction} for s in cycle]
                                 for cycle in d.boundary_cycles]
    return out


def _typed(value, kind: type):
    # exactly this JSON type: int() would truncate 4.5 and accept true and
    # "2", and str() would read null as the generator name "None"
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _step(obj: dict) -> BoundaryStep:
    return BoundaryStep(_typed(obj["edge"], int), _typed(obj["dir"], int))


def diagram_from_json_dict(obj: dict) -> SurfaceDiagram:
    try:
        edges = tuple(DiagramEdge(_typed(e["id"], int), _typed(e["label"], str),
                                  _typed(e["from"], int), _typed(e["to"], int))
                      for e in obj["edges"])
        faces = tuple(DiagramFace(_typed(f["relator"], int), _typed(f["sign"], int),
                                  tuple(map(_step, f["boundary"])))
                      for f in obj["faces"])
        cycles = tuple(tuple(map(_step, cycle)) for cycle in obj.get("boundaryCycles", []))
        return SurfaceDiagram(_typed(obj["vertexCount"], int), edges, faces, cycles)
    except (KeyError, TypeError) as exc:
        raise DdrError(f"malformed diagram JSON: {exc}", code="SYNTAX") from exc


def dumps_diagram(d: SurfaceDiagram) -> str:
    return json.dumps(diagram_to_json_dict(d), indent=2, sort_keys=False) + "\n"


def loads_diagram(text: str) -> SurfaceDiagram:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a number past the limit on digits converted, or nesting
        raise DdrError(f"malformed diagram JSON: {exc}", code="SYNTAX") from exc
    return diagram_from_json_dict(obj)
