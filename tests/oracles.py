"""Brute-force oracles, kept independent of the code paths they check."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Mapping

from ddr.cayley import (COLLAPSED, STUCK, CayleyCell, CollapseLog, CollapseStep, GroupTable)
from ddr.core import DdrError, Letter, Presentation, Word, inverse_word, word_support
from ddr.diagram import SurfaceDiagram
from ddr.lot import LOT, LotEdge
from ddr.whitehead import WhiteheadGraph


def brute_min_reduced_cycle(graph: WhiteheadGraph, weights=None):
    """Minimum weight over all dart-simple reduced closed walks, by
    exhaustive DFS; returns (weight, cycle darts) or (None, None).

    Weights are nonnegative, so a path already as heavy as the best cycle
    found so far can never beat it.  A first pass over walks of at most four
    darts finds a good bound early, before a start dart whose walks never
    close (an edge into a cluster of loops, say) is searched in full.
    """
    if weights is None:
        wt = {e.id: Fraction(1) for e in graph.edges}
    else:
        wt = {eid: Fraction(w) for eid, w in weights.items()}
    best = [None, None]

    def rec(path, used, total, limit):
        last = path[-1]
        head = graph.head(last)
        if head == graph.tail(path[0]) and path[0] != last ^ 1:
            if best[0] is None or total < best[0]:
                best[0], best[1] = total, tuple(path)
        if best[0] is not None and total >= best[0] or len(path) == limit:
            return
        for nxt in graph.darts_from[head]:
            if nxt in used or nxt == last ^ 1:
                continue
            path.append(nxt)
            used.add(nxt)
            rec(path, used, total + wt[nxt // 2], limit)
            path.pop()
            used.remove(nxt)

    for limit in (4, graph.dart_count):
        for start in range(graph.dart_count):
            rec([start], {start}, wt[start // 2], limit)
    return best[0], best[1]


def brute_min_cycle_ends(graph: WhiteheadGraph, weights):
    """The least (weight, first dart, last dart) over all dart-simple reduced
    closed walks that start at their lowest dart, by exhaustive DFS: the
    minimum weight, then the lowest start, then the lowest closing dart.
    Zero weights leave the search unbounded by the best weight, so keep the
    graph small."""
    wt = {eid: Fraction(w) for eid, w in weights.items()}
    best = [None]

    def rec(path, used, total):
        if best[0] is not None and total > best[0][0]:
            return
        last = path[-1]
        head = graph.head(last)
        if head == graph.tail(path[0]) and path[0] != last ^ 1:
            found = (total, path[0], last)
            if best[0] is None or found < best[0]:
                best[0] = found
        for nxt in graph.darts_from[head]:
            if nxt < path[0] or nxt in used or nxt == last ^ 1:
                continue
            path.append(nxt)
            used.add(nxt)
            rec(path, used, total + wt[nxt // 2])
            path.pop()
            used.remove(nxt)

    for start in range(graph.dart_count):
        rec([start], {start}, wt[start // 2])
    return best[0]


def brute_reduced_cycles_of_length(graph: WhiteheadGraph, length: int):
    """All reduced closed dart walks of exactly the given length (repeats
    allowed), by raw enumeration."""
    out = []
    for walk in product(range(graph.dart_count), repeat=length):
        ok = True
        for i in range(length):
            cur, nxt = walk[i], walk[(i + 1) % length]
            if graph.head(cur) != graph.tail(nxt) or nxt == cur ^ 1:
                ok = False
                break
        if ok:
            out.append(walk)
    return out


def brute_component_count(graph: WhiteheadGraph, vertex_set, edge_ids):
    adj = {v: set() for v in vertex_set}
    for eid in edge_ids:
        e = graph.edges[eid]
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    seen = set()
    components = 0
    for v in vertex_set:
        if v in seen:
            continue
        components += 1
        stack = [v]
        seen.add(v)
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return components


# --- pieces ----------------------------------------------------------------

def brute_occurrences(p):
    """(provenance, word) pairs for all rotations of relators and inverses."""
    out = []
    for idx, rel in enumerate(p.relators):
        for inverted in (False, True):
            base = inverse_word(rel) if inverted else rel
            for rot in range(len(rel)):
                out.append(((idx, inverted, rot), base[rot:] + base[:rot]))
    return out


def brute_is_piece(u: Word, occurrences) -> bool:
    hits = 0
    for _, word in occurrences:
        if word[:len(u)] == u:
            hits += 1
            if hits >= 2:
                return True
    return False


def brute_min_pieces(word: Word, occurrences):
    """Minimum piece count over every decomposition, by memoized recursion;
    None when the word is no product of pieces."""
    memo = {}

    def rec(start):
        if start == len(word):
            return 0
        if start in memo:
            return memo[start]
        best = None
        for end in range(start + 1, len(word) + 1):
            if brute_is_piece(word[start:end], occurrences):
                rest = rec(end)
                if rest is not None and (best is None or rest + 1 < best):
                    best = rest + 1
            else:
                break  # prefixes of pieces are pieces: no longer piece starts here
        memo[start] = best
        return best

    return rec(0)


# --- diagrams ---------------------------------------------------------------

def brute_folding_edges(d: SurfaceDiagram, p):
    """Folding detection by simulating the fold walk around the whole
    boundary: same relator cell, and for every k the two walks cross the
    same letter occurrence with mirrored letters."""
    sides = {}
    for f_idx, face in enumerate(d.faces):
        for pos, step in enumerate(face.boundary):
            sides.setdefault(step.edge, []).append((f_idx, pos))
    out = []
    for eid in sorted(sides):
        lst = sides[eid]
        if len(lst) != 2:
            continue
        (f1, p1), (f2, p2) = lst
        face1, face2 = d.faces[f1], d.faces[f2]
        if face1.relator_index != face2.relator_index:
            continue
        n1, n2 = len(face1.boundary), len(face2.boundary)
        if n1 != n2:
            continue
        w1 = [d.step_letter(s) for s in face1.boundary]
        w2 = [d.step_letter(s) for s in face2.boundary]

        def occ(face, q, n):
            return q % n if face.sign > 0 else (n - 1 - q % n) % n

        d1 = face1.boundary[p1].direction
        d2 = face2.boundary[p2].direction
        if d1 == d2:
            ok = all(w1[(p1 + k) % n1] == w2[(p2 + k) % n2]
                     and occ(face1, p1 + k, n1) == occ(face2, p2 + k, n2)
                     for k in range(n1))
        else:
            ok = all(w1[(p1 + k) % n1] == w2[(p2 - k) % n2].inverse()
                     and occ(face1, p1 + k, n1) == occ(face2, p2 - k, n2)
                     for k in range(n1))
        if ok:
            out.append(eid)
    return out


def vertex_count_from_links(d: SurfaceDiagram) -> int:
    """Recount the vertices of a closed surface diagram from the corner
    structure alone: corner (f, p) sits between boundary steps p and p+1;
    gluing an edge's two sides identifies the flanking corners at each of
    its ends.  The number of corner classes is the number of link circles,
    which equals the vertex count exactly when no vertex is pinched."""
    sides = {}
    for f_idx, face in enumerate(d.faces):
        for pos, step in enumerate(face.boundary):
            sides.setdefault(step.edge, []).append((f_idx, pos))

    parent = {}

    def find(c):
        parent.setdefault(c, c)
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(c1, c2):
        r1, r2 = find(c1), find(c2)
        if r1 != r2:
            parent[r2] = r1

    for eid in sorted(sides):
        (f, q), (g, r) = sides[eid]
        nf, ng = len(d.faces[f].boundary), len(d.faces[g].boundary)
        same = d.faces[f].boundary[q].direction == d.faces[g].boundary[r].direction
        if same:
            union((f, (q - 1) % nf), (g, (r - 1) % ng))
            union((f, q), (g, r))
        else:
            union((f, (q - 1) % nf), (g, r))
            union((f, q), (g, (r - 1) % ng))

    corners = [(f, p) for f, face in enumerate(d.faces)
               for p in range(len(face.boundary))]
    return len({find(c) for c in corners})


def infinitude_proof_error(p, index: int, free_rank: int,
                           permutations: Mapping[str, list[int]]) -> str | None:
    """Re-check a proof that a subgroup of finite index has abelianization
    of positive free rank, letter by letter: each generator permutes
    0..index-1, every relator fixes every point, the action is transitive,
    and the stabiliser of 0 has the claimed free rank.  The rank is
    recomputed over a depth-first spanning tree that also follows inverse
    edges, with `Fraction` elimination.  None when the proof holds, else
    what fails."""
    points = list(range(index))
    if free_rank < 1:
        return f"free rank {free_rank} proves nothing"
    if sorted(permutations) != sorted(p.generators):
        return "the permutations do not cover the generators"
    forward = {g: list(images) for g, images in permutations.items()}
    if any(sorted(images) != points for images in forward.values()):
        return "some generator does not act by a permutation"
    backward = {g: [images.index(x) for x in points] for g, images in forward.items()}

    def step(x, letter):
        # the point reached and the crossed edge (tail point, generator), signed
        if letter.sign > 0:
            return forward[letter.gen][x], (x, letter.gen), 1
        y = backward[letter.gen][x]
        return y, (y, letter.gen), -1

    for idx, rel in enumerate(p.relators):
        for x in points:
            y = x
            for letter in rel:
                y = step(y, letter)[0]
            if y != x:
                return f"relator {idx} moves point {x}"
    tree, reached, stack = set(), {0}, [0]
    while stack:
        x = stack.pop()
        for g in reversed(p.generators):
            for sign in (1, -1):
                y, edge, _ = step(x, Letter(g, sign))
                if y not in reached:
                    reached.add(y)
                    tree.add(edge)
                    stack.append(y)
    if len(reached) != index:
        return "the action is not transitive"
    column = {}
    for x in points:
        for g in p.generators:
            if (x, g) not in tree:
                column[(x, g)] = len(column)
    rows = []
    for rel in p.relators:
        for x in points:
            row = [Fraction(0)] * len(column)
            for letter in rel:
                x, edge, sign = step(x, letter)
                if edge in column:
                    row[column[edge]] += sign
            rows.append(row)
    rank = _rank(rows, len(column))
    if len(column) - rank != free_rank:
        return f"the stabiliser has free rank {len(column) - rank}, not {free_rank}"
    return None


def _rank(rows: list[list[Fraction]], ncols: int) -> int:
    """The rank of a matrix, by `Fraction` elimination (the rows change)."""
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def abelian_free_rank(p: Presentation) -> int:
    """Free rank of the abelianization: the generator count less the rank of
    the exponent-sum matrix."""
    rows = [[Fraction(sum(l.sign for l in rel if l.gen == g)) for g in p.generators]
            for rel in p.relators]
    return len(p.generators) - _rank(rows, len(p.generators))


def parse_word(text: str) -> Word:
    """A word from text like "a b^-1 c^2", each token g^k read as |k| copies
    of g or g^-1; no generator is checked against a presentation."""
    word = []
    for token in text.split():
        name, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        word.extend([Letter(name, 1 if k > 0 else -1)] * abs(k))
    return tuple(word)


def tuple_complex(table: GroupTable, p: Presentation) -> tuple[CayleyCell, ...]:
    """Reference covering complex: each cell lifted letter by letter from its
    element, its boundary as ((element, generator), direction) tuples, in
    order of element, then relator."""
    cells = []
    for element in range(table.element_count):
        for r_idx, rel in enumerate(p.relators):
            steps, cur = [], element
            for letter in rel:
                if letter.sign > 0:
                    steps.append(((cur, letter.gen), 1))
                    cur = table.forward[letter.gen][cur]
                else:
                    cur = table.forward[letter.gen].index(cur)
                    steps.append(((cur, letter.gen), -1))
            if cur != element:
                raise DdrError("relator lift does not close", code="BAD_TABLE")
            cells.append(CayleyCell(element, r_idx, tuple(steps)))
    return tuple(cells)


def first_nontrivial_relator(table: GroupTable, p: Presentation) -> tuple[int, int] | None:
    """(relator index, element) of the first relator, applied letter by
    letter, that does not return some element to itself, at the first such
    element; None when every relator acts trivially."""
    for idx, rel in enumerate(p.relators):
        for element in range(table.element_count):
            cur = element
            for letter in rel:
                images = table.forward[letter.gen]
                cur = images[cur] if letter.sign > 0 else images.index(cur)
            if cur != element:
                return idx, element
    return None


def rescan_collapse(cells, p, subset, rng: random.Random | None = None) -> CollapseLog:
    """Reference directed collapse: after every step, rescan all remaining
    cells for those not carried by the subset with a free edge outside it,
    and collapse the lowest-index one across its first such edge, or, with
    `rng`, a random candidate."""
    s = frozenset(subset)
    carried = {j for j, r in enumerate(p.relators) if word_support(r) <= s}
    remaining = list(range(len(cells)))
    multiplicity = Counter(edge for cell in cells for edge, _ in cell.boundary)
    steps = []
    while True:
        candidates = []
        for ci in remaining:
            if cells[ci].relator_index in carried:
                continue
            for edge, _ in cells[ci].boundary:
                if edge[1] not in s and multiplicity[edge] == 1:
                    candidates.append((ci, edge))
                    break
        if not candidates:
            break
        ci, edge = candidates[0] if rng is None else rng.choice(candidates)
        remaining.remove(ci)
        for other, _ in cells[ci].boundary:
            multiplicity[other] -= 1
        steps.append(CollapseStep((cells[ci].element, cells[ci].relator_index), edge))
    residual = tuple((cells[ci].element, cells[ci].relator_index) for ci in remaining)
    verdict = COLLAPSED if all(cells[ci].relator_index in carried for ci in remaining) else STUCK
    return CollapseLog(tuple(steps), residual, verdict)


def insert(lbar: LOT, y: str, t: LOT,
           endpoint_attachment: Mapping[int, str],
           label_attachment: Mapping[int, str]) -> LOT:
    """The reference inverse of `collapse`: remove y and splice in the tree t.

    The attachments say, per lbar edge index, which t-vertex replaces y as
    an endpoint and which replaces y as a label; both maps must cover
    exactly the edges that mention y in that role.
    """
    if y not in lbar.vertex_set:
        raise DdrError(f"{y!r} is not a vertex", code="BAD_VERTEX")
    collision = (lbar.vertex_set - {y}) & t.vertex_set
    if collision:
        raise DdrError(f"vertex names {sorted(collision)} collide with the inserted tree",
                       code="NAME_COLLISION")
    need_endpoint = {i for i, e in enumerate(lbar.edges) if y in (e.source, e.target)}
    need_label = {i for i, e in enumerate(lbar.edges) if e.label == y}
    if set(endpoint_attachment) != need_endpoint or set(label_attachment) != need_label:
        raise DdrError("attachment underspecified or mentions edges without y",
                       code="ATTACHMENT_UNDERSPECIFIED")
    for v in list(endpoint_attachment.values()) + list(label_attachment.values()):
        if v not in t.vertex_set:
            raise DdrError(f"attachment vertex {v!r} is not in the inserted tree",
                           code="ATTACHMENT_UNDERSPECIFIED")
    vertices: list[str] = []
    for v in lbar.vertices:
        if v == y:
            vertices.extend(t.vertices)
        else:
            vertices.append(v)
    edges = []
    for i, e in enumerate(lbar.edges):
        source = endpoint_attachment[i] if e.source == y else e.source
        target = endpoint_attachment[i] if e.target == y else e.target
        label = label_attachment[i] if e.label == y else e.label
        edges.append(LotEdge(source, target, label))
    edges.extend(t.edges)
    return LOT(tuple(vertices), tuple(edges))


def dump_graph(graph: WhiteheadGraph) -> str:
    """One line per Whitehead edge: id, relator, corner position and ends."""
    lines = []
    for e in graph.edges:
        lines.append(f"edge {e.id} rel={e.relator_index} pos={e.corner_position} "
                     f"{e.a} -- {e.b}")
    return "\n".join(lines) + ("\n" if lines else "")
