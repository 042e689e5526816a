"""Bounded coset enumeration, Cayley complexes, and the greedy directed
collapse that decides directed reducibility for finite groups.

The collapse removes a 2-cell together with a free edge (an edge lying on
exactly one remaining 2-cell side, multiplicity counted) whose generator is
outside the directed-away subset; 2-cells over relators of the carried
sub-presentation are never collapsed.  Removing a cell across its own free
edge cannot destroy any other cell's free edge, so the candidate set only
grows as cells disappear: the greedy residual is order-independent, STUCK on
the full complex certifies non-collapsibility over every order, and a
collapsed full complex collapses all of its subcomplexes (replay the log
filtered to the subcomplex; multiplicities only shrink).  That upgrades the
finite-subcomplex characterization to a decision procedure when the group
is finite.

Because a live cell never loses a free edge, `directed_collapse` keeps a
min-heap of the cells that have one and requeues the cells on an edge whose
multiplicity drops to 1.  Each step takes the lowest-index such cell across
its first free edge in boundary order, exactly what a rescan of all cells
would pick, so the log does not depend on the worklist.

On the full complex right translation permutes the group, so every edge
labelled x lies on occ(x) cell sides, occ(x) being the number of occurrences
of x^±1 across all relators.  When no relator holds a generator outside the
subset with occ = 1, no cell has a free edge and the log is empty:
`decide_finite` then builds no complex, nor one of more than
`MAX_COMPLEX_SIDES` boundary sides.

Before enumerating, `decide_finite` looks for a subgroup of index at most
`MAX_SCREEN_INDEX` whose abelianization has positive free rank: such a
subgroup is infinite, so the group is too, and enumeration could only
overflow.  The subgroups are the point stabilisers of the transitive actions
on d points in which every relator acts trivially, taken one per conjugacy
class; Reidemeister-Schreier rewriting over a spanning tree of the action
gives each stabiliser's relation matrix (Sims, Computation with Finitely
Presented Groups, 1994).  Index 1 is the trivial action, whose matrix is the
exponent-sum matrix.  A proof, an overflow and an oversized complex all end
in an UNKNOWN with the reason.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import (Presentation, Word, check_preconditions, free_edge_generators,
                   inverse_word, word_support)

COLLAPSED = "COLLAPSED"
STUCK = "STUCK"

DECIDED_DR = "DECIDED_DR"
DECIDED_NOT_DR = "DECIDED_NOT_DR"
UNKNOWN = "UNKNOWN"


class CayleyError(ValueError):
    def __init__(self, message: str, *, code: str = "INVALID"):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class GroupTable:
    """Right action of the generators on the group elements; element 0 is
    the identity."""

    generators: tuple[str, ...]
    forward: Mapping[str, tuple[int, ...]]

    @property
    def element_count(self) -> int:
        return len(next(iter(self.forward.values()))) if self.forward else 1

    @cached_property
    def backward(self) -> Mapping[str, tuple[int, ...]]:
        out = {}
        for g, images in self.forward.items():
            inv = [0] * len(images)
            for src, dst in enumerate(images):
                inv[dst] = src
            out[g] = tuple(inv)
        return out

    def validate(self, p: Presentation) -> None:
        n = self.element_count
        for g in p.generators:
            images = self.forward[g]
            if sorted(images) != list(range(n)):
                raise CayleyError(f"action of {g!r} is not a permutation", code="BAD_TABLE")
        for idx, rel in enumerate(p.relators):
            # compose the relator's action on all elements at once
            image = list(range(n))
            for letter in rel:
                perm = self.forward[letter.gen] if letter.sign > 0 else self.backward[letter.gen]
                image = [perm[e] for e in image]
            for e in range(n):
                if image[e] != e:
                    raise CayleyError(f"relator {idx} does not act trivially from {e}",
                                      code="BAD_TABLE")


# Highest `--coset-limit`: each defined coset holds a row of 2k table slots,
# about 130 bytes at k = 4 generators, so the table stays near 130 MB.
MAX_COSET_LIMIT = 1_000_000


def check_coset_limit(limit: int) -> None:
    if not 1 <= limit <= MAX_COSET_LIMIT:
        raise CayleyError(f"coset limit must be between 1 and {MAX_COSET_LIMIT}, got {limit}",
                          code="BAD_LIMIT")


def coset_enumeration(p: Presentation, limit: int) -> Optional[GroupTable]:
    """Deterministic coset enumeration over the trivial subgroup (relator
    scan with fill, then row completion, with coincidence processing).
    Returns None when more than `limit` cosets would ever be defined; None
    says nothing about the group being infinite."""
    ncols = 2 * len(p.generators)
    col = {}
    for i, g in enumerate(p.generators):
        col[(g, 1)] = 2 * i
        col[(g, -1)] = 2 * i + 1

    def inv_col(c: int) -> int:
        return c ^ 1

    rel_cols = [[col[(l.gen, l.sign)] for l in rel] for rel in p.relators]

    table: list[list[Optional[int]]] = [[None] * ncols]
    rep: list[int] = [0]

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    def define(a: int, c: int) -> Optional[int]:
        if len(table) >= limit:
            return None
        b = len(table)
        table.append([None] * ncols)
        rep.append(b)
        table[a][c] = b
        table[b][inv_col(c)] = a
        return b

    merge_queue: list[int] = []

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        rep[hi] = lo
        merge_queue.append(hi)

    def process_coincidences() -> None:
        while merge_queue:
            dead = merge_queue.pop()
            for c in range(ncols):
                dst = table[dead][c]
                if dst is None:
                    continue
                table[dead][c] = None
                if table[dst][inv_col(c)] == dead:
                    table[dst][inv_col(c)] = None
                a, b = find(dead), find(dst)
                existing = table[a][c]
                if existing is not None:
                    merge(existing, b)
                elif table[b][inv_col(c)] is not None:
                    merge(a, table[b][inv_col(c)])
                else:
                    table[a][c] = b
                    table[b][inv_col(c)] = a

    def scan_and_fill(alpha: int, word_cols: list[int]) -> bool:
        # returns False when the coset limit was hit
        while True:
            f, i = alpha, 0
            n = len(word_cols)
            while i < n:
                nxt = table[f][word_cols[i]]
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i == n:
                if f != alpha:
                    merge(f, alpha)
                    process_coincidences()
                return True
            b, j = alpha, n - 1
            while j >= i:
                prv = table[b][inv_col(word_cols[j])]
                if prv is None:
                    break
                b, j = prv, j - 1
            if j < i:
                merge(f, b)
                process_coincidences()
                return True
            if j == i:
                table[f][word_cols[i]] = b
                table[b][inv_col(word_cols[i])] = f
                continue
            if define(f, word_cols[i]) is None:
                return False

    alpha = 0
    while alpha < len(table):
        if find(alpha) != alpha:
            alpha += 1
            continue
        for word_cols in rel_cols:
            if not scan_and_fill(alpha, word_cols):
                return None
            if find(alpha) != alpha:
                break
        if find(alpha) != alpha:
            alpha += 1
            continue
        for c in range(ncols):
            if table[alpha][c] is None:
                if define(alpha, c) is None:
                    return None
        alpha += 1

    live = [a for a in range(len(table)) if find(a) == a]
    index = {a: i for i, a in enumerate(live)}
    forward = {}
    for g in p.generators:
        c = col[(g, 1)]
        images = []
        for a in live:
            dst = table[a][c]
            if dst is None:
                raise CayleyError("incomplete table after enumeration", code="BAD_TABLE")
            images.append(index[find(dst)])
        forward[g] = tuple(images)
    result = GroupTable(tuple(p.generators), forward)
    result.validate(p)
    return result


# --- complexes and collapsing ----------------------------------------------

CayleyEdge = tuple[int, str]  # (element, generator)

# Most boundary sides (|G| times the total relator length) a complex may have
# before `decide_finite` builds it; each side costs about a hundred bytes.
MAX_COMPLEX_SIDES = 1_000_000


@dataclass(frozen=True)
class CayleyCell:
    element: int
    relator_index: int
    boundary: tuple[tuple[CayleyEdge, int], ...]  # (edge, direction)


@dataclass(frozen=True)
class CayleyComplex:
    table: GroupTable
    presentation: Presentation
    cells: tuple[CayleyCell, ...]

    @property
    def vertex_count(self) -> int:
        return self.table.element_count

    @property
    def edge_count(self) -> int:
        return self.table.element_count * len(self.presentation.generators)

    @property
    def two_cell_count(self) -> int:
        return len(self.cells)


def build_cayley_complex(table: GroupTable, p: Presentation) -> CayleyComplex:
    n = table.element_count
    # one shared tuple per edge, so boundaries hold references, not copies
    edges = [{g: (element, g) for g in p.generators} for element in range(n)]
    lifts = [[(l.gen, l.sign, (table.forward if l.sign > 0 else table.backward)[l.gen])
              for l in rel] for rel in p.relators]
    cells = []
    for element in range(n):
        for r_idx, lift in enumerate(lifts):
            steps = []
            cur = element
            for gen, sign, images in lift:
                if sign > 0:
                    steps.append((edges[cur][gen], 1))
                    cur = images[cur]
                else:
                    cur = images[cur]
                    steps.append((edges[cur][gen], -1))
            if cur != element:
                raise CayleyError("relator lift does not close", code="BAD_TABLE")
            cells.append(CayleyCell(element, r_idx, tuple(steps)))
    return CayleyComplex(table, p, tuple(cells))


@dataclass(frozen=True)
class CollapseStep:
    cell: tuple[int, int]  # (element, relator index)
    edge: CayleyEdge


@dataclass(frozen=True)
class CollapseLog:
    steps: tuple[CollapseStep, ...]
    residual: tuple[tuple[int, int], ...]
    verdict: str  # COLLAPSED or STUCK

    def to_json_dict(self) -> dict:
        return {
            "steps": [{"cell": list(s.cell), "edge": [s.edge[0], s.edge[1]]}
                      for s in self.steps],
            "residual": [list(c) for c in self.residual],
            "verdict": self.verdict,
        }


def directed_collapse(cells: Sequence[CayleyCell], p: Presentation, subset) -> CollapseLog:
    """Greedily collapse 2-cells not carried by the subset across free edges
    whose generator is outside the subset; COLLAPSED when only carried cells
    remain.

    Each step takes the lowest-index cell that has such a free edge, across
    its first one in boundary order.  The cells enter a min-heap once, when
    an edge of theirs first becomes free, and are still candidates when
    popped, since a live cell never loses a free edge.  Any sub-sequence of
    a complex's cells is accepted."""
    s = frozenset(subset)
    carried = {j for j, r in enumerate(p.relators) if word_support(r) <= s}
    ids: dict[CayleyEdge, int] = {}
    sides = [[ids.setdefault(edge, len(ids)) for edge, _ in cell.boundary] for cell in cells]
    multiplicity = [0] * len(ids)
    for side in sides:
        for e in side:
            multiplicity[e] += 1
    # edge -> uncarried cells on it; None for edges whose generator is in the subset
    on_edge: list[Optional[list[int]]] = [None if edge[1] in s else [] for edge in ids]
    for ci, cell in enumerate(cells):
        if cell.relator_index not in carried:
            for e in sides[ci]:
                if on_edge[e] is not None:
                    on_edge[e].append(ci)
    queued = [cell.relator_index not in carried and
              any(multiplicity[e] == 1 and on_edge[e] is not None for e in side)
              for cell, side in zip(cells, sides)]
    heap = [ci for ci, q in enumerate(queued) if q]  # ascending, so already a heap
    edge_of = list(ids)
    steps: list[CollapseStep] = []
    while heap:
        ci = heapq.heappop(heap)
        side = sides[ci]
        free = next(e for e in side if multiplicity[e] == 1 and on_edge[e] is not None)
        steps.append(CollapseStep((cells[ci].element, cells[ci].relator_index), edge_of[free]))
        for e in side:
            multiplicity[e] -= 1
        for e in side:
            if multiplicity[e] == 1 and on_edge[e]:
                for cj in on_edge[e]:
                    if not queued[cj]:
                        queued[cj] = True
                        heapq.heappush(heap, cj)
    # every queued cell has been collapsed once the heap is empty
    remaining = [ci for ci, q in enumerate(queued) if not q]
    residual = tuple((cells[ci].element, cells[ci].relator_index) for ci in remaining)
    verdict = COLLAPSED if all(cells[ci].relator_index in carried for ci in remaining) else STUCK
    return CollapseLog(tuple(steps), residual, verdict)


def replay_collapse(cells: Sequence[CayleyCell], subset,
                    steps: Sequence[CollapseStep]) -> bool:
    """Re-execute a collapse log from scratch, checking each step's edge is
    free at its time and its generator outside the subset."""
    s = frozenset(subset)
    by_key = {(c.element, c.relator_index): i for i, c in enumerate(cells)}
    multiplicity: Counter = Counter()
    alive = set(range(len(cells)))
    for ci in alive:
        for edge, _ in cells[ci].boundary:
            multiplicity[edge] += 1
    for step in steps:
        ci = by_key.get(step.cell)
        if ci is None or ci not in alive:
            return False
        if step.edge[1] in s or multiplicity[step.edge] != 1:
            return False
        if all(edge != step.edge for edge, _ in cells[ci].boundary):
            return False
        alive.remove(ci)
        for edge, _ in cells[ci].boundary:
            multiplicity[edge] -= 1
    return True


# --- the infinitude screen ---------------------------------------------------

# Highest subgroup index the screen searches; on the benchmark inputs index 4
# proved no further group infinite and made the screen up to four times slower.
MAX_SCREEN_INDEX = 3
# Generator assignments the search may try per index before it gives up; a
# miss only means that enumeration runs.
MAX_SCREEN_NODES = 20_000


class _Symmetric(NamedTuple):
    """S_d as indices into `perms` (lexicographic, so 0 is the identity)."""

    perms: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]    # mul[a][b]: a, then b
    conj: tuple[tuple[int, ...], ...]   # conj[s][a]: s^-1 a s
    power: tuple[tuple[int, ...], ...]  # power[a][e] = a^e, 0 <= e < exponent
    exponent: int                       # lcm(1..d): every order divides it


@cache
def _symmetric(d: int) -> _Symmetric:
    perms = tuple(permutations(range(d)))
    index = {q: i for i, q in enumerate(perms)}
    mul = tuple(tuple(index[tuple(b[x] for x in a)] for b in perms) for a in perms)
    inv = [row.index(0) for row in mul]
    conj = tuple(tuple(mul[mul[inv[s]][a]][s] for a in range(len(perms)))
                 for s in range(len(perms)))
    exponent = math.lcm(*range(1, d + 1))
    power = []
    for a in range(len(perms)):
        row = [0]
        while len(row) < exponent:
            row.append(mul[row[-1]][a])
        power.append(tuple(row))
    return _Symmetric(perms, mul, conj, tuple(power), exponent)


Runs = list[tuple[int, int]]  # a relator as (generator index, exponent) runs


def _relator_runs(p: Presentation) -> list[Runs]:
    index = {g: i for i, g in enumerate(p.generators)}
    out = []
    for rel in p.relators:
        runs: list[list[int]] = []
        for letter in rel:
            gi = index[letter.gen]
            if runs and runs[-1][0] == gi:
                runs[-1][1] += letter.sign
            else:
                runs.append([gi, letter.sign])
        out.append([(gi, e) for gi, e in runs if e])
    return out


def _trivial_actions(runs: Sequence[Runs], gen_count: int, d: int) -> list[tuple[int, ...]]:
    """Assignments of S_d elements to the generators under which every
    relator acts trivially, each the lexicographically least of its
    conjugacy class.  Generators are assigned in declaration order, and a
    relator is checked once all of its generators have a value.  Stops after
    `MAX_SCREEN_NODES` tries beyond one pass down and up the generators."""
    g = _symmetric(d)
    n = len(g.perms)
    closing: list[list[Runs]] = [[] for _ in range(gen_count)]
    for rel in runs:
        reduced = [(gi, e % g.exponent) for gi, e in rel if e % g.exponent]
        if reduced:
            closing[max(gi for gi, _ in reduced)].append(reduced)
    if not gen_count:
        return [()] if d == 1 else []
    found: list[tuple[int, ...]] = []
    assign: list[int] = []
    choices = [iter(range(n))]
    # conjugators fixing the assigned prefix: only they can make it smaller
    fixers = [range(1, n)]
    for _ in range(MAX_SCREEN_NODES + 2 * gen_count + 1):
        a = next(choices[-1], None)
        if a is None:
            choices.pop()
            fixers.pop()
            if not assign:
                break
            assign.pop()
            continue
        if any(g.conj[s][a] < a for s in fixers[-1]):
            continue
        assign.append(a)
        trivial = True
        for rel in closing[len(assign) - 1]:
            x = 0
            for gi, e in rel:
                x = g.mul[x][g.power[assign[gi]][e]]
            if x:
                trivial = False
                break
        if trivial and len(assign) == gen_count:
            found.append(tuple(assign))
        elif trivial:
            choices.append(iter(range(n)))
            fixers.append([s for s in fixers[-1] if g.conj[s][a] == a])
            continue
        assign.pop()
    return found


def _schreier_columns(perms: Sequence[tuple[int, ...]], d: int) -> Optional[list[list[int]]]:
    """Column of each non-tree pair (point, generator index) of a BFS
    spanning tree from point 0, -1 on tree edges; None when the action is
    not transitive."""
    tree, seen, order = set(), {0}, [0]
    for x in order:
        for gi, perm in enumerate(perms):
            if perm[x] not in seen:
                seen.add(perm[x])
                order.append(perm[x])
                tree.add((x, gi))
    if len(order) < d:
        return None
    count = iter(range(d * len(perms)))
    return [[-1 if (x, gi) in tree else next(count) for gi in range(len(perms))]
            for x in range(d)]


def _rank(rows: list[list[int]], ncols: int) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination: every division
    is exact, so the entries stay integers."""
    rows = [list(row) for row in set(map(tuple, rows)) if any(row)]
    rank, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, len(rows)):
            row, q = rows[i], rows[i][c]
            rows[i] = [0] * (c + 1) + [(p * row[j] - q * top[j]) // prev
                                       for j in range(c + 1, ncols)]
        prev = p
        rank += 1
    return rank


def _stabiliser_free_rank(runs: Sequence[Runs], perms: Sequence[tuple[int, ...]],
                          d: int) -> Optional[int]:
    """Free rank of the abelianized stabiliser of point 0 under a transitive
    action in which every relator acts trivially: the number of Schreier
    generators minus the rank of the relators lifted at every point.  A run
    g^e is lifted along the point's g-cycle, so its cost is O(d), not |e|.
    None when the action is not transitive."""
    columns = _schreier_columns(perms, d)
    if columns is None:
        return None
    ncols = d * (len(perms) - 1) + 1  # the tree has d - 1 of the d k edges
    # per generator and point: the point's cycle, and the column of the
    # edge leaving each of its points
    cycles = []
    for gi, perm in enumerate(perms):
        per_point = []
        for x in range(d):
            points = [x]
            while perm[points[-1]] != x:
                points.append(perm[points[-1]])
            per_point.append((points, [columns[y][gi] for y in points]))
        cycles.append(per_point)
    rows = []
    for rel in runs:
        for start in range(d):
            row, x = [0] * ncols, start
            for gi, e in rel:
                points, cols = cycles[gi][x]
                # g^e = (g^L)^laps g^rest, and g^L winds once around the cycle
                laps, rest = divmod(e, len(points))
                for j, col in enumerate(cols):
                    if col >= 0:
                        row[col] += laps + (j < rest)
                x = points[rest]
            rows.append(row)
    return ncols - _rank(rows, ncols)


def abelian_free_rank(p: Presentation) -> int:
    """Free rank of the abelianization: the index-1 case of the screen, where
    the Schreier generators are the generators and the lifted relators are
    the exponent-sum rows."""
    return _stabiliser_free_rank(_relator_runs(p), [(0,)] * len(p.generators), 1)


class InfinitudeProof(NamedTuple):
    """A transitive action on `index` points in which every relator acts
    trivially, and whose point stabiliser, a subgroup of that index, has
    abelianization of free rank `free_rank` > 0."""

    index: int
    free_rank: int
    permutations: Mapping[str, tuple[int, ...]]  # generator -> images of 0..index-1

    @property
    def reason(self) -> str:
        if self.index == 1:
            return (f"abelianization has free rank {self.free_rank}, so the group is "
                    "infinite; coset enumeration skipped")
        return (f"a subgroup of index {self.index} has abelianization of free rank "
                f"{self.free_rank}, so the group is infinite; coset enumeration skipped")

    def to_json_dict(self) -> dict:
        return {"index": self.index, "free_rank": self.free_rank,
                "permutations": {g: list(v) for g, v in self.permutations.items()}}


def _without_free_edges(p: Presentation) -> tuple[Presentation, dict[str, tuple[Word, int, Word]]]:
    """Tietze moves that keep the group: drop each relator u g^e v in which a
    generator g occurs that occurs nowhere else, together with g, one
    generator per relator.  Returns the smaller presentation and, for each
    dropped g, (u, e, v); u and v hold no dropped generator."""
    free = free_edge_generators(p)
    dropped, kept = {}, []
    for rel in p.relators:
        pos = next((i for i, letter in enumerate(rel) if letter.gen in free), None)
        if pos is None:
            kept.append(rel)
        else:
            dropped[rel[pos].gen] = (rel[:pos], rel[pos].sign, rel[pos + 1:])
    gens = tuple(g for g in p.generators if g not in dropped)
    return Presentation(gens, tuple(kept)), dropped


def prove_infinite(p: Presentation) -> Optional[InfinitudeProof]:
    """The first subgroup of index 1 to `MAX_SCREEN_INDEX` found with an
    abelianization of positive free rank, or None.  None says nothing
    about the group being finite.  The search runs on the presentation
    without its free-edge generators; each one's permutation then follows
    from its relator."""
    q, dropped = _without_free_edges(p)
    runs = _relator_runs(q)
    for d in range(1, MAX_SCREEN_INDEX + 1):
        perms = _symmetric(d).perms
        for assignment in _trivial_actions(runs, len(q.generators), d):
            action = [perms[a] for a in assignment]
            rank = _stabiliser_free_rank(runs, action, d)
            if rank:
                images = dict(zip(q.generators, action))
                for g, (u, sign, v) in dropped.items():
                    # u g^sign v = 1, so g^sign = (v u)^-1
                    word = v + u if sign < 0 else inverse_word(v + u)
                    images[g] = tuple(_act(images, word, x) for x in range(d))
                return InfinitudeProof(d, rank, {g: images[g] for g in p.generators})
    return None


def _act(images: Mapping[str, tuple[int, ...]], word: Word, x: int) -> int:
    for letter in word:
        x = images[letter.gen][x] if letter.sign > 0 else images[letter.gen].index(x)
    return x


@dataclass(frozen=True)
class FiniteDecision:
    verdict: str  # DECIDED_DR, DECIDED_NOT_DR, UNKNOWN
    table: Optional[GroupTable]
    log: Optional[CollapseLog]
    reason: Optional[str] = None  # why the verdict is UNKNOWN
    proof: Optional[InfinitudeProof] = None  # why the group is infinite


def decide_finite(p: Presentation, subset, limit: int) -> FiniteDecision:
    """Decide directed reducibility when the group is small enough to
    enumerate: collapse the full finite universal-cover complex.  The greedy
    collapse is order-independent, so COLLAPSED and STUCK are both
    conclusive.  A group proved infinite by `prove_infinite`, an
    enumeration overflow and a complex over `MAX_COMPLEX_SIDES` are honest
    UNKNOWNs.  No complex is built when no generator outside the subset
    occurs exactly once in the relators (see the module docstring)."""
    s = check_preconditions(p, subset, CayleyError, cyclically_reduced=False)
    proof = prove_infinite(p)
    if proof is not None:
        return FiniteDecision(UNKNOWN, None, None, proof.reason, proof)
    table = coset_enumeration(p, limit)
    if table is None:
        return FiniteDecision(UNKNOWN, None, None, f"enumeration exceeded {limit} cosets")
    n = table.element_count
    starters = free_edge_generators(p) - s
    if any(word_support(r) & starters for r in p.relators):
        sides = n * sum(len(r) for r in p.relators)
        if sides > MAX_COMPLEX_SIDES:
            return FiniteDecision(UNKNOWN, table, None,
                                  f"covering complex has {sides} boundary sides, over the "
                                  f"budget of {MAX_COMPLEX_SIDES}")
        log = directed_collapse(build_cayley_complex(table, p).cells, p, s)
    else:
        residual = tuple((element, j) for element in range(n) for j in range(len(p.relators)))
        carried = all(word_support(r) <= s for r in p.relators)
        log = CollapseLog((), residual, COLLAPSED if carried else STUCK)
    verdict = DECIDED_DR if log.verdict == COLLAPSED else DECIDED_NOT_DR
    return FiniteDecision(verdict, table, log)
