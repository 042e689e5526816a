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

The complex lives in flat integer arrays: edge (x, g_i) is x·k + i and
cell (x, r) is x·m + r for k generators and m relators, and each cell is the
list of its boundary's edge ids.  Because a live cell never loses a free
edge, `directed_collapse` keeps a min-heap of the cells that have one; per
edge it keeps the number of live sides and the XOR of their cells'
positions, which names the last cell on an edge once one side is left.
Each step takes the lowest-index candidate across its first free edge in
boundary order, exactly what a rescan of all cells would pick, so the log
does not depend on the worklist.

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
exponent-sum matrix.  A proof ends in an UNKNOWN decision that carries it;
an overflow and an oversized complex, like every budget ddr spends, raise
`BudgetSpent` with the reason.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from typing import Mapping, NamedTuple, Optional, Sequence

from .certificates import DECIDED_DR, DECIDED_NOT_DR, UNKNOWN
from .core import (BudgetSpent, DdrError, Presentation, Word, check_preconditions,
                   free_edge_generators, inverse_word, word_support)

COLLAPSED = "COLLAPSED"
STUCK = "STUCK"


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
        """Check that every generator acts as a permutation and every
        relator acts trivially.  A relator acts as the composite of its runs
        g^e, each power taken by squaring, so a run costs O(n log |e|), not
        O(n |e|)."""
        n = self.element_count
        for g in p.generators:
            if sorted(self.forward[g]) != list(range(n)):
                raise DdrError(f"action of {g!r} is not a permutation", code="BAD_TABLE")
        for idx, runs in enumerate(_relator_runs(p)):
            # compose the relator's action on all elements at once
            image = list(range(n))
            for gi, e in runs:
                g = p.generators[gi]
                power = _permutation_power(self.forward[g] if e > 0 else self.backward[g], abs(e))
                image = [power[x] for x in image]
            for x in range(n):
                if image[x] != x:
                    raise DdrError(f"relator {idx} does not act trivially from {x}",
                                   code="BAD_TABLE")


def _permutation_power(perm: Sequence[int], e: int) -> Sequence[int]:
    """perm^e for e >= 1, by repeated squaring."""
    result = None
    while True:
        if e & 1:
            result = perm if result is None else [perm[x] for x in result]
        e >>= 1
        if not e:
            return result
        perm = [perm[x] for x in perm]


# Highest `--coset-limit`: each defined coset holds 2k column slots and a
# union-find slot, about 100 bytes at k = 4 generators (tracemalloc at limits
# of 2,000 and 8,000 cosets), so the table stays near 100 MB.
MAX_COSET_LIMIT = 1_000_000


def check_coset_limit(limit: int) -> None:
    if not 1 <= limit <= MAX_COSET_LIMIT:
        raise DdrError(f"coset limit must be between 1 and {MAX_COSET_LIMIT}, got {limit}",
                       code="BAD_LIMIT")


def coset_enumeration(p: Presentation, limit: int) -> Optional[GroupTable]:
    """Deterministic coset enumeration over the trivial subgroup (relator
    scan with fill, then row completion, with coincidence processing), in
    the Haselgrove-Leech-Trotter order.  The table is one list per column,
    -1 where undefined; column 2i is generator i and 2i + 1 its inverse.
    Returns None when more than `limit` cosets would ever be defined; None
    says nothing about the group being infinite."""
    ncols = 2 * len(p.generators)
    index = {g: i for i, g in enumerate(p.generators)}
    cols: list[list[int]] = [[-1] for _ in range(ncols)]
    rep: list[int] = [0]  # union-find parent of each coset
    # per relator: its letters' columns, and the column lists of its letters
    # and of their inverses
    scans = []
    for rel in p.relators:
        word = [2 * index[l.gen] + (l.sign < 0) for l in rel]
        scans.append((word, [cols[c] for c in word], [cols[c ^ 1] for c in word]))

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    def define(a: int, c: int) -> bool:
        b = len(rep)
        if b >= limit:
            return False
        if b == len(cols[c]):  # the columns double, up to the limit
            grow = [-1] * min(b, limit - b)
            for col in cols:
                col.extend(grow)
        rep.append(b)
        cols[c][a] = b
        cols[c ^ 1][b] = a
        return True

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
                col, inv = cols[c], cols[c ^ 1]
                dst = col[dead]
                if dst < 0:
                    continue
                col[dead] = -1
                if inv[dst] == dead:
                    inv[dst] = -1
                a, b = find(dead), find(dst)
                if col[a] >= 0:
                    merge(col[a], b)
                elif inv[b] >= 0:
                    merge(a, inv[b])
                else:
                    col[a] = b
                    inv[b] = a

    def scan_and_fill(alpha: int, word: list[int], fwd: list[list[int]],
                      inv: list[list[int]]) -> bool:
        """Scan the relator from alpha, defining cosets until it closes.
        Entries are only added between definitions, so each scan resumes
        where the last one stopped, with the table it would find from the
        start.  Returns False when the coset limit was hit."""
        n = len(word)
        f = alpha
        for i, col in enumerate(fwd):
            nxt = col[f]
            if nxt < 0:
                break
            f = nxt
        else:
            if f != alpha:
                merge(f, alpha)
                process_coincidences()
            return True
        # letters 0..i-1 lead from alpha to f, letters j+1..n-1 from b to alpha
        b, j = alpha, n - 1
        while True:
            if j < i:  # the forward trace overtook the backward one: trace afresh
                b, j = alpha, n - 1
            while j >= i:
                prv = inv[j][b]
                if prv < 0:
                    break
                b = prv
                j -= 1
            if j < i:
                merge(f, b)
                process_coincidences()
                return True
            if j == i:
                # a deduction; the table stays a partial bijection, so the
                # relator now closes at alpha
                fwd[i][f] = b
                inv[i][b] = f
                return True
            if not define(f, word[i]):
                return False
            while i < n:
                nxt = fwd[i][f]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i == n:
                if f != alpha:
                    merge(f, alpha)
                    process_coincidences()
                return True

    alpha = 0
    while alpha < len(rep):
        if find(alpha) == alpha:
            for scan in scans:
                if not scan_and_fill(alpha, *scan):
                    return None
                if find(alpha) != alpha:
                    break
            else:
                for c, col in enumerate(cols):
                    if col[alpha] < 0 and not define(alpha, c):
                        return None
        alpha += 1

    live = [a for a in range(len(rep)) if find(a) == a]
    number = [-1] * len(rep)
    for i, a in enumerate(live):
        number[a] = i
    forward = {}
    for g, gi in index.items():
        col = cols[2 * gi]
        images = [col[a] for a in live]
        if min(images) < 0:
            raise DdrError("incomplete table after enumeration", code="BAD_TABLE")
        forward[g] = tuple(number[find(dst)] for dst in images)
    result = GroupTable(tuple(p.generators), forward)
    result.validate(p)
    return result


# --- complexes and collapsing ----------------------------------------------

CayleyEdge = tuple[int, str]  # (element, generator)

# Most boundary sides (|G| times the total relator length) a complex may have
# before `decide_finite` builds it; building and collapsing cost about 20 to
# 35 bytes per side (tracemalloc on D_50+c, D_100+c and Z_12 x Z_12+c).
MAX_COMPLEX_SIDES = 1_000_000


@dataclass(frozen=True)
class CayleyCell:
    element: int
    relator_index: int
    boundary: tuple[tuple[CayleyEdge, int], ...]  # (edge, direction)


class CellArrays(NamedTuple):
    """A sequence of 2-cells as integers.  Edge (element, generators[i]) has
    id element·k + i and cell (element, relator index r) has id element·m + r,
    for k generators and m relators."""

    generators: tuple[str, ...]
    relator_count: int
    ids: Sequence[int]              # the id of each cell, in sequence order
    sides: Sequence[Sequence[int]]  # each cell's boundary as edge ids, in order
    element_count: int              # every element is below it

    @property
    def edge_count(self) -> int:
        return self.element_count * len(self.generators)

    def cell(self, position: int) -> tuple[int, int]:
        return divmod(self.ids[position], self.relator_count)

    def edge(self, edge_id: int) -> CayleyEdge:
        element, gi = divmod(edge_id, len(self.generators))
        return element, self.generators[gi]


class CellView(Sequence):
    """Cells of a `CellArrays` as `CayleyCell`s, each built when indexed."""

    def __init__(self, arrays: CellArrays, signs: Sequence[tuple[int, ...]]):
        self.arrays = arrays
        self._signs = signs  # per relator, the direction of each boundary side

    def __len__(self) -> int:
        return len(self.arrays.ids)

    def __getitem__(self, position: int) -> CayleyCell:
        a = self.arrays
        element, r = a.cell(position)
        return CayleyCell(element, r, tuple((a.edge(e), sign) for e, sign
                                            in zip(a.sides[position], self._signs[r])))


def _cell_arrays(cells: Sequence[CayleyCell]) -> CellArrays:
    """The arrays of a complex's cells, or of any other sequence of cells,
    with the generators numbered in order of first appearance."""
    if isinstance(cells, CellView):
        return cells.arrays
    gens: dict[str, int] = {}
    for cell in cells:
        for (_, g), _ in cell.boundary:
            gens.setdefault(g, len(gens))
    k, m = len(gens), 1 + max((c.relator_index for c in cells), default=0)
    sides = [[element * k + gens[g] for (element, g), _ in cell.boundary] for cell in cells]
    n = 1 + max((element for cell in cells for (element, _), _ in cell.boundary), default=-1)
    return CellArrays(tuple(gens), m, [c.element * m + c.relator_index for c in cells], sides, n)


@dataclass(frozen=True)
class CayleyComplex:
    table: GroupTable
    presentation: Presentation
    arrays: CellArrays

    @cached_property
    def cells(self) -> Sequence[CayleyCell]:
        return CellView(self.arrays, [tuple(l.sign for l in rel)
                                      for rel in self.presentation.relators])


def build_cayley_complex(table: GroupTable, p: Presentation) -> CayleyComplex:
    """The cells of the universal cover, relator r at element x having id
    x·m + r.  Each relator is lifted at all elements at once, one letter at
    a time: the letter's sides form one column, and the cells' boundaries
    are the rows."""
    n, k = table.element_count, len(p.generators)
    index = {g: i for i, g in enumerate(p.generators)}
    # edge ids by generator and element, so that the boundaries share them
    edge_ids = [list(range(gi, n * k, k)) for gi in range(k)]
    start = list(range(n))
    per_relator = []
    for rel in p.relators:
        cur, columns = start, []
        for l in rel:
            ids = edge_ids[index[l.gen]]
            if l.sign > 0:
                columns.append([ids[x] for x in cur])
                images = table.forward[l.gen]
                cur = [images[x] for x in cur]
            else:
                images = table.backward[l.gen]
                cur = [images[x] for x in cur]
                columns.append([ids[x] for x in cur])
        if cur != start:
            raise DdrError("relator lift does not close", code="BAD_TABLE")
        per_relator.append(list(zip(*columns)) if columns else [()] * n)
    sides = [side for at_element in zip(*per_relator) for side in at_element]
    return CayleyComplex(table, p, CellArrays(tuple(p.generators), len(p.relators),
                                              range(len(sides)), sides, n))


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


def _incidence(a: CellArrays) -> tuple[list[int], list[int]]:
    """Per edge id, the number of cell sides on it, and the XOR of the
    positions of those sides' cells: once one side is left, its cell."""
    multiplicity, cells_xor = [0] * a.edge_count, [0] * a.edge_count
    for ci, side in enumerate(a.sides):
        for e in side:
            multiplicity[e] += 1
            cells_xor[e] ^= ci
    return multiplicity, cells_xor


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
    a = _cell_arrays(cells)
    m = a.relator_count
    carried = [word_support(r) <= s for r in p.relators]
    # per edge id: may it be collapsed across, its generator being outside the subset
    outside = bytes(g not in s for g in a.generators) * a.element_count
    # 0: open, 1: queued, 2: carried, never collapsed
    state = bytearray(2 if carried[cid % m] else 0 for cid in a.ids)
    multiplicity, cells_xor = _incidence(a)
    heap = []
    for e, count in enumerate(multiplicity):
        if count == 1 and outside[e] and not state[cells_xor[e]]:
            state[cells_xor[e]] = 1
            heap.append(cells_xor[e])
    heapq.heapify(heap)
    sides = a.sides
    steps: list[CollapseStep] = []
    while heap:
        ci = heapq.heappop(heap)
        side = sides[ci]
        free = next(e for e in side if multiplicity[e] == 1 and outside[e])
        steps.append(CollapseStep(a.cell(ci), a.edge(free)))
        for e in side:
            multiplicity[e] -= 1
            cells_xor[e] ^= ci
        for e in side:
            if multiplicity[e] == 1 and outside[e] and not state[cells_xor[e]]:
                state[cells_xor[e]] = 1
                heapq.heappush(heap, cells_xor[e])
    # every queued cell has been collapsed once the heap is empty
    residual = tuple(a.cell(ci) for ci, st in enumerate(state) if st != 1)
    return CollapseLog(tuple(steps), residual, STUCK if 0 in state else COLLAPSED)


def replay_collapse(cells: Sequence[CayleyCell], subset,
                    steps: Sequence[CollapseStep]) -> bool:
    """Re-execute a collapse log from scratch, checking each step's edge is
    free at its time and its generator outside the subset."""
    s = frozenset(subset)
    a = _cell_arrays(cells)
    k, m = len(a.generators), a.relator_count
    # the generators a step may collapse across, by index
    gens = {g: i for i, g in enumerate(a.generators) if g not in s}
    position = {cid: ci for ci, cid in enumerate(a.ids)}
    alive = bytearray(b"\x01") * len(a.ids)
    multiplicity, _ = _incidence(a)
    for step in steps:
        if len(step.cell) != 2 or len(step.edge) != 2:
            return False
        (element, r), (edge_element, g) = step.cell, step.edge
        ci = position.get(element * m + r) if _whole(element) and _whole(r) and r < m else None
        if ci is None or not alive[ci] or g not in gens or not _whole(edge_element):
            return False
        e = edge_element * k + gens[g]
        if e not in a.sides[ci] or multiplicity[e] != 1:
            return False
        alive[ci] = 0
        for e in a.sides[ci]:
            multiplicity[e] -= 1
    return True


def _whole(x) -> bool:
    return isinstance(x, int) and x >= 0


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
    proof: Optional[InfinitudeProof] = None  # why the verdict is UNKNOWN


def decide_finite(p: Presentation, subset, limit: int) -> FiniteDecision:
    """Decide directed reducibility when the group is small enough to
    enumerate: collapse the full finite universal-cover complex.  The greedy
    collapse is order-independent, so COLLAPSED and STUCK are both
    conclusive.  A group proved infinite by `prove_infinite` is an UNKNOWN
    carrying the proof; like every budget, an enumeration overflow and a
    complex over `MAX_COMPLEX_SIDES` raise `BudgetSpent` with the reason.
    No complex is built when no generator outside the subset occurs exactly
    once in the relators (see the module docstring)."""
    s = check_preconditions(p, subset, cyclically_reduced=False)
    proof = prove_infinite(p)
    if proof is not None:
        return FiniteDecision(UNKNOWN, None, None, proof)
    table = coset_enumeration(p, limit)
    if table is None:
        raise BudgetSpent(f"enumeration exceeded {limit} cosets")
    n = table.element_count
    starters = free_edge_generators(p) - s
    if any(word_support(r) & starters for r in p.relators):
        sides = n * sum(len(r) for r in p.relators)
        if sides > MAX_COMPLEX_SIDES:
            raise BudgetSpent(f"covering complex has {sides} boundary sides, over the "
                              f"budget of {MAX_COMPLEX_SIDES}")
        log = directed_collapse(build_cayley_complex(table, p).cells, p, s)
    else:
        residual = tuple((element, j) for element in range(n) for j in range(len(p.relators)))
        carried = all(word_support(r) <= s for r in p.relators)
        log = CollapseLog((), residual, COLLAPSED if carried else STUCK)
    verdict = DECIDED_DR if log.verdict == COLLAPSED else DECIDED_NOT_DR
    return FiniteDecision(verdict, table, log)
