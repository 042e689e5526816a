"""Seeded inputs for the benchmark workloads.

Inputs are written in the `ddr` text formats by this module's own code, so
the program sees only files.  Every family is built from a fixed base (a
deterministic family, or random presentations drawn once from `POOL_SEED`),
and the workload seed picks an isomorphic variant of each base input:
generators or vertices renamed and redeclared in another order, relators
reordered, rotated and inverted, LOT edges listed in another order.  A
variant keeps every conclusive verdict, so per-case outcomes repeat across
seeds while the files, digests and internal orders the program sees change;
only an UNKNOWN from the coset limit may turn conclusive, because the number
of cosets defined depends on the generator order.  Fresh
random draws per seed were measured to spread the timing metrics far beyond
the benchmark's bounds: case times in one size class span two orders of
magnitude, and a 20 s run holds too few draws for their quantiles to settle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SEED = 1903

Letter = tuple[str, int]
Word = list[Letter]


@dataclass
class Pres:
    gens: list[str]
    rels: list[Word]

    def text(self) -> str:
        lines = ["gens: " + " ".join(self.gens)]
        for rel in self.rels:
            lines.append("rel: " + " ".join(g if s > 0 else f"{g}^-1" for g, s in rel))
        return "\n".join(lines) + "\n"


@dataclass
class Lot:
    vertices: list[str]
    edges: list[tuple[str, str, str]]  # (source, target, label)

    def text(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices)]
        lines += [f"edge {s} {t} {l}" for s, t, l in self.edges]
        return "\n".join(lines) + "\n"

    def presentation(self, keep: set[str] | None = None) -> Pres:
        """Edge s -> t labelled l gives the relator s l t^-1 l^-1; with `keep`,
        the sub-LOT on those vertices and the edges between them."""
        vertices = [v for v in self.vertices if keep is None or v in keep]
        return Pres(vertices, [[(s, 1), (l, 1), (t, -1), (l, -1)] for s, t, l in self.edges
                               if keep is None or (s in keep and t in keep)])


def parse_lot(text: str) -> Lot:
    """Read the `vertices:` and `edge` lines of the LOT format."""
    lot = Lot([], [])
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if tok and tok[0] == "vertices:":
            lot.vertices = tok[1:]
        elif tok and tok[0] == "edge":
            lot.edges.append(tuple(tok[1:]))
    return lot


# --- random cyclically reduced presentations ---------------------------------

def random_word(rng: random.Random, gens: list[str], length: int) -> Word:
    """Freely reduced letter by letter, rejected unless cyclically reduced."""
    while True:
        word: Word = []
        while len(word) < length:
            letter = (rng.choice(gens), rng.choice((1, -1)))
            if word and letter == (word[-1][0], -word[-1][1]):
                continue
            word.append(letter)
        if word[0] != (word[-1][0], -word[-1][1]):
            return word


def random_presentation(rng: random.Random, n_gens: int, n_rels: int,
                        length: int) -> Pres:
    gens = [f"x{i}" for i in range(n_gens)]
    return Pres(gens, [random_word(rng, gens, length) for _ in range(n_rels)])


# --- structured families -----------------------------------------------------

def free_product_commutators(m: int, n: int) -> Pres:
    """F_m x F_n: generators x1..xm, y1..yn and every commutator [x_i, y_j]."""
    xs = [f"x{i}" for i in range(1, m + 1)]
    ys = [f"y{j}" for j in range(1, n + 1)]
    rels = [[(x, 1), (y, 1), (x, -1), (y, -1)] for x in xs for y in ys]
    return Pres(xs + ys, rels)


def surface(genus: int) -> Pres:
    gens = [f"a{i}" for i in range(1, 2 * genus + 1)]
    rel: Word = []
    for i in range(genus):
        a, b = gens[2 * i], gens[2 * i + 1]
        rel += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return Pres(gens, [rel])


def power(g: str, k: int) -> Word:
    return [(g, 1)] * k


def dihedral_plus_c(n: int) -> Pres:
    """D_n (order 2n) with an extra generator c occurring once: c a b."""
    return Pres(["a", "b", "c"], [power("a", n), power("b", 2),
                                  [("b", 1), ("a", 1), ("b", 1), ("a", 1)],
                                  [("c", 1), ("a", 1), ("b", 1)]])


def abelian_square_plus_c(m: int) -> Pres:
    """Z_m x Z_m (order m^2) with an extra generator c occurring once: c b a."""
    return Pres(["a", "b", "c"], [power("a", m), power("b", m),
                                  [("a", 1), ("b", 1), ("a", -1), ("b", -1)],
                                  [("c", 1), ("b", 1), ("a", 1)]])


def cyclic(n: int) -> Pres:
    return Pres(["a"], [power("a", n)])


# --- compressed LOTs -------------------------------------------------------------

def compressed_lot(rng: random.Random, n_edges: int, shape: str) -> Lot:
    """A path or caterpillar LOT with random orientations and a random label
    on each edge that differs from both endpoints."""
    names = [f"v{i}" for i in range(n_edges + 1)]
    spine = n_edges + 1 if shape == "path" else (n_edges + 2) // 2
    edges = []
    for i in range(1, n_edges + 1):
        other = i - 1 if i < spine else rng.randrange(spine)
        a, b = (other, i) if rng.random() < 0.5 else (i, other)
        label = rng.choice([k for k in range(n_edges + 1) if k not in (a, b)])
        edges.append((names[a], names[b], names[label]))
    return Lot(names, edges)


def blocked_lot(rng: random.Random, block: int, n_edges: int) -> Lot:
    """A compressed LOT with a label-closed block of `block` vertices (a
    path whose labels stay inside it) and a tail with labels anywhere in the
    tree, so that the block is a candidate maximal sub-LOT."""
    names = [f"v{i}" for i in range(n_edges + 1)]
    edges = []
    for i in range(1, block):
        a, b = (i - 1, i) if rng.random() < 0.5 else (i, i - 1)
        label = rng.choice([k for k in range(block) if k not in (a, b)])
        edges.append((names[a], names[b], names[label]))
    for i in range(block, n_edges + 1):
        other = i - 1
        a, b = (other, i) if rng.random() < 0.5 else (i, other)
        label = rng.choice([k for k in range(n_edges + 1) if k not in (a, b)])
        edges.append((names[a], names[b], names[label]))
    return Lot(names, edges)


# --- isomorphic variants -------------------------------------------------------

def pres_variant(p: Pres, rng: random.Random, subset: list[str]) -> tuple[Pres, list[str]]:
    """Rename and redeclare generators, reorder relators, rotate and invert
    each one; returns the variant and the image of the subset."""
    images = p.gens[:]
    rng.shuffle(images)
    rename = dict(zip(p.gens, images))
    order = p.gens[:]
    rng.shuffle(order)
    rels = []
    for rel in p.rels:
        word = [(rename[g], s) for g, s in rel]
        k = rng.randrange(len(word))
        word = word[k:] + word[:k]
        if rng.random() < 0.5:
            word = [(g, -s) for g, s in reversed(word)]
        rels.append(word)
    rng.shuffle(rels)
    return Pres([rename[g] for g in order], rels), sorted(rename[g] for g in subset)


def lot_variant(lot: Lot, rng: random.Random) -> Lot:
    """Rename and redeclare the vertices and reorder the edges."""
    images = lot.vertices[:]
    rng.shuffle(images)
    rename = dict(zip(lot.vertices, images))
    vertices = [rename[v] for v in lot.vertices]
    rng.shuffle(vertices)
    edges = [(rename[s], rename[t], rename[l]) for s, t, l in lot.edges]
    rng.shuffle(edges)
    return Lot(vertices, edges)
