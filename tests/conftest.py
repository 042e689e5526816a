import random
from pathlib import Path

import pytest

from ddr.core import Letter, Presentation, parse_presentation
from ddr.lot import LOT, LotEdge, parse_lot_document

FIXTURES = Path(__file__).parent / "fixtures"


def load_presentation(name: str) -> Presentation:
    return parse_presentation((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def fx1():
    return load_presentation("fx1.pres")


@pytest.fixture(scope="session")
def fx2():
    return load_presentation("fx2.pres")


@pytest.fixture(scope="session")
def fx3():
    return load_presentation("fx3.pres")


@pytest.fixture(scope="session")
def fx4():
    return load_presentation("fx4.pres")


@pytest.fixture(scope="session")
def genus2():
    return load_presentation("genus2.pres")


@pytest.fixture(scope="session")
def fxl1_doc():
    return parse_lot_document((FIXTURES / "fxl1.lot").read_text())


@pytest.fixture(scope="session")
def fxl2_doc():
    return parse_lot_document((FIXTURES / "fxl2.lot").read_text())


@pytest.fixture(scope="session")
def fig3_doc():
    return parse_lot_document((FIXTURES / "fig3.lot").read_text())


def random_word(rng: random.Random, gens, max_len=8, min_len=1):
    return tuple(Letter(rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(min_len, max_len)))


def random_presentation(rng: random.Random, max_gens=4, max_rels=3, max_len=8):
    gens = tuple(f"g{i}" for i in range(rng.randint(1, max_gens)))
    rels = tuple(random_word(rng, gens, max_len)
                 for _ in range(rng.randint(1, max_rels)))
    return Presentation(gens, rels)


def random_lot(rng: random.Random, max_vertices=8) -> LOT:
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        other = names[rng.randrange(i)]
        src, dst = (names[i], other) if rng.random() < 0.5 else (other, names[i])
        edges.append(LotEdge(src, dst, rng.choice(names)))
    return LOT(tuple(names), tuple(edges))


def random_compressed_lot(rng: random.Random, n_edges: int) -> LOT:
    """A random tree with `n_edges` >= 2 edges, each labeled by a vertex
    other than its endpoints."""
    if n_edges < 2:
        raise ValueError("a compressed LOT needs at least two edges")
    names = [f"v{i}" for i in range(n_edges + 1)]
    edges = []
    for i in range(1, len(names)):
        other = names[rng.randrange(i)]
        src, dst = (names[i], other) if rng.random() < 0.5 else (other, names[i])
        label = src
        while label in (src, dst):
            label = rng.choice(names)
        edges.append(LotEdge(src, dst, label))
    return LOT(tuple(names), tuple(edges))
