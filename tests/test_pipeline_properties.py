"""Whole-pipeline property tests on seeded random presentations."""

import random

from conftest import random_presentation
from ddr.core import Letter, Presentation, inverse_word
from ddr.pipeline import CheckConfig, run_check


def test_no_subset_is_both_certified_and_refuted():
    # every test runs, and each certificate speaks of the checked subset or
    # of all directions, so a positive and a negative one in one report
    # would show that some test is unsound
    rng = random.Random(37)
    kinds = set()
    for _ in range(1000):
        p = random_presentation(rng)
        gens = list(p.generators)
        subset = frozenset(rng.sample(gens, rng.randrange(len(gens))))
        report = run_check(p, subset, CheckConfig(run_all=True, coset_limit=600))
        signs = {c.positive for c in report.certificates if c.positive or c.negative}
        assert len(signs) < 2, (p, subset, report.to_json())
        kinds |= signs
    assert kinds == {True, False}  # the sample holds both kinds of verdict


def _variant(p: Presentation, subset: frozenset[str], rng: random.Random):
    """An isomorphic copy of p with the image of the subset: the generators
    renamed and redeclared in another order, the relators reordered, each
    rotated and some inverted."""
    images = list(p.generators)
    rng.shuffle(images)
    rename = dict(zip(p.generators, images))
    rels = []
    for rel in p.relators:
        k = rng.randrange(len(rel))
        word = tuple(Letter(rename[l.gen], l.sign) for l in rel[k:] + rel[:k])
        rels.append(inverse_word(word) if rng.random() < 0.5 else word)
    rng.shuffle(rels)
    return (Presentation(tuple(rng.sample(images, len(images))), tuple(rels)),
            frozenset(rename[g] for g in subset))


def test_isomorphic_variants_never_disagree():
    # a variant has the same presentation complex up to homeomorphism, the
    # subset carried along, so no two variants may hold a positive and a
    # negative certificate between them; UNKNOWN may differ, since coset
    # enumeration can overflow in one generator order and not in another
    rng = random.Random(41)
    kinds = set()
    for _ in range(400):
        p = random_presentation(rng)
        gens = list(p.generators)
        subset = frozenset(rng.sample(gens, rng.randrange(len(gens))))
        signs = set()
        for q, s in [(p, subset)] + [_variant(p, subset, rng) for _ in range(3)]:
            report = run_check(q, s, CheckConfig(run_all=True, coset_limit=600))
            signs |= {c.positive for c in report.certificates if c.positive or c.negative}
        assert len(signs) < 2, (p, subset)
        kinds |= signs
    assert kinds == {True, False}
