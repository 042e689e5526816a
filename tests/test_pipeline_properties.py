"""Whole-pipeline property tests on seeded random presentations."""

import random

from conftest import random_presentation
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
