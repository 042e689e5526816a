import random
from itertools import combinations

import pytest

from ddr.core import Letter, parse_presentation
from ddr.cayley import (COLLAPSED, STUCK, CayleyError, GroupTable,
                        build_cayley_complex, coset_enumeration,
                        decide_finite, directed_collapse, replay_collapse)


@pytest.fixture(scope="session")
def klein4():
    return parse_presentation("gens: a b\nrel: a^2\nrel: b^2\nrel: a b a b")


class TestEnumeration:
    def test_fx1_trivial_group(self, fx1):
        table = coset_enumeration(fx1, 3000)
        assert table is not None
        assert table.element_count == 1

    def test_cyclic_three(self):
        table = coset_enumeration(parse_presentation("gens: a\nrel: a^3"), 100)
        assert table.element_count == 3

    def test_fx4_hits_limit(self, fx4):
        assert coset_enumeration(fx4, 100) is None

    def test_klein_four(self, klein4):
        assert coset_enumeration(klein4, 200).element_count == 4

    def test_free_generator_never_closes(self):
        p = parse_presentation("gens: a b\nrel: a^2")
        assert coset_enumeration(p, 50) is None

    def test_validation_inside(self, fx3):
        # infinite group: must hit the limit rather than emit a bad table
        assert coset_enumeration(fx3, 64) is None

    def test_symmetric_group(self):
        p = parse_presentation("gens: s t\nrel: s^2\nrel: t^3\nrel: s t s t")
        table = coset_enumeration(p, 500)
        assert table.element_count == 6
        table.validate(p)

    def test_triangle_group_233(self):
        p = parse_presentation("gens: s t\nrel: s^2\nrel: t^3\nrel: s t s t s t")
        assert coset_enumeration(p, 500).element_count == 12

    def test_apply_word(self):
        p = parse_presentation("gens: a\nrel: a^4")
        table = coset_enumeration(p, 100)
        e = table.apply_word(0, (Letter("a", 1), Letter("a", 1)))
        assert table.apply_word(e, (Letter("a", -1), Letter("a", -1))) == 0

    def test_bad_table_detected(self):
        p = parse_presentation("gens: a\nrel: a^2")
        bad = GroupTable(("a",), {"a": (0, 0)})
        with pytest.raises(CayleyError):
            bad.validate(p)


class TestComplex:
    def test_fx1_counts(self, fx1):
        table = coset_enumeration(fx1, 3000)
        cx = build_cayley_complex(table, fx1)
        assert (cx.vertex_count, cx.edge_count, cx.two_cell_count) == (1, 3, 3)

    def test_cyclic_counts(self):
        p = parse_presentation("gens: a\nrel: a^3")
        cx = build_cayley_complex(coset_enumeration(p, 100), p)
        assert (cx.vertex_count, cx.edge_count, cx.two_cell_count) == (3, 3, 3)

    def test_klein_counts(self, klein4):
        cx = build_cayley_complex(coset_enumeration(klein4, 200), klein4)
        assert (cx.vertex_count, cx.edge_count, cx.two_cell_count) == (4, 8, 12)

    def test_boundaries_close(self, klein4):
        cx = build_cayley_complex(coset_enumeration(klein4, 200), klein4)
        for cell in cx.cells:
            assert len(cell.boundary) == len(klein4.relators[cell.relator_index])


class TestCollapse:
    def test_fx1_away_ab_collapses(self, fx1):
        table = coset_enumeration(fx1, 3000)
        cx = build_cayley_complex(table, fx1)
        log = directed_collapse(cx.cells, fx1, {"a", "b"})
        assert log.verdict == COLLAPSED
        assert len(log.steps) == 1
        assert log.steps[0].edge[1] == "c"
        assert {c[1] for c in log.residual} == {0, 1}

    def test_fx1_away_a_stuck(self, fx1):
        table = coset_enumeration(fx1, 3000)
        cx = build_cayley_complex(table, fx1)
        log = directed_collapse(cx.cells, fx1, {"a"})
        assert log.verdict == STUCK

    def test_empty_subcomplex(self, fx1):
        log = directed_collapse((), fx1, {"a"})
        assert log.verdict == COLLAPSED and log.steps == ()

    def test_random_orders_agree(self, fx1, klein4):
        cases = [(fx1, {"a", "b"}), (fx1, {"a"}), (klein4, set()), (klein4, {"a"})]
        for p, s in cases:
            cx = build_cayley_complex(coset_enumeration(p, 3000), p)
            base = directed_collapse(cx.cells, p, s)
            rng = random.Random(77)
            for _ in range(50):
                other = directed_collapse(cx.cells, p, s, rng=rng)
                assert other.residual == base.residual
                assert other.verdict == base.verdict

    def test_logs_replay(self, fx1, klein4):
        for p, s in [(fx1, {"a", "b"}), (klein4, set())]:
            cx = build_cayley_complex(coset_enumeration(p, 3000), p)
            log = directed_collapse(cx.cells, p, s)
            assert replay_collapse(cx.cells, s, log.steps)

    def test_bad_replay_rejected(self, fx1):
        cx = build_cayley_complex(coset_enumeration(fx1, 3000), fx1)
        log = directed_collapse(cx.cells, fx1, {"a", "b"})
        from ddr.cayley import CollapseStep
        fake = (CollapseStep((0, 0), (0, "a")),)
        assert not replay_collapse(cx.cells, {"a", "b"}, fake)

    def test_subset_monotonicity_exhaustive(self, fx1):
        cx = build_cayley_complex(coset_enumeration(fx1, 3000), fx1)
        full = directed_collapse(cx.cells, fx1, {"a", "b"})
        assert full.verdict == COLLAPSED
        for size in range(len(cx.cells) + 1):
            for subset in combinations(range(len(cx.cells)), size):
                cells = tuple(cx.cells[i] for i in subset)
                assert directed_collapse(cells, fx1, {"a", "b"}).verdict == COLLAPSED


class TestDecide:
    def test_fx1_matrix(self, fx1):
        assert decide_finite(fx1, {"a", "b"}, 3000).verdict == "DECIDED_DR"
        assert decide_finite(fx1, {"a"}, 3000).verdict == "DECIDED_NOT_DR"

    def test_fx4_unknown(self, fx4):
        assert decide_finite(fx4, {"a"}, 100).verdict == "UNKNOWN"
        assert decide_finite(fx4, set(), 100).verdict == "UNKNOWN"

    def test_improper_subset(self, fx1):
        with pytest.raises(CayleyError):
            decide_finite(fx1, {"a", "b", "c"}, 100)

    def test_torsion_not_dr(self):
        p = parse_presentation("gens: a\nrel: a^3")
        assert decide_finite(p, set(), 100).verdict == "DECIDED_NOT_DR"


class TestSubcomplex:
    def test_carried_cells_never_refute(self, fx1):
        table = coset_enumeration(fx1, 3000)
        cx = build_cayley_complex(table, fx1)
        carried = tuple(c for c in cx.cells if c.relator_index in (0, 1))
        assert directed_collapse(carried, fx1, {"a", "b"}).verdict == COLLAPSED

    def test_fx1_two_cells_away_a(self, fx1):
        table = coset_enumeration(fx1, 3000)
        cx = build_cayley_complex(table, fx1)
        two = tuple(c for c in cx.cells if c.relator_index in (0, 1))
        assert directed_collapse(two, fx1, {"a"}).verdict == STUCK
