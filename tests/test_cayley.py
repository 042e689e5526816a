import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import FIXTURES, random_word
from oracles import (first_nontrivial_relator, infinitude_proof_error, rescan_collapse,
                     tuple_complex)
from ddr import cayley
from ddr.cli import main
from ddr.core import Presentation, parse_presentation
from ddr.cayley import (COLLAPSED, STUCK, CayleyError, CollapseStep, GroupTable,
                        abelian_free_rank, build_cayley_complex, coset_enumeration,
                        decide_finite, directed_collapse, prove_infinite, replay_collapse)
from ddr.pipeline import CheckConfig, run_check


def dihedral_plus_c(n):
    return parse_presentation(f"gens: a b c\nrel: a^{n}\nrel: b^2\nrel: b a b a\nrel: c a b")


def square_plus_c(m):
    return parse_presentation(f"gens: a b c\nrel: a^{m}\nrel: b^{m}\nrel: a b a^-1 b^-1\n"
                              "rel: c b a")


def cyclic(n):
    return parse_presentation(f"gens: a\nrel: a^{n}")


# the finite-decide benchmark families at small orders
SMALL_FINITE = ([dihedral_plus_c(n) for n in (2, 3, 4, 5, 6)]
                + [square_plus_c(m) for m in (2, 3, 4)]
                + [cyclic(n) for n in (1, 2, 5)])


def all_subsets(p):
    gens = p.generators
    return [set(c) for k in range(len(gens) + 1) for c in combinations(gens, k)]


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

    def test_bad_table_detected(self):
        p = parse_presentation("gens: a\nrel: a^2")
        bad = GroupTable(("a",), {"a": (0, 0)})
        with pytest.raises(CayleyError):
            bad.validate(p)

    def test_validate_names_first_failing_element(self):
        p = parse_presentation("gens: a b\nrel: a^2\nrel: a b a^-1 b^-1")
        # a swaps 0,1 and fixes 2,3; b = (1 2): the commutator moves 0 first
        table = GroupTable(("a", "b"), {"a": (1, 0, 2, 3), "b": (0, 2, 1, 3)})
        with pytest.raises(CayleyError, match="relator 1 does not act trivially from 0") as exc:
            table.validate(p)
        assert exc.value.code == "BAD_TABLE"
        with pytest.raises(CayleyError, match="action of 'b' is not a permutation"):
            GroupTable(("a", "b"), {"a": (1, 0), "b": (0, 0)}).validate(p)


class TestValidate:
    """Each relator is composed one run g^e at a time, by powers; every
    tampered table must still be refused, naming the relator and element
    that the letter-by-letter composition finds first."""

    @staticmethod
    def assert_refused(table, p):
        idx, element = first_nontrivial_relator(table, p)
        with pytest.raises(CayleyError, match=f"^relator {idx} does not act trivially "
                                              f"from {element}$") as exc:
            table.validate(p)
        assert exc.value.code == "BAD_TABLE"

    def test_powers_of_a_cyclic_table(self):
        table = coset_enumeration(cyclic(6), 100)
        for bad in ("a^4", "a^-7", "a^6 a^-1"):
            self.assert_refused(table, parse_presentation(f"gens: a\nrel: a^6\nrel: {bad}"))
        table.validate(parse_presentation("gens: a\nrel: a^12\nrel: a^-18\nrel: a^5 a^-5"))

    def test_swapped_images_in_a_dihedral_table(self):
        p = dihedral_plus_c(50)
        table = coset_enumeration(p, 1000)
        rng = random.Random(50)
        for g in p.generators:
            for _ in range(3):
                x, y = rng.sample(range(table.element_count), 2)
                images = list(table.forward[g])
                images[x], images[y] = images[y], images[x]
                self.assert_refused(GroupTable(table.generators,
                                               {**table.forward, g: tuple(images)}), p)

    def test_runs_of_both_signs(self):
        s3 = parse_presentation("gens: s t\nrel: s^2\nrel: t^3\nrel: s t s t")
        table = coset_enumeration(s3, 100)
        # s^3 t^-2 s^-1 t^4 = s t s t = 1, while s^3 t^-1 s^-1 t^4 = t^2
        table.validate(parse_presentation("gens: s t\nrel: s^3 t^-2 s^-1 t^4"))
        self.assert_refused(table, parse_presentation("gens: s t\nrel: s^2\n"
                                                      "rel: s^3 t^-1 s^-1 t^4"))


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
                other = rescan_collapse(cx.cells, p, s, rng=rng)
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

    def test_abelian_free_rank(self, fx1, fx4, klein4):
        assert abelian_free_rank(klein4) == 0
        assert abelian_free_rank(fx1) == 0
        assert abelian_free_rank(fx4) == 2
        assert abelian_free_rank(parse_presentation("gens: a b\nrel: a b a^-1 b^-1")) == 2
        assert abelian_free_rank(parse_presentation("gens: a b\nrel: a^2 b^-3")) == 1
        assert abelian_free_rank(parse_presentation("gens: a b\nrel: a^2 b\nrel: a^4 b^2")) == 1
        assert abelian_free_rank(parse_presentation("gens: a b\nrel: a^2\nrel: b^3")) == 0

    def test_infinite_abelianization_skips_enumeration(self, fx4, monkeypatch):
        def refuse(*args):
            raise AssertionError("coset enumeration ran on a provably infinite group")
        monkeypatch.setattr(cayley, "coset_enumeration", refuse)
        d = decide_finite(fx4, {"a"}, 100)
        assert d.verdict == "UNKNOWN" and d.table is None and d.log is None
        assert d.reason == ("abelianization has free rank 2, so the group is infinite; "
                            "coset enumeration skipped")
        assert (d.proof.index, d.proof.free_rank) == (1, 2)
        # the index-1 reason names the rank, and the attempt carries no evidence
        report = run_check(fx4, {"a"}, CheckConfig(tests=("finite",)))
        assert report.attempts == [{"test": "finite", "status": "unknown", "reason": d.reason}]

    def test_finite_abelianization_still_enumerates(self):
        # D_5 + c is finite of order 10, so no screen proves it infinite, and
        # enumeration overflows at a limit below its order
        p = dihedral_plus_c(5)
        assert abelian_free_rank(p) == 0 and prove_infinite(p) is None
        d = decide_finite(p, {"a"}, 5)
        assert d.verdict == "UNKNOWN" and d.reason == "enumeration exceeded 5 cosets"
        assert d.proof is None

    def test_complex_budget(self, monkeypatch):
        monkeypatch.setattr(cayley, "MAX_COMPLEX_SIDES", 10)
        d = decide_finite(dihedral_plus_c(3), {"b"}, 100)
        assert d.verdict == "UNKNOWN" and d.log is None and d.table.element_count == 6
        # 6 elements times relator lengths 3 + 2 + 4 + 3
        assert d.reason == "covering complex has 72 boundary sides, over the budget of 10"
        report = run_check(dihedral_plus_c(3), {"b"}, CheckConfig(tests=("finite",)))
        assert report.certificates == []
        assert report.attempts == [{"test": "finite", "status": "unknown",
                                    "reason": d.reason}]
        # no complex is built when no cell has a free edge to start from
        assert decide_finite(cyclic(5), set(), 100).verdict == "DECIDED_NOT_DR"

    def test_no_starting_free_edge_builds_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("complex built although no cell can collapse")
        monkeypatch.setattr(cayley, "build_cayley_complex", refuse)
        d = decide_finite(cyclic(7), set(), 100)
        assert d.verdict == "DECIDED_NOT_DR" and d.log.steps == ()
        assert d.log.residual == tuple((e, 0) for e in range(7))
        # c occurs once but lies in the subset, so nothing can start either
        d = decide_finite(dihedral_plus_c(4), {"c"}, 100)
        assert d.verdict == "DECIDED_NOT_DR" and d.log.steps == ()
        assert len(d.log.residual) == 8 * 4


class TestWorklist:
    def test_logs_match_rescan_oracle(self, fx1, klein4):
        for p in SMALL_FINITE + [fx1, klein4]:
            cx = build_cayley_complex(coset_enumeration(p, 3000), p)
            for s in all_subsets(p):
                log = directed_collapse(cx.cells, p, s)
                assert log == rescan_collapse(cx.cells, p, s)
                assert replay_collapse(cx.cells, s, log.steps)
                if s != p.generator_set:
                    assert decide_finite(p, s, 3000).log == log

    def test_subcomplexes_match_rescan_oracle(self, fx1):
        # the occurrence counts do not hold on a subcomplex; the worklist must not rely on them
        rng = random.Random(19)
        for p in [dihedral_plus_c(3), square_plus_c(3), fx1]:
            cells = build_cayley_complex(coset_enumeration(p, 3000), p).cells
            for _ in range(40):
                sub = [c for c in cells if rng.random() < 0.6]
                for s in all_subsets(p):
                    assert directed_collapse(sub, p, s) == rescan_collapse(sub, p, s)

    def test_initial_multiplicity_is_occurrence_count(self, fx1, klein4):
        for p in SMALL_FINITE + [fx1, klein4]:
            table = coset_enumeration(p, 3000)
            occ = Counter(l.gen for rel in p.relators for l in rel)
            multiplicity = Counter(edge for cell in build_cayley_complex(table, p).cells
                                   for edge, _ in cell.boundary)
            expected = {(e, g): occ[g] for e in range(table.element_count)
                        for g in p.generators if occ[g]}
            assert dict(multiplicity) == expected


class TestFlatKernel:
    """The integer-array complex against the tuple-built reference, and its
    collapse against the rescan oracle, on whole complexes and on random
    sub-sequences of their cells."""

    # the edges a step may not collapse across
    ILLEGAL = ("free but in the subset", "outside the subset but not free", "off the cell")

    @staticmethod
    def tampered(cells, s, steps, rng, want):
        """The log with one step's edge replaced by an illegal one of kind
        `want` if some step admits one, else of another kind; and the kind."""
        multiplicity = Counter(edge for cell in cells for edge, _ in cell.boundary)
        by_key = {(c.element, c.relator_index): c for c in cells}
        found = {kind: [] for kind in TestFlatKernel.ILLEGAL}
        for i, step in enumerate(steps):
            on_cell = sorted({edge for edge, _ in by_key[step.cell].boundary})
            for kind, edges in zip(TestFlatKernel.ILLEGAL, (
                    [e for e in on_cell if e[1] in s and multiplicity[e] == 1],
                    [e for e in on_cell if e[1] not in s and multiplicity[e] != 1],
                    sorted(set(multiplicity) - set(on_cell)))):
                found[kind] += [(i, e) for e in edges]
            multiplicity.subtract(edge for edge, _ in by_key[step.cell].boundary)
        kind = want if found[want] else rng.choice([k for k, edges in found.items() if edges])
        i, edge = rng.choice(found[kind])
        return steps[:i] + (CollapseStep(steps[i].cell, edge),) + steps[i + 1:], kind

    def test_matches_tuple_reference_and_rescan_oracle(self):
        rng = random.Random(1717)
        tampered = Counter()
        for _ in range(40):
            base = (dihedral_plus_c(rng.randint(2, 7)) if rng.random() < 0.5
                    else square_plus_c(rng.randint(2, 4)))
            p = Presentation(tuple(rng.sample(base.generators, 3)),
                             tuple(rng.sample(base.relators, 4)))
            table = coset_enumeration(p, 3000)
            reference = tuple_complex(table, p)
            cells = build_cayley_complex(table, p).cells
            assert len(cells) == len(reference) and tuple(cells) == reference
            assert cells[-1] == reference[-1]
            s = set(rng.sample(p.generators, rng.randint(0, 2)))
            keep = rng.uniform(0.2, 0.8)
            sub = tuple(c for c in reference if rng.random() < keep)
            for seq in (cells, reference, sub):
                log = directed_collapse(seq, p, s)
                assert log == rescan_collapse(seq, p, s)
                assert replay_collapse(seq, s, log.steps)
                if log.steps:
                    want = self.ILLEGAL[sum(tampered.values()) % 3]
                    bad, kind = self.tampered(seq, s, log.steps, rng, want)
                    tampered[kind] += 1
                    assert not replay_collapse(seq, s, bad), kind
        assert all(tampered[kind] >= 5 for kind in self.ILLEGAL), tampered


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


# (presentation, index, free rank) of the screen's first proof; the first two
# are the benchmark pool's rand2x2x8-1 and rand3x3x6-0
SCREEN_PROOFS = [
    ("gens: x0 x1\nrel: x1^-1 x0 x0 x0 x1^-1 x0 x1^-1 x0^-1\n"
     "rel: x0^-1 x1^-1 x1^-1 x0^-1 x0^-1 x1 x1 x0^-1", 3, 1),
    ("gens: x0 x1 x2\nrel: x1^-1 x2 x0 x0 x1 x2^-1\nrel: x0^-1 x1^-1 x0^-1 x1 x2 x2\n"
     "rel: x1 x0^-1 x1 x2^-1 x0 x2^-1", 2, 1),
    ("gens: a b\nrel: a^2\nrel: b^3", 3, 1),  # Z2 * Z3
    # Z2 * Z3 again: c occurs once, so the search drops it with its relator
    ("gens: a c b\nrel: a^2\nrel: b a c^-1 a\nrel: b^3", 3, 1),
]


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("coset enumeration ran on a provably infinite group")
    monkeypatch.setattr(cayley, "coset_enumeration", refuse)


class TestScreen:
    @pytest.mark.parametrize("text,index,rank", SCREEN_PROOFS)
    def test_subgroup_proofs_skip_enumeration(self, text, index, rank, monkeypatch):
        _refuse_enumeration(monkeypatch)
        p = parse_presentation(text)
        assert abelian_free_rank(p) == 0
        d = decide_finite(p, {p.generators[0]}, 20000)
        assert d.verdict == "UNKNOWN" and d.table is None and d.log is None
        assert (d.proof.index, d.proof.free_rank) == (index, rank)
        assert d.reason == (f"a subgroup of index {index} has abelianization of free rank "
                            f"{rank}, so the group is infinite; coset enumeration skipped")
        evidence = d.proof.to_json_dict()
        assert infinitude_proof_error(p, **evidence) is None
        report = run_check(p, {p.generators[0]}, CheckConfig(tests=("finite",)))
        assert report.attempts == [{"test": "finite", "status": "unknown",
                                    "reason": d.reason, "evidence": evidence}]

    def test_z2_free_product_z3_evidence(self):
        proof = prove_infinite(parse_presentation("gens: a b\nrel: a^2\nrel: b^3"))
        assert proof.to_json_dict() == {"index": 3, "free_rank": 1,
                                        "permutations": {"a": [0, 2, 1], "b": [1, 2, 0]}}
        # a dropped generator gets the permutation its relator forces, c = a b a
        p = parse_presentation(SCREEN_PROOFS[3][0])
        assert prove_infinite(p).to_json_dict() == {
            "index": 3, "free_rank": 1,
            "permutations": {"a": [0, 2, 1], "c": [2, 0, 1], "b": [1, 2, 0]}}

    def test_tampered_proofs_rejected(self):
        p = parse_presentation(SCREEN_PROOFS[0][0])
        evidence = prove_infinite(p).to_json_dict()
        perms = evidence["permutations"]
        for g in p.generators:
            for i, j in ((0, 1), (1, 2), (0, 2)):
                tampered = {**perms, g: list(perms[g])}
                tampered[g][i], tampered[g][j] = tampered[g][j], tampered[g][i]
                assert infinitude_proof_error(p, 3, 1, tampered) is not None
        assert infinitude_proof_error(p, 3, 1, {**perms, "x0": [0, 0, 1]}) is not None
        assert infinitude_proof_error(p, 3, 2, perms) is not None
        assert infinitude_proof_error(p, 3, 0, perms) is not None
        # on two points with a swapping them, the stabiliser Z3 * Z3 has
        # finite abelianization; with a fixing them, the action is not transitive
        z2z3 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3")
        assert "free rank 0" in infinitude_proof_error(z2z3, 2, 1, {"a": [1, 0], "b": [0, 1]})
        assert "transitive" in infinitude_proof_error(z2z3, 2, 1, {"a": [0, 1], "b": [0, 1]})

    def test_finite_groups_are_never_flagged(self, fx1, klein4):
        for p in SMALL_FINITE + [fx1, klein4, dihedral_plus_c(12), square_plus_c(6)]:
            assert prove_infinite(p) is None

    def test_differential_against_enumeration(self):
        # a completed enumeration proves the group finite, so the screen must
        # find nothing; every proof the screen finds must pass the oracle.  As
        # many relators as generators, of 6 to 8 letters: mostly finite
        # abelianizations, like the benchmark's random classes
        rng = random.Random(1616)
        finite = proofs = high_index = 0
        for _ in range(300):
            gens = tuple(f"g{i}" for i in range(rng.randint(2, 3)))
            p = Presentation(gens, tuple(random_word(rng, gens, 8, 6) for _ in gens))
            proof = prove_infinite(p)
            if coset_enumeration(p, 300) is not None:
                finite += 1
                assert proof is None, p
            if proof is not None:
                proofs += 1
                high_index += proof.index > 1
                assert infinitude_proof_error(p, **proof.to_json_dict()) is None, p
        assert finite >= 150 and proofs >= 50 and high_index >= 10

    def test_fraction_free_rank_matches_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(7)
        for _ in range(500):
            nrows, ncols = rng.randint(0, 7), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, 2, -3, 6)) for _ in range(ncols)]
                    for _ in range(nrows)]
            rows += rows[:rng.randint(0, nrows)]  # repeated rows, as lifted powers give
            expected = int(np.linalg.matrix_rank(np.array(rows))) if rows else 0
            assert cayley._rank(rows, ncols) == expected, rows

    def test_search_budget_ends_the_screen(self, monkeypatch):
        # with no search budget beyond the walk down and up the generators,
        # Z2 * Z3 goes unproved and enumeration overflows
        monkeypatch.setattr(cayley, "MAX_SCREEN_NODES", 0)
        p = parse_presentation("gens: a b\nrel: a^2\nrel: b^3")
        assert prove_infinite(p) is None
        assert decide_finite(p, {"a"}, 100).reason == "enumeration exceeded 100 cosets"
        # the index-1 case needs no budget
        assert prove_infinite(parse_presentation("gens: a b\nrel: a^2")).index == 1


class TestCosetLimit:
    def test_limits_outside_the_range_are_refused(self, monkeypatch):
        monkeypatch.setattr(cayley, "MAX_COSET_LIMIT", 50)
        assert CheckConfig(coset_limit=50).coset_limit == 50
        for bad in (0, -3, 51):
            with pytest.raises(CayleyError, match="between 1 and 50") as exc:
                CheckConfig(coset_limit=bad)
            assert exc.value.code == "BAD_LIMIT"

    def test_cli_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(cayley, "MAX_COSET_LIMIT", 50)
        fx1 = str(FIXTURES / "fx1.pres")
        assert main(["check", fx1, "--away-from", "a", "--coset-limit", "51"]) == 3
        assert main(["check", fx1, "--away-from", "a", "--coset-limit", "0"]) == 3
        assert capsys.readouterr().err.count("coset limit must be between 1 and 50") == 2
        assert main(["check", fx1, "--away-from", "a", "--coset-limit", "50"]) == 1
