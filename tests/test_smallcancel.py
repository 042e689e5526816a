import random

import pytest

from conftest import random_presentation
from oracles import (brute_min_pieces, brute_occurrences,
                     brute_reduced_cycles_of_length)
from ddr import smallcancel
from ddr.core import DdrError, Presentation, inverse_word, parse_presentation, parse_word
from ddr.smallcancel import (check_small_cancellation,
                             certify_s44, min_piece_decomposition, piece_table,
                             symmetrized_closure)
from ddr.weights import verify_weight_test
from ddr.whitehead import build_whitehead, shortest_reduced_cycle_in_range

W = parse_word


class TestClosure:
    def test_counts(self, fx3, fx4):
        assert len(symmetrized_closure(parse_presentation("gens: a\nrel: a a"))) == 4
        assert len(symmetrized_closure(fx4)) == 8
        assert len(symmetrized_closure(fx3)) == 32

    def test_provenance_distinct(self, fx4):
        closure = symmetrized_closure(fx4)
        assert len({e.provenance for e in closure}) == len(closure)

    def test_words_are_rotations(self, fx4):
        for e in symmetrized_closure(fx4):
            base = inverse_word(fx4.relators[e.source_index]) if e.inverted \
                else fx4.relators[e.source_index]
            assert e.word == base[e.rotation:] + base[:e.rotation]

    def test_requires_cyclically_reduced(self):
        p = parse_presentation("gens: a b\nrel: b a b^-1")
        with pytest.raises(DdrError) as exc:
            symmetrized_closure(p)
        assert exc.value.code == "NOT_CYCLICALLY_REDUCED"


class TestPieces:
    def test_piece_set_closed_under_inversion(self):
        rng = random.Random(4)
        for _ in range(40):
            p = random_presentation(rng, max_gens=3, max_rels=2, max_len=6)
            cyc = Presentation(p.generators,
                               tuple(r for r in p.relators
                                     if r and __import__("ddr.core", fromlist=["x"])
                                     .is_cyclically_reduced(r)))
            if not cyc.relators:
                continue
            occurrences = brute_occurrences(cyc)
            pieces = set()
            for _, word in occurrences:
                for ln in range(1, len(word) + 1):
                    u = word[:ln]
                    if brute_is_piece_cached(u, occurrences):
                        pieces.add(u)
            assert {inverse_word(u) for u in pieces} == pieces

    def test_dp_matches_exhaustive(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(60):
            p = random_presentation(rng, max_gens=3, max_rels=2, max_len=8)
            from ddr.core import is_cyclically_reduced
            cyc = Presentation(p.generators,
                               tuple(r for r in p.relators if r and is_cyclically_reduced(r)))
            if not cyc.relators:
                continue
            table = piece_table(cyc)
            occurrences = brute_occurrences(cyc)
            for element in symmetrized_closure(cyc):
                expected = brute_min_pieces(element.word, occurrences)
                got, cuts = min_piece_decomposition(element, table)
                assert got == expected
                if got is not None:
                    assert len(cuts) == got
                checked += 1
        assert checked > 50

    def test_fx4_single_letter_pieces(self, fx4):
        table = piece_table(fx4)
        element = symmetrized_closure(fx4)[0]
        count, cuts = min_piece_decomposition(element, table)
        assert count == 4
        assert cuts == (0, 1, 2, 3)


class TestConditions:
    def test_fx3_c4t4(self, fx3):
        report = check_small_cancellation(fx3, 4, 4)
        assert report.c_holds and report.t_holds

    def test_fx4_c6_fails(self, fx4):
        report = check_small_cancellation(fx4, 6, 3)
        assert not report.c_holds
        provenance, count, cuts = report.c_witness
        assert count == 4

    def test_fxl1_c4t4(self, fxl1_doc):
        report = check_small_cancellation(fxl1_doc.lot.presentation, 4, 4)
        assert report.c_holds and report.t_holds

    def test_tq_matches_brute_force(self):
        rng = random.Random(15)
        checked = 0
        for _ in range(40):
            p = random_presentation(rng, max_gens=3, max_rels=2, max_len=4)
            from ddr.core import is_cyclically_reduced
            cyc = Presentation(p.generators,
                               tuple(r for r in p.relators if r and is_cyclically_reduced(r)))
            if not cyc.relators:
                continue
            g = build_whitehead(cyc)
            if g.dart_count > 12:
                continue
            for q in (3, 4, 5):
                report = check_small_cancellation(cyc, 2, q)
                brute_short = any(brute_reduced_cycles_of_length(g, L)
                                  for L in range(3, q))
                assert report.t_holds == (not brute_short)
            checked += 1
        assert checked >= 10

    def test_parameter_validation(self, fx4):
        for p_val, q_val in ((1, 4), (4, 2)):
            with pytest.raises(DdrError) as exc:
                check_small_cancellation(fx4, p_val, q_val)
            assert exc.value.code == "BAD_PARAMETERS"


class TestCertify:
    def test_fx3_both_subsets(self, fx3):
        for s in ({"x1", "x2"}, {"y1", "y2"}):
            cert = certify_s44(fx3, s)
            assert cert.verdict == "CERTIFIED_DR_AWAY_FROM"
            assert cert.evidence["case"] == "c4t4"

    def test_embedded_weights_reverify(self, fx3):
        from fractions import Fraction
        from ddr.weights import WeightAssignment
        cert = certify_s44(fx3, {"x1", "x2"})
        weights = {int(k): Fraction(v) for k, v in
                   cert.evidence["weights"]["weights"].items()}
        again = verify_weight_test(fx3, {"x1", "x2"}, WeightAssignment(weights))
        assert again.passed

    def test_consecutive_letters_failure_matches_scan(self, fxl1_doc):
        p = fxl1_doc.lot.presentation
        s = {"x1", "x3"}
        scan_hit = any(r[i].gen in s and r[(i + 1) % len(r)].gen in s
                       for r in p.relators for i in range(len(r)))
        cert = certify_s44(p, s)
        assert scan_hit
        assert cert.verdict == "UNKNOWN"
        assert cert.evidence == {
            "failed_hypothesis": "consecutive letters from the subset in a relator"}

    def test_fx4_is_c4t4_and_certifies(self, fx4):
        # the commutator needs exactly four single-letter pieces, which C(4)
        # allows, and its star graph is a 4-cycle
        cert = certify_s44(fx4, set())
        assert cert.verdict == "CERTIFIED_DR_AWAY_FROM"
        assert cert.evidence["case"] == "c4t4"

    def test_non_small_cancellation_fails(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return shortest_reduced_cycle_in_range(*args)

        monkeypatch.setattr(smallcancel, "shortest_reduced_cycle_in_range", counted)
        # a^2 is a single piece of itself (two rotations share the prefix), so
        # C(4) fails, and with it C(6): T(4) cannot matter and is not walked
        p = parse_presentation("gens: a\nrel: a a")
        cert = certify_s44(p, set())
        assert calls == []
        assert cert.verdict == "UNKNOWN"
        assert cert.evidence == {
            "failed_hypothesis": "small cancellation: neither C(4),T(4) nor C(6),T(3)"}
        assert cert.notes == (smallcancel.T_Q_CONVENTION,)

    def test_improper_subset_rejected(self, fx4):
        with pytest.raises(DdrError) as exc:
            certify_s44(fx4, {"a", "b"})
        assert exc.value.code == "S_NOT_PROPER"

    def test_parallel_edges_weighted_one(self):
        # x y x y^-1 has a length-2 star cycle; its corners get weight 1
        p = parse_presentation("gens: x y z\nrel: x y x y^-1\nrel: z x y")
        report = check_small_cancellation(p, 4, 4)
        if report.holds:
            cert = certify_s44(p, set())
            weights = cert.evidence["weights"]["weights"]
            assert "1/1" in weights.values() or "1" in weights.values()


def brute_is_piece_cached(u, occurrences):
    hits = 0
    for _, word in occurrences:
        if word[:len(u)] == u:
            hits += 1
            if hits >= 2:
                return True
    return False
