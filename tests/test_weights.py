import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import FIXTURES
from ddr import weights
from ddr.cli import main
from ddr.core import BudgetSpent, DdrError, parse_presentation, subpresentation
from ddr.pipeline import CheckConfig, presentation_dr, run_check
from ddr.weights import (Tableau, WeightAssignment, farkas_refutes, search_weights,
                         solve_feasibility, verify_weight_test)
from ddr.whitehead import build_whitehead, min_weight_reduced_cycle


def all_half(p):
    g = build_whitehead(p)
    return WeightAssignment({e.id: Fraction(1, 2) for e in g.edges})


class TestVerify:
    def test_fx4_all_half_passes(self, fx4):
        cert = verify_weight_test(fx4, frozenset(), all_half(fx4))
        assert cert.passed
        assert [r.passed for r in cert.reports] == [True] * 4

    def test_fx4_all_zero_fails_cycle_condition(self, fx4):
        g = build_whitehead(fx4)
        zero = WeightAssignment({e.id: Fraction(0) for e in g.edges})
        cert = verify_weight_test(fx4, frozenset(), zero)
        assert not cert.passed
        by_condition = {r.condition: r.passed for r in cert.reports}
        assert by_condition[3] is False
        witness_weight, witness_cycle = cert.reports[2].witness
        assert witness_weight < 2 and witness_cycle
        exact = min_weight_reduced_cycle(g, zero.weights)
        assert (witness_weight, witness_cycle) == (exact.weight, exact.cycle)

    def test_fx3_all_half_passes_with_vacuous_condition_one(self, fx3):
        cert = verify_weight_test(fx3, {"x1", "x2"}, all_half(fx3))
        assert cert.passed
        g = build_whitehead(fx3)
        s_s_edges = [e for e in g.edges
                     if e.a.gen in {"x1", "x2"} and e.b.gen in {"x1", "x2"}]
        assert s_s_edges == []

    def test_condition_one_and_two_bounds(self):
        p = parse_presentation("gens: a b\nrel: a a b b")
        g = build_whitehead(p)
        w = WeightAssignment({e.id: Fraction(1, 2) for e in g.edges})
        cert = verify_weight_test(p, {"a"}, w)
        by_condition = {r.condition: r for r in cert.reports}
        assert by_condition[1].passed is False  # the a-a corner weighs 1/2 < 1

    def test_not_cyclically_reduced_rejected(self):
        p = parse_presentation("gens: a b\nrel: b a a^-1 b")
        with pytest.raises(DdrError) as exc:
            verify_weight_test(p, frozenset(), WeightAssignment({0: Fraction(1)}))
        assert exc.value.code == "NOT_CYCLICALLY_REDUCED"

    def test_improper_subset_rejected(self, fx4):
        with pytest.raises(DdrError) as exc:
            verify_weight_test(fx4, {"a", "b"}, all_half(fx4))
        assert exc.value.code == "S_NOT_PROPER"

    def test_negative_weight_rejected(self, fx4):
        g = build_whitehead(fx4)
        w = WeightAssignment({e.id: Fraction(-1, 2) for e in g.edges})
        with pytest.raises(DdrError) as exc:
            verify_weight_test(fx4, frozenset(), w)
        assert exc.value.code == "NEGATIVE_WEIGHT"

    def test_missing_domain_rejected(self, fx4):
        with pytest.raises(DdrError) as exc:
            verify_weight_test(fx4, frozenset(), WeightAssignment({0: Fraction(1)}))
        assert exc.value.code == "BAD_DOMAIN"

    def test_weights_for_edges_the_graph_lacks_rejected(self, fx4, tmp_path, capsys):
        extra = WeightAssignment({**all_half(fx4).weights, 999: Fraction(5), -3: Fraction(1, 2)})
        with pytest.raises(DdrError) as exc:
            verify_weight_test(fx4, frozenset(), extra)
        assert exc.value.code == "BAD_DOMAIN" and "[-3, 999]" in str(exc.value)
        # on the command line the weight test is skipped, as for a missing edge
        wfile = tmp_path / "w.txt"
        wfile.write_text(extra.serialize())
        assert main(["check", str(FIXTURES / "fx4.pres"), "--tests", "weight",
                     "--weights", str(wfile)]) == 2
        assert "test weight: skipped (BAD_DOMAIN: " in capsys.readouterr().out

    def test_no_reduced_cycle_makes_condition_three_vacuous(self):
        # the corner graph of <a,b | a b> has two edges and no reduced cycle
        p = parse_presentation("gens: a b\nrel: a b")
        g = build_whitehead(p)
        zero = WeightAssignment({e.id: Fraction(0) for e in g.edges})
        cert = verify_weight_test(p, frozenset(), zero)
        assert cert.passed
        assert cert.reports[2].witness is None


class TestSearch:
    def test_fx4_feasible_and_verified(self, fx4):
        found = search_weights(fx4, frozenset())
        assert found is not None
        assert verify_weight_test(fx4, frozenset(), found.assignment).passed

    def test_fx3_feasible(self, fx3):
        found = search_weights(fx3, {"x1", "x2"})
        assert found is not None
        assert verify_weight_test(fx3, {"x1", "x2"}, found.assignment).passed

    def test_torsion_infeasible(self):
        p = parse_presentation("gens: a\nrel: a a")
        assert search_weights(p, frozenset()) is None
        p3 = parse_presentation("gens: a\nrel: a^3")
        assert search_weights(p3, frozenset()) is None

    def test_two_generator_torsion_like(self):
        # the corner graph of a^2 b^2 is a 4-cycle, so the program is
        # feasible (all corners at 1/2 reach the relator cap exactly)
        p = parse_presentation("gens: a b\nrel: a a b b")
        found = search_weights(p, frozenset())
        assert found is not None
        assert verify_weight_test(p, frozenset(), found.assignment).passed

    def test_round_trip_on_fixture_matrix(self, fx1, fx2, fx3, fx4):
        cases = [(fx1, frozenset()), (fx1, {"a"}), (fx2, {"a", "b"}),
                 (fx3, {"y1", "y2"}), (fx4, {"a"}), (fx4, {"b"})]
        for p, s in cases:
            found = search_weights(p, s)
            if found is not None:
                assert verify_weight_test(p, s, found.assignment).passed

    def test_fx3_search_keeps_one_tableau(self, fx3, monkeypatch):
        # some twenty cuts, each a few pivots on one tableau, none a fresh solve
        tableaus = []

        class Counted(Tableau):
            def __init__(self, num_vars):
                super().__init__(num_vars)
                tableaus.append(self)

        def no_solve(*args):
            raise AssertionError("search_weights called solve_feasibility")

        monkeypatch.setattr(weights, "Tableau", Counted)
        monkeypatch.setattr(weights, "solve_feasibility", no_solve)
        found = search_weights(fx3, frozenset())
        assert found is not None and len(tableaus) == 1
        assert len(tableaus[0].rows) > len(fx3.relators) + 10  # cuts went in

    def test_slack_perturbation_keeps_passing(self, genus2):
        # the length-8 relator capped at 6 leaves slack 2 above the all-1/2
        # corner sum of 4, so pointwise bumps within slack must keep passing
        base = all_half(genus2)
        assert verify_weight_test(genus2, frozenset(), base).passed
        rng = random.Random(13)
        for _ in range(10):
            bumped = dict(base.weights)
            for eid in rng.sample(sorted(bumped), 3):
                bumped[eid] += Fraction(rng.randint(1, 4), 8)
            if sum(bumped.values()) <= 6:
                assert verify_weight_test(genus2, frozenset(),
                                          WeightAssignment(bumped)).passed


class TestSerialization:
    def test_round_trip(self, fx4):
        w = all_half(fx4)
        text = w.serialize()
        assert "w 0 1/2" in text
        again = WeightAssignment.parse(text)
        assert dict(again.weights) == dict(w.weights)

    def test_parse_errors(self):
        for text in ("nope", "w x 1/2"):
            with pytest.raises(DdrError) as exc:
                WeightAssignment.parse(text)
            assert exc.value.code == "SYNTAX"
        with pytest.raises(DdrError, match="line 2") as exc:
            WeightAssignment.parse("w 0 1/2\nw 0 3")
        assert exc.value.code == "SYNTAX"

    @pytest.mark.parametrize("text, line, column", [
        ("w 0 1/2\n  w 0 3", 2, 3), ("# weights\n\n   w x 1/2", 3, 4),
        ("w 0 1/0", 1, 1), ("w 0 1/2 # ok\n w 1", 2, 2)])
    def test_errors_name_line_and_column(self, text, line, column):
        with pytest.raises(DdrError) as exc:
            WeightAssignment.parse(text)
        assert (exc.value.code, exc.value.line, exc.value.column) == ("SYNTAX", line, column)

    def test_only_fractions_and_integers_parse(self, tmp_path, capsys):
        parsed = WeightAssignment.parse("w 0 3\nw 1 -1/2\nw 2 04/6")
        assert dict(parsed.weights) == {0: 3, 1: Fraction(-1, 2), 2: Fraction(2, 3)}
        # Fraction() takes exponent notation, and "1e10000000" alone took
        # seconds to parse
        for weight in ("1e10000000", "1e999999999", "1e3", "2.5", "1/2e3", "+1", "1_0", "\u0661"):
            with pytest.raises(DdrError) as exc:
                WeightAssignment.parse(f"w 0 {weight}")
            assert exc.value.code == "SYNTAX", weight
        wfile = tmp_path / "w.txt"
        wfile.write_text("w 0 1e10000000\n")
        assert main(["check", str(FIXTURES / "fx4.pres"), "--tests", "weight",
                     "--weights", str(wfile)]) == 3
        assert "expected 'w <edge> <p>/<q>' (line 1, column 1)" in capsys.readouterr().err


class TestSimplex:
    def test_simple_feasible(self):
        point = solve_feasibility(2, [({0: Fraction(1)}, ">=", Fraction(1)),
                                      ({0: Fraction(1), 1: Fraction(1)}, "<=", Fraction(3))])
        assert point is not None
        assert point[0] >= 1 and point[0] + point[1] <= 3

    def test_simple_infeasible(self):
        point = solve_feasibility(1, [({0: Fraction(1)}, ">=", Fraction(2)),
                                      ({0: Fraction(1)}, "<=", Fraction(1))])
        assert point is None

    def test_negative_rhs_normalization(self):
        # -x <= -2 means x >= 2
        point = solve_feasibility(1, [({0: Fraction(-1)}, "<=", Fraction(-2))])
        assert point is not None and point[0] >= 2

    def test_exactness(self):
        point = solve_feasibility(1, [({0: Fraction(3)}, ">=", Fraction(1)),
                                      ({0: Fraction(3)}, "<=", Fraction(1))])
        assert point == [Fraction(1, 3)]

    def test_random_lps_against_certificates(self):
        rng = random.Random(21)
        for _ in range(100):
            nvars = rng.randint(1, 4)
            constraints = []
            for _ in range(rng.randint(1, 5)):
                coeffs = {v: Fraction(rng.randint(-3, 3)) for v in range(nvars)
                          if rng.random() < 0.8}
                sense = rng.choice(["<=", ">="])
                rhs = Fraction(rng.randint(-4, 4))
                constraints.append((coeffs, sense, rhs))
            point = solve_feasibility(nvars, constraints)
            if point is None:
                continue
            assert all(x >= 0 for x in point)
            for coeffs, sense, rhs in constraints:
                lhs = sum(c * point[v] for v, c in coeffs.items())
                assert lhs <= rhs if sense == "<=" else lhs >= rhs


def _satisfies(point, constraints) -> bool:
    return all(x >= 0 for x in point) and all(
        (lhs <= rhs) if sense == "<=" else (lhs >= rhs)
        for coeffs, sense, rhs in constraints
        for lhs in [sum(c * point[v] for v, c in coeffs.items())])


class TestTableau:
    def test_rows_one_at_a_time_against_highs(self):
        # seeded small integer systems: after every added row the tableau's
        # answer must match HiGHS, a feasible point must satisfy every row
        # exactly, and an infeasible answer must carry a valid Farkas proof
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(7)
        answers = Counter()
        for _ in range(150):
            nvars = rng.randint(1, 5)
            tableau = Tableau(nvars)
            constraints = []
            for _ in range(rng.randint(1, 8)):
                coeffs = {v: Fraction(rng.randint(-3, 3)) for v in range(nvars)
                          if rng.random() < 0.7}
                row = (coeffs, rng.choice(["<=", ">="]), Fraction(rng.randint(-4, 6)))
                constraints.append(row)
                feasible = tableau.add_row(*row)
                a_ub = [[(1 if sense == "<=" else -1) * float(coeffs.get(v, 0))
                         for v in range(nvars)] for coeffs, sense, _ in constraints]
                b_ub = [(1 if sense == "<=" else -1) * float(rhs)
                        for _, sense, rhs in constraints]
                oracle = linprog([0] * nvars, A_ub=a_ub, b_ub=b_ub, method="highs")
                assert oracle.status in (0, 2)
                assert feasible == (oracle.status == 0)
                answers[feasible] += 1
                if not feasible:
                    rows, bounds = tableau.farkas()
                    assert farkas_refutes(
                        constraints + [({v: Fraction(1)}, ">=", Fraction(0))
                                       for v in range(nvars)], rows + bounds)
                    with pytest.raises(ValueError):
                        tableau.add_row(*row)
                    break
                assert _satisfies(tableau.point(), constraints)
        assert answers[True] > 100 and answers[False] > 30

    def test_farkas_refutes_only_valid_proofs(self):
        rows = [({0: Fraction(1)}, ">=", Fraction(2)), ({0: Fraction(1)}, "<=", Fraction(1))]
        assert farkas_refutes(rows, [Fraction(1), Fraction(1)])
        assert not farkas_refutes(rows, [Fraction(1), Fraction(1, 2)])
        assert not farkas_refutes(rows, [Fraction(-1), Fraction(-1)])
        assert not farkas_refutes(rows, [Fraction(1)])

    @pytest.mark.parametrize("text, subset", [
        ("gens: a\nrel: a^3", ()),  # infeasible once cuts are in
        ("gens: a b\nrel: a b", ("a",)),  # the bounds alone exceed the relator cap
    ])
    def test_infeasible_search_is_proved(self, monkeypatch, text, subset):
        # the search checks its Farkas proof before it returns None
        proofs = []
        check = weights._check_infeasibility_proof
        monkeypatch.setattr(weights, "_check_infeasibility_proof",
                            lambda *args: proofs.append(check(*args)))
        assert search_weights(parse_presentation(text), frozenset(subset)) is None
        assert proofs == [None]


class TestSearchBudget:
    def test_spent_budget_ends_the_attempt_as_unknown(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(weights, "MAX_SEARCH_ROUNDS", 0)
        out = tmp_path / "report.json"
        assert main(["check", str(FIXTURES / "fx3.pres"), "--away-from", "y1,y2",
                     "--tests", "weight", "--json", str(out)]) == 2
        assert json.loads(out.read_text())["attempts"] == [{
            "test": "weight", "status": "unknown",
            "reason": "weight search spent its budget of 0 cutting-plane rounds; the test "
                      "is sufficient, not necessary, so this refutes nothing"}]
        capsys.readouterr()

    def test_spent_budget_in_a_consequence_is_a_ladder_miss(self, monkeypatch):
        # Z_3 x Z_3 + c away from {a, b} is decided DR, and the asphericity
        # consequence runs the weight search on <a, b | a^3, b^3, [a, b]>
        p = parse_presentation("gens: a b c\nrel: a^3\nrel: b^3\nrel: a b a^-1 b^-1\n"
                               "rel: c b a")
        carried = subpresentation(p, frozenset({"a", "b"}))
        config = CheckConfig(tests=("finite",))
        unbudgeted = run_check(p, {"a", "b"}, config).to_json()
        monkeypatch.setattr(weights, "MAX_SEARCH_ROUNDS", 1)
        with pytest.raises(BudgetSpent, match="budget of 1 cutting-plane rounds"):
            search_weights(carried, frozenset())
        assert presentation_dr(carried) is None
        report = run_check(p, {"a", "b"}, config)
        assert report.certificates[0].verdict == "DECIDED_DR"
        assert report.to_json() == unbudgeted
