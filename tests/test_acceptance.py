"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the lines).
Everything here is oracle- or fixture-based and is expected to finish in
seconds.
"""

import random
from fractions import Fraction
from itertools import combinations

from conftest import FIXTURES, random_lot, random_presentation
from oracles import (brute_min_pieces, brute_min_reduced_cycle,
                     brute_occurrences, brute_reduced_cycles_of_length, rescan_collapse)
from ddr.cayley import (COLLAPSED, CollapseStep, build_cayley_complex,
                        coset_enumeration, directed_collapse, replay_collapse)
from ddr.certificates import Certificate
from ddr.pipeline import CheckConfig, derive_consequences, run_check
from ddr.core import (Presentation, free_edge_generators, is_cyclically_reduced,
                      parse_presentation, subpresentation, word_stats,
                      word_support)
from ddr.diagram import (directed_verdict, folding_edges, loads_diagram,
                         matched_surface, validate_diagram)
from ddr.lot import certify_lot, collapse, reorient_positive_tree, sub_lots
from ddr.smallcancel import (certify_s44, check_small_cancellation,
                             min_piece_decomposition, piece_table,
                             symmetrized_closure)
from ddr.weights import WeightAssignment, search_weights, verify_weight_test
from ddr.whitehead import (NEGATIVE, POSITIVE, CornerEdge, GraphView,
                           WhiteheadGraph, WVertex, build_whitehead, is_forest,
                           min_weight_reduced_cycle,
                           shortest_reduced_cycle_in_range)


def report_line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_c01_fx1_matrix(fx1):
    report = run_check(fx1, {"a", "b"}, CheckConfig(run_all=True, coset_limit=2000))
    methods = {c.method: c.verdict for c in report.certificates}
    ok = methods.get("free") == "CERTIFIED_DR_AWAY_FROM" and \
        methods.get("finite") == "DECIDED_DR"
    away_a = run_check(fx1, {"a"}, CheckConfig(coset_limit=2000))
    ok = ok and [c.verdict for c in away_a.certificates] == ["DECIDED_NOT_DR"]
    report_line("C1 fx1-matrix", ok,
                f"away {{a,b}}: {sorted(methods.items())}; away {{a}}: decided-not")


def test_c02_fx2_refutation(fx2):
    disc = loads_diagram((FIXTURES / "fx2_disc.json").read_text())
    validation = validate_diagram(disc, fx2)
    folds = folding_edges(disc, fx2)
    c_folds = [f for f in folds if disc.edge_by_id[f.edge_id].label == "c"]
    verdict = directed_verdict(disc, fx2, {"a", "b"})
    positives = run_check(fx2, {"a", "b"}, CheckConfig(run_all=True, coset_limit=600))
    ok = (validation.valid and validation.disc and not c_folds
          and verdict.verdict == "REFUTES"
          and not any(c.positive for c in positives.certificates))
    report_line("C2 fx2-refuted", ok,
                f"disc valid, {len(folds)} foldings, verdict {verdict.verdict}, "
                f"{len(positives.certificates)} positive certs")


def test_c03_fx3_both_routes(fx3):
    ok = True
    details = []
    for s in ({"x1", "x2"}, {"y1", "y2"}):
        cert = certify_s44(fx3, s)
        ok = ok and cert.verdict == "CERTIFIED_DR_AWAY_FROM"
        found = search_weights(fx3, s)
        ok = ok and found is not None and verify_weight_test(fx3, s, found.assignment).passed
        details.append(f"{sorted(s)}: s44 {cert.verdict}, search feasible")
    report_line("C3 fx3-s44-and-weights", ok, "; ".join(details))


def test_c04_fx4_and_surfaces(fx4, genus2):
    sums = [word_stats(r).total_exponent_sum for r in fx4.relators]
    graph = build_whitehead(fx4)
    positive_edges = GraphView(graph, POSITIVE).edge_ids()
    ok = sums == [0] and len(positive_edges) == 1 and \
        is_forest(GraphView(graph, POSITIVE)).forest
    for g in ("a", "b"):
        report = run_check(fx4, {g}, CheckConfig(tests=("forest",)))
        ok = ok and report.certificates[0].verdict == "CERTIFIED_DR_AWAY_FROM"
    g2 = run_check(genus2, frozenset(), CheckConfig(all_directions=True))
    ok = ok and g2.certificates[0].verdict == "CERTIFIED_DR_ALL_DIRECTIONS"
    ok = ok and g2.certificates[0].method == "onerel"
    report_line("C4 fx4-forest-and-genus2", ok,
                "single positive edge; genus-2 certified in all directions")


KNOWN_GOOD_SETS = [{"x1", "x2", "x5"}, {"x1", "x2"}, {"x1", "x4"}, {"x1", "x5"},
                   {"x2", "x5"}, {"x2", "x6"}, {"x2", "x7"}, {"x3", "x6"},
                   {"x3", "x7"}, {"x4", "x7"}]


def test_c05_fxl1_small_cancellation(fxl1_doc):
    p = fxl1_doc.lot.presentation
    sc = check_small_cancellation(p, 4, 4)
    ok = sc.c_holds and sc.t_holds
    for s in KNOWN_GOOD_SETS:
        cert = certify_s44(p, s)
        ok = ok and cert.verdict == "CERTIFIED_DR_AWAY_FROM"
    bad = {"x1", "x3"}
    scan_hit = any(r[i].gen in bad and r[(i + 1) % len(r)].gen in bad
                   for r in p.relators for i in range(len(r)))
    cert = certify_s44(p, bad)
    ok = ok and scan_hit and cert.verdict == "UNKNOWN" and \
        "consecutive" in cert.evidence["failed_hypothesis"]
    report_line("C5 fxl1-c4t4", ok,
                f"C(4),T(4) holds; {len(KNOWN_GOOD_SETS)} subsets certified; "
                f"{{x1,x3}} fails the adjacency scan")


def test_c06_fxl2_chain(fxl2_doc):
    lot, t = fxl2_doc.lot, fxl2_doc.sublots["T"]
    infos = sub_lots(lot)
    found = any(i.sublot.vertex_subset == {"x1", "x2", "x3", "x4", "x5"}
                and i.maximal_proper for i in infos)
    bar = collapse(t, "y")
    printed = [(e.source, e.target, e.label) for e in bar.edges]
    expected = [("u2", "u3", "u1"), ("u1", "u2", "u3"),
                ("y", "u1", "u4"), ("y", "u4", "u3")]
    graph = build_whitehead(bar.presentation)
    forest = is_forest(GraphView(graph, POSITIVE)).forest
    cert = certify_lot(t)
    consequences = derive_consequences(cert, lot.presentation, t.vertex_subset, {})
    aspherical = any(c["kind"] == "aspherical" for c in consequences)
    sub_w_minus = is_forest(GraphView(
        build_whitehead(subpresentation(lot.presentation, t.vertex_subset)),
        NEGATIVE)).forest
    ok = (found and bar.vertices == ("u3", "u2", "u1", "y", "u4")
          and printed == expected and forest
          and cert.verdict == "CERTIFIED_DR_AWAY_FROM" and aspherical
          and sub_w_minus)
    report_line("C6 fxl2-chain", ok,
                "sub-LOT found, collapse printed form, positive graph a tree, "
                "certified with asphericity")


def test_c07_matched_surfaces(fx1):
    failures = 0
    checked = 0

    def check(p, x):
        nonlocal failures, checked
        d = matched_surface(p, x)
        rep = validate_diagram(d, p)
        labels = {d.edge_by_id[f.edge_id].label for f in folding_edges(d, p)}
        good = (rep.valid and rep.closed and rep.orientable
                and any(e.label == x for e in d.edges)
                and labels <= free_edge_generators(p))
        checked += 1
        if not good:
            failures += 1

    check(fx1, "a")
    rng = random.Random(2024)
    while checked < 101:
        p = random_presentation(rng, max_gens=4, max_rels=3, max_len=8)
        free = free_edge_generators(p)
        candidates = [g for g in p.generators
                      if g not in free and any(l.gen == g for r in p.relators for l in r)]
        if not candidates:
            continue
        check(p, rng.choice(candidates))
    report_line("C7 matched-surfaces", failures == 0,
                f"{checked} surfaces, {failures} violations")


def _random_multigraph(rng):
    n_vertices = rng.randint(1, 5)
    vertices = tuple(WVertex(f"v{i}", 1) for i in range(n_vertices))
    n_edges = rng.randint(1, 6)
    edges = []
    for i in range(n_edges):
        a, b = rng.choice(vertices), rng.choice(vertices)
        edges.append(CornerEdge(i, 0, i, a, b))
    return WhiteheadGraph(vertices, tuple(edges))


def test_c08_oracle_equivalences():
    rng = random.Random(505)
    for _ in range(500):
        g = _random_multigraph(rng)
        expected, _ = brute_min_reduced_cycle(g)
        got = min_weight_reduced_cycle(g)
        assert got.weight == expected, f"girth mismatch on {g}"

    checked_elements = 0
    rng = random.Random(506)
    while checked_elements < 200:
        p = random_presentation(rng, max_gens=3, max_rels=2, max_len=8)
        cyc = Presentation(p.generators,
                           tuple(r for r in p.relators if r and is_cyclically_reduced(r)))
        if not cyc.relators:
            continue
        table = piece_table(cyc)
        occurrences = brute_occurrences(cyc)
        for element in symmetrized_closure(cyc):
            expected = brute_min_pieces(element.word, occurrences)
            got, _ = min_piece_decomposition(element, table)
            assert got == expected
            checked_elements += 1
        g = build_whitehead(cyc)
        if g.dart_count <= 12:
            for q in (3, 4):
                fast = shortest_reduced_cycle_in_range(g, 3, q) is not None
                brute = any(brute_reduced_cycles_of_length(g, L) for L in range(3, q))
                assert fast == brute
    report_line("C8 oracle-equivalences", True,
                f"500 girth graphs, {checked_elements} piece decompositions")


def test_c09_collapse_confluence(fx1):
    klein4 = parse_presentation("gens: a b\nrel: a^2\nrel: b^2\nrel: a b a b")
    ok = True
    for p, s in [(fx1, {"a", "b"}), (klein4, set())]:
        cx = build_cayley_complex(coset_enumeration(p, 2000), p)
        base = directed_collapse(cx.cells, p, s)
        rng = random.Random(99)
        for _ in range(50):
            other = rescan_collapse(cx.cells, p, s, rng=rng)
            ok = ok and other.residual == base.residual
        ok = ok and replay_collapse(cx.cells, s, base.steps)
    cx = build_cayley_complex(coset_enumeration(fx1, 2000), fx1)
    full = directed_collapse(cx.cells, fx1, {"a", "b"})
    ok = ok and full.verdict == COLLAPSED
    for size in range(len(cx.cells) + 1):
        for subset in combinations(range(len(cx.cells)), size):
            cells = tuple(cx.cells[i] for i in subset)
            ok = ok and directed_collapse(cells, fx1, {"a", "b"}).verdict == COLLAPSED
    report_line("C9 collapse-confluence", ok,
                "50 random orders stable; all 8 subcomplexes collapse")


# --- criterion 10: soundness sweep ------------------------------------------

def _reverify(cert: Certificate, p: Presentation) -> bool:
    s = frozenset(cert.subset or ())
    if cert.method == "free":
        free = free_edge_generators(p)
        for idx, rel in enumerate(p.relators):
            if word_support(rel) <= s:
                continue
            witness = cert.evidence["free_edge_per_relator"].get(str(idx))
            if witness is None or witness in s or witness not in free or \
                    witness not in word_support(rel):
                return False
        return True
    if cert.method == "onerel":
        return len(p.relators) == 1 and is_cyclically_reduced(p.relators[0]) and \
            word_stats(p.relators[0]).proper_power_period is None
    if cert.method == "forest":
        if any(word_stats(r).total_exponent_sum != 0 for r in p.relators):
            return False
        graph = build_whitehead(p)
        return is_forest(GraphView(graph, cert.evidence["side"])).forest and len(s) <= 1
    if cert.method in ("s44", "weight"):
        raw = cert.evidence["weights"]["weights"]
        assignment = WeightAssignment({int(k): Fraction(v) for k, v in raw.items()})
        return verify_weight_test(p, s, assignment).passed
    if cert.method == "finite":
        table = coset_enumeration(p, 4000)
        if table is None or table.element_count != cert.evidence["group_order"]:
            return False
        cx = build_cayley_complex(table, p)
        steps = tuple(CollapseStep(tuple(s_["cell"]), tuple(s_["edge"]))
                      for s_ in cert.evidence["collapse"]["steps"])
        if not replay_collapse(cx.cells, s, steps):
            return False
        fresh = directed_collapse(cx.cells, p, s)
        expected = COLLAPSED if cert.verdict == "DECIDED_DR" else "STUCK"
        return fresh.verdict == expected
    return False


def test_c10_soundness_sweep(fx1, fx2, fx3, fx4, genus2):
    matrix = []
    for p in (fx1, fx2, fx3, fx4, genus2):
        gens = list(p.generators)
        subsets = [frozenset()] + [frozenset({g}) for g in gens] + \
            [frozenset(c) for c in combinations(gens, 2)]
        for s in subsets:
            if s != p.generator_set:
                matrix.append((p, s))
    verdict_kinds = {}
    reverified = 0
    for p, s in matrix:
        report = run_check(p, s, CheckConfig(run_all=True, coset_limit=600))
        key = (report.input_description["digest"], tuple(sorted(s)))
        for cert in report.certificates:
            kinds = verdict_kinds.setdefault(key, set())
            if cert.positive:
                kinds.add("positive")
                assert _reverify(cert, p), \
                    f"re-verification failed: {cert.method} on {key}"
                reverified += 1
            if cert.negative:
                kinds.add("negative")
                if cert.method == "finite":
                    assert _reverify(cert, p)
                    reverified += 1
    contradictions = [k for k, v in verdict_kinds.items() if len(v) > 1]
    report_line("C10 soundness-sweep", not contradictions,
                f"{len(matrix)} (presentation, subset) pairs, "
                f"{reverified} certificates re-verified, "
                f"{len(contradictions)} contradictions")


def test_c11_reorientation_sweep():
    rng = random.Random(606)
    failures = 0
    for _ in range(200):
        lot = random_lot(rng, max_vertices=8)
        try:
            out = reorient_positive_tree(lot)
        except Exception:
            failures += 1
            continue
        graph = build_whitehead(out.presentation)
        if not is_forest(GraphView(graph, POSITIVE)).forest:
            failures += 1
    report_line("C11 reorientation", failures == 0, f"200 random trees, {failures} failures")
