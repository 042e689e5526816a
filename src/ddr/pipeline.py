"""The check pipeline: the test registry, consequence derivation and the
reducibility ladder.

`run_check` tries the tests of `TESTS` cheap-to-expensive: the free-edge
shortcut, the one-relator criterion, the forest test, the
small-cancellation certificate, the weight search, and finally the
finite-group decision.  Every test has the signature
`(p, s, config) -> (Certificate | None, attempt)`.  One runner (`_run`,
`_run_tests`) records every outcome: a fault is a skipped attempt with its
code, a spent budget an unknown attempt with its reason; every budget raises
`BudgetSpent`, and only `_run` catches it.  The first conclusive answer wins
unless run_all is set; failures stay visible in the report's attempt list,
and UNKNOWN is an honest verdict.

`presentation_dr` is the ladder of cheap reducibility tests: the registry's
forest, s44 and weight tests on the empty subset.  `derive_consequences`
runs it on the sub-presentation a positive certificate's subset carries and
upgrades the certificate to asphericity when it succeeds; for a LOT
certificate that sub-presentation is the sub-LOT's own, and the ladder's
result is embedded in the certificate's evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import __version__
from .certificates import (CERTIFIED_DR_ALL_DIRECTIONS, CERTIFIED_DR_AWAY_FROM, DECIDED_DR,
                           REFUTED, UNKNOWN, Certificate, Report)
from .cayley import check_coset_limit, decide_finite
from .core import (BudgetSpent, DdrError, Presentation, check_preconditions,
                   free_edge_generators, subpresentation, word_stats, word_support)
from .diagram import REFUTES, DirectedVerdict, SurfaceDiagram, directed_verdict
from .smallcancel import certify_s44
from .weights import WeightAssignment, search_weights, verify_weight_test
from .whitehead import NEGATIVE, POSITIVE, GraphView, is_forest


def _attempt(name: str, status: str, reason: str | None = None) -> dict:
    out = {"test": name, "status": status}
    if reason:
        out["reason"] = reason
    return out


def _free_edge_test(p: Presentation, s: frozenset[str], config: CheckConfig):
    """Shortcut: if every relator not carried by the subset contains a
    generator outside the subset occurring exactly once in the whole
    presentation, any diagram edge outside the subset forces a folding edge
    at that unique occurrence."""
    free = free_edge_generators(p)
    chosen = {}
    for idx, rel in enumerate(p.relators):
        if word_support(rel) <= s:
            continue
        witness = next((g for g in sorted(word_support(rel)) if g not in s and g in free),
                       None)
        if witness is None:
            return None, _attempt("free", "unknown",
                                  f"relator {idx} has no free-edge generator outside the subset")
        chosen[idx] = witness
    cert = Certificate(p.digest, tuple(sorted(s)), CERTIFIED_DR_AWAY_FROM, "free",
                       evidence={"free_edge_per_relator": {str(k): v for k, v in
                                                           sorted(chosen.items())}})
    return cert, _attempt("free", "certified")


def _one_relator_test(p: Presentation, s, config: CheckConfig):
    if len(p.relators) != 1:
        return None, _attempt("onerel", "unknown", "not a one-relator presentation")
    rel = p.relators[0]
    if not rel:
        return None, _attempt("onerel", "unknown", "empty relator")
    if p.unreduced_relators:
        return None, _attempt("onerel", "unknown", "relator is not cyclically reduced")
    period = word_stats(rel).proper_power_period
    if period is not None:
        return None, _attempt("onerel", "unknown", f"relator is a proper power (period {period})")
    cert = Certificate(p.digest, None, CERTIFIED_DR_ALL_DIRECTIONS, "onerel",
                       evidence={"relator_length": len(rel), "proper_power": False})
    return cert, _attempt("onerel", "certified")


def _forest_test(p: Presentation, s: frozenset[str], config: CheckConfig):
    """Exponent-sum-zero relators with a forest positive or negative graph:
    reducibility directed away from each single generator, and plain
    reducibility for the empty subset."""
    if not p.relators:
        return None, _attempt("forest", "unknown", "no relators")
    sums = [word_stats(r).total_exponent_sum for r in p.relators]
    if any(v != 0 for v in sums):
        return None, _attempt("forest", "unknown", "some relator has nonzero exponent sum")
    if p.unreduced_relators:
        return None, _attempt("forest", "unknown", "relators not cyclically reduced")
    if len(s) > 1:
        return None, _attempt("forest", "unknown",
                              "conclusion covers the empty set and single generators only")
    side = next((mode for mode in (POSITIVE, NEGATIVE)
                 if is_forest(GraphView(p.whitehead, mode)).forest), None)
    if side is None:
        return None, _attempt("forest", "unknown", "neither side of the graph is a forest")
    cert = Certificate(p.digest, tuple(sorted(s)), CERTIFIED_DR_AWAY_FROM, "forest",
                       evidence={"side": side, "exponent_sums": sums})
    return cert, _attempt("forest", "certified")


def _s44_test(p: Presentation, s: frozenset[str], config: CheckConfig):
    cert = certify_s44(p, s)
    if cert.positive:
        return cert, _attempt("s44", "certified")
    return None, _attempt("s44", "unknown", cert.evidence.get("failed_hypothesis"))


def _weight_test(p: Presentation, s: frozenset[str], config: CheckConfig):
    if config.weights is None:
        source, wcert = "search", search_weights(p, s)
    else:
        source, wcert = "supplied", verify_weight_test(p, s, config.weights)
    if wcert is None:
        return None, _attempt("weight", "unknown",
                              "linear program infeasible; the test is sufficient, "
                              "not necessary, so this refutes nothing")
    if not wcert.passed:
        failed = [r.condition for r in wcert.reports if not r.passed]
        return None, _attempt("weight", "unknown", f"supplied weights fail conditions {failed}")
    cert = Certificate(p.digest, tuple(sorted(s)), CERTIFIED_DR_AWAY_FROM, "weight",
                       evidence={"weights": wcert.to_json_dict(), "source": source})
    return cert, _attempt("weight", "certified")


def _finite_test(p: Presentation, s: frozenset[str], config: CheckConfig):
    decision = decide_finite(p, s, config.coset_limit)
    if decision.verdict == UNKNOWN:
        attempt = _attempt("finite", "unknown", decision.proof.reason)
        # index 1 is the abelianization itself, which the reason already names
        if decision.proof.index > 1:
            attempt["evidence"] = decision.proof.to_json_dict()
        return None, attempt
    cert = Certificate(p.digest, tuple(sorted(s)), decision.verdict, "finite",
                       evidence={"group_order": decision.table.element_count,
                                 "collapse": decision.log.to_json_dict()})
    if decision.verdict == DECIDED_DR:
        cert.notes = ("derived remark: since the group is finite, the collapse of the "
                      "full covering complex also collapses the base complex into the "
                      "subcomplex carried by the subset.",)
    return cert, _attempt("finite", "decided")


# name -> test, in the order the pipeline tries them
TESTS = {
    "free": _free_edge_test,
    "onerel": _one_relator_test,
    "forest": _forest_test,
    "s44": _s44_test,
    "weight": _weight_test,
    "finite": _finite_test,
}
TEST_ORDER = tuple(TESTS)


@dataclass
class CheckConfig:
    tests: tuple[str, ...] = TEST_ORDER
    coset_limit: int = 20000
    weights: WeightAssignment | None = None
    all_directions: bool = False
    run_all: bool = False

    def __post_init__(self):
        check_coset_limit(self.coset_limit)
        for i, name in enumerate(self.tests):
            if name not in TESTS:
                raise DdrError(f"unknown test {name!r}", code="USAGE")
            if name in self.tests[:i]:
                raise DdrError(f"test {name!r} is named twice", code="USAGE")


def presentation_dr(p: Presentation) -> dict | None:
    """Evidence that p is diagrammatically reducible (directed away from the
    empty set) from the cheap tests: no relators, else the first certificate
    of the forest test, the small-cancellation certificate and the weight
    search.  None is a miss, not a refutation."""
    if not p.relators:
        return {"method": "no_relators",
                "detail": "no 2-cells, reducibility is vacuous"}
    # each test, and the part of its certificate's evidence the ladder reports
    for name, brief in (
            ("forest", lambda ev: {"side": ev["side"]}),
            ("s44", lambda ev: {"case": ev["case"]}),
            ("weight", lambda ev: {"weights": {k: str(Fraction(v)) for k, v
                                               in ev["weights"]["weights"].items()}})):
        cert, _ = _run(name, p, frozenset(), CheckConfig())
        if cert is not None:
            return {"method": name, **brief(cert.evidence)}
    return None


def derive_consequences(cert: Certificate, p: Presentation, s: frozenset[str],
                        carried: dict[frozenset[str], dict | None]) -> list[dict]:
    """Group-theoretic consequences of a positive directed-reducibility
    certificate: second-homotopy generation, injectivity on fundamental
    groups, free subgroups, and asphericity.

    `carried` is the caller's memo of the ladder on carried
    sub-presentations, subset -> `presentation_dr` result, so several
    certificates for one subset run the ladder once.  A LOT certificate's
    carried sub-presentation is the sub-LOT's own, and a ladder success is
    recorded in its evidence as `sublot_presentation_dr`."""
    if not cert.positive:
        raise ValueError("consequences are derived from positive certificates only")
    out: list[dict] = []
    if cert.verdict == CERTIFIED_DR_ALL_DIRECTIONS:
        out.append({
            "kind": "injectivity_all_subsets",
            "statement": "every subset of the generators includes injectively on "
                         "fundamental groups",
        })
        if all(word_support(rel) == p.generator_set for rel in p.relators):
            out.append({
                "kind": "freiheitssatz_all_subsets",
                "statement": "every proper subset of the generators generates a free "
                             "subgroup with that subset as basis",
            })
        out.append({
            "kind": "aspherical",
            "statement": "the presentation complex is aspherical (diagrammatic "
                         "reducibility in all directions includes plain reducibility)",
        })
        return out
    subset_txt = "{" + ", ".join(sorted(s)) + "}"
    out.append({
        "kind": "pi2_generation",
        "statement": f"pi2 of the presentation complex is generated, as a module over "
                     f"the group, by the image of pi2 of the subcomplex carried by "
                     f"{subset_txt}",
    })
    out.append({
        "kind": "pi1_injectivity",
        "statement": f"the inclusion of the subcomplex carried by {subset_txt} is "
                     f"injective on fundamental groups",
    })
    if s and all(any(l.gen not in s for l in rel) for rel in p.relators):
        out.append({
            "kind": "free_subgroup",
            "statement": f"{subset_txt} generates a free subgroup with basis {subset_txt}",
        })
    if s not in carried:
        carried[s] = presentation_dr(subpresentation(p, s))
    if carried[s] is not None:
        if cert.method == "lot_collapse":
            cert.evidence["sublot_presentation_dr"] = carried[s]
            why = "the sub-LOT's own presentation is diagrammatically reducible"
        else:
            why = "the carried sub-presentation is itself diagrammatically reducible"
        out.append({"kind": "aspherical",
                    "statement": f"the presentation complex is aspherical ({why})"})
    return out


def _run(name: str, p: Presentation, s: frozenset[str], config: CheckConfig):
    """Run one test of `TESTS`: a fault is a skipped attempt with its code,
    a spent budget an unknown attempt with its reason."""
    try:
        return TESTS[name](p, s, config)
    except DdrError as exc:
        return None, _attempt(name, "skipped", f"{exc.code}: {exc}")
    except BudgetSpent as exc:
        return None, _attempt(name, "unknown", str(exc))


def _run_tests(report: Report, p: Presentation, s: frozenset[str], config: CheckConfig,
               names: tuple[str, ...], carried: dict, tag: list[str] | None = None) -> None:
    """Run the tests `names` on subset s, recording each attempt (tagged
    with `tag` as its subset, if given) and each certificate with its
    consequences, until the first certificate unless run_all is set."""
    for name in names:
        cert, attempt = _run(name, p, s, config)
        report.attempts.append(attempt if tag is None else {**attempt, "subset": tag})
        if cert is not None:
            if cert.positive:
                cert.consequences = derive_consequences(cert, p, s, carried)
            report.certificates.append(cert)
            if not config.run_all:
                return


def run_check(p: Presentation, subset=frozenset(), config: CheckConfig | None = None,
              ) -> Report:
    config = config or CheckConfig()
    report = Report(
        tool_version=__version__,
        input_description={"kind": "presentation", "digest": p.digest,
                           "generators": list(p.generators),
                           "relator_count": len(p.relators)},
        config={"tests": list(config.tests), "coset_limit": config.coset_limit,
                "all_directions": config.all_directions, "run_all": config.run_all},
    )
    if config.all_directions:
        if subset:
            raise DdrError("--all-directions and --away-from exclude each other", code="USAGE")
        _run_all_directions(p, config, report)
    else:
        s = check_preconditions(p, subset, cyclically_reduced=False)
        _run_tests(report, p, s, config, config.tests, {})
    return report


def _run_all_directions(p: Presentation, config: CheckConfig, report: Report) -> None:
    carried: dict = {}
    if "onerel" in config.tests:
        _run_tests(report, p, frozenset(), config, ("onerel",), carried)
        if report.certificates and not config.run_all:
            return
    singles = [frozenset({g}) for g in p.generators]
    if "forest" in config.tests and singles:
        # the forest test's outcome is the same for every subset of size <= 1
        cert, attempt = _run("forest", p, frozenset(), config)
        report.attempts.append(attempt if cert is None else _attempt(
            "forest", "certified", "directed away from each single generator"))
        if cert is not None:
            for s in singles:
                single = replace(cert, subset=tuple(s))
                single.consequences = derive_consequences(single, p, s, carried)
                report.certificates.append(single)
            return
    if not report.certificates:
        # per-subset fallback: report the singleton runs individually; a
        # one-generator presentation has no proper singleton
        for s in singles:
            if s != p.generator_set:
                _run_tests(report, p, s, config, config.tests, carried, sorted(s))


def diagram_refutation(p: Presentation, subset, verdict: DirectedVerdict) -> Certificate:
    """The REFUTED certificate of a diagram whose directed verdict is REFUTES."""
    return Certificate(p.digest, tuple(sorted(subset)), REFUTED, "diagram",
                       evidence={"mode": verdict.mode,
                                 "outside_edges": list(verdict.outside_edges)})


def check_diagram(report: Report, d: SurfaceDiagram, p: Presentation, subset) -> None:
    """Test a candidate refutation diagram and record the outcome in the report."""
    verdict = directed_verdict(d, p, subset)
    if verdict.verdict == REFUTES:
        report.certificates.append(diagram_refutation(p, subset, verdict))
        report.attempts.append(_attempt("diagram", "refuted"))
    else:
        report.attempts.append(_attempt("diagram", "unknown",
                                        "diagram is consistent with the claim"))
