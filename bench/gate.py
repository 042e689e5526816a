"""Correctness gate: re-check each case's report with code other than the
code that produced it.

* weights (weight and s44 certificates, LOT sub-presentations) go through
  `verify_weight_test`, not the search or construction that emitted them;
* finite decisions are replayed with `replay_collapse` over a freshly
  enumerated table that must pass `GroupTable.validate`, and the residual
  is re-derived here;
* forest claims are re-tested with `is_forest` on a rebuilt graph;
* free-edge and one-relator claims, and the exit code, are re-derived by
  this module's own code.

`check` returns None for a report that holds, else the reason it fails.
The caller imports `ddr` first; this module looks it up at call time so a
fresh import is always the one used.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction

import inputs as I

POSITIVE = {"CERTIFIED_DR_AWAY_FROM", "CERTIFIED_DR_ALL_DIRECTIONS", "DECIDED_DR"}
NEGATIVE = {"DECIDED_NOT_DR", "REFUTED"}


def _ddr(name: str):
    return sys.modules[f"ddr.{name}"]


def expected_exit(report: dict) -> int:
    verdicts = {c["verdict"] for c in report["certificates"]}
    if verdicts & NEGATIVE:
        return 1
    return 0 if verdicts & POSITIVE else 2


def check(case, code: int, report: dict) -> str | None:
    if code != expected_exit(report):
        return f"exit {code} disagrees with the report's certificates"
    if case.kind == "check":
        p = _ddr("core").parse_presentation(case.input.read_text(encoding="utf-8"))
        limit = _option(case.argv, "--coset-limit", 20000)
        for cert in report["certificates"]:
            reason = _check_presentation_cert(p, cert, limit)
            if reason:
                return f"{cert['method']}: {reason}"
    else:
        for cert in report["certificates"]:
            reason = _check_lot_cert(case, cert)
            if reason:
                return f"lot_collapse: {reason}"
    return None


def _option(argv: list[str], flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _check_presentation_cert(p, cert: dict, limit: int) -> str | None:
    subset = frozenset(cert["subset"] or ())
    method = cert["method"]
    if method in ("weight", "s44"):
        return _check_weights(p, subset, cert["evidence"]["weights"]["weights"])
    if method == "forest":
        return _check_forest(p, cert["evidence"]["side"])
    if method == "finite":
        return _check_finite(p, subset, cert, limit)
    if method == "onerel":
        (rel,) = p.relators
        n = len(rel)
        if rel[0] == rel[-1].inverse() or any(rel[i] == rel[i + 1].inverse()
                                              for i in range(n - 1)):
            return "relator is not cyclically reduced"
        if any(n % d == 0 and rel[d:] + rel[:d] == rel for d in range(1, n)):
            return "relator is a proper power"
        return None
    if method == "free":
        counts = Counter(l.gen for rel in p.relators for l in rel)
        witnesses = cert["evidence"]["free_edge_per_relator"]
        for i, rel in enumerate(p.relators):
            gens = {l.gen for l in rel}
            if gens <= subset:
                continue
            g = witnesses.get(str(i))
            if g is None or g in subset or g not in gens or counts[g] != 1:
                return f"relator {i} has no valid free-edge witness"
        return None
    if method == "diagram":
        return None  # refutations carry a diagram; the gate re-checks positives
    return f"no re-check for method {method!r}"


def _check_weights(p, subset, weights: dict) -> str | None:
    weights_mod = _ddr("weights")
    assignment = weights_mod.WeightAssignment(
        {int(k): Fraction(v) for k, v in weights.items()})
    cert = weights_mod.verify_weight_test(p, subset, assignment)
    if not cert.passed:
        return f"weights fail conditions {[r.condition for r in cert.reports if not r.passed]}"
    return None


def _check_forest(p, side: str) -> str | None:
    if any(sum(l.sign for l in rel) != 0 for rel in p.relators):
        return "a relator has nonzero exponent sum"
    wh = _ddr("whitehead")
    if not wh.is_forest(wh.GraphView(wh.build_whitehead(p), side)).forest:
        return f"the {side} graph is not a forest"
    return None


def _check_finite(p, subset, cert: dict, limit: int) -> str | None:
    cayley = _ddr("cayley")
    table = cayley.coset_enumeration(p, limit)
    if table is None:
        return "re-enumeration overflowed the coset limit"
    table.validate(p)
    evidence = cert["evidence"]
    if table.element_count != evidence["group_order"]:
        return f"group order {table.element_count} != {evidence['group_order']}"
    cells = cayley.build_cayley_complex(table, p).cells
    log = evidence["collapse"]
    steps = [cayley.CollapseStep(tuple(s["cell"]), tuple(s["edge"])) for s in log["steps"]]
    if not cayley.replay_collapse(cells, subset, steps):
        return "collapse log does not replay"
    removed = {s.cell for s in steps}
    residual = [c for c in cells if (c.element, c.relator_index) not in removed]
    if sorted([c.element, c.relator_index] for c in residual) != sorted(log["residual"]):
        return "residual differs from the replayed one"
    carried = {i for i, rel in enumerate(p.relators) if {l.gen for l in rel} <= subset}
    live = [c for c in residual if c.relator_index not in carried]
    if cert["verdict"] == "DECIDED_DR":
        return "uncarried cells remain" if live else None
    multiplicity = Counter(edge for c in residual for edge, _ in c.boundary)
    if any(edge[1] not in subset and multiplicity[edge] == 1
           for c in live for edge, _ in c.boundary):
        return "the residual still has a free edge, so it is not stuck"
    return None if live else "no uncarried cell remains, yet the verdict is DECIDED_NOT_DR"


def _check_lot_cert(case, cert: dict) -> str | None:
    if cert["verdict"] != "CERTIFIED_DR_AWAY_FROM":
        return None
    evidence = cert["evidence"]
    collapsed = _presentation(I.parse_lot(evidence["collapsed"]).presentation())
    if evidence["test"] == "forest":
        reason = _check_forest(collapsed, evidence["side"])
    else:
        wh = _ddr("whitehead")
        short = wh.shortest_reduced_cycle_in_range(wh.build_whitehead(collapsed), 1, 4)
        reason = None if short is None else f"reduced cycle of length {len(short)} < 4"
    if reason:
        return "collapsed LOT: " + reason
    sub = evidence.get("sublot_presentation_dr")
    if not sub or sub["method"] not in ("weight", "forest"):
        return None
    # the sub-LOT presentation: its vertices and induced edges, in LOT order
    lot = I.parse_lot(case.input.read_text(encoding="utf-8"))
    sub_p = _presentation(lot.presentation(keep=set(cert["subset"])))
    if sub["method"] == "weight":
        return _check_weights(sub_p, frozenset(), sub["weights"])
    return _check_forest(sub_p, sub["side"])


def _presentation(p: I.Pres):
    return _ddr("core").parse_presentation(p.text())
