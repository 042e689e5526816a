"""The command line: argument parsing, file reading and printing.

`ddr check` runs the test pipeline of `ddr.pipeline` on a presentation,
`ddr lot` certifies sub-LOTs of a labeled oriented tree, and `ddr diagram`
validates a diagram and tests it against a directedness claim.  Exit codes:
0 certified or decided reducible, 1 refuted or decided not reducible,
2 unknown, 3 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .certificates import UNKNOWN, Report
from .core import DdrError, check_preconditions, parse_presentation
from .diagram import REFUTES, _folding_scan, directed_verdict, loads_diagram, validate_diagram
from .lot import (certify_lot, lot_properties, parse_lot_document, reorient_positive_tree,
                  serialize_lot)
from .pipeline import (TEST_ORDER, CheckConfig, check_diagram, derive_consequences,
                       diagram_refutation, run_check)
# search_weights is unused here; bench/test_harness.py checks its tracer rebinds it
from .weights import WeightAssignment, search_weights


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DdrError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}",
                       code="ENCODING") from None


def _parse_subset(text: str | None) -> frozenset[str]:
    return frozenset((text or "").replace(",", " ").split())


def _report_path(path: str) -> str:
    """The --json path, checked as the command line is parsed, before any
    work: OSError when no report can be written there.  It makes no file."""
    target = Path(path)
    if target.exists():
        writable = not target.is_dir() and os.access(target, os.W_OK)
    else:
        writable = target.parent.is_dir() and os.access(target.parent, os.W_OK)
    if not writable:
        raise OSError(f"cannot write the report to {path}")
    return path


def _print_report(report: Report, json_path: str | None) -> int:
    for attempt in report.attempts:
        subset = " {" + ", ".join(attempt["subset"]) + "}" if "subset" in attempt else ""
        line = f"test {attempt['test']}{subset}: {attempt['status']}"
        if attempt.get("reason"):
            line += f" ({attempt['reason']})"
        print(line)
    for cert in report.certificates:
        subset = "all directions" if cert.subset is None else \
            "{" + ", ".join(cert.subset) + "}"
        print(f"{cert.verdict} [{cert.method}] subset: {subset}")
        for consequence in cert.consequences:
            print(f"  consequence: {consequence['statement']}")
    if not report.certificates:
        print("UNKNOWN: no test was conclusive")
    if json_path:
        Path(json_path).write_text(report.to_json(), encoding="utf-8")
    return report.exit_code()


def _cmd_check(args) -> int:
    p = parse_presentation(_read(args.file))
    config = CheckConfig(
        tests=tuple(args.tests.split(",")) if args.tests else TEST_ORDER,
        coset_limit=args.coset_limit,
        weights=WeightAssignment.parse(_read(args.weights)) if args.weights else None,
        all_directions=args.all_directions,
        run_all=args.run_all,
    )
    d = loads_diagram(_read(args.diagram)) if args.diagram else None
    subset = _parse_subset(args.away_from)
    report = run_check(p, subset, config)
    if d is not None:
        check_diagram(report, d, p, subset)
    return _print_report(report, args.json)


def _cmd_lot(args) -> int:
    doc = parse_lot_document(_read(args.file))
    if args.sublot and args.sublot not in doc.sublots:
        raise DdrError(f"no sublot named {args.sublot!r} in the file", code="BAD_SUBLOT")
    lot = doc.lot
    props = lot_properties(lot)
    print(f"LOT: {len(lot.vertices)} vertices, {len(lot.edges)} edges, "
          f"compressed={props.compressed}, injective={props.injective}")
    if args.reorient:
        reoriented = reorient_positive_tree(lot)
        flips = [i for i, (a, b) in enumerate(zip(reoriented.edges, lot.edges)) if a != b]
        print(f"reorientation with forest positive graph found; flipped edges: {flips}")
        print(serialize_lot(reoriented), end="")
    report = Report(
        tool_version=__version__,
        input_description={"kind": "lot",
                           "digest": lot.presentation.digest,
                           "vertices": list(lot.vertices)},
        config={"sublot": args.sublot, "reorient": args.reorient},
    )
    if args.sublot:
        targets = [(args.sublot, doc.sublots[args.sublot])]
    else:
        targets = [(f"maximal-{i}", t) for i, t in enumerate(lot.maximal_sublots)]
        if not targets:
            print("no proper sub-LOT exists")
    for name, t in targets:
        cert = certify_lot(t)
        if cert.positive:
            cert.consequences = derive_consequences(cert, lot.presentation,
                                                    frozenset(t.vertex_subset), {})
        report.certificates.append(cert)
        subset = "{" + ", ".join(sorted(t.vertex_subset)) + "}"
        print(f"sublot {name} {subset}: {cert.verdict}"
              + (f" ({cert.evidence.get('failed_hypothesis')})"
                 if cert.verdict == UNKNOWN else f" via {cert.evidence.get('test')}"))
        for consequence in cert.consequences:
            print(f"  consequence: {consequence['statement']}")
    if args.json:
        Path(args.json).write_text(report.to_json(), encoding="utf-8")
    return report.exit_code()


def _cmd_diagram(args) -> int:
    p = parse_presentation(_read(args.pres))
    d = loads_diagram(_read(args.file))
    subset = check_preconditions(p, _parse_subset(args.away_from), cyclically_reduced=False)
    validation = validate_diagram(d, p)
    if not validation.valid:
        for err in validation.errors:
            print(f"invalid: {err}", file=sys.stderr)
        return 3
    print(f"diagram valid: chi={validation.euler_characteristic} "
          f"orientable={validation.orientable} sphere={validation.sphere} "
          f"disc={validation.disc}")
    # the diagram is valid, so its foldings need no second validation
    print(f"folding edges: {[f.edge_id for f in _folding_scan(d)]}")
    verdict = directed_verdict(d, p, subset)
    print(f"verdict: {verdict.verdict} (as {verdict.mode})")
    if verdict.verdict == REFUTES:
        report = Report(
            tool_version=__version__,
            input_description={"kind": "diagram", "presentation": p.digest},
            config={"away_from": sorted(subset)},
            certificates=[diagram_refutation(p, subset, verdict)],
        )
        if args.json:
            Path(args.json).write_text(report.to_json(), encoding="utf-8")
        return 1
    return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error: `main` returns 3, nothing exits
        self.print_usage(sys.stderr)
        raise DdrError(f"{self.prog}: {message}", code="USAGE")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ddr",
        description="certify, refute, or decide directed diagrammatic reducibility")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the test pipeline on a presentation")
    check.add_argument("file")
    check.add_argument("--away-from", default="", help="comma-separated generator subset")
    check.add_argument("--all-directions", action="store_true")
    check.add_argument("--tests", default="", help=f"comma-separated, from {','.join(TEST_ORDER)}")
    check.add_argument("--coset-limit", type=int, default=20000)
    check.add_argument("--weights", default="", help="verify this weight file instead of searching")
    check.add_argument("--diagram", default="", help="also test a candidate refutation diagram")
    check.add_argument("--run-all", action="store_true", help="run every test, not first-win")
    check.add_argument("--json", type=_report_path, help="write the JSON report here")
    check.set_defaults(func=_cmd_check)

    lot = sub.add_parser("lot", help="certify a labeled oriented tree")
    lot.add_argument("file")
    lot.add_argument("--sublot", default="", help="certify this named sub-LOT only")
    lot.add_argument("--reorient", action="store_true",
                     help="find a reorientation with a forest positive graph")
    lot.add_argument("--json", type=_report_path)
    lot.set_defaults(func=_cmd_lot)

    diag = sub.add_parser("diagram", help="validate a diagram and test it against a claim")
    diag.add_argument("file")
    diag.add_argument("--pres", required=True)
    diag.add_argument("--away-from", default="")
    diag.add_argument("--json", type=_report_path)
    diag.set_defaults(func=_cmd_diagram)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # every DdrError, usage included, and I/O faults
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
