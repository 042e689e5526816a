"""Golden JSON reports: every fixture command must write the same bytes.

Each case runs `ddr.cli.main` with `--json` and compares the report byte for
byte with `tests/golden/<case>.json`.  The goldens pin verdicts,
certificates, attempt reasons and consequences, so a refactor of the
pipeline that changes any of them fails here.  Regenerate them only for an
intended change of output:

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ddr.cli import main

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
GOLDEN = TESTS / "golden"


def _f(name: str) -> str:
    return str(FIXTURES / name)


# case name -> (argv without --json, expected exit code)
CASES = {
    "check-fx1-ab": (["check", _f("fx1.pres"), "--away-from", "a,b", "--run-all",
                      "--coset-limit", "2000"], 0),
    "check-fx1-a": (["check", _f("fx1.pres"), "--away-from", "a", "--run-all",
                     "--coset-limit", "2000"], 1),
    "check-fx1-empty": (["check", _f("fx1.pres"), "--run-all", "--coset-limit", "2000"], 1),
    "check-fx2-ab": (["check", _f("fx2.pres"), "--away-from", "a,b", "--run-all",
                      "--coset-limit", "600"], 2),
    "check-fx2-ab-diagram": (["check", _f("fx2.pres"), "--away-from", "a,b",
                              "--diagram", _f("fx2_disc.json")], 1),
    "check-fx3-x1x2": (["check", _f("fx3.pres"), "--away-from", "x1,x2", "--run-all",
                        "--coset-limit", "600"], 0),
    "check-fx3-y1y2": (["check", _f("fx3.pres"), "--away-from", "y1,y2", "--run-all",
                        "--coset-limit", "600"], 0),
    "check-fx4-a": (["check", _f("fx4.pres"), "--away-from", "a", "--run-all",
                     "--coset-limit", "600"], 0),
    "check-fx4-b": (["check", _f("fx4.pres"), "--away-from", "b", "--run-all",
                     "--coset-limit", "600"], 0),
    "check-genus2-empty": (["check", _f("genus2.pres"), "--run-all",
                            "--coset-limit", "600"], 0),
    "check-genus2-all-directions": (["check", _f("genus2.pres"), "--all-directions"], 0),
    "check-fx1-all-directions": (["check", _f("fx1.pres"), "--all-directions"], 1),
    "check-fx3-all-directions": (["check", _f("fx3.pres"), "--all-directions"], 0),
    "check-fx4-all-directions-forest": (["check", _f("fx4.pres"), "--all-directions",
                                         "--tests", "forest"], 0),
    "check-onerel-empty": (["check", _f("onerel.pres"), "--run-all",
                            "--coset-limit", "600"], 0),
    "lot-fig3-reorient": (["lot", _f("fig3.lot"), "--reorient"], 0),
    "lot-fxl1-reorient": (["lot", _f("fxl1.lot"), "--reorient"], 2),
    "lot-fxl2-reorient": (["lot", _f("fxl2.lot"), "--reorient"], 0),
    "lot-fxl2-sublot-T": (["lot", _f("fxl2.lot"), "--sublot", "T"], 0),
    "lot-fxl3-reorient": (["lot", _f("fxl3.lot"), "--reorient"], 0),
    "lot-fxl3-sublot-T": (["lot", _f("fxl3.lot"), "--sublot", "T"], 0),
    "diagram-fx2-ab": (["diagram", _f("fx2_disc.json"), "--pres", _f("fx2.pres"),
                        "--away-from", "a,b"], 1),
}


def _run(name: str, out: Path) -> int:
    argv, _ = CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--json", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / "report.json"
    assert _run(name, out) == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        code = _run(name, GOLDEN / f"{name}.json")
        if code != CASES[name][1]:
            sys.exit(f"{name}: exit {code}, expected {CASES[name][1]}")


if __name__ == "__main__":
    write_goldens()
