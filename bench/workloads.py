"""The four benchmark workloads: which inputs each runs, and why.

Each pass holds a number of cases that ends in 5 (15, 25, 35, 45).  The loop
runs whole passes, so every case appears equally often; with an odd count
the median falls in the middle of one case's repetitions, and with 0.9 times
the count halfway between two integers so does the 90th percentile.  With
other counts a quantile lands on the edge between two cases and takes the
most extreme repetition of one of them.

Each workload is a list of base cases.  A case is one `ddr` command line;
the benchmark runs it in process through `ddr.cli.main(argv)`.  Random and
structured bases are turned into seeded isomorphic variants (see
`inputs.py`); the fixtures and the pinned known-failing inputs run exactly
as committed.  `variant_sets` says how many independent variant sets a run
writes; the timed loop makes its k-th pass over set k modulo that number, so
a run averages over several orderings of each base.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import inputs as I

CORPUS = Path(__file__).resolve().parent / "corpus"


@dataclass
class Case:
    base: str                  # conclusive verdicts agree across variants of one base
    argv: list[str]
    report: Path               # the --json report the case writes
    kind: str                  # "check" or "lot"
    input: Path
    subset: list[str] = field(default_factory=list)
    expect: Optional[Callable[[int, dict], bool]] = None  # pinned verdicts
    once: bool = False         # run in the first pass only (known to exceed the budget)


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float            # per-case budget, far above every other case's time
    variant_sets: int
    dominant: tuple[str, ...]  # per-layer self-time metrics predicted to be largest
    build: Callable[[int, Path, int], list[Case]]


class _Writer:
    """Writes the input files of one variant set into its own directory."""

    def __init__(self, root: Path, set_index: int):
        self.dir = root / f"set{set_index}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def path(self, stem: str, suffix: str) -> Path:
        self.count += 1
        return self.dir / f"{self.count:03d}-{stem}{suffix}"

    def check(self, base: str, text: str, subset: list[str], extra: list[str] = (),
              expect=None, once=False) -> Case:
        src = self.path(base, ".pres")
        src.write_text(text, encoding="utf-8")
        report = src.with_suffix(".json")
        argv = ["check", str(src), "--json", str(report)]
        if subset:
            argv += ["--away-from", ",".join(subset)]
        return Case(base, argv + list(extra), report, "check", src, list(subset), expect,
                    once)

    def lot(self, base: str, text: str, extra: list[str] = (), expect=None) -> Case:
        src = self.path(base, ".lot")
        src.write_text(text, encoding="utf-8")
        report = src.with_suffix(".json")
        return Case(base, ["lot", str(src), "--json", str(report)] + list(extra), report,
                    "lot", src, [], expect)


def _fixture(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def _verdicts(report: dict) -> list[tuple[str, str]]:
    return [(c["method"], c["verdict"]) for c in report["certificates"]]


# --- check-random ----------------------------------------------------------------

# (generators, relators, relator length, draws).  One-relator draws end at the
# one-relator test; the two- and three-relator draws mostly run the whole
# ladder, exact LP included.  Lengths stop at 8: at (3, 3, 10) a third of the
# draws run past 10 s, which the pinned rand4x3x12 already shows.
RANDOM_CLASSES = [(2, 1, 10, 1), (3, 1, 8, 1), (4, 1, 6, 1),
                  (2, 2, 6, 6), (3, 2, 6, 6), (4, 2, 6, 6), (2, 2, 7, 3), (3, 2, 7, 3),
                  (2, 2, 8, 2), (3, 2, 8, 2), (2, 3, 6, 4), (3, 3, 6, 3), (4, 3, 6, 2)]


def random_pool() -> list[tuple[str, I.Pres, list[str]]]:
    rng = random.Random(I.POOL_SEED)
    pool = []
    for g, r, length, draws in RANDOM_CLASSES:
        for k in range(draws):
            p = I.random_presentation(rng, g, r, length)
            subset = sorted(rng.sample(p.gens, rng.randint(1, g - 1)))
            pool.append((f"rand{g}x{r}x{length}-{k}", p, subset))
    return pool


def build_check_random(seed: int, root: Path, set_index: int) -> list[Case]:
    w = _Writer(root, set_index)
    rng = random.Random(f"check-random/{seed}/{set_index}")
    cases = [
        # pinned known failures: their defects must show in every run
        w.check("rand4x3x12", _fixture("rand4x3x12.pres"), [], once=True),
        w.check("rand4x3x20", _fixture("rand4x3x20.pres"), ["x0"], ["--tests", "s44"]),
        # acceptance c01 and c02
        w.check("fx1-ab", _fixture("fx1.pres"), ["a", "b"],
                ["--run-all", "--coset-limit", "2000"],
                expect=lambda code, r: {"free": "CERTIFIED_DR_AWAY_FROM",
                                        "finite": "DECIDED_DR"}.items()
                <= dict(_verdicts(r)).items()),
        w.check("fx1-a", _fixture("fx1.pres"), ["a"], ["--coset-limit", "2000"],
                expect=lambda code, r: [v for _, v in _verdicts(r)] == ["DECIDED_NOT_DR"]),
        w.check("fx2-ab", _fixture("fx2.pres"), ["a", "b"],
                ["--run-all", "--coset-limit", "600", "--diagram", str(CORPUS / "fx2_disc.json")],
                expect=lambda code, r: code == 1
                and not any(v in ("CERTIFIED_DR_AWAY_FROM", "CERTIFIED_DR_ALL_DIRECTIONS",
                                  "DECIDED_DR") for _, v in _verdicts(r))
                and ("diagram", "REFUTED") in _verdicts(r)),
        w.check("onerel", _fixture("onerel.pres"), []),
    ]
    for base, p, subset in random_pool():
        q, s = I.pres_variant(p, rng, subset)
        cases.append(w.check(base, q.text(), s))
    return cases


# --- check-structured ----------------------------------------------------------

# Products from 24 to 96 corners give a continuum of case times, so the
# median and the 90th percentile fall between neighbours of similar time.
# Larger products are left out for run time: F_6 x F_6 (144 corners) costs
# about 1 s to check, 1 s to re-check and 1 s at every set-up.
PRODUCTS = [(2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (2, 7), (3, 5), (4, 4),
            (3, 6), (4, 5), (4, 6)]
SURFACE_GENERA = [3, 5, 8]


def build_check_structured(seed: int, root: Path, set_index: int) -> list[Case]:
    w = _Writer(root, set_index)
    rng = random.Random(f"check-structured/{seed}/{set_index}")
    cases = []
    for m, n in PRODUCTS:
        base = f"F{m}xF{n}"
        p = I.free_product_commutators(m, n)
        q, s = I.pres_variant(p, rng, p.gens[:m])
        first = w.check(base, q.text(), s)
        cases.append(first)
        cases.append(_weight_recheck(w, base + "-weights", first))
    for genus in SURFACE_GENERA:
        p = I.surface(genus)
        q, s = I.pres_variant(p, rng, p.gens[:1])
        cases.append(w.check(f"surface{genus}", q.text(), s))
    # acceptance c03, c04 and c05
    fx3 = _fixture("fx3.pres")
    cases += [
        w.check("fx3-s44", fx3, ["x1", "x2"], ["--tests", "s44"], expect=certified("s44")),
        w.check("fx3-s44-y", fx3, ["y1", "y2"], ["--tests", "s44"], expect=certified("s44")),
        w.check("fx3-weight", fx3, ["y1", "y2"], ["--tests", "weight"],
                expect=certified("weight")),
        w.check("fx4-a", _fixture("fx4.pres"), ["a"], ["--tests", "forest"],
                expect=certified("forest")),
        w.check("fx4-b", _fixture("fx4.pres"), ["b"], ["--tests", "forest"],
                expect=certified("forest")),
        w.check("genus2-all", _fixture("genus2.pres"), [], ["--all-directions"],
                expect=lambda code, r: _verdicts(r)[:1] ==
                [("onerel", "CERTIFIED_DR_ALL_DIRECTIONS")]),
    ]
    fxl1 = I.parse_lot(_fixture("fxl1.lot")).presentation().text()
    cases.append(w.check("fxl1-x1x2", fxl1, ["x1", "x2"], ["--tests", "s44"],
                         expect=certified("s44")))
    cases.append(w.check("fxl1-x1x3", fxl1, ["x1", "x3"], ["--tests", "s44"],
                         expect=lambda code, r: code == 2 and "consecutive" in
                         r["attempts"][0].get("reason", "")))
    return cases


def certified(method: str) -> Callable[[int, dict], bool]:
    return lambda code, r: code == 0 and (method, "CERTIFIED_DR_AWAY_FROM") in _verdicts(r)


def _weight_recheck(w: _Writer, base: str, first: Case) -> Case:
    """Re-check a product with the weights of its own s44 certificate: run
    the first-win check once here, at set-up, and write its weights."""
    # looked up at call time: every set-up imports ddr afresh
    from ddr import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(first.argv)
    report = json.loads(first.report.read_text(encoding="utf-8"))
    cert = report["certificates"][0] if report["certificates"] else {}
    if code != 0 or cert.get("method") != "s44":
        raise RuntimeError(f"{first.base}: expected an s44 certificate, got exit {code}")
    weights = cert["evidence"]["weights"]["weights"]
    wfile = w.path(base, ".w")
    wfile.write_text("".join(f"w {k} {v}\n" for k, v in weights.items()), encoding="utf-8")
    return w.check(base, first.input.read_text(encoding="utf-8"), first.subset,
                   ["--tests", "weight", "--weights", str(wfile)])


# --- finite-decide ---------------------------------------------------------------

# (family, parameter, subsets): D_n+c and Z_m x Z_m+c each have an extra
# generator c occurring once; Z_12 x Z_12+c away from {a,b} is positive and
# sends the carried sub-presentation through the weight search.  Orders run
# from 60 to 500 in small steps, so case times form a continuum.  Z_m x Z_m+c
# for m = 10 and 14 away from {a,b} are left out: their consequence searches
# move two- to threefold across isomorphic variants.
FINITE_BASES = [("dihedral", 30, [["b"], ["a"]]), ("dihedral", 40, [["b"], ["a"]]),
                ("dihedral", 50, [["b"], ["a"]]), ("dihedral", 60, [["b"], ["a"]]),
                ("dihedral", 75, [["b"], ["a"]]), ("dihedral", 80, [["b"]]),
                ("dihedral", 100, [["b"]]),
                ("square", 8, [["a"]]), ("square", 10, [["a"]]), ("square", 11, [["a"]]),
                ("square", 12, [["a"], ["a", "b"]]),
                ("cyclic", 100, [[]]), ("cyclic", 150, [[]]),
                ("cyclic", 200, [[]]), ("cyclic", 300, [[]]), ("cyclic", 400, [[]]),
                ("cyclic", 500, [[]])]


def build_finite_decide(seed: int, root: Path, set_index: int) -> list[Case]:
    w = _Writer(root, set_index)
    rng = random.Random(f"finite-decide/{seed}/{set_index}")
    make = {"dihedral": I.dihedral_plus_c, "square": I.abelian_square_plus_c,
            "cyclic": I.cyclic}
    cases = []
    for family, n, subsets in FINITE_BASES:
        for subset in subsets:
            q, s = I.pres_variant(make[family](n), rng, subset)
            cases.append(w.check(f"{family}{n}-{''.join(subset) or 'empty'}", q.text(), s,
                                 ["--tests", "finite"]))
    # acceptance c01, finite half
    fx1 = _fixture("fx1.pres")
    cases.append(w.check("fx1-ab-finite", fx1, ["a", "b"], ["--tests", "finite"],
                         expect=lambda code, r: _verdicts(r) == [("finite", "DECIDED_DR")]))
    cases.append(w.check("fx1-a-finite", fx1, ["a"], ["--tests", "finite"],
                         expect=lambda code, r: _verdicts(r) == [("finite", "DECIDED_NOT_DR")]))
    return cases


# --- lot-certify -----------------------------------------------------------------

# Fixed draws from POOL_SEED: (shape, edges, draw index).  Shapes "path" and
# "caterpillar" are plain compressed LOTs; "blockK" has a label-closed block
# of K vertices, which yields positive certificates whose sub-LOT
# presentation goes through the cheap reducibility tests and, failing those,
# the weight search.  Draws that took over 0.5 s when the pool was chosen are
# left out: 12 of the 102 draws tried (six per shape and size) took 1 s to
# past 6 s in that double weight search (ROADMAP item 3), and its time moves
# several-fold between isomorphic variants, so such a case flips across any
# budget that leaves enough samples for a p90.
LOT_BASES = [("path", 8, 2), ("path", 10, 1), ("path", 10, 4), ("path", 12, 1),
             ("path", 12, 3), ("path", 13, 0), ("path", 13, 2),
             ("caterpillar", 8, 3), ("caterpillar", 10, 1), ("caterpillar", 10, 5),
             ("caterpillar", 12, 0), ("caterpillar", 12, 1), ("caterpillar", 13, 0),
             ("block3", 8, 0), ("block3", 10, 5), ("block3", 12, 1), ("block4", 8, 1),
             ("block4", 10, 2), ("block4", 12, 0), ("block5", 10, 0), ("block5", 12, 2)]


def lot_pool() -> list[tuple[str, I.Lot]]:
    pool = []
    for shape, edges, draw in LOT_BASES:
        rng = random.Random(f"{I.POOL_SEED}/{shape}/{edges}")
        for _ in range(draw + 1):
            if shape.startswith("block"):
                lot = I.blocked_lot(rng, int(shape[5:]), edges)
            else:
                lot = I.compressed_lot(rng, edges, shape)
        pool.append((f"{shape}{edges}-{draw}", lot))
    return pool


def build_lot_certify(seed: int, root: Path, set_index: int) -> list[Case]:
    w = _Writer(root, set_index)
    rng = random.Random(f"lot-certify/{seed}/{set_index}")
    fxl2 = _fixture("fxl2.lot")
    cases = [
        # acceptance c06
        w.lot("fxl2-T", fxl2, ["--sublot", "T"],
              expect=lambda code, r: code == 0 and
              r["certificates"][0]["verdict"] == "CERTIFIED_DR_AWAY_FROM" and
              any(c["kind"] == "aspherical" for c in r["certificates"][0]["consequences"])),
        w.lot("fxl2", fxl2, ["--reorient"]),
        w.lot("fig3", _fixture("fig3.lot"), ["--reorient"]),
        w.lot("fxl1", _fixture("fxl1.lot"), ["--reorient"]),
    ]
    for base, lot in lot_pool():
        cases.append(w.lot(base, I.lot_variant(lot, rng).text(), ["--reorient"]))
    return cases


# Budgets sit at five times or more the slowest other case.  Variant sets:
# check-structured writes one, because each set costs an s44 run per product
# at every set-up; finite-decide writes two, because the gate re-enumerates
# every new report and that would take longer than the timed loop.
WORKLOADS = {
    "check-random": Workload("check-random", 4.0, 6,
                             ("weights.lp_solve_s",), build_check_random),
    "check-structured": Workload("check-structured", 10.0, 1,
                                 ("whitehead.cycle_s",), build_check_structured),
    "finite-decide": Workload("finite-decide", 8.0, 2,
                              ("cayley.collapse_s", "cayley.build_s"), build_finite_decide),
    "lot-certify": Workload("lot-certify", 5.0, 5,
                            ("lot.sub_lots_s", "weights.search_in_consequences_s"),
                            build_lot_certify),
}


def build(workload: Workload, seed: int, root: Path) -> list[list[Case]]:
    """Write every variant set of the workload under `root` (emptied first)."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return [workload.build(seed, root, k) for k in range(workload.variant_sets)]
