"""Seeded fuzz of the command line.

Token-soup presentation, LOT and diagram files go through `ddr check`,
`ddr lot` and `ddr diagram` with the cheap tests only, and argv soups are
drawn from the real flags (never `-h`, which prints help and exits).  Every
run must return an exit code in {0, 1, 2, 3} without raising; usage errors
return 3.
"""

import json
import random

import pytest

from conftest import FIXTURES
from ddr.cli import main

CHEAP = ["--tests", "free,onerel,forest"]
NAMES = ["a", "b", "c", "x", "y1"]
PRES_TOKENS = NAMES + ["a^-1", "b^2", "c^-3", "a^0", "b^x", "^", "1a", "a^-", "gens:", "rel:",
                       "#", "a^99999"]
EXIT_CODES = {0, 1, 2, 3}


def _run(argv) -> int:
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES, (argv, code)
    return code


def soup_presentation(rng: random.Random) -> str:
    lines = []
    if rng.random() < 0.85:
        lines.append("gens: " + " ".join(rng.sample(NAMES, rng.randint(0, len(NAMES)))))
    for _ in range(rng.randint(0, 4)):
        head = rng.choice(["rel:", "rel:", "rel:", "gens:", "relator", ""])
        lines.append(" ".join([head] + rng.choices(PRES_TOKENS, k=rng.randint(0, 7))))
    if rng.random() < 0.1:
        rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def soup_lot(rng: random.Random) -> str:
    names = NAMES[:rng.randint(1, 5)]
    lines = []
    if rng.random() < 0.5:
        lines.append("vertices: " + " ".join(rng.choices(names + ["9v"], k=rng.randint(0, 5))))
    for _ in range(rng.randint(0, 5)):
        lines.append("edge " + " ".join(rng.choices(names, k=rng.choice((3, 3, 3, 2, 4)))))
    for _ in range(rng.randint(0, 2)):
        lines.append("sublot: T " + " ".join(rng.choices(names + ["zz"], k=rng.randint(0, 3))))
    if rng.random() < 0.1:
        lines.append(rng.choice(["edges a b c", "vertices:", "sublot:"]))
    return "\n".join(lines) + "\n"


def _soup_value(rng: random.Random):
    return rng.choice([0, 1, 2, -1, 3, 10 ** 30, 1.5, "2", "x", None, [], {}, True,
                       float("nan")])


def soup_diagram(rng: random.Random) -> str:
    """The fixture disc with up to three mutations, or a random structure."""
    if rng.random() < 0.5:
        obj = json.loads((FIXTURES / "fx2_disc.json").read_text())
        count = obj["vertexCount"]
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(["vertexCount", "edge", "face", "step", "cycles"])
            if target == "vertexCount":
                obj["vertexCount"] = rng.choice([count + rng.randint(-2, 3), _soup_value(rng)])
            elif target == "edge" and obj["edges"]:
                edge = rng.choice(obj["edges"])
                edge[rng.choice(["id", "label", "from", "to"])] = \
                    rng.choice([_soup_value(rng), rng.choice(NAMES)])
            elif target == "face" and obj["faces"]:
                face = rng.choice(obj["faces"])
                face[rng.choice(["relator", "sign"])] = _soup_value(rng)
            elif target == "step" and obj["faces"]:
                face = rng.choice(obj["faces"])
                if face["boundary"]:
                    step = rng.choice(face["boundary"])
                    step[rng.choice(["edge", "dir"])] = _soup_value(rng)
            elif target == "cycles" and rng.random() < 0.5:
                obj.pop("boundaryCycles", None)
            elif target == "cycles":
                obj.setdefault("boundaryCycles", []).append([])
        return json.dumps(obj, allow_nan=True)
    edge_count = rng.randint(0, 4)
    obj = {
        "vertexCount": rng.randint(-1, 4),
        "edges": [{"id": i, "label": rng.choice(NAMES), "from": rng.randint(0, 3),
                   "to": rng.randint(0, 3)} for i in range(edge_count)],
        "faces": [{"relator": rng.randint(-1, 2), "sign": rng.choice((1, -1, 0)),
                   "boundary": [{"edge": rng.randint(0, edge_count),
                                 "dir": rng.choice((1, -1))}
                                for _ in range(rng.randint(0, 4))]}
                  for _ in range(rng.randint(0, 3))],
    }
    return json.dumps(obj) if rng.random() < 0.9 else json.dumps(obj)[:-rng.randint(1, 9)]


def _subset(rng: random.Random) -> list[str]:
    if rng.random() < 0.3:
        return []
    return ["--away-from", rng.choice(["a", "a,b", "b,c", "a,b,c", "zz", "a,x"])]


def test_token_soup_files(tmp_path, capsys):
    rng = random.Random(12)
    codes = set()
    for k in range(150):
        pres = tmp_path / f"p{k}.pres"
        pres.write_text(soup_presentation(rng))
        lot = tmp_path / f"t{k}.lot"
        lot.write_text(soup_lot(rng))
        diagram = tmp_path / f"d{k}.json"
        diagram.write_text(soup_diagram(rng))
        codes.add(_run(["check", pres, *CHEAP, *_subset(rng)]
                       + (["--all-directions"] if rng.random() < 0.2 else [])))
        codes.add(_run(["lot", lot] + (["--reorient"] if rng.random() < 0.5 else [])
                       + (["--sublot", "T"] if rng.random() < 0.3 else [])))
        real_pres = rng.choice([pres, FIXTURES / "fx2.pres"])
        codes.add(_run(["diagram", diagram, "--pres", real_pres, *_subset(rng)]))
        codes.add(_run(["check", real_pres, *CHEAP, "--diagram", diagram, *_subset(rng)]))
    capsys.readouterr()
    assert codes == EXIT_CODES  # the soups reach every outcome


# per command: positional files and flags, each flag with its value pool
# (None for a switch); a run sometimes borrows another command's flag
COMMANDS = {
    "check": (["fx1.pres", "fx2.pres", "fx4.pres", "genus2.pres"], {
        "--away-from": ["a", "a,b", "b,zz", "", "a,b,c"],
        "--all-directions": None,
        "--tests": ["free,onerel,forest", "forest", "onerel", "free,nope", "finite", ""],
        "--coset-limit": ["abc", "0", "-3", "50", "99999999999", "1e3"],
        "--weights": ["fx1.pres", "missing.txt"],
        "--diagram": ["fx2_disc.json", "fx1.pres"],
        "--run-all": None,
        "--json": ["report.json", "."]}),
    "lot": (["fxl1.lot", "fxl2.lot", "fig3.lot"], {
        "--sublot": ["T", "nope"],
        "--reorient": None,
        "--json": ["report.json", "."]}),
    "diagram": (["fx2_disc.json"], {
        "--pres": ["fx2.pres", "fx2.pres", "fx1.pres", "missing.pres"],
        "--away-from": ["a", "a,b", "a,b", "zz", "a,b,c"],
        "--json": ["report.json", "."]}),
}
PATH_FLAGS = {"--weights", "--diagram", "--json", "--pres"}


def soup_argv(rng: random.Random, tmp_path) -> list:
    def path(name):
        return tmp_path / name if name in ("report.json", ".") else FIXTURES / name

    command = rng.choice([*COMMANDS, "nope"])
    files, flags = COMMANDS.get(command, ([], {}))
    argv = [command] if rng.random() < 0.97 else []
    if rng.random() < 0.93:
        argv.append(path(rng.choice(files or ["fx1.pres"]) if rng.random() < 0.9
                         else "missing.pres"))
    if command == "diagram" and rng.random() < 0.9:
        argv += ["--pres", path("fx2.pres")]
    for _ in range(rng.randint(0, 3)):
        pool = flags if flags and rng.random() < 0.9 else rng.choice(list(COMMANDS.values()))[1]
        flag = rng.choice(list(pool))
        values = pool[flag]
        if values is None or rng.random() < 0.03:
            argv.append(flag)
        else:
            value = rng.choice(values)
            argv += [flag, path(value) if flag in PATH_FLAGS else value]
    if command == "check" and "--tests" not in argv:
        argv += CHEAP
    return argv


def test_argv_soup(tmp_path, capsys):
    rng = random.Random(3)
    codes = set()
    for _ in range(300):
        argv = soup_argv(rng, tmp_path)
        code = _run(argv)
        if capsys.readouterr().err.startswith("usage: ddr"):
            assert code == 3, argv
        codes.add(code)
    assert codes == EXIT_CODES


@pytest.mark.parametrize("argv", [
    [],
    ["nope"],
    ["check"],
    ["check", FIXTURES / "fx1.pres", "--coset-limit", "abc"],
    ["check", FIXTURES / "fx1.pres", "--bogus"],
    ["check", FIXTURES / "fx1.pres", "--reorient"],
    ["lot", FIXTURES / "fxl1.lot", "--pres", FIXTURES / "fx2.pres"],
    ["diagram", FIXTURES / "fx2_disc.json"],
    ["diagram", FIXTURES / "fx2_disc.json", "--pres"],
])
def test_usage_errors_exit_three(argv, capsys):
    assert _run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: ddr") and "error:" in err
