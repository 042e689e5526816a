"""Seeded fuzz of the command line.

Token-soup presentation, LOT and diagram files go through `ddr check`,
`ddr lot` and `ddr diagram` with the cheap tests only, and argv soups are
drawn from the real flags (never `-h`, which prints help and exits).  Every
run must return an exit code in {0, 1, 2, 3} without raising; usage errors
return 3.  Below `main`, the same runs may raise only a `DdrError` or an
`OSError`.
"""

import json
import random

import pytest

from conftest import FIXTURES
from ddr import cli
from ddr.cli import main
from ddr.core import DdrError

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


def token_soup_argvs(tmp_path):
    """600 command lines over 150 token-soup files of each kind."""
    rng = random.Random(12)
    for k in range(150):
        pres = tmp_path / f"p{k}.pres"
        pres.write_text(soup_presentation(rng))
        lot = tmp_path / f"t{k}.lot"
        lot.write_text(soup_lot(rng))
        diagram = tmp_path / f"d{k}.json"
        diagram.write_text(soup_diagram(rng))
        yield (["check", pres, *CHEAP, *_subset(rng)]
               + (["--all-directions"] if rng.random() < 0.2 else []))
        yield (["lot", lot] + (["--reorient"] if rng.random() < 0.5 else [])
               + (["--sublot", "T"] if rng.random() < 0.3 else []))
        real_pres = rng.choice([pres, FIXTURES / "fx2.pres"])
        yield ["diagram", diagram, "--pres", real_pres, *_subset(rng)]
        yield ["check", real_pres, *CHEAP, "--diagram", diagram, *_subset(rng)]


def test_token_soup_files(tmp_path, capsys):
    codes = {_run(argv) for argv in token_soup_argvs(tmp_path)}
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


def argv_soup(tmp_path):
    rng = random.Random(3)
    return [soup_argv(rng, tmp_path) for _ in range(300)]


def test_argv_soup(tmp_path, capsys):
    codes = set()
    for argv in argv_soup(tmp_path):
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


def _below_main(argv) -> int:
    """A command line run without `main`'s catch."""
    args = cli._parser().parse_args([str(a) for a in argv])
    return args.func(args)


def test_only_ddr_errors_and_os_errors_escape_below_main(tmp_path, capsys):
    # anything else raised here would be an internal error, not an input fault
    raised = 0
    for argv in [*token_soup_argvs(tmp_path), *argv_soup(tmp_path)]:
        try:
            _below_main(argv)
        except (DdrError, OSError):
            raised += 1
    capsys.readouterr()
    assert raised > 100


@pytest.mark.parametrize("fault, code", [
    ("exponent", "SYNTAX"), ("json_number", "SYNTAX"), ("json_nesting", "SYNTAX"),
    ("encoding", "ENCODING"), ("usage", "USAGE"), ("unknown_test", "USAGE"),
    ("all_directions_subset", "USAGE"), ("unknown_sublot", "BAD_SUBLOT")])
def test_input_faults_are_ddr_errors(fault, code, tmp_path, capsys):
    digits = "9" * 5000  # past the interpreter's 4,300-digit limit for int()
    (tmp_path / "exponent.pres").write_text(f"gens: a\nrel: a a^{digits}\n")
    (tmp_path / "number.json").write_text(
        f'{{"vertexCount": {digits}, "edges": [], "faces": []}}')
    (tmp_path / "nested.json").write_text("[" * 100_000)  # RecursionError in json.loads
    (tmp_path / "latin1.pres").write_bytes("gens: \xe4\nrel: \xe4\n".encode("latin-1"))
    fx2 = FIXTURES / "fx2.pres"
    argv = {
        "exponent": ["check", tmp_path / "exponent.pres"],
        "json_number": ["diagram", tmp_path / "number.json", "--pres", fx2],
        "json_nesting": ["check", fx2, "--diagram", tmp_path / "nested.json"],
        "encoding": ["check", tmp_path / "latin1.pres"],
        "usage": ["check", fx2, "--bogus"],
        "unknown_test": ["check", fx2, "--tests", "nope"],
        "all_directions_subset": ["check", fx2, "--all-directions", "--away-from", "a"],
        "unknown_sublot": ["lot", FIXTURES / "fxl2.lot", "--sublot", "nope"],
    }[fault]
    with pytest.raises(DdrError) as caught:
        _below_main(argv)
    assert caught.value.code == code
    if fault == "exponent":
        assert (caught.value.line, caught.value.column) == (2, 8)
        assert "exponent of 'a' has 5000 digits" in str(caught.value)
    assert _run(argv) == 3
    capsys.readouterr()
