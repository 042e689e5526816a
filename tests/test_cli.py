import json
from collections import Counter

import pytest

from conftest import FIXTURES
from ddr import cli, core, diagram, lot, pipeline, smallcancel, weights, whitehead
from ddr.certificates import Report
from ddr.cli import main
from ddr.pipeline import CheckConfig, derive_consequences, run_check


class TestRunCheck:
    def test_fx1_free_edge_and_finite(self, fx1):
        report = run_check(fx1, {"a", "b"}, CheckConfig(run_all=True))
        methods = {c.method: c.verdict for c in report.certificates}
        assert methods["free"] == "CERTIFIED_DR_AWAY_FROM"
        assert methods["finite"] == "DECIDED_DR"

    def test_fx1_first_win_stops(self, fx1):
        report = run_check(fx1, {"a", "b"})
        assert len(report.certificates) == 1
        assert report.certificates[0].method == "free"

    def test_fx1_away_a_not_dr(self, fx1):
        report = run_check(fx1, {"a"})
        assert [c.verdict for c in report.certificates] == ["DECIDED_NOT_DR"]

    def test_one_relator_all_directions(self):
        from ddr.core import parse_presentation
        p = parse_presentation("gens: a b c\nrel: a b c a^-1 c b")
        report = run_check(p, frozenset(), CheckConfig(all_directions=True))
        cert = report.certificates[0]
        assert cert.verdict == "CERTIFIED_DR_ALL_DIRECTIONS"
        kinds = {c["kind"] for c in cert.consequences}
        assert "freiheitssatz_all_subsets" in kinds

    def test_fx4_forest_certificates(self, fx4):
        for g in ("a", "b"):
            report = run_check(fx4, {g}, CheckConfig(tests=("forest",)))
            assert report.certificates[0].method == "forest"
            assert report.certificates[0].verdict == "CERTIFIED_DR_AWAY_FROM"

    def test_fx2_no_false_positive(self, fx2):
        report = run_check(fx2, {"a", "b"}, CheckConfig(run_all=True))
        assert not any(c.positive for c in report.certificates)
        assert {a["test"] for a in report.attempts} == \
            {"free", "onerel", "forest", "s44", "weight", "finite"}

    def test_improper_subset_rejected(self, fx4):
        with pytest.raises(core.DdrError) as exc:
            run_check(fx4, {"a", "b"})
        assert exc.value.code == "S_NOT_PROPER"

    def test_report_deterministic(self, fx3):
        a = run_check(fx3, {"x1", "x2"}, CheckConfig(run_all=True)).to_json()
        b = run_check(fx3, {"x1", "x2"}, CheckConfig(run_all=True)).to_json()
        assert a == b

    def test_forest_empty_subset_gives_asphericity(self, fx4):
        report = run_check(fx4, frozenset(), CheckConfig(tests=("forest",)))
        cert = report.certificates[0]
        assert cert.verdict == "CERTIFIED_DR_AWAY_FROM"
        assert any(c["kind"] == "aspherical" for c in cert.consequences)

    def test_all_directions_forest_per_singleton(self, fx4):
        report = run_check(fx4, frozenset(),
                           CheckConfig(all_directions=True, tests=("forest",)))
        subsets = {c.subset for c in report.certificates}
        assert subsets == {("a",), ("b",)}


class TestConsequences:
    def test_free_subgroup_for_fx3(self, fx3):
        report = run_check(fx3, {"x1", "x2"}, CheckConfig(tests=("s44",)))
        cert = report.certificates[0]
        kinds = {c["kind"] for c in cert.consequences}
        assert "free_subgroup" in kinds
        assert "aspherical" in kinds  # the carried sub-presentation has no relators

    def test_negative_certificate_has_no_consequences(self, fx1):
        report = run_check(fx1, {"a"})
        assert report.certificates[0].consequences == []

    def test_requires_positive(self, fx1):
        report = run_check(fx1, {"a"})
        with pytest.raises(ValueError):
            derive_consequences(report.certificates[0], fx1, {})


def _count_calls(monkeypatch, counts: Counter, module, name: str, *also) -> None:
    """Count calls of module.name, also through the modules in `also` that
    import it by name."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for m in (module, *also):
        monkeypatch.setattr(m, name, counted)


def _refuse(*args, **kwargs):
    raise AssertionError("work started")


class TestWorkDoneOnce:
    def test_s44_builds_one_piece_table_and_one_graph(self, monkeypatch, capsys):
        counts = Counter()
        _count_calls(monkeypatch, counts, pipeline, "certify_s44")
        _count_calls(monkeypatch, counts, smallcancel, "piece_table")
        _count_calls(monkeypatch, counts, whitehead, "build_whitehead")
        assert main(["check", str(FIXTURES / "fx1.pres")]) == 1
        assert counts == {"certify_s44": 1, "piece_table": 1, "build_whitehead": 1}
        capsys.readouterr()

    def test_lot_runs_the_reducibility_ladder_once(self, monkeypatch, capsys):
        counts = Counter()
        _count_calls(monkeypatch, counts, pipeline, "presentation_dr")
        assert main(["lot", str(FIXTURES / "fxl2.lot"), "--sublot", "T"]) == 0
        assert counts == {"presentation_dr": 1}
        assert "aspherical" in capsys.readouterr().out

    def test_certify_lot_runs_no_ladder(self, monkeypatch, fxl2_doc):
        # asphericity is derived with the other consequences, as in the test above
        counts = Counter()
        _count_calls(monkeypatch, counts, pipeline, "presentation_dr")
        cert = lot.certify_lot(fxl2_doc.sublots["T"])
        assert cert.positive
        assert counts == {}
        assert cert.consequences == []
        assert "sublot_presentation_dr" not in cert.evidence

    def test_all_directions_runs_the_forest_test_once(self, monkeypatch, capsys):
        # one forest run serves every single generator
        counts = Counter()
        _count_calls(monkeypatch, counts, whitehead, "build_whitehead")
        assert main(["check", str(FIXTURES / "fx4.pres"), "--all-directions",
                     "--tests", "forest"]) == 0
        assert counts == {"build_whitehead": 1}
        assert capsys.readouterr().out.count("CERTIFIED_DR_AWAY_FROM [forest]") == 2

    def test_all_directions_analyses_the_presentation_once(self, monkeypatch, capsys):
        # every per-generator run reads the graph and digest the parsed
        # presentation keeps
        counts = Counter()
        _count_calls(monkeypatch, counts, whitehead, "build_whitehead")
        _count_calls(monkeypatch, counts, core, "serialize_presentation")
        assert main(["check", str(FIXTURES / "fx3.pres"), "--all-directions"]) == 0
        assert counts == {"build_whitehead": 1, "serialize_presentation": 1}
        capsys.readouterr()

    def test_lot_never_enumerates_the_sub_lot_lattice(self, monkeypatch, capsys):
        # the maximal sub-LOTs come from leaf-edge fixpoints, for the targets
        # and for a non-maximal sub-LOT's enclosing_maximal alike
        counts = Counter()
        for name in ("sub_lots", "label_closure"):
            _count_calls(monkeypatch, counts, lot, name)
        assert main(["lot", str(FIXTURES / "fxl2.lot"), "--reorient"]) == 0
        # nothing cached yet
        fxl2 = lot.parse_lot_document((FIXTURES / "fxl2.lot").read_text()).lot
        cert = lot.certify_lot(lot.make_sublot(fxl2, {"x1", "x2", "x3"}))
        assert cert.evidence["enclosing_maximal"] == [["x1", "x2", "x3", "x4", "x5"]]
        assert counts == {}
        capsys.readouterr()

    def test_lot_builds_one_presentation_per_lot(self, monkeypatch, capsys):
        # the file's LOT, its reorientation and each collapse build their
        # presentation once, however many steps read it
        lots, built = [], Counter()
        lot_init, presentation_init = lot.LOT.__post_init__, core.Presentation.__post_init__

        def record_lot(self):
            lot_init(self)
            lots.append(self)

        def record_presentation(self):
            presentation_init(self)
            built[self.generators, self.relators] += 1

        monkeypatch.setattr(lot.LOT, "__post_init__", record_lot)
        monkeypatch.setattr(core.Presentation, "__post_init__", record_presentation)
        assert main(["lot", str(FIXTURES / "fxl2.lot"), "--reorient"]) == 0
        monkeypatch.undo()
        per_value = Counter((t.presentation.generators, t.presentation.relators) for t in lots)
        assert len(lots) >= 3
        assert {key: built[key] for key in per_value} == per_value
        capsys.readouterr()

    def test_lot_sublot_does_not_enumerate_the_lattice(self, monkeypatch, capsys):
        counts = Counter()
        for name in ("sub_lots", "label_closure"):
            _count_calls(monkeypatch, counts, lot, name)
        assert main(["lot", str(FIXTURES / "fxl2.lot"), "--sublot", "T"]) == 0
        assert counts == {}
        capsys.readouterr()

    def test_weight_search_is_verified_once(self, monkeypatch, capsys):
        counts = Counter()
        _count_calls(monkeypatch, counts, whitehead, "build_whitehead")
        _count_calls(monkeypatch, counts, weights, "verify_weight_test", pipeline)
        assert main(["check", str(FIXTURES / "fx3.pres"), "--away-from", "x1,x2",
                     "--tests", "weight"]) == 0
        assert counts == {"build_whitehead": 1, "verify_weight_test": 1}
        capsys.readouterr()

    def test_passing_weights_need_no_exact_minimum(self, monkeypatch, capsys):
        # s44's weights pass the verifier, whose pruned sweep decides that alone
        counts = Counter()
        _count_calls(monkeypatch, counts, whitehead, "min_weight_reduced_cycle", weights)
        assert main(["check", str(FIXTURES / "fx3.pres"), "--away-from", "x1,x2",
                     "--tests", "s44"]) == 0
        assert counts == {}
        capsys.readouterr()

    def test_weight_search_adds_several_cuts_per_round(self, monkeypatch, capsys):
        # one separation per round, one more in the final verification;
        # every ">=" row is a cycle cut
        counts = Counter()
        _count_calls(monkeypatch, counts, weights, "reduced_cycles_below")
        add_row = weights.Tableau.add_row

        def counted_add_row(self, coeffs, sense, rhs):
            counts["cuts"] += sense == ">="
            return add_row(self, coeffs, sense, rhs)

        monkeypatch.setattr(weights.Tableau, "add_row", counted_add_row)
        assert main(["check", str(FIXTURES / "fx3.pres"), "--tests", "weight"]) == 0
        assert counts["cuts"] > counts["reduced_cycles_below"] > 2
        capsys.readouterr()

    def test_lot_ladder_miss_is_not_rerun(self, monkeypatch, capsys):
        # fxl3's certificate is positive but the ladder misses on T's presentation
        counts = Counter()
        _count_calls(monkeypatch, counts, pipeline, "presentation_dr")
        assert main(["lot", str(FIXTURES / "fxl3.lot"), "--sublot", "T"]) == 0
        assert counts == {"presentation_dr": 1}
        assert "aspherical" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["fx4.pres", "--away-from", "a", "--run-all"],
                                      ["genus2.pres", "--run-all"]])
    def test_check_runs_the_ladder_once_per_subset(self, monkeypatch, capsys, argv):
        # several positive certificates for one subset share one ladder run
        counts = Counter()
        _count_calls(monkeypatch, counts, pipeline, "presentation_dr")
        assert main(["check", str(FIXTURES / argv[0]), *argv[1:],
                     "--coset-limit", "600"]) == 0
        assert counts == {"presentation_dr": 1}
        assert "aspherical" in capsys.readouterr().out


    def test_check_diagram_is_validated_once(self, monkeypatch, capsys):
        counts = Counter()
        _count_calls(monkeypatch, counts, diagram, "validate_diagram", cli)
        assert main(["check", str(FIXTURES / "fx2.pres"), "--away-from", "a,b",
                     "--diagram", str(FIXTURES / "fx2_disc.json")]) == 1
        assert counts == {"validate_diagram": 1}
        capsys.readouterr()

    def test_diagram_command_validates_at_most_twice(self, monkeypatch, capsys):
        counts = Counter()
        _count_calls(monkeypatch, counts, diagram, "validate_diagram", cli)
        assert main(["diagram", str(FIXTURES / "fx2_disc.json"),
                     "--pres", str(FIXTURES / "fx2.pres"), "--away-from", "a,b"]) == 1
        assert counts["validate_diagram"] <= 2
        capsys.readouterr()


class TestCommandLine:
    def test_check_exit_codes(self, capsys):
        assert main(["check", str(FIXTURES / "fx1.pres"), "--away-from", "a,b"]) == 0
        assert main(["check", str(FIXTURES / "fx1.pres"), "--away-from", "a"]) == 1
        assert main(["check", str(FIXTURES / "fx2.pres"), "--away-from", "a,b"]) == 2
        capsys.readouterr()

    def test_check_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", str(FIXTURES / "fx1.pres"), "--away-from", "a,b",
                     "--run-all", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["certificates"]
        capsys.readouterr()

    def test_check_with_weights_file(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        wfile.write_text("\n".join(f"w {i} 1/2" for i in range(4)) + "\n")
        code = main(["check", str(FIXTURES / "fx4.pres"), "--tests", "weight",
                     "--weights", str(wfile)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CERTIFIED_DR_AWAY_FROM" in out

    def test_check_with_refutation_diagram(self, capsys):
        code = main(["check", str(FIXTURES / "fx2.pres"), "--away-from", "a,b",
                     "--diagram", str(FIXTURES / "fx2_disc.json")])
        assert code == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_lot_command(self, capsys):
        assert main(["lot", str(FIXTURES / "fxl2.lot"), "--sublot", "T"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED_DR_AWAY_FROM" in out
        assert "aspherical" in out

    def test_lot_no_proper_sublot(self, capsys):
        assert main(["lot", str(FIXTURES / "fxl1.lot")]) == 2
        assert "no proper sub-LOT" in capsys.readouterr().out

    def test_lot_reorient(self, capsys):
        assert main(["lot", str(FIXTURES / "fxl1.lot"), "--reorient"]) == 2
        assert "reorientation" in capsys.readouterr().out

    def test_diagram_command(self, capsys):
        code = main(["diagram", str(FIXTURES / "fx2_disc.json"),
                     "--pres", str(FIXTURES / "fx2.pres"), "--away-from", "a,b"])
        assert code == 1
        assert "REFUTES" in capsys.readouterr().out

    def test_input_error_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.pres"
        bad.write_text("rel: a\n")
        assert main(["check", str(bad)]) == 3
        assert main(["check", str(tmp_path / "missing.pres")]) == 3
        capsys.readouterr()

    def test_letter_cap_exits_three(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(core, "MAX_RELATOR_LETTERS", 2)
        long = tmp_path / "long.pres"
        long.write_text("gens: a\nrel: a^3\n")
        assert main(["check", str(long)]) == 3
        assert "exceed 2 letters" in capsys.readouterr().err

    def test_infinite_vertex_count_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "inf.json"
        bad.write_text('{"vertexCount": 1e400, "edges": [], "faces": []}')
        pres = str(FIXTURES / "fx2.pres")
        assert main(["diagram", str(bad), "--pres", pres]) == 3
        assert main(["check", pres, "--tests", "free", "--diagram", str(bad)]) == 3
        assert "malformed diagram JSON" in capsys.readouterr().err

    def test_negative_vertex_count_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "neg.json"
        bad.write_text('{"vertexCount": -1, "edges": [], "faces": []}')
        pres = str(FIXTURES / "fx2.pres")
        assert main(["diagram", str(bad), "--pres", pres]) == 3
        assert main(["check", pres, "--tests", "free", "--diagram", str(bad)]) == 3
        assert "negative vertex count" in capsys.readouterr().err

    def test_reorient_has_no_size_cap(self, tmp_path, capsys):
        path = tmp_path / "path23.lot"
        path.write_text("".join(f"edge p{i} p{i + 1} p{(i + 2) % 24}\n" for i in range(23)))
        assert main(["lot", str(path), "--reorient"]) == 2
        assert "flipped edges" in capsys.readouterr().out

    @pytest.mark.parametrize("name,flips", [("fig3", []), ("fxl1", []),
                                            ("fxl2", [3, 4, 5, 7]), ("fxl3", [1, 2])])
    def test_reorient_prints_flipped_edges(self, name, flips, capsys):
        main(["lot", str(FIXTURES / f"{name}.lot"), "--reorient"])
        assert f"flipped edges: {flips}\n" in capsys.readouterr().out

    def test_all_directions_on_one_generator_is_unknown(self, tmp_path, capsys):
        # the fallback has no proper singleton subset to try
        pres = tmp_path / "a2.pres"
        pres.write_text("gens: a\nrel: a a\n")
        assert main(["check", str(pres), "--all-directions"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "test onerel: unknown (relator is a proper power (period 1))",
            "test forest: unknown (some relator has nonzero exponent sum)",
            "UNKNOWN: no test was conclusive"]

    def test_unknown_sublot_name(self, monkeypatch, capsys):
        # looked up before the LOT summary and the reorientation are printed
        monkeypatch.setattr(cli, "reorient_positive_tree", _refuse)
        assert main(["lot", str(FIXTURES / "fxl2.lot"), "--reorient", "--sublot", "Q"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "no sublot named 'Q'" in captured.err

    def test_fallback_attempts_name_their_subset(self, tmp_path, capsys):
        pres = tmp_path / "free2.pres"
        pres.write_text("gens: a b\n")
        assert main(["check", str(pres), "--all-directions"]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "test onerel: unknown (not a one-relator presentation)",
            "test forest: unknown (no relators)",
            "test free {a}: certified",
            "test free {b}: certified"]


class TestReportPathBeforeAnyWork:
    """An unwritable --json path stops a command before it computes or
    prints anything, and the check makes no file."""

    @pytest.mark.parametrize("argv", [
        ["check", "fx1.pres", "--away-from", "a,b"],
        ["lot", "fxl2.lot", "--reorient"],
        ["diagram", "fx2_disc.json", "--pres", "fx2.pres", "--away-from", "a,b"],
    ])
    def test_unwritable_report_path(self, argv, monkeypatch, tmp_path, capsys):
        for name in ("run_check", "reorient_positive_tree", "certify_lot", "validate_diagram"):
            monkeypatch.setattr(cli, name, _refuse)
        argv = [str(FIXTURES / a) if "." in a else a for a in argv]
        assert main([*argv, "--json", str(tmp_path / "missing" / "r.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write the report" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_report_path_check_leaves_no_file(self, tmp_path, capsys):
        # an input fault after the check: no new report, an old one untouched
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("kept")
        for report in (new, old):
            assert main(["check", str(FIXTURES / "fx1.pres"), "--diagram",
                         str(tmp_path / "none.json"), "--json", str(report)]) == 3
        assert not new.exists() and old.read_text() == "kept"
        capsys.readouterr()


class TestOptionsBeforeTests:
    """`ddr check` refuses its options and reads every file before the first
    test runs."""

    @pytest.mark.parametrize("argv, message", [
        (["fx4.pres", "--away-from", "a", "--tests", "forest,bogus"], "unknown test 'bogus'"),
        (["genus2.pres", "--all-directions", "--tests", "onerel,bogus"],
         "unknown test 'bogus'"),
        (["fx4.pres", "--away-from", "a", "--tests", "forest,forest", "--run-all"],
         "test 'forest' is named twice"),
        (["fx4.pres", "--tests", "free,"], "unknown test ''"),
        (["fx4.pres", "--diagram", "missing.json"], "missing.json"),
        (["fx4.pres", "--diagram", "fx1.pres"], "malformed diagram JSON"),
    ])
    def test_exits_three_before_any_test(self, argv, message, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("run_check was called")

        monkeypatch.setattr(cli, "run_check", refuse)
        argv = [str(FIXTURES / a) if "." in a else a for a in argv]
        assert main(["check", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("tests", [("forest", "bogus"), ("forest", "forest")])
    def test_config_refuses_unknown_and_repeated_tests(self, tests):
        with pytest.raises(core.DdrError) as caught:
            CheckConfig(tests=tests)
        assert caught.value.code == "USAGE"


class TestReportModel:
    def test_json_shape(self, fx4):
        report = run_check(fx4, frozenset(), CheckConfig(tests=("forest",)))
        data = report.to_json_dict()
        assert set(data) == {"schema", "tool", "input", "config", "attempts",
                             "certificates"}
        cert = data["certificates"][0]
        assert set(cert) == {"presentation", "subset", "verdict", "method",
                             "evidence", "consequences", "notes"}

    def test_exit_code_logic(self):
        report = Report("x", {}, {})
        assert report.exit_code() == 2


class TestSubsetFlags:
    @pytest.mark.parametrize("subset, code", [("a,b,zz", "UNDECLARED_GENERATOR"),
                                              ("a,b,c", "S_NOT_PROPER")])
    def test_diagram_validates_its_subset(self, fx2, subset, code, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["diagram", str(FIXTURES / "fx2_disc.json"), "--pres",
                     str(FIXTURES / "fx2.pres"), "--away-from", subset, "--json", str(out)]) == 3
        assert not out.exists()
        with pytest.raises(core.DdrError) as caught:
            run_check(fx2, frozenset(subset.split(",")))
        assert caught.value.code == code  # the same refusal as `ddr check`
        capsys.readouterr()

    def test_all_directions_refuses_a_subset(self, genus2, capsys):
        assert main(["check", str(FIXTURES / "genus2.pres"), "--all-directions",
                     "--away-from", "zz"]) == 3
        err = capsys.readouterr().err
        assert "--all-directions" in err and "--away-from" in err
        with pytest.raises(core.DdrError) as caught:
            run_check(genus2, {"x1"}, CheckConfig(all_directions=True))
        assert caught.value.code == "USAGE"
        assert run_check(genus2, frozenset(), CheckConfig(all_directions=True)).certificates
