import csv
import io
import json

import pytest

from cliquesep import cli, instances, solvers
from cliquesep.geometry import SCALE, PointSite, Rect
from cliquesep.instances import Instance
from cliquesep.solvers import SolveConfig


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.inst", tmp_path / "b.inst"
        assert cli.main(["generate", "rects", "--n", "5", "--seed", "7",
                         "--out", str(a)]) == 0
        assert cli.main(["generate", "rects", "--n", "5", "--seed", "7",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_point(self, capsys):
        code, out, err = run(["generate", "points", "--n", "1"], capsys)
        assert code == 0
        inst = instances.parse(out)
        assert inst.kind == "points" and inst.n == 1

    def test_negative_n_is_input_error(self, capsys):
        code, out, err = run(["generate", "rects", "--n", "-5"], capsys)
        assert code == cli.EXIT_INPUT
        assert err == "cliquesep: n must be non-negative\n"
        code, out, err = run(["generate", "rects", "--n", "0"], capsys)
        assert code == 0 and instances.parse(out).n == 0

    def test_bad_style_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["generate", "rects", "--n", "5", "--style", "bogus"])
        assert err.value.code == cli.EXIT_INPUT

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        code, out, err = run(["generate", "rects", "--n", "5", "--out",
                              str(tmp_path / "missing" / "x")], capsys)
        assert code == cli.EXIT_INPUT
        assert err.startswith("cliquesep: ") and err.count("\n") == 1


class TestSolve:
    @pytest.fixture()
    def rect_file(self, tmp_path):
        p = tmp_path / "r.inst"
        instances.save(instances.generate("rects", 10, 3), p)
        return str(p)

    @pytest.fixture()
    def point_file(self, tmp_path):
        p = tmp_path / "p.inst"
        instances.save(instances.generate("points", 8, 4), p)
        return str(p)

    def test_mis_exact_report(self, rect_file, capsys):
        code, out, err = run(["solve", rect_file, "--solver", "mis-exact",
                              "--oracle-check", "--trace"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["solver"] == "mis-exact"
        assert rep["feasible"] is True
        assert rep["oracle"]["ok"] is True
        assert rep["value"] == rep["oracle"]["optimum"]
        assert isinstance(rep["trace"], list)

    def test_all_solvers_run(self, rect_file, point_file, capsys):
        for solver, f in (("mis-exact", rect_file), ("mis-ptas", rect_file),
                          ("pierce-exact", rect_file),
                          ("pierce-ptas", rect_file),
                          ("cover-exact", point_file),
                          ("cover-ptas", point_file)):
            argv = ["solve", f, "--solver", solver]
            if solver.endswith("ptas"):
                argv += ["--epsilon", "0.5"]
            code, out, err = run(argv, capsys)
            assert code == 0, (solver, err)
            assert json.loads(out)["feasible"] is True

    @pytest.mark.parametrize("solver, verifier", [
        ("mis-exact", "verify_independent_rects"),
        ("mis-ptas", "verify_independent_rects"),
        ("pierce-exact", "verify_piercing"),
        ("pierce-ptas", "verify_piercing"),
        ("cover-exact", "verify_disc_cover"),
        ("cover-ptas", "verify_disc_cover"),
    ])
    def test_infeasible_answer_exits_2(self, solver, verifier, rect_file,
                                       point_file, capsys, monkeypatch):
        monkeypatch.setattr(solvers, verifier, lambda *args: False)
        f = point_file if solver.startswith("cover") else rect_file
        code, out, err = run(["solve", f, "--solver", solver,
                              "--epsilon", "0.5"], capsys)
        assert code == cli.EXIT_INFEASIBLE
        assert out == ""
        assert "infeasible solution" in err and err.count("\n") == 1

    def test_uncoverable_group_exits_2(self, tmp_path, capsys, monkeypatch):
        # a connected half-unit lattice of measure 100, above the PTAS leaf
        # at eps 0.5, so the root separator is retired before any leaf;
        # the lowest point of that separator is dropped from every
        # candidate's mask, and no candidate covers its group any more
        points = tuple(PointSite(i % 10 * SCALE // 2, i // 10 * SCALE // 2)
                       for i in range(100))
        f = tmp_path / "lattice.inst"
        instances.save(Instance("points", points), f)
        ctx = solvers.CoverContext(points)
        s = ctx.separate_subset((1 << len(points)) - 1).s
        lowest = s & -s
        build = solvers.CoverContext.__init__

        def dropping(self, points):
            build(self, points)
            self.disc_points = [m & ~lowest for m in self.disc_points]

        monkeypatch.setattr(solvers.CoverContext, "__init__", dropping)
        with pytest.raises(solvers.InfeasibleSolution):
            solvers.disccover_ptas(points, SolveConfig(epsilon=0.5))
        code, out, err = run(["solve", str(f), "--solver", "cover-ptas",
                              "--epsilon", "0.5"], capsys)
        assert code == cli.EXIT_INFEASIBLE
        assert out == ""
        assert err == ("cliquesep: no candidate disc covers a coverable "
                       "group\n")

    def test_ptas_without_epsilon_is_input_error(self, rect_file, capsys):
        code, out, err = run(["solve", rect_file, "--solver", "mis-ptas"],
                             capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("options", [
        ["--solver", "mis-ptas", "--epsilon", "1.5"],
        ["--solver", "mis-ptas", "--epsilon", "nan"],
        ["--solver", "mis-exact", "--t0", "0"],
        ["--solver", "pierce-ptas", "--epsilon", "0.5", "--c0", "0"],
    ])
    def test_bad_config_is_input_error(self, rect_file, options, capsys):
        code, out, err = run(["solve", rect_file] + options, capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("cliquesep: ") and err.count("\n") == 1

    def test_kind_mismatch_is_input_error(self, point_file, capsys):
        code, out, err = run(["solve", point_file, "--solver", "mis-exact"],
                             capsys)
        assert code == cli.EXIT_INPUT

    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run(["solve", "/nonexistent.inst", "--solver",
                              "mis-exact"], capsys)
        assert code == cli.EXIT_INPUT

    def test_file_not_utf8_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.inst"
        p.write_bytes(b"cliquesep-instance v1\nkind rects\nrect 0 1 \xff\n")
        code, out, err = run(["solve", str(p), "--solver", "mis-exact"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == f"cliquesep: {p}: byte 42 is not UTF-8 (invalid start byte)\n"

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.inst"
        for text, message in [
                ("not an instance\n", "missing header"),
                ("cliquesep-instance v1\nkind rects\nrect 2 1 0\n",
                 "rect needs x_lo < x_hi"),
                ("cliquesep-instance v1\nkind rects\nrect 1 1 0\n",
                 "rect needs x_lo < x_hi")]:
            p.write_text(text)
            code, out, err = run(["solve", str(p), "--solver", "mis-exact"],
                                 capsys)
            assert code == cli.EXIT_INPUT
            assert message in err

    @pytest.mark.parametrize("solver", ["cover-exact", "cover-ptas"])
    def test_duplicate_points_solve(self, solver, tmp_path, capsys):
        p = tmp_path / "dup.inst"
        p.write_text("cliquesep-instance v1\nkind points\n"
                     "point 0 0\npoint 0 0\npoint 2 0\n")
        code, out, err = run(["solve", str(p), "--solver", solver,
                              "--epsilon", "0.5", "--oracle-check"], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert rep["feasible"] and rep["value"] == rep["oracle"]["optimum"]

    def test_reports_reproducible(self, rect_file, capsys):
        argv = ["solve", rect_file, "--solver", "pierce-exact", "--trace"]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_oracle_verdict_checks_ptas_guarantee(self):
        # k pairwise disjoint rectangles, and k points pairwise far apart:
        # every optimum is k
        def rects(k):
            return Instance("rects", tuple(
                Rect(3 * i * SCALE, 3 * i * SCALE + SCALE, 0) for i in range(k)))

        points = Instance("points", tuple(PointSite(3 * i * SCALE, 0)
                                          for i in range(4)))
        half = SolveConfig(epsilon=0.5)
        for inst, solver, cfg, inside, outside in [
                (rects(4), "mis-ptas", half, (2, 4), (1, 5)),
                (rects(4), "pierce-ptas", half, (4, 6), (3, 7)),
                (points, "cover-ptas", half, (4, 6), (3, 7)),
                # ceil((1 - 0.7) * 10) is 3; in floats it reads 4
                (rects(10), "mis-ptas", SolveConfig(epsilon=0.7), (3, 10),
                 (2, 11))]:
            for value in inside:
                verdict = cli._oracle_verdict(inst, solver, value, cfg)
                assert verdict == {"optimum": inst.n, "ok": True}, (solver, value)
            for value in outside:
                verdict = cli._oracle_verdict(inst, solver, value, cfg)
                assert verdict == {"optimum": inst.n, "ok": False}, (solver, value)


class TestBench:
    def test_empty_glob_writes_header_only(self, tmp_path, capsys):
        code, out, err = run(["bench-separator",
                              str(tmp_path / "none-*.inst")], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["file", "n", "mu", "length", "cost", "route"]]

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, out, err = run(["bench-separator", str(tmp_path / "nope.inst")],
                             capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("cliquesep: ") and err.count("\n") == 1

    def test_file_not_utf8_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.inst"
        p.write_bytes(b"cliquesep-instance v1\nkind rects\nrect 0 1 \xff\n")
        code, out, err = run(["bench-separator", str(p)], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == f"cliquesep: {p}: byte 42 is not UTF-8 (invalid start byte)\n"

    def test_chain_rows_cost_one(self, tmp_path, capsys):
        p = tmp_path / "chain.inst"
        instances.save(instances.generate("rects", 40, 0, "chain"), p)
        code, out, err = run(["bench-separator", str(p)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        data = [r for r in rows[1:] if r[0] != "SUMMARY"]
        assert data
        assert all(r[4] == "1" for r in data)

    def test_summary_ratio_present(self, tmp_path, capsys):
        p = tmp_path / "u.inst"
        instances.save(instances.generate("rects", 120, 1), p)
        code, out, err = run(["bench-separator", str(p), "--out",
                              str(tmp_path / "o.csv")], capsys)
        assert code == 0
        rows = list(csv.reader((tmp_path / "o.csv").open()))
        assert rows[-1][0] == "SUMMARY"
        assert float(rows[-1][-1]) <= 8.0

    @pytest.mark.parametrize("t0", ["0", "-3"])
    def test_bad_t0_is_input_error(self, tmp_path, t0, capsys):
        p = tmp_path / "u.inst"
        instances.save(instances.generate("rects", 20, 1), p)
        code, out, err = run(["bench-separator", str(p), "--t0", t0], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("cliquesep: ") and err.count("\n") == 1

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "u.inst"
        instances.save(instances.generate("rects", 10, 1), p)
        code, out, err = run(["bench-separator", str(p), "--out",
                              str(tmp_path / "missing" / "x")], capsys)
        assert code == cli.EXIT_INPUT
        assert err.startswith("cliquesep: ") and err.count("\n") == 1
