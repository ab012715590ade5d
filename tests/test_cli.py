import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import greensign
from greensign import cli
from greensign.cli import _load_samples, main
from greensign.errors import GreensignError
from json_oracle import jsonable

GOLDEN = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.reader(text.splitlines()))


class TestGamma:
    def test_nonnegative_kernel_reports_infinite_ratio(self, capsys):
        code, out, _ = run(["gamma", "--bc", "periodic", "--rho", "0.5",
                            "--T", "1", "--t-grid", "11"], capsys)
        assert code == 0
        assert "+inf" in out
        assert "nonnegative" in out

    def test_closed_and_quadrature_side_by_side(self, capsys):
        code, out, _ = run(["gamma", "--bc", "dirichlet", "--rho", "sqrt(60)",
                            "--t-grid", "201"], capsys)
        assert code == 0
        assert "gamma_closed" in out and "gamma_quadrature" in out
        vals = [float(line.split("=")[1].split("(")[0])
                for line in out.splitlines() if line.startswith("gamma")]
        assert vals[0] == pytest.approx(1.362541473923, abs=1e-9)
        assert vals[1] == pytest.approx(vals[0], abs=1e-5)

    def test_flagged_interval_prints_note(self, capsys):
        code, out, _ = run(["gamma", "--bc", "periodic", "--rho", "2.5*pi",
                            "--t-grid", "31"], capsys)
        assert code == 0
        assert "note:" in out
        assert "authoritative" in out

    def test_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, _, _ = run(["gamma", "--bc", "periodic", "--rho", "3*pi/2",
                          "--t-grid", "31", "--format", "json",
                          "--output", str(path)], capsys)
        assert code == 0
        raw = path.read_text()
        obj = json.loads(raw)
        assert raw == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert obj["quadrature"]["value"] == pytest.approx(
            1.0 / (1.0 - math.sqrt(2) / 2), rel=1e-6)
        assert obj["classification"] == "changes_sign"

    def test_weight_one_variant(self, capsys):
        code, out, _ = run(["gamma", "--bc", "periodic", "--rho", "3*pi/2",
                            "--t-grid", "31", "--weight", "one",
                            "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["quadrature"]["weight"] == "One"
        assert obj["closed"] is None


    def test_sampled_gamma_builds_the_pair_at_zero_once(self, capsys, tmp_path,
                                                        monkeypatch):
        # the kernel and the resonance check of its sign verdict share the
        # lam = 0 pair kept on the potential; the other build is the
        # principal eigenfunction's
        from greensign.fundamental import FundamentalSolutions
        ts = np.linspace(0.0, 1.0, 2001)
        path = tmp_path / "wavy.csv"
        path.write_text("t,a\n" + "\n".join(
            f"{float(t)!r},{float(60 + 10 * np.sin(2 * np.pi * t))!r}" for t in ts))
        lams = []
        init = FundamentalSolutions.__init__

        def counted(self, potential, lam=0.0):
            lams.append(float(lam))
            init(self, potential, lam)

        monkeypatch.setattr(FundamentalSolutions, "__init__", counted)
        code, _, _ = run(["gamma", "--bc", "neumann", "--samples", str(path)], capsys)
        assert code == 0
        assert lams.count(0.0) == 1
        assert len(lams) == 2

    @pytest.mark.parametrize("bc,rho", [("periodic", "17.3"), ("dirichlet", "10.1")])
    def test_constant_potential_builds_no_rk4_pair(self, capsys, monkeypatch, bc, rho):
        # the kernel and the principal eigenfunction both stand on the
        # exact pair of a constant potential
        from greensign.fundamental import FundamentalSolutions
        builds = []
        init = FundamentalSolutions.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FundamentalSolutions, "__init__", counted)
        for argv in (["gamma", "--bc", bc, "--rho", rho],
                     ["check", "--bc", bc, "--rho", rho, "--f", "1"]):
            assert run(argv, capsys)[0] == 0
        assert builds == []

    def test_constant_weight_adds_no_cells(self, capsys, monkeypatch):
        # 7000 cells of four Gauss nodes; the break points of an RK4 weight
        # on 2001 nodes added 1000 cells more
        from greensign import gamma
        sizes = []
        slice_sums = gamma.slice_sums

        def counted(kernel, points):
            sums = slice_sums(kernel, points)
            sizes.append(len(sums.xs))
            return sums

        monkeypatch.setattr(gamma, "slice_sums", counted)
        assert run(["gamma", "--bc", "periodic", "--rho", "17.3"], capsys)[0] == 0
        assert sizes == [28_000]


class TestGreen:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(["green", "--bc", "periodic", "--rho", "3*pi/2",
                            "--nodes", "5"], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["t", "s", "value"]
        assert len(rows) == 1 + 25
        table = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        for (t, s), v in table.items():
            assert table[(s, t)] == v  # symmetric kernel

    def test_json_matches_csv(self, capsys):
        argv = ["green", "--bc", "dirichlet", "--rho", "2", "--nodes", "3"]
        _, out_csv, _ = run(argv, capsys)
        _, out_json, _ = run(argv + ["--format", "json"], capsys)
        obj = json.loads(out_json)
        assert obj["form"] == "closed"
        flat = [v for row in obj["value"] for v in row]
        csv_vals = [float(r[2]) for r in rows_of(out_csv)[1:]]
        assert flat == csv_vals


class TestEigen:
    def test_six_by_default(self, capsys):
        code, out, _ = run(["eigen", "--bc", "periodic", "--rho", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("lambda_1 = -25 ")

    def test_json_values_match_closed_forms(self, capsys):
        code, out, _ = run(["eigen", "--bc", "dirichlet", "--rho", "3",
                            "--count", "3", "--format", "json"], capsys)
        assert code == 0
        vals = [e["value"] for e in json.loads(out)]
        want = [(k * math.pi) ** 2 - 9.0 for k in (1, 2, 3)]
        assert vals == pytest.approx(want, rel=1e-12)


class TestClassify:
    @pytest.mark.parametrize("rho,want", [
        ("0.5", "nonnegative"),
        ("3*pi/2", "changes_sign"),
    ])
    def test_periodic_classes(self, rho, want, capsys):
        code, out, _ = run(["classify", "--bc", "periodic", "--rho", rho],
                           capsys)
        assert code == 0
        assert out.strip() == want


class TestCheck:
    def test_report_round_trip_and_pass(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(["check", "--bc", "dirichlet", "--rho", "sqrt(60)",
                          "--f", "t*(1-t)", "--t-grid", "201",
                          "--output", str(path)], capsys)
        assert code == 0
        raw = path.read_text()
        obj = json.loads(raw)
        assert raw == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert obj["all_passed"] is True
        assert obj["h2"]["passed"] is True
        assert obj["cone"]["sigma"] > 0

    def test_strict_failure_exits_4(self, capsys):
        code, out, err = run(["check", "--bc", "dirichlet", "--rho",
                              "sqrt(60)", "--f", "t", "--t-grid", "201",
                              "--strict"], capsys)
        assert code == 4
        assert json.loads(out)["h2"]["passed"] is False
        assert "error" in err

    def test_non_strict_failure_still_exits_0(self, capsys):
        code, out, _ = run(["check", "--bc", "dirichlet", "--rho", "sqrt(60)",
                            "--f", "t", "--t-grid", "201"], capsys)
        assert code == 0
        assert json.loads(out)["all_passed"] is False

    def test_cone_grid_without_samples_in_windows(self, capsys):
        code, out, err = run(["check", "--bc", "dirichlet", "--rho", "7.5",
                              "--f", "1", "--cone-grid", "2"], capsys)
        assert code == 0, err
        obj = json.loads(out)
        assert obj["h3"] is None
        assert any(n.startswith("no subinterval") for n in obj["notes"])

    def test_runs_on_the_grid_it_is_given(self, capsys, tmp_path, monkeypatch):
        # --grid and GREENSIGN_GRID set the RK4 grid of the potential the
        # report is made from, as they set the grid of gamma
        ts = np.linspace(0.0, 1.0, 2001)
        path = tmp_path / "wavy.csv"
        path.write_text("t,a\n" + "\n".join(
            f"{float(t)!r},{float(60 + 10 * np.sin(2 * np.pi * t))!r}" for t in ts))
        src = ["--bc", "dirichlet", "--samples", str(path), "--t-grid", "41"]
        argv = ["check", *src, "--f", "1 + x/(1+x)", "--cone-grid", "65"]
        default = run(argv, capsys)[1]
        by_flag = run(argv + ["--grid", "251"], capsys)[1]
        gamma = run(["gamma", *src, "--grid", "251", "--format", "json"], capsys)[1]
        monkeypatch.setenv("GREENSIGN_GRID", "251")
        by_env = run(argv, capsys)[1]
        assert by_flag == by_env != default
        assert json.loads(by_flag)["gamma"] == json.loads(gamma)["quadrature"]

    def test_both_weighted_ratios_share_one_root_search(self, capsys, tmp_path,
                                                        monkeypatch):
        # the zeros of the slices do not depend on the weight: the
        # eigenfunction- and coefficient-weighted ratios read one set
        from greensign.greens import Kernel
        ts = np.linspace(0.0, 1.0, 2001)
        path = tmp_path / "wavy.csv"
        path.write_text("t,a\n" + "\n".join(
            f"{float(t)!r},{float(60 + 10 * np.sin(2 * np.pi * t))!r}" for t in ts))
        calls = []
        roots_flat = Kernel._roots_flat

        def counted(self, ts):
            calls.append(len(ts))
            return roots_flat(self, ts)

        monkeypatch.setattr(Kernel, "_roots_flat", counted)
        code, out, _ = run(["check", "--bc", "neumann", "--samples", str(path),
                            "--f", "1 + x/(1+x)"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["gamma"]["weight"] == "PrincipalEigenfunction"
        assert obj["h2_star"]["gamma"] > 1.0
        assert calls == [1001]


class TestSolve:
    def test_positive_profile_csv(self, capsys):
        code, out, err = run(["solve", "--bc", "dirichlet", "--rho",
                              "sqrt(60)", "--T", "1", "--rhs", "t*(1-t)",
                              "--solve-grid", "101"], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["t", "u"]
        assert len(rows) == 102
        us = np.array([float(r[1]) for r in rows[1:]])
        assert us[0] == 0.0 and us[-1] == 0.0
        assert np.min(us[1:-1]) > 0
        assert "positivity=Positive" in err

    def test_json_profile(self, capsys):
        code, out, _ = run(["solve", "--bc", "periodic", "--rho", "2",
                            "--f", "1+0*x", "--solve-grid", "51",
                            "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["iterations"] == 1
        assert obj["converged"] is True
        assert obj["u"][0] == pytest.approx(0.25, abs=1e-9)

    def test_requires_exactly_one_rhs(self, capsys):
        code, _, err = run(["solve", "--bc", "dirichlet", "--rho", "2"],
                           capsys)
        assert code == 1
        assert err.startswith("error: GreensignError:")
        code, _, _ = run(["solve", "--bc", "dirichlet", "--rho", "2",
                          "--rhs", "t", "--f", "x"], capsys)
        assert code == 1

    @pytest.mark.parametrize("bc,f", [("dirichlet", "t*(1-t) + 5*x"),
                                      ("periodic", "1 + 41*x")])
    def test_closed_form_solve_reads_reference_cells(self, capsys, monkeypatch, bc, f):
        # on the default grid the table's cells are the grid's, of one
        # length: the pair at their Gauss nodes comes by angle addition and
        # u there from one Lagrange matrix per place in the window, so
        # eval_pair sees grid nodes only and no per-point stencil is built
        from greensign import solver
        from greensign.fundamental import ConstantPair
        seen, stencils = [], []
        eval_pair, init = ConstantPair.eval_pair, solver._Stencil.__init__

        def counted_pair(self, x):
            seen.append(np.asarray(x))
            return eval_pair(self, x)

        def counted_init(self, *args):
            stencils.append(args)
            init(self, *args)

        monkeypatch.setattr(ConstantPair, "eval_pair", counted_pair)
        monkeypatch.setattr(solver._Stencil, "__init__", counted_init)
        argv = ["solve", "--bc", bc, "--rho", "7.5", "--f", f, "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["converged"]
        grid = np.linspace(0.0, 1.0, 2001)
        assert seen and all(np.isin(x, grid).all() for x in seen)
        assert stencils == []


class TestErrorsAndEnv:
    def test_resonance_exits_3(self, capsys):
        code, _, err = run(["green", "--bc", "periodic", "--rho", "2*pi"],
                           capsys)
        assert code == 3
        assert err.startswith("error: ResonantPotential:")

    @pytest.mark.parametrize("bc,rho", [("periodic", "2*pi"), ("dirichlet", "2*pi"),
                                        ("neumann", "pi"), ("mixed1", "3*pi/2")])
    def test_classify_resonance_exits_3(self, bc, rho, capsys):
        code, out, err = run(["classify", "--bc", bc, "--rho", rho], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ResonantPotential:")

    @pytest.mark.parametrize("argv", [["classify"], ["green"], ["solve", "--rhs", "1"],
                                      ["check", "--f", "1"]])
    def test_overflow_is_one_error_line(self, argv, capsys, tmp_path):
        # a = -1e8 grows the solutions past the float range; the products
        # overflow quietly and the finiteness check reports it
        path = tmp_path / "steep.csv"
        ts = np.linspace(0.0, 1.0, 2001)
        path.write_text("t,a\n" + "".join(f"{float(t)!r},-1e8\n" for t in ts))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([*argv, "--bc", "periodic", "--samples", str(path)],
                                 capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (1, "")
        assert err == ("error: IntegratorFailure: fundamental system overflowed; "
                       "potential scale too large\n")

    @pytest.mark.parametrize("rhs", ["1/0", "1e308*10"])
    def test_infinite_rhs_is_one_error_line(self, rhs, capsys):
        # the cell sums are refused before their running sum, where
        # inf - inf would warn
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["solve", "--bc", "dirichlet", "--rho", "7.5",
                                  "--rhs", rhs, "--solve-grid", "11"], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (1, "")
        assert err == "error: QuadratureFailure: non-finite integrand in the solve\n"

    @pytest.mark.parametrize("argv", [["--bc", "dirichlet", "--solve-grid", "11"],
                                      ["--bc", "neumann"]])
    def test_huge_finite_rhs_has_finite_checks(self, argv, capsys):
        # the profile reaches about 4e306, where its second differences
        # overflow unless the checks read it scaled down
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["solve", *argv, "--rho", "7.5", "--rhs", "1e308",
                                  "--format", "json"], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert math.isfinite(report["residual_norm"]) and math.isfinite(report["bc_error"])

    def test_undetermined_sign_names_kind_and_tolerance(self, capsys):
        code, _, err = run(["classify", "--bc", "periodic", "--rho", "1e-5"], capsys)
        assert code == 1
        assert err == ("error: UndeterminedSign: the first periodic eigenvalue "
                       "lies within 1e-08 of zero\n")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["green", "--rho", "2"])  # missing --bc
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["gamma", "--t-grid", "0"], "--t-grid"),
        (["check", "--f", "1", "--t-grid", "0"], "--t-grid"),
        (["solve", "--rhs", "1", "--grid", "8"], "--grid"),
        (["check", "--f", "1", "--cone-grid", "1"], "--cone-grid"),
        (["solve", "--rhs", "1", "--solve-grid", "3"], "--solve-grid"),
        (["eigen", "--count", "0"], "--count"),
        (["green", "--nodes", "-1"], "--nodes"),
        (["eigen", "--grid", "1"], "--grid"),
        (["gamma", "--grid", "5"], "--grid"),
        (["classify", "--grid", "8"], "--grid"),
        (["solve", "--f", "1+0*x", "--max-iter", "0"], "--max-iter"),
    ])
    def test_bad_grid_size_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--bc", "periodic", "--rho", "7", *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be at least" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--damping", "0", "must lie in (0, 1]"),
        ("--damping", "nan", "must lie in (0, 1]"),
        ("--damping", "1.5", "must lie in (0, 1]"),
        ("--tol", "-1", "must be positive and finite"),
        ("--tol", "nan", "must be positive and finite"),
        ("--tol", "inf", "must be positive and finite"),
    ])
    def test_bad_fixed_point_flag_is_a_usage_error(self, flag, value, message,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--bc", "periodic", "--rho", "7", "--f", "1+0*x",
                  flag, value])
        assert exc.value.code == 2
        assert f"error: argument {flag}: {message}" in capsys.readouterr().err

    def test_fixed_point_flags_at_their_bounds(self, capsys):
        code, out, _ = run(["solve", "--bc", "periodic", "--rho", "7",
                            "--f", "1+0*x", "--solve-grid", "21", "--damping", "1",
                            "--max-iter", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["iterations"] == 1

    def test_bad_expression_exits_1(self, capsys):
        code, _, err = run(["gamma", "--bc", "periodic", "--rho", "2*"],
                           capsys)
        assert code == 1
        assert err.startswith("error: ExpressionError:")

    @pytest.mark.parametrize("argv, message", [
        (["eigen", "--bc", "periodic", "--rho", "3", "--T", "1/0"],
         "ValueError: interval length must be positive and finite, got inf"),
        (["solve", "--bc", "dirichlet", "--rho", "7.5", "--rhs", "1/0",
          "--solve-grid", "11"],
         "QuadratureFailure: non-finite integrand in the solve"),
        (["solve", "--bc", "dirichlet", "--rho", "7.5", "--f", "x + 1/0"],
         "EvaluationFailure: f returned a non-finite value"),
        (["check", "--bc", "dirichlet", "--rho", "7.5", "--f", "x + 1/0"],
         "EvaluationFailure: f is not finite at (t, x) = (0, 0)"),
    ])
    def test_constant_division_by_zero_exits_1(self, argv, message, capsys):
        # 1/0 reads inf, as 1/t does at t = 0, and the input checks report it
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("rho", ["(" * 400 + "8" + ")" * 400, "-" * 1200 + "8",
                                     "^".join(["2"] * 300)])
    def test_deep_nesting_exits_1(self, rho, capsys):
        code, out, err = run(["classify", "--bc", "dirichlet", f"--rho={rho}"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ExpressionError: nesting deeper than")

    def test_missing_potential_exits_1(self, capsys):
        code, _, err = run(["classify", "--bc", "dirichlet"], capsys)
        assert code == 1
        assert "potential" in err

    def test_grid_env_override(self, capsys, monkeypatch, tmp_path):
        # a constant potential stands on its exact pair, which has no grid:
        # the grid is read for a sampled one
        path = tmp_path / "a.csv"
        path.write_text("t,a\n" + "\n".join(f"{t},4" for t in np.linspace(0, 1, 201)))
        monkeypatch.setenv("GREENSIGN_GRID", "101")
        code, out, _ = run(["green", "--bc", "neumann", "--samples", str(path),
                            "--nodes", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["form"] == "numeric"
        monkeypatch.delenv("GREENSIGN_GRID")
        by_flag = run(["green", "--bc", "neumann", "--samples", str(path),
                       "--grid", "101", "--nodes", "2", "--format", "json"], capsys)[1]
        assert out == by_flag
        # a value that is no integer, or below the least grid of 9 nodes
        for env in ("bogus", "8", "0", "-3"):
            monkeypatch.setenv("GREENSIGN_GRID", env)
            code, _, err = run(["green", "--bc", "neumann", "--rho", "2",
                                "--nodes", "2"], capsys)
            assert code == 1
            assert err.startswith("error: GreensignError: GREENSIGN_GRID must be "
                                  "an integer >= 9")

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GREENSIGN_GRID", "bogus")
        code, _, _ = run(["green", "--bc", "neumann", "--rho", "2",
                          "--grid", "101", "--nodes", "2"], capsys)
        assert code == 0


class TestParserOnce:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_main_builds_one_parser(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def build():
            built.append(1)
            return build_parser()
        monkeypatch.setattr(cli, "build_parser", build)
        for argv in (["classify", "--bc", "periodic", "--rho", "2"],
                     ["eigen", "--bc", "neumann", "--rho", "1", "--count", "2"],
                     ["classify", "--bc", "dirichlet", "--rho", "2"]):
            assert run(argv, capsys)[0] == 0
        with pytest.raises(SystemExit):
            main(["classify", "--bc", "bogus", "--rho", "2"])
        assert built == [1]
        assert build_parser() is not build_parser()

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        argv = ["eigen", "--bc", "dirichlet", "--rho", "3", "--count", "2",
                "--format", "json"]
        first = run(argv, capsys)
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--bc", "bogus", "--rho", "3", "--count", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert run(argv, capsys) == first


class TestSamples:
    def make_file(self, tmp_path, header=True):
        ts = np.linspace(0.0, 1.0, 201)
        path = tmp_path / "a.csv"
        with open(path, "w") as fh:
            if header:
                fh.write("t,a\n")
            for t in ts:
                fh.write(f"{t},{(1.5 * math.pi) ** 2}\n")
        return str(path)

    def test_sampled_potential_matches_constant(self, capsys, tmp_path):
        path = self.make_file(tmp_path)
        code, out, _ = run(["gamma", "--bc", "periodic", "--samples", path,
                            "--t-grid", "11", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["quadrature"]["value"] == pytest.approx(
            1.0 / (1.0 - math.sqrt(2) / 2), rel=1e-6)

    def test_headerless_file(self, capsys, tmp_path):
        path = self.make_file(tmp_path, header=False)
        code, out, _ = run(["classify", "--bc", "periodic",
                            "--samples", path], capsys)
        assert code == 0
        assert out.strip() == "changes_sign"

    def test_conflicting_T_rejected(self, capsys, tmp_path):
        path = self.make_file(tmp_path)
        code, _, err = run(["classify", "--bc", "periodic", "--samples", path,
                            "--T", "2"], capsys)
        assert code == 1
        assert "--T" in err

    def test_T_one_checked_against_the_grid_like_any_other(self, capsys,
                                                           tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("t,a\n" + "".join(f"{t},{(0.75 * math.pi) ** 2}\n"
                                          for t in np.linspace(0.0, 2.0, 201)))
        for T in ("1", "1.0"):
            code, _, err = run(["classify", "--bc", "periodic", "--samples",
                                str(path), "--T", T], capsys)
            assert code == 1
            assert f"--T {T} conflicts with the sample grid ending at 2.0" in err
        for T in (["--T", "2"], []):
            code, out, err = run(["classify", "--bc", "periodic", "--samples",
                                  str(path), *T], capsys)
            assert code == 0, err
            assert out.strip() == "changes_sign"

    def test_check_skips_coefficient_weight_with_one_negative_sample(
            self, capsys, tmp_path):
        ts = np.linspace(0.0, 1.0, 2001)
        a = 60 + 10 * np.sin(2 * np.pi * ts)
        a[777] = -1.0
        path = tmp_path / "dip.csv"
        path.write_text("t,a\n" + "".join(f"{float(t)!r},{float(v)!r}\n"
                                          for t, v in zip(ts, a)))
        code, out, err = run(["check", "--bc", "neumann", "--samples",
                              str(path), "--f", "1 + x/(1+x)",
                              "--t-grid", "41"], capsys)
        assert code == 0, err
        obj = json.loads(out)
        assert obj["h2_star"] is None
        assert any(n.startswith("coefficient-weighted variant skipped: "
                                "coefficient takes negative values")
                   for n in obj["notes"])


def load_rows_by_csv(path):
    """The row-by-row csv loop the sample loader used before; oracle."""
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            try:
                rows.append((float(line[0]), float(line[1])))
            except (ValueError, IndexError):
                if rows:
                    raise GreensignError(f"bad sample row {line!r} in {path}")
                continue  # header
    if len(rows) < 2:
        raise GreensignError(f"need at least two sample rows in {path}")
    return np.asarray(rows, dtype=float)


class TestLoadSamples:
    WAVY = "".join(f"{float(t)!r},{60 + 10 * math.sin(2 * math.pi * t)!r}\n"
                   for t in np.linspace(0.0, 1.0, 2001))

    @pytest.mark.parametrize("text", [
        "t,a\n" + WAVY,
        WAVY,
        "\n\nt,a\n\n" + WAVY.replace("\n", "\n\n", 5) + "\n\n",
        WAVY.rstrip("\n"),
        "time,coefficient,note\nunits,,\n0,1.5,x\n0.5,2e-3,y\n1,-3.25,z\n",
        '"t","a"\n"0","1"\n"1","2"\n',
        "0,1\r\n1,2\r\n",
        "0,1\r1,2\r",                             # old Mac line ends
        '"t\nof day",a\n0,1\n1,2\n',              # a quoted newline
        "0,1\x0c\n0.5,1\x0b\n1,2\n",               # form feed, vertical tab
        "t,a\n0,1_000\n1,\u0661\u0662\n",        # numbers only float() reads
    ])
    def test_arrays_match_csv_loop(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text, newline="")
        want = load_rows_by_csv(path)
        pot = _load_samples(str(path))
        assert pot.grid.tobytes() == want[:, 0].tobytes()
        assert pot.values.tobytes() == want[:, 1].tobytes()

    @pytest.mark.parametrize("text", [
        "t,a\n0,1\nx,y\n1,2\n",          # bad row after the data
        "0,1\n1\n",                     # short row
        "0,1\n  \n1,2\n",               # whitespace is not a blank row
        "t,a\n0,1\n",                   # a single row
        "t,a\n\n",                      # header only
        "",
    ])
    def test_errors_match_csv_loop(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text, newline="")
        with pytest.raises(GreensignError) as want:
            load_rows_by_csv(path)
        with pytest.raises(GreensignError) as got:
            _load_samples(str(path))
        assert str(got.value) == str(want.value)


class TestFigures:
    def test_figure1_schema_and_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["figure", "1", "--output", str(p1)], capsys)[0] == 0
        assert run(["figure", "1", "--output", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        rows = rows_of(p1.read_text())
        assert rows[0] == ["rho", "gamma_closed", "gamma_quadrature"]
        assert len(rows) == 301
        gammas = np.array([float(r[1]) for r in rows[1:]])
        x = np.array([float(r[0]) for r in rows[1:]]) / math.pi
        assert np.all(gammas > 1.0)
        # blows up at the left edge of the first band, dips toward one at
        # the even resonances, levels off at (k+1)/k past each odd integer
        assert gammas[0] > 1000.0
        for even in (2.0, 4.0, 6.0):
            assert np.min(gammas[np.abs(x - even) < 0.1]) < 1.01
        assert gammas[np.argmin(np.abs(x - 3.0))] == pytest.approx(2.0, abs=0.01)
        assert gammas[np.argmin(np.abs(x - 5.0))] == pytest.approx(1.5, abs=0.01)
        quad = np.array([float(r[2]) for r in rows[1:]])
        assert np.max(np.abs(quad - gammas) / gammas) < 1e-5

    def test_figure2_schema(self, capsys, tmp_path):
        path = tmp_path / "f2.csv"
        assert run(["figure", "2", "--output", str(path)], capsys)[0] == 0
        rows = rows_of(path.read_text())
        assert rows[0] == ["t", "gamma_closed", "gamma_quadrature"]
        closed = np.array([float(r[1]) for r in rows[1:]])
        quad = np.array([float(r[2]) for r in rows[1:]])
        assert np.max(np.abs(closed - quad)) < 1e-6
        assert np.all(closed > 1.0)

    def test_figures_4_and_5_profiles(self, capsys, tmp_path):
        p4, p5 = tmp_path / "f4.csv", tmp_path / "f5.csv"
        assert run(["figure", "4", "--output", str(p4)], capsys)[0] == 0
        assert run(["figure", "5", "--output", str(p5)], capsys)[0] == 0
        for p in (p4, p5):
            rows = rows_of(p.read_text())
            assert rows[0] == ["t", "u"]
            assert len(rows) == 2002
        u4 = np.array([float(r[1]) for r in rows_of(p4.read_text())[1:]])
        u5 = np.array([float(r[1]) for r in rows_of(p5.read_text())[1:]])
        assert np.min(u4[1:-1]) > 0
        assert np.min(u5) < 0 < np.max(u5)


def oracle_text(obj):
    return json.dumps(jsonable(obj), indent=2, sort_keys=True)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(),                                  # -0.0, subnormals, inf, nan
    st.sampled_from([-0.0, 5e-324, 2.2250738585072e-308, math.inf, -math.inf,
                     math.nan, 1e16, 1e-7, 0.1]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.text(max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\n\t\r", "é ", "\ud800",
                     "😀"]),
)
_float_lists = st.lists(st.one_of(st.floats(), st.floats().map(np.float64)),
                        max_size=8)
_values = st.recursive(
    st.one_of(_scalars, _float_lists),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner,
                                            max_size=5)),
    max_leaves=40)


class TestJsonWriter:
    """cli._json_text against json.dump of the oracle conversion."""

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_matches_json_dumps(self, obj):
        assert cli._json_text(obj) == oracle_text(obj)

    @pytest.mark.parametrize("obj", [
        [0.1, -0.0, 5e-324, 1e300], (1.5, np.float64(2.5)), [1.0, math.inf],
        [math.nan, 2.0], [1.0, True], [1.0, 2], [], {}, [[]], {"a": {}},
        {"b": 1, "a": [np.float32(0.1)], "c": None}, "\u00e9\x01",
        {1: "x", 2.5: "y", 0: "z"}, {True: 1}, {None: 1}, {math.inf: 1},
    ])
    def test_edge_cases(self, obj):
        assert cli._json_text(obj) == oracle_text(obj)

    @pytest.mark.parametrize("obj", [
        object(), np.array([1.0]), [1 + 2j], {"a": {1, 2}}, {(1, 2): 1},
        {1: 1, "a": 2}, {np.int64(1): 1}, [1.0, np.complex128(1)],
    ])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            oracle_text(obj)
        with pytest.raises(TypeError):
            cli._json_text(obj)

    def test_golden_json_outputs(self, capsys, monkeypatch, tmp_path):
        """Every JSON output of scripts/golden.py is what json.dump of the
        oracle conversion writes for the same object."""
        spec = importlib.util.spec_from_file_location("golden", GOLDEN)
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        files = []
        for name, a in golden.POTENTIALS.items():
            files.append(str(tmp_path / f"{name}.csv"))
            golden.write_samples(tmp_path / f"{name}.csv", a)
        emitted = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json",
                            lambda obj, path: (emitted.append(obj), emit(obj, path)))
        n_json = 0
        for argv in golden.calls(*files):
            if argv[0] != "check" and "json" not in argv:
                continue
            emitted.clear()
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert len(emitted) == 1
            assert out == oracle_text(emitted[0]) + "\n"
            n_json += 1
        assert n_json == 29


def load_golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff",
                                                  GOLDEN.with_name("golden_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_diff_measures_moved_numbers():
    compare = load_golden_diff().compare
    assert compare("gamma = 1.25 (n = 3)\n", "gamma = 1.2500000001 (n = 3)\n") == (
        "structure same, 1 of 2 numbers differ, max|delta| 1.00e-10 / "
        "max|value| 3.00e+00 = 3.3e-11, max|delta|/max(1, |value|) 8.0e-11")
    # relative to each number's own size, and to 1 below it
    assert compare("x 1000.0 y 0.001\n", "x 1000.0000001 y 0.0015\n").endswith(
        "max|delta|/max(1, |value|) 5.0e-04")
    assert compare("u,1e-3\n", "u,-2\n").startswith("structure same, 1 of 1 ")
    assert compare("0.0,1.0\n", "0,1.00\n").startswith("structure same, 0 of 2 ")
    assert compare("ok 1\n", "failed 1\n") == "structure differs"
    assert compare("1,2\n", "1,2,3\n") == "structure differs"


def test_golden_diff_lists_moved_integers_apart():
    # a step count that moves stays out of max|delta|, on its own line
    compare = load_golden_diff().compare
    old = '{"iterations": 65, "u": [0.5, 2]}'
    assert compare(old, '{"iterations": 58, "u": [0.5, 3]}') == (
        "structure same, 2 of 3 numbers differ, max|delta| 0.00e+00 / "
        "max|value| 6.50e+01 = 0.0e+00, max|delta|/max(1, |value|) 0.0e+00\n"
        "    integers moved: iterations 65 -> 58, 2 -> 3")
    assert compare("iterations=10, u=0.25\n", "iterations=10, u=0.5\n") == (
        "structure same, 1 of 2 numbers differ, max|delta| 2.50e-01 / "
        "max|value| 1.00e+01 = 2.5e-02, max|delta|/max(1, |value|) 2.5e-01")


def test_golden_diff_of_a_tree_with_itself(capsys):
    golden_diff = load_golden_diff()
    assert golden_diff.main([str(GOLDEN.parents[1])]) == 0
    assert capsys.readouterr().out == "0 of 72 outputs differ\n"


def test_console_script_runs():
    # the child imports the package this process imported, also where only
    # pytest's pythonpath setting put it on the path
    src = str(Path(greensign.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "greensign.cli", "eigen",
                           "--bc", "neumann", "--rho", "1", "--count", "1"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.startswith("lambda_1 = -1 ")


def test_eigenvalue_search_leaves_numpy_ma_unimported(tmp_path):
    # np.unique, np.union1d and np.isin import numpy.ma on their first call,
    # about 20 ms and 1 MB that every fresh process would pay
    ts = np.linspace(0.0, 1.0, 2001)
    path = tmp_path / "wavy.csv"
    path.write_text("t,a\n" + "\n".join(
        f"{float(t)!r},{float(60 + 10 * np.sin(2 * np.pi * t))!r}" for t in ts))
    src = str(Path(greensign.__file__).resolve().parents[1])
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = ("import sys\n"
             "from greensign.cli import main\n"
             f"main(['eigen', '--bc', 'periodic', '--samples', {str(path)!r}])\n"
             f"main(['classify', '--bc', 'neumann', '--samples', {str(path)!r}])\n"
             "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path_env})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_numeric_paths_leave_numpy_ma_unimported(tmp_path):
    # the same guard for gamma, check and both solves, on samples and on --rho
    ts = np.linspace(0.0, 1.0, 2001)
    path = tmp_path / "wavy.csv"
    path.write_text("t,a\n" + "\n".join(
        f"{float(t)!r},{float(60 + 10 * np.sin(2 * np.pi * t))!r}" for t in ts))
    calls = []
    for pot in (["--bc", "periodic", "--samples", str(path)],
                ["--bc", "dirichlet", "--rho", "sqrt(60)"]):
        calls += [["gamma", *pot], ["check", *pot, "--f", "1 + x/(1+x)"],
                  ["solve", *pot, "--rhs", "1"], ["solve", *pot, "--f", "1 + x/(1+x)"]]
    src = str(Path(greensign.__file__).resolve().parents[1])
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = ("import sys\n"
             "from greensign.cli import main\n"
             f"print([main(argv) for argv in {calls!r}])\n"
             "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path_env})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str([0] * 8), "False"]
