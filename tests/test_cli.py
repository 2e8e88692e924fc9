"""End-to-end runs of the command line through main(argv)."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from edgedist import __version__, cli, dist, painleve, rmt

D2_AT_M2 = 4.132241425051321e-01
# the CLI's refusal of F_4(s, 4), whose table from the jets is wrong
# left of about -6 (ROADMAP item 2)
REFUSED_4_4 = ("error: beta = 4, m = 4 is not served: the largest m "
               "served at beta = 4 is 3\n")


def _no_solve(config=None):
    raise AssertionError("solved before the request was checked")


def data_lines(text):
    return [ln for ln in text.strip().split("\n")
            if ln and not ln.startswith("#")]


def assert_same(csv_rows, json_rows):
    # CSV prints 15 significant digits, JSON the shortest exact repr
    got = np.array([[float(v) for v in row.split(",")] for row in csv_rows])
    np.testing.assert_allclose(got, np.array(list(json_rows), dtype=float),
                               rtol=1e-14, atol=0.0)


class TestArgumentErrors:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_beta(self, capsys):
        assert cli.main(["table", "--beta", "3", "--s", "-2"]) == 2
        capsys.readouterr()

    def test_bad_m_list(self, capsys):
        assert cli.main(["table", "--beta", "2", "--m", "0",
                         "--s", "-2"]) == 2
        assert cli.main(["table", "--beta", "2", "--m", "1,x",
                         "--s", "-2"]) == 2
        capsys.readouterr()

    def test_tw_convention_needs_beta_4(self, capsys):
        assert cli.main(["table", "--beta", "2", "--s", "-2",
                         "--tw-convention"]) == 2
        assert "beta 4" in capsys.readouterr().err

    def test_bad_solver_flag(self, capsys, monkeypatch):
        # the CLI picks its own solve; every solver flag is unknown
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for cmd in (["table", "--beta", "2", "--s", "-2"],
                    ["verify", "--check", "interlacing"]):
            for flag in (["--solver.jet-order", "2"],
                         ["--solver.x-left", "-12"],
                         ["--solver.x-right", "6"]):
                assert cli.main([*cmd, *flag]) == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_m_beyond_jet_order(self, capsys, monkeypatch):
        # refused before any solve, though the library serves m = 5 from
        # a jet-order-4 solve
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for beta, argv in ((1, ["table", "--beta", "1", "--m", "5",
                                "--s", "0"]),
                           (2, ["moments", "--beta", "2", "--m", "1,5"])):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: beta = {beta}, "
                                           f"m = 5 is not served: the "
                                           f"largest m served at beta = "
                                           f"{beta} is 4\n")

    def test_missing_input_file(self, capsys, tmp_path):
        assert cli.main(["percentiles", "--input",
                         str(tmp_path / "nope.csv"), "--beta", "1",
                         "--percentiles", "0.9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ragged_samples(self, capsys, tmp_path):
        # rep 1 lacks the k = 2 value rep 0 has
        path = tmp_path / "ragged.csv"
        path.write_text("0,1,-1.0\n0,2,-2.0\n1,1,-0.5\n")
        assert cli.main(["percentiles", "--input", str(path), "--beta", "1",
                         "--percentiles", "0.5"]) == 2
        assert "rep 1" in capsys.readouterr().err

    def test_duplicate_samples(self, capsys, tmp_path):
        # rep 0 has two k = 1 lines; neither may be dropped silently
        path = tmp_path / "dup.csv"
        path.write_text("0,1,-1.0\n0,1,-2.0\n1,1,-0.5\n")
        assert cli.main(["percentiles", "--input", str(path), "--beta", "1",
                         "--percentiles", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "duplicate" in err and "rep 0" in err and "k = 1" in err

    def test_nan_percentile(self, capsys, monkeypatch):
        # a level that can never be valid is refused before sampling
        def collect(cfg):
            raise AssertionError("sampled before the levels were checked")
        monkeypatch.setattr(rmt, "collect", collect)
        for level in ("nan", "-0.1", "1.5", "0", "1"):
            assert cli.main(["simulate", "--ensemble", "goe", "--n", "50",
                             "--reps", "20", "--percentiles",
                             f"0.5,{level}"]) == 2
            err = capsys.readouterr().err
            assert "(0, 1)" in err and "Traceback" not in err

    def test_one_rep_refused(self, capsys, monkeypatch):
        # the sample statistics need two reps: refused before any solve
        # or sampling, not after every rep was drawn
        def collect(cfg):
            raise AssertionError("sampled before --reps was checked")
        monkeypatch.setattr(rmt, "collect", collect)
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for argv in (["simulate", "--ensemble", "goe", "--n", "5"],
                     ["wishart", "--rows", "20", "--cols", "10",
                      "--percentiles", "0.5"]):
            for reps in ("1", "0"):
                assert cli.main([*argv, "--reps", reps]) == 2
                assert capsys.readouterr().err == (
                    f"error: --reps must be >= 2 for the sample "
                    f"statistics, got {reps}\n")

    def test_flags_of_the_other_ensemble_refused(self, capsys,
                                                  monkeypatch):
        # --rows and --cols are Wishart's, --n the Gaussian ensembles':
        # refused before any solve or sampling, not ignored
        def collect(cfg):
            raise AssertionError("sampled before the flags were checked")
        monkeypatch.setattr(rmt, "collect", collect)
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for extra, err in (
                (["--ensemble", "goe", "--n", "20", "--rows", "100",
                  "--cols", "7"], "--rows applies to wishart only, not goe"),
                (["--ensemble", "gse", "--n", "20", "--cols", "7"],
                 "--cols applies to wishart only, not gse"),
                (["--ensemble", "wishart", "--n", "20", "--rows", "10",
                  "--cols", "5"], "--n applies to goe, gue and gse only; "
                 "wishart takes --rows and --cols")):
            for pct in ([], ["--percentiles", "0.5"]):
                assert cli.main(["simulate", *extra, "--reps", "3",
                                 *pct]) == 2
                assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_top_k_beyond_jet_order(self, capsys, monkeypatch):
        # a percentile report the jets cannot serve is refused before
        # sampling; without --percentiles the same top k is sampled
        def collect(cfg):
            raise AssertionError("sampled before top k was checked")
        monkeypatch.setattr(rmt, "collect", collect)
        for cmd in (["simulate", "--ensemble", "goe", "--n", "200"],
                    ["wishart", "--rows", "100", "--cols", "400"]):
            argv = [*cmd, "--reps", "200", "--top-k", "5"]
            assert cli.main([*argv, "--percentiles", "0.5"]) == 2
            assert capsys.readouterr() == ("", "error: beta = 1, m = 5 is "
                                           "not served: the largest m "
                                           "served at beta = 1 is 4\n")
            with pytest.raises(AssertionError, match="sampled"):
                cli.main(argv)

    @pytest.mark.parametrize("bad", ["1,1", "1,1,-2.0,7", "x,1,-2.0",
                                     "1,1,abc"])
    def test_malformed_samples(self, capsys, tmp_path, bad):
        # too few fields, too many, a rep that is no integer, a value
        # that is no number
        path = tmp_path / "bad.csv"
        path.write_text(f"# samples\n0,1,-1.0\n{bad}\n2,1,-2.0\n")
        assert cli.main(["percentiles", "--input", str(path), "--beta", "1",
                         "--percentiles", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err and bad in err

    def test_non_finite_samples(self, capsys, tmp_path):
        # neither may be counted as lying above every ordinate
        for bad in ("nan", "inf"):
            path = tmp_path / f"{bad}.csv"
            path.write_text(f"0,1,-1.0\n1,1,{bad}\n2,1,-2.0\n")
            assert cli.main(["percentiles", "--input", str(path),
                             "--beta", "1", "--percentiles", "0.5"]) == 2
            err = capsys.readouterr().err
            assert "non-finite" in err and "rep 1 k = 1" in err

    @pytest.mark.parametrize("grid", [["--s-max", "inf"], ["--s-min=-inf"],
                                      ["--s-step", "1e-6"],
                                      ["--s-step", "1e-8"]])
    def test_oversized_grid(self, grid):
        # 19 M and 1.9 G points would exhaust memory, and inf points
        # cannot be counted; all are refused before any array is built.
        # A child process under a 3 GiB address-space limit keeps a
        # regression from taking this machine's memory with it.
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from edgedist import cli, painleve\n"
            "def solve(config=None):\n"
            "    raise AssertionError('solved')\n"
            "painleve.solve = solve\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        run = subprocess.run([sys.executable, "-c", child, "table",
                              "--beta", "2", *grid], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 2
        assert run.stderr.startswith("error: the grid from ")
        assert "more than 1000000 points" in run.stderr
        assert "Traceback" not in run.stderr

    def test_non_finite_point(self, capsys, monkeypatch):
        # refused before any solve, naming the flag; -inf would make the
        # solve's left end -inf
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for s in ("-inf", "inf", "nan"):
            assert cli.main(["table", "--beta", "2", f"--s={s}"]) == 2
            assert capsys.readouterr().err == (f"error: --s must be "
                                               f"finite, got {s}\n")

    def test_far_left_grid_refused(self, capsys, monkeypatch):
        # refused before any solve, naming the bound: solves from x_left
        # = -34 and further left fail in the jet sweep after seconds of
        # work; -32 is served
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for grid, left in ((["--s", "-40"], "-40"),
                           (["--s-min", "-32.5", "--s-max", "0"], "-32.5")):
            assert cli.main(["table", "--beta", "2", *grid]) == 2
            assert capsys.readouterr() == ("", f"error: s = {left} lies left "
                                           f"of -32, the furthest left the "
                                           f"solve reaches\n")
        # the Tracy-Widom table reads F_4 at sqrt(2) s, and names the
        # bound in its own units
        tw = ["table", "--beta", "4", "--tw-convention", "--s"]
        assert cli.main([*tw, "-23"]) == 2
        assert capsys.readouterr() == ("", "error: s = -23 lies left of "
                                       "-22.6274169979695, the furthest "
                                       "left the solve reaches\n")
        # right of specfun.XMAX = 60 the Airy tails refuse, so the grid is
        # refused before the solve too
        for argv, right, bound in (
                (["table", "--beta", "2", "--s", "61"], "61", "60"),
                ([*tw, "43"], "43", "42.4264068711928")):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: s = {right} lies "
                                           f"right of {bound}, the furthest "
                                           f"right the Airy tails reach\n")
        for argv in (["table", "--beta", "2", "--s", "-32"], [*tw, "-22.6"],
                     ["table", "--beta", "2", "--s", "60"], [*tw, "42.4"]):
            with pytest.raises(AssertionError, match="solved before"):
                cli.main(argv)

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range(self, capsys, seed):
        # a usage error, not an OverflowError from the generator key
        assert cli.main(["simulate", "--ensemble", "goe", "--n", "5",
                         "--reps", "2", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: seed must be in [0, 2**64), "
                                f"got {seed}\n")
        assert captured.out == ""

    def test_largest_grid_is_served(self, monkeypatch):
        # 999,999.000001 steps round to 1,000,000 points: the limit
        monkeypatch.setattr(painleve, "solve", _no_solve)
        with pytest.raises(AssertionError, match="solved before"):
            cli.main(["table", "--beta", "2", "--s-min", "0", "--s-max",
                      "1", "--s-step", "1.000001e-6"])

    def test_step_must_divide_the_range(self, capsys, monkeypatch):
        # refused before any solve; the grid would not hold lo + step
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for step in ("0.3", "3"):
            assert cli.main(["table", "--beta", "2", "--s-min", "0",
                             "--s-max", "1", "--s-step", step]) == 2
            assert capsys.readouterr() == ("", f"error: --s-step {step} "
                                           f"does not divide the range "
                                           f"from 0 to 1\n")

    @pytest.mark.parametrize("lo, hi, step, points", [
        (-13.0, 6.0, 0.01, 1901), (-18.0, 9.5, 0.05, 551),
        (-6.0, 3.0, 0.25, 37), (0.0, 1.0, 1.000001e-6, 1_000_000)])
    def test_dividing_steps_are_served(self, lo, hi, step, points):
        # the default grid, the wide and JSON grids of
        # tools/cli_digests.py and the largest grid served
        grid = cli._grid(lo, hi, step)
        assert (grid.size, grid[0], grid[-1]) == (points, lo, hi)

    def test_table_refuses_beta4_m4(self, capsys, monkeypatch):
        # refused before any solve, alone or in a list; m = 4 at beta 1
        # and 2 is served
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for argv in (["table", "--beta", "4", "--m", "4", "--s", "-9"],
                     ["table", "--beta", "4", "--m", "1,2,3,4",
                      "--tw-convention", "--json"]):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", REFUSED_4_4)
        for beta in ("1", "2"):
            with pytest.raises(AssertionError, match="solved before"):
                cli.main(["table", "--beta", beta, "--m", "4", "--s", "-9"])

    def test_moments_refuse_beta4_m4(self, capsys, monkeypatch):
        monkeypatch.setattr(painleve, "solve", _no_solve)
        for m in ("4", "1,2,3,4"):
            assert cli.main(["moments", "--beta", "4", "--m", m]) == 2
            assert capsys.readouterr() == ("", REFUSED_4_4)
        with pytest.raises(AssertionError, match="solved before"):
            cli.main(["moments", "--beta", "4", "--m", "1,2,3"])

    def test_gse_top_4_report_refused(self, capsys, monkeypatch):
        # refused before sampling; without --percentiles, or with top
        # k 3, the same request is sampled
        def collect(cfg):
            raise AssertionError("sampled before top k was checked")
        monkeypatch.setattr(rmt, "collect", collect)
        argv = ["simulate", "--ensemble", "gse", "--n", "20", "--reps",
                "20", "--top-k", "4"]
        assert cli.main([*argv, "--percentiles", "0.5"]) == 2
        assert capsys.readouterr() == ("", REFUSED_4_4)
        for served in (argv, [*argv[:-1], "3", "--percentiles", "0.5"]):
            with pytest.raises(AssertionError, match="sampled"):
                cli.main(served)

    def test_percentiles_refuse_beta4_k4(self, capsys, monkeypatch,
                                         tmp_path):
        # a file that holds k = 4 is read against F_4(s, 4) at beta 4
        monkeypatch.setattr(painleve, "solve", _no_solve)
        path = tmp_path / "top4.csv"
        path.write_text("".join(f"{rep},{k},{-1.5 * k - 0.1 * rep}\n"
                                for rep in range(3) for k in range(1, 5)))
        argv = ["percentiles", "--input", str(path), "--percentiles", "0.5"]
        assert cli.main([*argv, "--beta", "4"]) == 2
        assert capsys.readouterr() == ("", REFUSED_4_4)
        with pytest.raises(AssertionError, match="solved before"):
            cli.main([*argv, "--beta", "1"])


def test_served_pairs_are_the_sound_ones(sol_default):
    # the capability table is the evidence: on the CLI's moment grid,
    # from the same solve, every pair it serves has f >= -1e-10, F
    # nondecreasing in s and F(s, m) >= F(s, m - 1) within 1e-10 (the
    # worst measures 5.8e-14); every pair with m <= 4 that it refuses
    # breaks one of these.  Serving (4, 4) again needs a new route
    for beta in (1, 2, 4):
        below = np.zeros_like(cli._MOMENT_GRID)
        for m in range(1, 5):
            req = dist.DistRequest(beta=beta, m=m, s_grid=cli._MOMENT_GRID)
            t = dist.cdf(req, sol_default)
            sound = (t.f.min() >= -1e-10 and np.diff(t.F).min() >= -1e-10
                     and (t.F - below).min() >= -1e-10)
            assert sound == (m <= cli._MAX_M[beta]), (beta, m)
            below = t.F


@pytest.mark.parametrize("argv, x_left, jet_order", [
    (["table", "--beta", "2", "--m", "1", "--s", "0"], -13.5, 4),
    (["table", "--beta", "2", "--m", "1,2", "--s", "0"], -13.5, 4),
    (["moments", "--beta", "2", "--m", "1"], -13.5, 4),
    (["verify", "--check", "oracle"], -13.5, 4),
    (["verify", "--check", "asymptotics"], -13.5, 4),
    (["verify", "--check", "interlacing"], -13.5, 4),
    (["table", "--beta", "2", "--m", "1,2", "--s-min", "-18", "--s-max",
      "9.5", "--s-step", "0.05"], -32.0, 4),
    (["simulate", "--ensemble", "gue", "--n", "10", "--reps", "5",
      "--percentiles", "0.5"], -13.5, 4),
])
def test_solve_follows_the_request(capsys, monkeypatch, argv, x_left,
                                   jet_order):
    # every served request reads the one solve, SolverConfig(): x_left =
    # -13.5 at jet order 4; verify reads it too.  A grid that reaches
    # left of -13.5 reads the far solve from -32 for those points first
    configs, solve = [], painleve.solve

    def record(config=None):
        configs.append(config or painleve.SolverConfig())
        return solve(config)
    monkeypatch.setattr(painleve, "solve", record)
    assert cli.main(argv) == 0
    capsys.readouterr()
    expected = [(x_left, jet_order)]
    if x_left < -13.5:
        expected.append((-13.5, jet_order))
    assert [(c.x_left, c.jet_order) for c in configs] == expected


@pytest.mark.parametrize("beta, m, s", [(4, 3, -8.5), (2, 3, -2.5),
                                        (1, 4, -4.0), (2, 4, -12.0),
                                        (4, 3, -15.0)])
def test_value_does_not_depend_on_the_request(capsys, beta, m, s):
    # a point asked alone, the same point as a row of tables from -20
    # and -32 and of the default table when it holds it, and dist.cdf on
    # the library's solve of that side of -13.5 give the same bits
    argv = ["table", "--beta", str(beta), "--m", str(m), "--json"]
    extras = [["--s", str(s)]] + [["--s-min", lo, "--s-max", "6",
                                   "--s-step", "0.5"]
                                  for lo in ("-20", "-32")]
    if s >= cli._TABLE_GRID[0]:
        extras.append([])
    values = []
    for extra in extras:
        assert cli.main(argv + extra) == 0
        block = json.loads(capsys.readouterr().out)["tables"][0]
        row = block["s"].index(s)
        values.append((block["F"][row], block["f"][row]))
    far = s < painleve.SolverConfig.x_left
    cfg = painleve.SolverConfig(x_left=-32.0) if far else None
    t = dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=[s]),
                 painleve.solve(cfg))
    values.append((float(t.F[0]), float(t.f[0])))
    assert values[0][0] > 0.0
    assert values == [values[0]] * len(values)


def test_cli_reaches_two_cache_files(capsys, monkeypatch, tmp_path):
    # the served solve and the far solve from -32: a new far-left start
    # reads the far solve's file, it does not write one of its own
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for extra in ([], ["--s", "-15"], ["--s", "-20"],
                  ["--s-min", "-18", "--s-max", "9.5", "--s-step", "0.05"]):
        assert cli.main(["table", "--beta", "2", "--m", "1,2", *extra]) == 0
    capsys.readouterr()
    files = sorted(p.name.split("-", 1)[1]
                   for p in (tmp_path / "edgedist").glob("*.npz"))
    assert files == ["x-13.5-j4.npz", "x-32.0-j4.npz"]


def test_verify_solves(capsys, monkeypatch):
    # every check reads the served solve, SolverConfig(), and the oracle
    # check its lambda = 0.5 sweep on the same interval
    calls, solve, at_lambda = [], painleve.solve, painleve.solve_at_lambda

    def record(config=None):
        sol = solve(config)
        calls.append(("solve", sol.config.x_left, sol.config.jet_order))
        return sol

    def record_at_lambda(lam, config=None):
        sol = at_lambda(lam, config)
        calls.append((lam, sol.config.x_left, sol.config.jet_order))
        return sol
    monkeypatch.setattr(painleve, "solve", record)
    monkeypatch.setattr(painleve, "solve_at_lambda", record_at_lambda)
    for check in ("oracle", "asymptotics", "interlacing"):
        assert cli.main(["verify", "--check", check]) == 0
    capsys.readouterr()
    assert calls == [("solve", -13.5, 4), (0.5, -13.5, 0),
                     ("solve", -13.5, 4), ("solve", -13.5, 4)]


def test_table_single_point(tmp_path):
    out = tmp_path / "point.csv"
    rc = cli.main(["table", "--beta", "2", "--m", "1", "--s", "-2",
                   "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# edgedist ")
    assert "# beta=2 m=1" in text
    rows = data_lines(text)
    assert rows[0] == "s,F,f"
    s, F, f = (float(tok) for tok in rows[1].split(","))
    assert s == -2.0
    assert abs(F - D2_AT_M2) <= 1e-9
    assert f > 0.0
    # the writer must not leave temp files behind
    assert os.listdir(tmp_path) == ["point.csv"]


def test_single_point_is_a_grid_row(capsys):
    # --s evaluates the one point: F and f are the bytes of that row of
    # a grid table, whatever the grid's step
    argv = ["table", "--beta", "2", "--m", "1,2"]
    assert cli.main(argv + ["--s", "-3"]) == 0
    point = data_lines(capsys.readouterr().out)
    assert cli.main(argv + ["--s-min", "-3", "--s-max", "-2",
                            "--s-step", "0.25"]) == 0
    grid = data_lines(capsys.readouterr().out)
    assert len(point) == 4 and point[1].startswith("-3,")
    assert point == [row for row in grid
                     if row == "s,F,f" or row.startswith("-3,")]


def test_table_grid_json(tmp_path):
    out = tmp_path / "t.json"
    rc = cli.main(["table", "--beta", "4", "--m", "1,2",
                   "--s-min", "-6", "--s-max", "2", "--s-step", "0.5",
                   "--json", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [t["m"] for t in doc["tables"]] == [1, 2]
    f1 = np.array(doc["tables"][0]["F"])
    f2 = np.array(doc["tables"][1]["F"])
    for F in (f1, f2):
        assert np.all(F >= 0.0) and np.all(F <= 1.0)
        assert np.all(np.diff(F) >= -1e-12)
    # the second-largest eigenvalue lies left of the largest
    assert np.all(f2 >= f1 - 1e-12)


def test_tw_convention_rescales_argument(tmp_path):
    plain = tmp_path / "plain.csv"
    tw = tmp_path / "tw.csv"
    s_tw = -2.0
    s_plain = s_tw * math.sqrt(2.0)
    assert cli.main(["table", "--beta", "4", "--s", repr(s_plain),
                     "-o", str(plain)]) == 0
    assert cli.main(["table", "--beta", "4", "--s", repr(s_tw),
                     "--tw-convention", "-o", str(tw)]) == 0
    _, F_p, f_p = (float(t) for t in data_lines(plain.read_text())[1]
                   .split(","))
    s_t, F_t, f_t = (float(t) for t in data_lines(tw.read_text())[1]
                     .split(","))
    assert s_t == s_tw
    assert abs(F_t - F_p) <= 1e-10
    assert f_t == pytest.approx(f_p * math.sqrt(2.0), rel=1e-8)
    # anchor: Bornemann's (2010) GSE mean -2.306885 in the Tracy-Widom
    # normalization is -3.262428 = sqrt(2) * -2.306885 in this library's
    assert cli.main(["table", "--beta", "4", "--s", "-2.306885",
                     "--tw-convention", "-o", str(tw)]) == 0
    assert cli.main(["table", "--beta", "4", "--s", "-3.262428",
                     "-o", str(plain)]) == 0
    F_t = float(data_lines(tw.read_text())[1].split(",")[1])
    F_p = float(data_lines(plain.read_text())[1].split(",")[1])
    assert abs(F_t - F_p) <= 1e-6


def test_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    rc = cli.main(["moments", "--beta", "2", "--m", "1", "-o", str(out)])
    assert rc == 0
    rows = data_lines(out.read_text())
    assert rows[0] == "beta,m,mean,sd,skewness,kurtosis"
    beta, m, mean, sd, skew, kurt = rows[1].split(",")
    assert (beta, m) == ("2", "1")
    assert float(mean) == pytest.approx(-1.771087, abs=2e-3)
    assert float(sd) == pytest.approx(0.901773, abs=2e-3)
    assert float(skew) == pytest.approx(0.224084, abs=2e-3)
    assert float(kurt) == pytest.approx(0.093448, abs=2e-3)


def test_moments_beta1_kurtosis_against_bornemann(capsys):
    # Bornemann, Markov Process. Related Fields 16 (2010): the GOE excess
    # kurtosis is 0.1652429384.  It is the moment most sensitive to the
    # right tail the moment grid cuts off: cut at s = 9.5 it is 4.4e-7 off
    assert cli.main(["moments", "--beta", "1"]) == 0
    kurt = float(data_lines(capsys.readouterr().out)[1].split(",")[5])
    assert abs(kurt - 0.1652429384) <= 1e-9


def test_simulate_rerun_identical(tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--ensemble", "gue", "--n", "6", "--reps", "15",
            "--seed", "4", "--top-k", "2", "-o", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    text = first.decode()
    assert "# seed: 4" in text
    assert "# failed reps: 0" in text
    assert "# stats k=1:" in text and "# stats k=2:" in text
    rows = data_lines(text)
    assert rows[0] == "rep,k,lhat"
    assert len(rows) == 1 + 15 * 2


def test_simulate_json_stdout(capsys):
    rc = cli.main(["simulate", "--ensemble", "goe", "--n", "5",
                   "--reps", "6", "--seed", "1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ensemble"] == "goe"
    assert doc["failed_reps"] == 0
    assert len(doc["samples"]) == 6
    assert len(doc["stats"]) == 1
    assert doc["seed"] == 1


def test_wishart_alias_matches_simulate(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["wishart", "--rows", "6", "--cols", "4",
                     "--reps", "5", "--seed", "2", "--top-k", "2",
                     "-o", str(a)]) == 0
    assert cli.main(["simulate", "--ensemble", "wishart", "--rows", "6",
                     "--cols", "4", "--reps", "5", "--seed", "2",
                     "--top-k", "2", "-o", str(b)]) == 0
    assert data_lines(a.read_text()) == data_lines(b.read_text())


def test_wishart_needs_shape(capsys):
    assert cli.main(["wishart", "--reps", "5"]) == 2
    assert "rows" in capsys.readouterr().err


def test_verify_aj(capsys):
    rc = cli.main(["verify", "--check", "aj"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# edgedist ")
    assert "aj jets vs recursion" in out
    assert "PASS" in out and "FAIL" not in out


def test_verify_oracle_json(capsys):
    rc = cli.main(["verify", "--check", "oracle", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["passed"] is True
    assert len(doc["results"]) == 3


def test_percentile_round_trip(tmp_path, capsys):
    sim = tmp_path / "samples.csv"
    assert cli.main(["simulate", "--ensemble", "goe", "--n", "50",
                     "--reps", "400", "--seed", "7", "-o", str(sim)]) == 0
    rep = tmp_path / "report.csv"
    rc = cli.main(["percentiles", "--input", str(sim), "--beta", "1",
                   "--percentiles", "0.5,0.9", "-o", str(rep)])
    assert rc == 0
    rows = data_lines(rep.read_text())
    assert rows[0] == "percentile,ordinate_1,proportion_1"
    got = {}
    for ln in rows[1:]:
        p, o, q = (float(t) for t in ln.split(","))
        got[p] = (o, q)
    assert set(got) == {0.5, 0.9}
    # ordinates come from the limit law; proportions from a small finite
    # matrix, so agreement is loose
    assert got[0.5][0] < got[0.9][0]
    assert got[0.5][1] == pytest.approx(0.5, abs=0.12)
    assert got[0.9][1] == pytest.approx(0.9, abs=0.12)


def test_percentiles_use_the_k_read(capsys, tmp_path, beta2_tables):
    # a file of second-largest eigenvalues only is read against
    # F_2(s, 2), not against the law of the largest
    path = tmp_path / "k2only.csv"
    path.write_text("".join(f"{rep},2,{v}\n" for rep, v in
                            enumerate((-3.0, -4.5, -4.1, -3.2))))
    argv = ["percentiles", "--input", str(path), "--beta", "2",
            "--percentiles", "0.5"]
    assert cli.main(argv) == 0
    columns, row = data_lines(capsys.readouterr().out)
    assert columns == "percentile,ordinate_2,proportion_2"
    assert cli.main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == [2]
    medians = [rmt._invert_cdf(t, 0.5) for t in beta2_tables]
    assert doc["ordinates"] == [[pytest.approx(medians[1], rel=1e-12)]]
    assert abs(medians[1] - medians[0]) > 1.0
    assert doc["proportions"] == [[0.5]]


def test_csv_and_json_carry_the_same_numbers(capsys, tmp_path):
    def run(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def both(argv):
        text, doc = run(argv), json.loads(run(argv + ["--json"]))
        head = [f"# edgedist {__version__}", "# flags: " + " ".join(argv)]
        assert text.split("\n")[:2] == head
        assert (doc["version"], doc["flags"]) == (__version__,
                                                  argv + ["--json"])
        return text, doc

    def check_report(text, report):
        columns, *rows = data_lines(text)
        # one ordinate/proportion pair per eigenvalue index
        assert columns == ("percentile,ordinate_1,proportion_1,"
                           "ordinate_2,proportion_2")
        assert_same(rows, ([p, o[0], q[0], o[1], q[1]] for p, o, q in
                           zip(report["levels"], report["ordinates"],
                               report["proportions"])))

    text, doc = both(["table", "--beta", "2", "--m", "1,2", "--s-min", "-3",
                      "--s-max", "0", "--s-step", "0.5"])
    blocks = text.split("# beta=2 m=")[1:]
    assert len(blocks) == len(doc["tables"]) == 2
    for block, tab in zip(blocks, doc["tables"]):
        m, columns, *rows = block.strip().split("\n")
        assert (int(m), columns) == (tab["m"], "s,F,f")
        assert_same(rows, zip(tab["s"], tab["F"], tab["f"]))

    text, doc = both(["moments", "--beta", "2", "--m", "1,2"])
    columns, *rows = data_lines(text)
    assert columns.split(",") == list(doc["moments"][0])
    assert_same(rows, (list(r.values()) for r in doc["moments"]))

    argv = ["simulate", "--ensemble", "gue", "--n", "6", "--reps", "15",
            "--seed", "4", "--top-k", "2", "--percentiles", "0.5,0.9"]
    text, doc = both(argv)
    assert text.split("\n")[2] == "# seed: 4" and doc["seed"] == 4
    assert f"# failed reps: {doc['failed_reps']}" in text
    stats = [ln.split(": ", 1)[1].split() for ln in text.split("\n")
             if ln.startswith("# stats k=")]
    assert len(stats) == len(doc["stats"]) == 2
    for fields, st in zip(stats, doc["stats"]):
        got = dict(f.split("=") for f in fields)
        assert set(got) == set(st) - {"k"}
        for key, v in got.items():
            assert float(v) == pytest.approx(st[key], rel=1e-14)
    sim, report = text.split("# percentile report\n")
    columns, *rows = data_lines(sim)
    assert columns == "rep,k,lhat"
    assert_same(rows, ((i, k, v) for i, row in enumerate(doc["samples"])
                       for k, v in enumerate(row, 1)))
    check_report(report, doc["percentiles"])

    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    text, rdoc = both(["percentiles", "--input", str(samples), "--beta", "2",
                       "--percentiles", "0.5,0.9"])
    check_report(text, rdoc)
    assert rdoc["beta"] == 2
    # the re-read sample reproduces the simulation's own report
    assert {k: rdoc[k] for k in doc["percentiles"]} == doc["percentiles"]

    text, doc = both(["verify", "--check", "aj"])
    lines = text.strip().split("\n")[2:]
    assert len(lines) == len(doc["results"]) == 1
    for ln, res in zip(lines, doc["results"]):
        label, resid, tol, status = re.fullmatch(
            r"(.*): max residual (\S+) \(threshold (\S+)\) (PASS|FAIL)",
            ln).groups()
        assert label == res["label"]
        assert float(resid) == pytest.approx(res["residual"], rel=5e-3)
        assert float(tol) == res["threshold"]
        assert (status == "PASS") == doc["passed"]
