import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ssnpath import (
    DimensionMismatch,
    MetricsRecord,
    PathConfig,
    ProblemData,
    SelectorResult,
    SimConfig,
    default_lambda0,
    hbic_select,
    make_instance,
    normalize,
    solve_path,
    write_metrics_csv,
    write_path_csv,
)
from ssnpath import metrics
from ssnpath.cli import cli_main
from ssnpath.io import load_matrix, load_vector, save_instance, save_matrix


@pytest.fixture
def csv_instance(tmp_path):
    cfg = SimConfig(n=60, p=40, design="classical", corr=0.2, sigma=0.05, T=3, seed=99)
    prob, truth = make_instance(cfg)
    x_path = tmp_path / "X.csv"
    y_path = tmp_path / "y.csv"
    save_matrix(x_path, prob.X)
    save_matrix(y_path, prob.y)
    return x_path, y_path, prob, truth


class TestIo:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3))
        path = tmp_path / "m.csv"
        save_matrix(path, X)
        np.testing.assert_array_equal(load_matrix(path), X)

    def test_vector_roundtrip(self, tmp_path):
        y = np.array([1.5, -2.25, 1e-17])
        path = tmp_path / "v.csv"
        save_matrix(path, y)
        np.testing.assert_array_equal(load_vector(path), y)

    @pytest.mark.parametrize("text", ["1,2,3\n", "1,2\n3,4\n"], ids=["one-row", "two-column"])
    def test_vector_file_must_be_one_column(self, tmp_path, text):
        # a transposed response would otherwise load as a vector of its row's length
        path = tmp_path / "v.csv"
        path.write_text(text)
        with pytest.raises(DimensionMismatch, match="columns, not 1"):
            load_vector(path)

    @pytest.mark.parametrize("text, y", [("2.5\n", [2.5]), ("1\n-2\n", [1.0, -2.0])],
                             ids=["one-value", "one-column"])
    def test_vector_from_one_value_or_one_column(self, tmp_path, text, y):
        path = tmp_path / "v.csv"
        path.write_text(text)
        got = load_vector(path)
        assert got.shape == (len(y),)
        np.testing.assert_array_equal(got, y)

    def test_single_row_matrix_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(path, np.array([[1.0, 2.0, 3.0]]))
        assert load_matrix(path).shape == (1, 3)

    def test_instance_sidecar_records_config_and_truth(self, tmp_path):
        cfg = SimConfig(n=20, p=10, design="autocorr", corr=0.3, sigma=0.1, T=2, seed=(4, 5))
        prob, truth = make_instance(cfg)
        _, _, meta_path = save_instance(tmp_path / "inst", prob.X, prob.y, cfg, truth)
        with open(meta_path) as f:
            meta = json.load(f)
        assert meta["sim"] == {"n": 20, "p": 10, "design": "autocorr", "corr": 0.3,
                               "sigma": 0.1, "T": 2, "seed": [4, 5]}
        beta = np.zeros(cfg.p)
        beta[meta["truth"]["support"]] = meta["truth"]["values"]
        np.testing.assert_array_equal(beta, truth.beta_true)
        assert meta["truth"]["sigma"] == truth.sigma

    def test_instance_sidecar_bytes(self, tmp_path):
        cfg = SimConfig(n=20, p=10, design="classical", corr=0.3, sigma=0.1, T=2, seed=(1, 2, 3))
        prob, truth = make_instance(cfg)
        _, _, meta_path = save_instance(tmp_path, prob.X, prob.y, cfg, truth)
        sim = {"n": 20, "p": 10, "design": "classical", "corr": 0.3, "sigma": 0.1, "T": 2,
               "seed": [1, 2, 3]}
        values = [float(v) for v in truth.beta_true[truth.support]]
        expected = {"sim": sim, "truth": {"support": [int(j) for j in truth.support],
                                          "values": values, "sigma": 0.1}}
        assert Path(meta_path).read_text() == json.dumps(expected, indent=2) + "\n"


class TestCli:
    def test_path_command(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "path.csv"
        coefs = tmp_path / "coefs.csv"
        code = cli_main([
            "path", "--x", str(x_path), "--y", str(y_path), "--gamma", "0.7",
            "--knots", "30", "--alpha", "0", "--k", "1",
            "--selector", "mbic", "--out", str(out), "--coef-out", str(coefs),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "#schema=1"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert 1 <= len(data) <= 30
        assert lines[-1].startswith("#selector,mbic,")
        assert coefs.exists()

    def test_path_hbic_selector_row(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "path.csv"
        code = cli_main([
            "path", "--x", str(x_path), "--y", str(y_path), "--gamma", "0.7",
            "--knots", "30", "--selector", "hbic", "--out", str(out),
        ])
        assert code == 0
        prob = normalize(load_matrix(x_path), load_vector(y_path))
        path = solve_path(prob, PathConfig(lambda0=default_lambda0(prob), gamma=0.7,
                                           num_knots=30, max_inner=1))
        expected = io.StringIO()
        write_path_csv(path, expected, selector=hbic_select(prob, path))
        row = expected.getvalue().strip().split("\n")[-1]
        assert row.startswith("#selector,hbic,")
        assert out.read_text().strip().split("\n")[-1] == row

    def test_solve_command(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "beta.csv"
        code = cli_main([
            "solve", "--x", str(x_path), "--y", str(y_path),
            "--lambda", "1.0", "--out", str(out),
        ])
        assert code == 0
        assert "stop=active_set_repeated" in capsys.readouterr().out
        assert out.read_text().startswith("#schema=1\nindex,value\n")

    def test_simulate_and_check_commands(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code = cli_main([
            "simulate", "--sim", "n=30,p=20,rho=0.2,sigma=0.05,T=2",
            "--seed", "7", "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "X.csv").exists() and (out_dir / "y.csv").exists()
        meta = json.loads((out_dir / "instance.json").read_text())
        assert meta["sim"]["n"] == 30 and len(meta["truth"]["support"]) == 2
        capsys.readouterr()  # drain the simulate output

        code = cli_main(["check", "--sim", "n=40,p=20,nu=0.0,sigma=0.001,T=2", "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"coherence", "a1_holds", "a2_holds", "lambda_u"}

    def test_check_stdout_and_out_file_bytes_agree(self, tmp_path, capsys):
        argv = ["check", "--sim", "n=40,p=20,rho=0.3,sigma=0.01,T=2", "--seed", "5"]
        assert cli_main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert cli_main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        assert printed.endswith("}\n") and not printed.endswith("\n\n")
        assert printed.splitlines()[1].startswith('  "coherence": ')

    def test_check_one_column_design(self, capsys):
        # log p = 0 puts the noise floor at 0, so no recovery grid exists
        code = cli_main(["check", "--sim", "n=20,p=1,rho=0.5,sigma=0.1,T=1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda_u"] == 0.0 and report["recovery_last_knot"] is None

    def test_bench_command(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = cli_main([
            "bench", "--sim", "n=40,p=60,rho=0.1,sigma=0.05,T=2",
            "--reps", "2", "--seed", "1", "--solver", "snap", "--selector", "mbic",
            "--knots", "30", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "#schema=1" and len(lines) == 3

    def test_bench_hbic_selector_row(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = cli_main([
            "bench", "--sim", "n=40,p=60,rho=0.1,sigma=0.05,T=2", "--reps", "1",
            "--selector", "hbic", "--knots", "30", "--out", str(out),
        ])
        assert code == 0
        header, row = (line.split(",") for line in out.read_text().strip().split("\n")[1:])
        assert row[header.index("selector")] == "hbic"

    @pytest.mark.parametrize("command", ["path", "bench"])
    def test_unknown_selector_exits_one(self, tmp_path, csv_instance, capsys, command):
        x_path, y_path, _, _ = csv_instance
        argv = (["path", "--x", str(x_path), "--y", str(y_path), "--out", str(tmp_path / "o")]
                if command == "path" else ["bench", "--preset", "small", "--reps", "1"])
        assert cli_main(argv + ["--selector", "aic"]) == 1
        assert "invalid choice: 'aic'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bench_cell_without_true_nonzeros_exits_one_before_fitting(self, capsys):
        # the relative error of an all-zero target is undefined; the cell used
        # to fit a whole path first and then exit 2 on ZeroTruth
        fits = []
        with mock.patch.object(metrics, "solve_path", side_effect=fits.append):
            code = cli_main(["bench", "--sim", "n=50,p=100,rho=0.1,sigma=0.1,T=0", "--reps", "1"])
        assert code == 1 and fits == []
        assert capsys.readouterr().err.startswith("error: cell 0 (50 x 100) has T = 0")

    @pytest.mark.parametrize("grid", [
        ["--preset", "small", "--sim", "n=40,p=60,rho=0.1,sigma=0.05,T=2"],
        ["--preset", "nope"],
        [],
    ], ids=["preset-and-sim", "unknown-preset", "neither"])
    def test_bench_grid_usage_error_prints_usage_and_exits_one(self, capsys, grid):
        fits = []
        with mock.patch.object(metrics, "solve_path", side_effect=fits.append):
            assert cli_main(["bench", *grid, "--reps", "1"]) == 1
        assert fits == []
        assert capsys.readouterr().err.startswith("usage: ssnpath bench ")

    def test_usage_errors_exit_one(self, capsys):
        assert cli_main(["path", "--x", "missing.csv"]) == 1  # missing required flags
        assert cli_main(["bench", "--preset", "nope", "--reps", "1"]) == 1
        assert cli_main(["bench"]) == 1  # neither preset nor sim
        assert cli_main(["check", "--sim", "n=10,p=5,rho=0.1,nu=0.2,sigma=0.1,T=1"]) == 1
        assert cli_main(["simulate", "--sim", "bogus", "--out-dir", "x"]) == 1

    @pytest.mark.parametrize("command", ["simulate", "check", "bench"])
    @pytest.mark.parametrize("dims, field", [("n=1,p=5", "n"), ("n=0,p=5", "n"),
                                             ("n=10,p=0", "p")])
    def test_too_small_sim_dimensions_exit_one(self, tmp_path, capsys, command, dims, field):
        argv = [command, "--sim", f"{dims},nu=0.0,sigma=0.1,T=0"]
        if command == "simulate":
            argv += ["--out-dir", str(tmp_path / "sim")]
        elif command == "bench":
            argv += ["--reps", "1"]
        assert cli_main(argv) == 1
        assert f"error: {field} must be at least" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = cli_main([
            "solve", "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2.csv"),
            "--lambda", "0.5",
        ])
        assert code == 1

    def test_negative_cap_exits_one(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "out.csv"
        data = ["--x", str(x_path), "--y", str(y_path), "--cap", "-1", "--out", str(out)]
        assert cli_main(["path", *data]) == 1
        assert cli_main(["solve", "--lambda", "0.5", *data]) == 1
        assert "sparsity_cap must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_penalty_exits_one(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "out.csv"
        data = ["--x", str(x_path), "--y", str(y_path), "--out", str(out)]
        assert cli_main(["path", "--lambda0", "inf", *data]) == 1
        assert cli_main(["path", "--shift", "shifted", "--shift-delta", "nan", *data]) == 1
        assert cli_main(["solve", "--lambda", "inf", *data]) == 1
        assert cli_main(["solve", "--lambda", "nan", *data]) == 1
        assert capsys.readouterr().err.count("finite") == 4
        assert not out.exists()

    def test_shift_delta_under_zero_schedule_exits_one(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "p.csv"
        data = ["--x", str(x_path), "--y", str(y_path), "--out", str(out)]
        assert cli_main(["path", "--shift-delta", "0.5", *data]) == 1
        err = capsys.readouterr().err
        assert "shift_delta" in err and "shift_schedule" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "check", "bench"])
    def test_repeated_sim_key_exits_one(self, tmp_path, capsys, command):
        argv = [command, "--sim", "n=10,n=20,p=30,rho=0.1,sigma=0.1,T=2"]
        if command == "simulate":
            argv += ["--out-dir", str(tmp_path / "sim")]
        elif command == "bench":
            argv += ["--reps", "1"]
        assert cli_main(argv) == 1
        assert "error: --sim repeats key 'n'" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("normalize_flag", [[], ["--raw"]])
    def test_infinite_alpha_exits_one(self, tmp_path, csv_instance, capsys, normalize_flag):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "out.csv"
        data = ["--x", str(x_path), "--y", str(y_path), "--alpha", "inf", "--out", str(out),
                *normalize_flag]
        assert cli_main(["path", *data]) == 1
        assert cli_main(["solve", "--lambda", "0.5", *data]) == 1
        assert capsys.readouterr().err.count("ridge weight must be finite") == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "path"])
    @pytest.mark.parametrize("y_shape, error", [
        ((15, 1), "error: response length"),
        ((20, 2), "error: response file"),
        ((1, 20), "error: response file"),
    ], ids=["short", "two-column", "one-row"])
    def test_mismatched_response_exits_one(self, tmp_path, capsys, command, y_shape, error):
        # a response that does not fit the design is a usage error, not a numerical one;
        # so is a response written as one row, even one of n values
        rng = np.random.default_rng(3)
        x_path, y_path, out = tmp_path / "X.csv", tmp_path / "y.csv", tmp_path / "out.csv"
        save_matrix(x_path, rng.standard_normal((20, 4)))
        save_matrix(y_path, rng.standard_normal(y_shape))
        argv = [command, "--x", str(x_path), "--y", str(y_path), "--out", str(out)]
        if command == "solve":
            argv += ["--lambda", "0.1"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(error)
        assert not out.exists()

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        # a constant column cannot be normalized
        x_path = tmp_path / "X.csv"
        y_path = tmp_path / "y.csv"
        save_matrix(x_path, np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        save_matrix(y_path, np.array([1.0, 2.0, 3.0]))
        code = cli_main(["solve", "--x", str(x_path), "--y", str(y_path), "--lambda", "0.1"])
        assert code == 2

    def test_solve_past_the_sparsity_cap_exits_two_without_coefficients(self, tmp_path, capsys):
        # from the cold start, partitions at lambda well below lambda0 = 4.69
        # outgrow the cap of n/2 = 30 before any solution is reached
        sim = ["simulate", "--sim", "n=60,p=120,rho=0.3,sigma=0.1,T=3", "--out-dir", str(tmp_path)]
        assert cli_main(sim) == 0
        data = ["--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv")]
        capsys.readouterr()
        for lam in ("0.1", "1.0"):
            out = tmp_path / f"beta{lam}.csv"
            assert cli_main(["solve", *data, "--lambda", lam, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "sparsity cap of 30" in captured.err and "ssnpath path" in captured.err
            assert not out.exists()
        out = tmp_path / "beta2.csv"
        assert cli_main(["solve", *data, "--lambda", "2", "--out", str(out)]) == 0
        assert "stop=active_set_repeated" in capsys.readouterr().out
        assert out.exists()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0


# Byte-exact CSV outputs on a fixed tiny instance: a scaled-identity design
# whose path, including the sparsity-cap stop, is exact in floats.
TINY_X = 2.0 * np.eye(4)
TINY_Y = np.array([3.0, 1.0, -5.0, 0.5])

PATH_CSV = """\
#schema=1
knot,lambda,nnz,inner_iters,stop_reason
0,2.5,0,0,active_set_repeated
1,1.75,1,1,active_set_repeated
2,1.2249999999999999,2,1,active_set_repeated
3,0.85749999999999982,2,1,active_set_repeated
4,0.60024999999999984,2,1,active_set_repeated
#selector,mbic,3,0.85749999999999982,0.30000000000000004
"""

COEF_CSV = """\
#schema=1
knot,index,value
1,2,-0.75
2,0,0.27500000000000013
2,2,-1.2750000000000001
3,0,0.64250000000000018
3,2,-1.6425000000000001
4,0,0.89975000000000016
4,2,-1.89975
"""

METRICS_CSV = """\
#schema=1
design,n,p,corr,sigma,T,solver,selector,reps,failures,time_s,time_se,ms,ms_se,cm,cm_se,ae,ae_se,re,re_se
classical,40,60,0.3,0.05,2,snap,mbic,3,1,0.3,nan,2,0.333333,0.5,0,3.33333e-08,1.23457e+07,0.666667,0
autocorr,1000,10000,0.125,0.2,50,cdpath,hbic,1,0,1e-06,nan,0,nan,1,nan,0,nan,1,nan
"""

SOLVE_CSV = """\
#schema=1
index,value
0,1.2
1,0.20000000000000001
2,-2.2000000000000002
"""


def _tiny_path():
    prob = ProblemData(TINY_X, TINY_Y)
    path = solve_path(prob, PathConfig(lambda0=default_lambda0(prob), gamma=0.7, num_knots=6))
    values = np.array([4.0, 3.0, 2.0, 0.1 + 0.2, 1.0])
    return path, SelectorResult("mbic", 3, path.records[3].lam, values)


def _metrics_records():
    nan = float("nan")
    first = MetricsRecord(
        config=SimConfig(n=40, p=60, design="classical", corr=0.3, sigma=0.05, T=2),
        solver="snap", selector="mbic", reps=3, failures=1,
        time_s=0.1 + 0.2, time_se=nan, ms=2.0, ms_se=1 / 3, cm=0.5, cm_se=0.0,
        ae=1e-7 / 3, ae_se=12345678.9, re=2 / 3, re_se=0.0,
    )
    second = MetricsRecord(
        config=SimConfig(n=1000, p=10000, design="autocorr", corr=0.125, sigma=0.2, T=50),
        solver="cdpath", selector="hbic", reps=1, failures=0,
        time_s=1e-6, time_se=nan, ms=0.0, ms_se=nan, cm=1.0, cm_se=nan,
        ae=0.0, ae_se=nan, re=1.0, re_se=nan,
    )
    return [first, second]


class TestCsvGolden:
    def test_path_csv(self, tmp_path):
        path, sel = _tiny_path()
        assert path.terminated_at == 5
        out, coefs = tmp_path / "path.csv", tmp_path / "coefs.csv"
        write_path_csv(path, out, coef_file=coefs, selector=sel)
        assert out.read_text() == PATH_CSV
        assert coefs.read_text() == COEF_CSV
        buf, cbuf = io.StringIO(), io.StringIO()
        write_path_csv(path, buf, coef_file=cbuf, selector=sel)
        assert buf.getvalue() == PATH_CSV
        assert cbuf.getvalue() == COEF_CSV

    def test_path_csv_without_selector_or_coefficients(self):
        path, _ = _tiny_path()
        buf = io.StringIO()
        write_path_csv(path, buf)
        assert buf.getvalue() == PATH_CSV[: PATH_CSV.index("#selector")]

    def test_metrics_csv(self, tmp_path):
        out = tmp_path / "metrics.csv"
        write_metrics_csv(_metrics_records(), out)
        assert out.read_text() == METRICS_CSV
        buf = io.StringIO()
        write_metrics_csv(_metrics_records(), buf)
        assert buf.getvalue() == METRICS_CSV

    def test_solve_coefficients(self, tmp_path, capsys):
        x_path, y_path, out = tmp_path / "X.csv", tmp_path / "y.csv", tmp_path / "beta.csv"
        save_matrix(x_path, TINY_X)
        save_matrix(y_path, TINY_Y)
        code = cli_main([
            "solve", "--x", str(x_path), "--y", str(y_path), "--raw",
            "--lambda", "0.3", "--cap", "4", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == SOLVE_CSV
