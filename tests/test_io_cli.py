import io
import json

import numpy as np
import pytest

from ssnpath import (
    MetricsRecord,
    PathConfig,
    ProblemData,
    SelectorResult,
    SimConfig,
    default_lambda0,
    make_instance,
    solve_path,
    write_metrics_csv,
    write_path_csv,
)
from ssnpath.cli import cli_main
from ssnpath.io import (
    load_instance_sidecar,
    load_matrix,
    load_vector,
    save_instance,
    save_matrix,
    save_vector,
)


@pytest.fixture
def csv_instance(tmp_path):
    cfg = SimConfig(n=60, p=40, design="classical", corr=0.2, sigma=0.05, T=3, seed=99)
    prob, truth = make_instance(cfg)
    x_path = tmp_path / "X.csv"
    y_path = tmp_path / "y.csv"
    save_matrix(x_path, prob.X)
    save_vector(y_path, prob.y)
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
        save_vector(path, y)
        np.testing.assert_array_equal(load_vector(path), y)

    def test_single_row_matrix_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(path, np.array([[1.0, 2.0, 3.0]]))
        assert load_matrix(path).shape == (1, 3)

    def test_instance_sidecar_roundtrip(self, tmp_path):
        cfg = SimConfig(n=20, p=10, design="autocorr", corr=0.3, sigma=0.1, T=2, seed=(4, 5))
        prob, truth = make_instance(cfg)
        _, _, meta = save_instance(tmp_path / "inst", prob.X, prob.y, cfg, truth)
        cfg2, truth2 = load_instance_sidecar(meta)
        assert cfg2 == cfg
        np.testing.assert_array_equal(truth2.beta_true, truth.beta_true)
        assert truth2.sigma == truth.sigma


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

    def test_solve_command(self, tmp_path, csv_instance, capsys):
        x_path, y_path, _, _ = csv_instance
        out = tmp_path / "beta.csv"
        code = cli_main([
            "solve", "--x", str(x_path), "--y", str(y_path),
            "--lambda", "0.5", "--out", str(out),
        ])
        assert code == 0
        assert "nnz=" in capsys.readouterr().out
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

    def test_usage_errors_exit_one(self, capsys):
        assert cli_main(["path", "--x", "missing.csv"]) == 1  # missing required flags
        assert cli_main(["bench", "--preset", "nope", "--reps", "1"]) == 1
        assert cli_main(["bench"]) == 1  # neither preset nor sim
        assert cli_main(["check", "--sim", "n=10,p=5,rho=0.1,nu=0.2,sigma=0.1,T=1"]) == 1
        assert cli_main(["simulate", "--sim", "bogus", "--out-dir", "x"]) == 1

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = cli_main([
            "solve", "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2.csv"),
            "--lambda", "0.5",
        ])
        assert code == 1

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        # a constant column cannot be normalized
        x_path = tmp_path / "X.csv"
        y_path = tmp_path / "y.csv"
        save_matrix(x_path, np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        save_vector(y_path, np.array([1.0, 2.0, 3.0]))
        code = cli_main(["solve", "--x", str(x_path), "--y", str(y_path), "--lambda", "0.1"])
        assert code == 2

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
        save_vector(y_path, TINY_Y)
        code = cli_main([
            "solve", "--x", str(x_path), "--y", str(y_path), "--raw",
            "--lambda", "0.3", "--cap", "4", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == SOLVE_CSV
