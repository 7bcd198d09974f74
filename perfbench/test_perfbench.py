"""Tests of the benchmark itself, on tiny instances. Run: python -m pytest perfbench"""

import io
import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_src()

import bench  # noqa: E402
import checks  # noqa: E402
import ssnpath.solver  # noqa: E402
import tracing  # noqa: E402
from ssnpath import SimConfig, mbic_select  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = SimConfig(n=40, p=80, design="classical", corr=0.3, sigma=0.1, T=3)
# Active sets stay under the sparsity cap n/2 = 20, below CgPolicy's direct
# threshold, so these fits never reach _cg.
TINY_SHIFTED = Workload("tiny_shifted", "tiny", TINY, shift_schedule="shifted", mem_passes=1)
TINY_ENET = Workload("tiny_enet", "tiny", TINY, alpha_per_n=0.1, max_inner=5, mem_passes=1)
TINY_CD = Workload("tiny_cd", "tiny", TINY, solver="cd", mem_passes=1)


def _run(wl, trace, tmp_path=None):
    out = io.StringIO()
    spans = None if tmp_path is None else tmp_path / "spans.jsonl"
    result = bench.run(wl, 0, 0, 0.05, trace, spans_path=spans, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


def _fit(wl, m=0):
    prob, _ = wl.instance(0, 0, m)
    path = wl.run_path(prob, wl.path_config(prob))
    return prob, path, mbic_select(prob, path).chosen_knot


def _printed(lines, name, unit):
    return any(ln.split()[:1] == [name] and f" {unit} " in f"{ln} " for ln in lines)


def test_workloads_and_their_reasons_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS if w.gated
    ]
    for w in WORKLOADS:
        assert w.why and "\n" not in w.why and len(w.why) <= 200


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: bench.END_TO_END[k] for k in bench.GATED
    }
    idle = {k for w in WORKLOADS if w.gated for k in bench.idle_metrics(w)}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: u for k, u in bench.PER_LAYER.items() if k not in idle
    }
    assert "setup_s" in bench.GATED


@pytest.mark.parametrize("wl", [TINY_SHIFTED, TINY_ENET, TINY_CD], ids=lambda w: w.name)
def test_untraced_run_emits_every_end_to_end_metric_with_unit(wl):
    result, lines = _run(wl, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_REPS + 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: bench.END_TO_END[k] for k in bench.GATED
    }
    for name, unit in bench.END_TO_END.items():
        expected = name != "kkt_miss_frac" or wl.solves_stated_problem
        assert _printed(lines, name, unit) == expected, name
    assert _printed(lines, "path.first_fit_s", "s")
    assert _printed(lines, "problem.xtv_s", "s")
    assert _printed(lines, "path.xtv_multiple", "x")
    env = json.loads(next(ln for ln in lines if ln.startswith("env: "))[5:])
    assert set(env) == {"numpy", "blas", "blas_threads", "nproc", "python"}


@pytest.mark.parametrize("wl", [TINY_SHIFTED, TINY_ENET, TINY_CD], ids=lambda w: w.name)
def test_traced_run_emits_every_per_layer_metric_with_unit(wl, tmp_path):
    result, lines = _run(wl, trace=1, tmp_path=tmp_path)
    assert result["correct"]
    idle = bench.idle_metrics(wl)
    expected = {k: u for k, u in bench.PER_LAYER.items() if k not in idle}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in bench.PER_LAYER.items():
        assert _printed(lines, name, unit) == (name in expected), name
    metrics = result["metrics"]
    assert ("cd.sweeps" in metrics) == (wl.solver == "cd")
    assert ("cd.oracle_sweeps" in metrics) == wl.has_unique_minimizer
    for name in set(bench.CD_PATH_METRICS + bench.CD_ORACLE_METRICS) & set(metrics):
        assert metrics[name]["value"] > 0, name
    assert (metrics["solver.newton_updates"]["value"] > 0) == (wl.solver == "ssn")
    spans = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"name", "start", "end", "parent", "rep"} <= set(spans[0])


def test_missing_wrapper_target_is_skipped_and_reported_absent(monkeypatch):
    monkeypatch.delattr(ssnpath.solver, "_cg")
    result, lines = _run(TINY_SHIFTED, trace=1)
    absent = {k for k, deps in bench.DEPENDS.items() if "ssnpath.solver._cg" in deps}
    assert absent and absent.isdisjoint(result["metrics"])
    idle = set(bench.idle_metrics(TINY_SHIFTED))
    assert set(result["metrics"]) == set(bench.PER_LAYER) - absent - idle
    assert any(ln.startswith("absent") and "ssnpath.solver._cg" in ln for ln in lines)


def test_every_wrapper_is_restored():
    originals = [
        getattr(sys.modules[mod], attr) for mod, attr, _, _ in tracing.TARGETS
    ]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert ssnpath.solver.ssn_update is not originals[2]
            raise RuntimeError
    assert [getattr(sys.modules[mod], attr) for mod, attr, _, _ in tracing.TARGETS] == originals


def test_checks_pass_on_clean_fits():
    for wl in (TINY_SHIFTED, TINY_ENET, TINY_CD):
        prob, path, k = _fit(wl)
        assert checks.check_outputs(prob, path, k, wl.has_unique_minimizer) == []


def test_checks_count_corrupted_results_as_failures():
    prob, path, k = _fit(TINY_ENET)
    rec = path.records[k]

    values = rec.values.copy()
    rec.values[0] = float("nan")
    assert "coef_finite" in checks.check_outputs(prob, path, k, oracle=True)
    rec.values[:] = values

    off = next(j for j in range(prob.p) if j not in set(rec.indices))
    rec.dual[off] += 1e-3
    assert checks.check_outputs(prob, path, k, oracle=False) == ["dual_refresh"]
    rec.dual[off] -= 1e-3

    rec.values[0] += 1e-3
    assert "cd_oracle" in checks.check_outputs(prob, path, k, oracle=True)
    rec.values[:] = values

    path.records[0], path.records[1] = path.records[1], path.records[0]
    assert "lambda_decreasing" in checks.check_outputs(prob, path, k, oracle=False)
    path.records[:] = []
    assert checks.check_outputs(prob, path, 0, oracle=False) == ["path_nonempty"]


def test_corrupted_fit_is_counted_in_failed(monkeypatch):
    real = Workload.run_path

    def corrupt(self, prob, config):
        path = real(self, prob, config)
        for rec in path.records:
            rec.dual = rec.dual + 1e-3
        return path

    monkeypatch.setattr(Workload, "run_path", corrupt)
    result, lines = _run(TINY_SHIFTED, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("failed: dual_refresh" in ln for ln in lines)


def test_tail_has_ten_samples_beyond_it():
    value, pct = bench.tail([float(i) for i in range(60)])
    assert value == 49.0 and pct == pytest.approx(100 * 50 / 60)
    assert sum(x > value for x in range(60)) == bench.TAIL_BEYOND


def test_exits_nonzero_without_printing_a_result_when_sources_are_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
