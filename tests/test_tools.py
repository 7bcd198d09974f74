"""``tools/compare_paths.py`` passes a checkout against itself and catches one ulp, and its
``--models`` mode catches a sign flip; ``tools/loc.py`` counts the lines a code token touches
and the names ``__all__`` lists; ``tools/ab.py`` pairs alternating runs, prints each pair's
setup ratio as a load check, marks each median change against its metric's bound and claims
no win for a checkout against itself."""

import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import ssnpath
from ssnpath import KnotRecord
from ssnpath.dual import Work

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_paths.py"
LOC = ROOT / "tools" / "loc.py"
AB = ROOT / "tools" / "ab.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seeds", "0",
                           *args], capture_output=True, text=True, timeout=120)


def _tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_paths_on_this_checkout():
    same = _run("--workloads", "table1,enet")
    assert same.returncode == 0, same.stdout + same.stderr
    last = same.stdout.splitlines()[-1]
    assert last.startswith("2 paths, ") and last.endswith(" knots: all identical")
    for name in ("table1", "enet"):
        work = re.search(rf"^work {name}: refreshes OLD (\d+) NEW (\d+); "
                         rf"screened OLD (\d+) NEW (\d+); "
                         rf"corrected OLD (\d+) NEW (\d+); "
                         rf"reused OLD (\d+) NEW (\d+)$", same.stdout, re.M)
        assert work, same.stdout
        assert all(work[i] == work[i + 1] for i in range(1, 9, 2))
    assert int(re.search(r"^work table1: .*reused OLD (\d+)", same.stdout, re.M)[1]) > 0
    planted = _run("--workloads", "table1", "--self-check")
    assert planted.returncode == 1, planted.stdout + planted.stderr
    assert "MISMATCH table1 seed 0: knot 99 field dual differs" in planted.stdout


def test_work_counters_are_totalled_not_compared():
    tool = _tool()

    def result(**counters):
        record = {"t": 0, "values": np.array([0.5]), "dual": np.array([1.0, -0.25])}
        return {("table2", 0): {"records": [dict(record, **counters)], "p": 2,
                                "terminated_at": None, "mbic": {}}}

    old, new = result(refreshes=3), result(refreshes=1, screened=40, corrected=2)
    assert tool.compare(old, new) == ([], [], 1)
    assert tool.work_totals(old) == {"table2": {"refreshes": 3}}
    assert tool.work_totals(new) == {"table2": {"refreshes": 1, "screened": 40, "corrected": 2}}
    new["table2", 0]["records"][0]["values"][0] = np.nextafter(0.5, 1.0)
    assert tool.compare(old, new)[0] == ["table2 seed 0: knot 0 field values differs"]


def test_work_value_dumps_as_the_flat_counters_of_older_records():
    tool = _tool()
    counters = {"refreshes": 2, "screened": 30, "corrected": 1, "reused": 4}
    common = dict(t=0, lam=0.5, indices=np.array([3]), values=np.array([0.25]), iterations=2,
                  active_size=1, stop_reason="max_iter", rss=0.5,
                  dual_source=lambda: np.array([1.0, -0.5]))
    # a record as older checkouts held it: the four counters are its own fields
    fields = [(f.name, f.type) for f in dataclasses.fields(KnotRecord) if f.name != "work"]
    Flat = dataclasses.make_dataclass("Flat", fields + [(c, int) for c in counters],
                                      namespace={"dual": property(lambda r: r.dual_source())})
    old = tool._record_fields(Flat(**common, **counters))
    new = tool._record_fields(KnotRecord(**common, work=Work(**counters)))
    assert old.keys() == new.keys()
    assert all(tool.same(old[name], new[name]) for name in old)

    def result(record):
        return {("table1", 0): {"records": [record], "p": 2, "terminated_at": None}}

    assert tool.compare(result(old), result(new)) == ([], [], 1)
    assert tool.work_totals(result(old)) == tool.work_totals(result(new)) == {"table1": counters}


def test_selector_picks_are_compared_bitwise():
    tool = _tool()

    def result(hbic):
        return {("table1", 0): {"records": [], "p": 2, "terminated_at": None,
                                "mbic": {"chosen_knot": 0}, "hbic": hbic}}

    def pick(value):
        return {"criterion": "hbic", "chosen_knot": 1, "chosen_lambda": 0.5,
                "values": np.array([-1.0, value])}

    assert tool.compare(result(pick(-2.0)), result(pick(-2.0))) == ([], [], 0)
    assert tool.compare(result(pick(-2.0)), result(pick(np.nextafter(-2.0, 0.0))))[0] == [
        "table1 seed 0: hbic values differs"]
    raised = {"raised": "ZeroResidual"}
    assert tool.compare(result(raised), result(dict(raised)))[0] == []
    assert "table1 seed 0: hbic raised differs" in tool.compare(result(raised),
                                                                result(pick(-2.0)))[0]


def test_compare_models_on_this_checkout():
    same = _run("--workloads", "table1", "--models")
    assert same.returncode == 0, same.stdout + same.stderr
    assert "models table1: largest relative coefficient gap 0\n" in same.stdout
    assert same.stdout.splitlines()[-1] == "1 paths, 100 knots: same models"
    planted = _run("--workloads", "table1", "--models", "--self-check")
    assert planted.returncode == 1, planted.stdout + planted.stderr
    assert "MISMATCH table1 seed 0: knot 99 signs differ" in planted.stdout


def test_models_compare_supports_signs_stops_and_picks_not_bits():
    tool = _tool()

    def result(values, indices=(1, 3), stop="active_set_repeated", pick=1, terminated_at=None):
        record = {"t": 0, "lam": 0.5, "indices": np.array(indices), "values": np.array(values),
                  "stop_reason": stop, "dual": np.zeros(4)}
        return {("table1", 0): {"records": [record], "p": 4, "terminated_at": terminated_at,
                                "mbic": {"chosen_knot": pick}, "hbic": {"raised": "ZeroResidual"}}}

    old = result([2.0, -1.0])
    bad, gaps, knots = tool.compare_models(old, result([2.0, -1.0 + 2.0**-40]))
    assert (bad, knots) == ([], 1)
    assert gaps == {"table1": 2.0**-41}
    label = "table1 seed 0"
    assert tool.compare_models(old, result([2.0, 1.0]))[0] == [f"{label}: knot 0 signs differ"]
    assert tool.compare_models(old, result([2.0, -1.0], indices=(1, 2)))[0] == [
        f"{label}: knot 0 supports differ"]
    assert tool.compare_models(old, result([2.0, -1.0], stop="max_iter"))[0] == [
        f"{label}: knot 0 stop_reason 'active_set_repeated' != 'max_iter'"]
    assert tool.compare_models(old, result([2.0, -1.0], pick=0))[0] == [
        f"{label}: mbic picks 1 != 0"]
    assert tool.compare_models(old, result([2.0, -1.0], terminated_at=1))[0] == [
        f"{label}: terminated_at None != 1"]


def test_loc_counts_lines_a_code_token_touches():
    code_lines = _tool(LOC).code_lines
    assert code_lines('"""Module docstring."""\n') == 0
    assert code_lines('def f():\n    """One.\n\n    Two.\n    """\n    return 1\n') == 2
    assert code_lines("# a comment\nx = 1  # trailing\n\n\ny = 2\n") == 2
    # a bare string statement anywhere is not code; a string argument is, on every line
    assert code_lines("x = 1\n'''note'''\n") == 1
    assert code_lines("f(\n    '''one\ntwo''',\n)\n") == 4
    assert code_lines("x = (1 +\n     2)\n") == 2


def test_loc_prints_per_file_counts_and_totals(tmp_path):
    package = tmp_path / "src" / "ssnpath"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (package / "b.py").write_text("# only a comment\n")
    run = subprocess.run([sys.executable, str(LOC), str(tmp_path)], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[2:]]
    assert rows == [["3", "1", "src/ssnpath/a.py"], ["1", "0", "src/ssnpath/b.py"],
                    ["4", "1", "total"]]


def test_loc_prints_the_number_of_public_names(tmp_path):
    package = tmp_path / "src" / "ssnpath"
    package.mkdir(parents=True)
    # the module is parsed, not imported: its import would fail
    (package / "__init__.py").write_text('from .missing import a, b\n__all__ = ["a", "b"]\n')
    run = subprocess.run([sys.executable, str(LOC), str(tmp_path), str(ROOT)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[2:5] == ["      2      2  src/ssnpath/__init__.py", "      2      2  total",
                          "      2  names  ssnpath.__all__"]
    assert lines[-1].split() == [str(len(ssnpath.__all__)), "names", "ssnpath.__all__"]


def _result_line(**values):
    """A result line as ``perfbench/run.py`` prints it last."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": metrics})


def test_ab_summarizes_canned_result_lines():
    ab = _tool(AB)
    old_setup = [0.351, 0.340, 0.362, 0.355, 0.348, 0.371, 0.344, 0.350, 0.359, 0.347]
    new_setup = [0.301, 0.305, 0.298, 0.358, 0.300, 0.310, 0.296, 0.303, 0.299, 0.304]
    old = [json.loads(_result_line(setup_s=s, ae=0.5, knots=3.0)) for s in old_setup]
    new = [json.loads(_result_line(setup_s=s, ae=0.5)) for s in new_setup]
    new[0]["metrics"]["ae"]["value"] = None  # a metric a run could not measure
    rows = ab.summarize(old, new, {"setup_s": "lower", "ae": "lower", "knots": "higher"})
    setup, ae = rows  # no pair has "knots" on both sides
    assert setup["pairs"] == 10 and setup["wins"] == 9 and setup["losses"] == 1
    assert setup["old_median"] == np.median(old_setup)
    assert setup["new_median"] == np.median(new_setup)
    assert setup["old_iqr"] == np.percentile(old_setup, 75) - np.percentile(old_setup, 25)
    assert setup["claim"] == "gain"
    assert (ae["pairs"], ae["wins"], ae["losses"], ae["claim"]) == (9, 0, 0, None)
    # swapped sides: the same numbers are a loss for NEW
    assert ab.summarize(new, old, {"setup_s": "lower"})[0]["claim"] == "loss"
    # "higher is better" turns the wins around
    assert ab.summarize(old, new, {"setup_s": "higher"})[0]["claim"] == "loss"
    # 8 wins in 10 are too few, however large the gap
    new[1]["metrics"]["setup_s"]["value"] = 0.341
    assert ab.summarize(old, new, {"setup_s": "lower"})[0]["claim"] is None
    line = ab.report(rows)[1]
    assert line.split()[0] == "setup_s" and line.endswith(" 9/10  gain")


def test_ab_marks_each_change_against_its_bound():
    ab = _tool(AB)
    # a deterministic peak that rose by 90 bytes in every pair, and a fit 30% slower
    old = [json.loads(_result_line(fit_peak_mb=0.646576, fit_s=0.030, ae=0.5)) for _ in range(10)]
    new = [json.loads(_result_line(fit_peak_mb=0.646666, fit_s=0.039, ae=0.4)) for _ in range(10)]
    metrics = {"fit_peak_mb": "lower", "fit_s": "lower", "ae": "lower"}
    bounds = {"fit_peak_mb": 0.15, "fit_s": 0.25}
    peak, fit, ae = ab.summarize(old, new, metrics, bounds)
    assert (peak["claim"], peak["bound"], peak["inside"]) == ("loss", 0.15, True)
    assert (fit["claim"], fit["bound"], fit["inside"]) == ("loss", 0.25, False)
    # an improvement lies inside any bound; a metric with no bound is not marked
    assert (ae["claim"], ae["bound"], ae["inside"]) == ("gain", None, None)
    assert ab.summarize(new, old, {"fit_s": "lower"}, bounds)[0]["inside"] is True
    # "higher is better" turns the direction of the worsening around
    assert ab.summarize(new, old, {"fit_s": "higher"}, {"fit_s": 0.2})[0]["inside"] is False
    # a change exactly at the bound is inside
    half = [json.loads(_result_line(fit_s=0.5)) for _ in range(10)]
    edge = [json.loads(_result_line(fit_s=0.625)) for _ in range(10)]
    assert ab.summarize(half, edge, {"fit_s": "lower"}, {"fit_s": 0.25})[0]["inside"] is True
    assert ab.summarize(half, edge, {"fit_s": "lower"}, {"fit_s": 0.24})[0]["inside"] is False
    lines = ab.report([peak, fit, ae])
    assert lines[0].split()[-5:] == ["change", "bound", "inside", "wins", "claim"]
    assert lines[1].split()[-4:] == ["15%", "yes", "0/10", "loss"]
    assert lines[2].split()[-4:] == ["25%", "NO", "0/10", "loss"]
    assert lines[3].split()[-4:] == ["-", "-", "10/10", "gain"]
    # the bounds come from this checkout's BENCHMARK.json
    better, bounds = ab.gated_metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bounds == {m["name"]: m["bound"] for m in spec} and better.keys() == bounds.keys()


def test_ab_load_check_is_each_pairs_setup_ratio():
    ab = _tool(AB)
    old = json.loads(_result_line(setup_s=0.40, fit_s=0.03))
    slowed = json.loads(_result_line(setup_s=0.54, fit_s=0.04))
    assert ab.LOAD_CHECK == "setup_s"
    assert ab.load_ratio(old, slowed) == 0.54 / 0.40
    assert ab.load_ratio(slowed, old) == 0.40 / 0.54
    # a run that did not measure setup, or measured it as 0, gives no ratio
    assert ab.load_ratio(old, json.loads(_result_line(fit_s=0.03))) is None
    assert ab.load_ratio(json.loads(_result_line(setup_s=0.0)), old) is None
    # the check only reports: it leaves the claim to the summary's rule
    assert ab.summarize([old] * 10, [slowed] * 10, {"fit_s": "lower"})[0]["claim"] == "loss"


def test_ab_same_checkout_claims_no_win(tmp_path):
    # The stub benchmark reads faster on every run, as a host drifting
    # faster would; with the order alternating, NEW wins half the pairs.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(f"""
import json, pathlib, sys
assert sys.argv[1:] == ["--workload", "table2", "--seed", "0", "--seconds", "0.0", "--trace", "0"]
count = pathlib.Path(__file__).with_name("count")
k = int(count.read_text()) if count.exists() else 0
count.write_text(str(k + 1))
value = 1.0 - 0.01 * k
print("workload table2")
print(json.dumps({{"correct": True, "attempted": 12, "failed": 0, "metrics": {{
    "setup_s": {{"value": value, "unit": "s"}}, "fit_s": {{"value": value, "unit": "s"}},
    "ae": {{"value": 0.25, "unit": "coef"}}}}}}))
""")
    run = subprocess.run([sys.executable, str(AB), str(tmp_path), str(tmp_path), "--workload",
                          "table2", "--pairs", "10", "--seconds", "0"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert (tmp_path / "perfbench" / "count").read_text() == "20"
    # OLD runs first in pair 1 (value 1.0), NEW second (0.99)
    first = run.stdout.splitlines()[0]
    assert first.startswith("pair 1/10: setup_s 1 -> 0.99; ")
    assert first.endswith("; load check setup_s NEW/OLD 0.99")
    rows = {line.split()[0]: line for line in run.stdout.splitlines()[-3:]}
    assert rows.keys() == {"setup_s", "fit_s", "ae"}
    assert rows["setup_s"].endswith(" 5/10  -") and rows["fit_s"].endswith(" 5/10  -")
    assert rows["ae"].endswith(" 0/10  -")
