"""The committed model record, ``tests/model_record.json``, holds for fresh fits of this checkout.

The record covers seeds 0-4 of the ``table1``, ``table2``, ``enet`` and
``cd_small`` benchmark workloads: per path the mbic and hbic picks and the
work totals, and per knot a digest of its support, signs and stop reason, and
its ||beta||_1 and ``rss`` within ``RECORD_RTOL`` (``tools/compare_paths.py``,
which writes it with ``--write-record``). The fits run in two side-by-side
subprocesses, under ``OPENBLAS_NUM_THREADS=1`` and ``=2``; together they take
about 13 s on a 2-core host. A change that moves a recorded field updates the
record with a CHANGES.md line that says which field moved and why.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "model_record.json"


def _tool():
    path = ROOT / "tools" / "compare_paths.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()


@pytest.fixture(scope="module")
def fits(tmp_path_factory):
    """``{threads: results}`` of this checkout, one child per OpenBLAS thread count."""
    results = TOOL.fit_under_threads(ROOT, tmp_path_factory.mktemp("fits"))
    return dict(zip(TOOL.RECORD_THREADS, results))


@pytest.fixture(scope="module")
def expected():
    return json.loads(RECORD.read_text())


def test_record_is_small_and_covers_every_workload_and_seed(expected):
    assert RECORD.stat().st_size < 100_000
    assert sorted(expected) == sorted(f"{w} {s}" for w in TOOL.ALL_WORKLOADS for s in range(5))
    assert sum(len(path["knots"]) for path in expected.values()) == 1754


@pytest.mark.parametrize("threads", TOOL.RECORD_THREADS)
def test_fresh_fits_match_the_record(fits, expected, threads):
    assert TOOL.check_record(TOOL.model_record(fits[threads]), expected) == []


def test_a_planted_sign_flip_fails_the_record(fits, expected):
    results = {key: dict(result, records=[dict(rec) for rec in result["records"]])
               for key, result in fits[1].items()}
    rec = results["table2", 3]["records"][60]
    rec["values"] = rec["values"].copy()
    rec["values"][-1] *= -1.0
    bad = TOOL.check_record(TOOL.model_record(results), expected)
    # the flip also moves nothing else the record holds
    assert bad == ["table2 3: knot 60 support, signs or stop reason differ"]


def test_l1_and_rss_are_compared_within_the_stated_tolerance(expected):
    got = json.loads(json.dumps(expected))
    path = got["enet 2"]
    path["rss"][7] *= 1.0 + TOOL.RECORD_RTOL / 4
    assert TOOL.check_record(got, expected) == []
    path["l1"][9] *= 1.0 + 4 * TOOL.RECORD_RTOL
    assert TOOL.check_record(got, expected) == [
        f"enet 2: knot 9 l1 {expected['enet 2']['l1'][9]!r} != {path['l1'][9]!r}"]
    path["work"]["reused"] += 1
    path["hbic"] = -1
    assert TOOL.check_record(got, expected)[:2] == [
        f"enet 2: hbic {expected['enet 2']['hbic']!r} != -1",
        f"enet 2: work {expected['enet 2']['work']!r} != {path['work']!r}"]


def test_the_digest_reads_support_signs_and_stop_reason_not_magnitudes():
    rec = {"indices": np.array([2, 5]), "values": np.array([1.0, -2.0]), "stop_reason": "max_iter"}
    digest = TOOL._knot_digest(rec)
    assert digest == TOOL._knot_digest(dict(rec, values=np.array([3.0, -0.5])))
    for other in (dict(rec, values=np.array([1.0, 2.0])), dict(rec, indices=np.array([2, 6])),
                  dict(rec, stop_reason="active_set_repeated")):
        assert TOOL._knot_digest(other) != digest
