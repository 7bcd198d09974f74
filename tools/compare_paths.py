"""Compare the paths two checkouts fit on the benchmark workloads, bit for bit or model by model.

    python3 tools/compare_paths.py OLD NEW [--seeds 0-4] [--workloads table1,enet] [--models]
    python3 tools/compare_paths.py --write-record OUT [CHECKOUT]

OLD and NEW are checkout roots, each with its own ``src/ssnpath`` and
``perfbench/``. For every workload and seed, each side fits instance
(seed, index, 0) of ``perfbench/workloads.py`` in its own subprocess with its
own ``src/`` first on ``sys.path``, walks the workload's path and selects a
knot by mbic and by hbic. The sides then must agree on every ``KnotRecord``
result field they both have (``dual`` read after the fit), ``p``,
``terminated_at`` and each pick both sides made: same type, dtype, shape and
bytes, so a flipped sign bit on a zero is a mismatch. A selector that raises
``ZeroResidual`` is compared by the exception's type. Fields only one side
has are listed, not compared. The work counters (``refreshes``,
``screened``, ``corrected``, ``reused``; a record's own fields in older
checkouts, the fields of its ``work`` value in newer ones) measure cost, not
the result: their per-workload totals are printed for both sides and never
fail the run. The exit status is 1 on any mismatch and 0 when all knots
match.

``--models`` compares the fitted models instead of their bits, for a change
that moves coefficients by rounding: each knot's ``t``, ``lam``, support
(``indices``), coefficient signs and ``stop_reason``, and each path's ``p``,
``terminated_at`` and the knot each selector picked (or the exception it
raised) must be equal. The largest relative coefficient gap,
max |b - a| / max |a| over a knot's coefficients where the supports agree,
is printed per workload and never fails the run.

``--write-record OUT`` fits seeds 0-4 of all four workloads with
CHECKOUT's code (default: this tool's own checkout) under
``OPENBLAS_NUM_THREADS=1`` and ``=2`` side by side, and writes OUT, the
model-level record ``tests/test_model_record.py`` checks (see
:func:`model_record`), when the two fits agree on it; otherwise it prints
where they differ and exits 1.

``--self-check`` plants a one-ulp change in NEW's last dual before
comparing (with ``--models``, a sign flip of NEW's last nonzero
coefficient), so a working comparison must exit 1 and name it.

Neither checkout is written: the children import the workloads with
bytecode caching off.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ALL_WORKLOADS = ("table1", "table2", "enet", "cd_small")

# Work counters of a KnotRecord; reported as totals, not compared.
WORK_COUNTERS = ("refreshes", "screened", "corrected", "reused")

# Selectors whose picks are compared, by their ssnpath.<name>_select function.
SELECTORS = ("mbic", "hbic")

# Relative tolerance of a recorded knot's ||beta||_1 and rss. The record keeps
# 12 significant digits, so its own rounding is 1e-3 of this.
RECORD_RTOL = 1e-9

# OpenBLAS thread counts a model record must agree under.
RECORD_THREADS = (1, 2)


def _seeds(text):
    """``"0-4"`` or ``"0,3,7"`` as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _record_fields(rec, dual=True):
    """A ``KnotRecord``'s result fields and work counters by name, with its ``dual`` read.

    The counters are the record's own fields in older checkouts and the
    fields of its one ``work`` value in newer ones; both dump as the same
    flat ``WORK_COUNTERS`` keys, so the two compare field by field. Without
    ``dual`` the dual is left out: models are compared without it.
    """
    fields = {
        f.name: getattr(rec, f.name)
        for f in dataclasses.fields(rec)
        if not f.name.startswith("_") and f.name != "dual_source"
    }
    work = fields.pop("work", None)
    if work is not None:
        fields.update((counter, getattr(work, counter)) for counter in WORK_COUNTERS)
    if dual:
        fields["dual"] = rec.dual
    return fields


def _dump(checkout, out, workloads, seeds, dual=True):
    """Child side: fit every (workload, seed) with ``checkout``'s code and pickle the results."""
    sys.dont_write_bytecode = True
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import ssnpath
    from ssnpath import ZeroResidual
    from workloads import WORKLOADS

    if Path(ssnpath.__file__).resolve().parent != root / "src" / "ssnpath":
        sys.exit(f"ssnpath was imported from {ssnpath.__file__}, not {root / 'src'}")
    index = {wl.name: i for i, wl in enumerate(WORKLOADS)}
    results = {}
    for name in workloads:
        wl = WORKLOADS[index[name]]
        for seed in seeds:
            prob, _ = wl.instance(seed, index[name], 0)
            path = wl.run_path(prob, wl.path_config(prob))
            picks = {}
            for selector in SELECTORS:
                try:
                    pick = getattr(ssnpath, f"{selector}_select")(prob, path)
                    picks[selector] = dataclasses.asdict(pick)
                except ZeroResidual as exc:
                    picks[selector] = {"raised": type(exc).__name__}
            results[name, seed] = {
                "records": [_record_fields(rec, dual) for rec in path.records],
                "p": path.p,
                "terminated_at": path.terminated_at,
                **picks,
            }
    with open(out, "wb") as f:
        pickle.dump(results, f)


def _fit(checkout, workloads, seeds, tmp, models=False, threads=None):
    """The child's results for ``checkout``; ``threads`` sets its ``OPENBLAS_NUM_THREADS``."""
    fd, out = tempfile.mkstemp(suffix=".pkl", dir=tmp)
    os.close(fd)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(checkout), out,
           "--workloads", ",".join(workloads), "--seeds", ",".join(map(str, seeds))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if models:
        cmd.append("--models")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    subprocess.run(cmd, check=True, env=env)
    with open(out, "rb") as f:
        return pickle.load(f)


def fit_under_threads(checkout, tmp):
    """Models-only results of seeds 0-4 of every workload, one child per ``RECORD_THREADS``."""
    with ThreadPoolExecutor(len(RECORD_THREADS)) as pool:
        return list(pool.map(
            lambda t: _fit(checkout, ALL_WORKLOADS, range(5), tmp, models=True, threads=t),
            RECORD_THREADS))


def same(a, b):
    """Whether ``a`` and ``b`` have the same type, dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (str, type(None))):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def work_totals(results):
    """``{workload: {counter: total}}`` over every knot; a counter a side lacks is left out."""
    totals = {}
    for (name, _), result in results.items():
        sums = totals.setdefault(name, {})
        for rec in result["records"]:
            for counter in WORK_COUNTERS:
                if counter in rec:
                    sums[counter] = sums.get(counter, 0) + int(rec[counter])
    return totals


def compare(old, new):
    """(mismatch lines, notes, knots compared) for two child results, work counters aside."""
    bad, notes, knots = [], set(), 0
    for key in old:
        label = "{} seed {}".format(*key)
        a, b = old[key], new[key]
        for name in ("p", "terminated_at"):
            if not same(a[name], b[name]):
                bad.append(f"{label}: {name} {a[name]!r} != {b[name]!r}")
        for selector in (s for s in SELECTORS if s in a and s in b):
            for name in sorted(a[selector].keys() | b[selector].keys()):
                if not same(a[selector].get(name), b[selector].get(name)):
                    bad.append(f"{label}: {selector} {name} differs")
        if len(a["records"]) != len(b["records"]):
            bad.append(f"{label}: {len(a['records'])} knots != {len(b['records'])}")
        for ra, rb in zip(a["records"], b["records"]):
            knots += 1
            for name in (ra.keys() ^ rb.keys()).difference(WORK_COUNTERS):
                side = "OLD" if name in ra else "NEW"
                notes.add(f"field {name!r} only in {side}; not compared")
            for name in (ra.keys() & rb.keys()).difference(WORK_COUNTERS):
                if not same(ra[name], rb[name]):
                    bad.append(f"{label}: knot {ra['t']} field {name} differs")
    return bad, sorted(notes), knots


def _signs(values):
    return np.sign(np.asarray(values)).astype(np.int8)


def _picked(pick):
    """The knot a selector picked, or the name of the exception it raised."""
    return pick.get("chosen_knot", pick.get("raised"))


def compare_models(old, new):
    """(mismatch lines, {workload: largest relative coefficient gap}, knots compared)."""
    bad, gaps, knots = [], {}, 0
    for key in old:
        label = "{} seed {}".format(*key)
        a, b = old[key], new[key]
        for name in ("p", "terminated_at"):
            if a[name] != b[name]:
                bad.append(f"{label}: {name} {a[name]!r} != {b[name]!r}")
        for selector in (s for s in SELECTORS if s in a and s in b):
            pa, pb = (_picked(side[selector]) for side in (a, b))
            if pa != pb:
                bad.append(f"{label}: {selector} picks {pa!r} != {pb!r}")
        if len(a["records"]) != len(b["records"]):
            bad.append(f"{label}: {len(a['records'])} knots != {len(b['records'])}")
        gap = gaps.setdefault(key[0], 0.0)
        for ra, rb in zip(a["records"], b["records"]):
            knots += 1
            for name in ("t", "lam", "stop_reason"):
                if ra[name] != rb[name]:
                    bad.append(f"{label}: knot {ra['t']} {name} {ra[name]!r} != {rb[name]!r}")
            if not same(ra["indices"], rb["indices"]):
                bad.append(f"{label}: knot {ra['t']} supports differ")
                continue
            if not same(_signs(ra["values"]), _signs(rb["values"])):
                bad.append(f"{label}: knot {ra['t']} signs differ")
            va, vb = np.asarray(ra["values"]), np.asarray(rb["values"])
            if va.size:
                gap = max(gap, float(np.max(np.abs(vb - va)) / np.max(np.abs(va))))
        gaps[key[0]] = gap
    return bad, gaps, knots


def _knot_digest(rec):
    """Eight hex digits over a knot's support, coefficient signs and stop reason."""
    digest = hashlib.blake2b(digest_size=4)
    digest.update(np.asarray(rec["indices"], dtype="<i8").tobytes())
    digest.update(_signs(rec["values"]).tobytes())
    digest.update(str(rec["stop_reason"]).encode())
    return digest.hexdigest()


def _rounded(x):
    return float(f"{x:.12g}")


def model_record(results):
    """The model-level record of dumped results, a JSON-ready dict keyed ``"<workload> <seed>"``.

    Per path: ``p``, ``terminated_at``, the knot each selector picked (or the
    exception it raised), the work totals, and per knot a digest of its
    support, signs and stop reason (:func:`_knot_digest`) and its
    ||beta||_1 and ``rss``, which :func:`check_record` compares within
    ``RECORD_RTOL``.
    """
    record = {}
    for (name, seed), result in results.items():
        recs = result["records"]
        record[f"{name} {seed}"] = {
            "p": result["p"],
            "terminated_at": result["terminated_at"],
            **{selector: _picked(result[selector]) for selector in SELECTORS},
            "work": work_totals({(name, seed): result}).get(name, {}),
            "knots": [_knot_digest(rec) for rec in recs],
            "l1": [_rounded(np.abs(rec["values"]).sum()) for rec in recs],
            "rss": [_rounded(rec["rss"]) for rec in recs],
        }
    return record


def check_record(got, expected, rtol=RECORD_RTOL):
    """Mismatch lines of record ``got`` against ``expected``; empty when they agree."""
    bad = [f"{key}: not recorded" for key in got.keys() - expected.keys()]
    bad += [f"{key}: not fitted" for key in expected.keys() - got.keys()]
    for key in sorted(got.keys() & expected.keys()):
        a, b = expected[key], got[key]
        for name in ("p", "terminated_at", *SELECTORS, "work"):
            if a[name] != b[name]:
                bad.append(f"{key}: {name} {a[name]!r} != {b[name]!r}")
        if len(a["knots"]) != len(b["knots"]):
            bad.append(f"{key}: {len(a['knots'])} knots != {len(b['knots'])}")
        for t, (da, db) in enumerate(zip(a["knots"], b["knots"])):
            if da != db:
                bad.append(f"{key}: knot {t} support, signs or stop reason differ")
            for name in ("l1", "rss"):
                x, y = a[name][t], b[name][t]
                if abs(x - y) > rtol * max(abs(x), abs(y)):
                    bad.append(f"{key}: knot {t} {name} {x!r} != {y!r}")
    return bad


def _write_record(checkout, out):
    with tempfile.TemporaryDirectory() as tmp:
        first, *others = (model_record(r) for r in fit_under_threads(checkout, tmp))
    bad = [f"threads {t}: {line}" for t, other in zip(RECORD_THREADS[1:], others)
           for line in check_record(other, first)]
    for line in bad:
        print("MISMATCH " + line)
    if bad:
        return 1
    # one path per line, so a diff of the record names the paths that moved
    text = "{\n" + ",\n".join(f"{json.dumps(key)}:{json.dumps(path, separators=(',', ':'))}"
                               for key, path in first.items()) + "\n}\n"
    Path(out).write_text(text)
    knots = sum(len(path["knots"]) for path in first.values())
    print(f"wrote {out}: {len(first)} paths, {knots} knots, {len(text)} bytes")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", nargs=2, metavar=("CHECKOUT", "OUT"), help=argparse.SUPPRESS)
    parser.add_argument("old", nargs="?", help="root of the first checkout")
    parser.add_argument("new", nargs="?", help="root of the second checkout")
    parser.add_argument("--seeds", default="0-4", help="e.g. 0-4 or 0,7 (default 0-4)")
    parser.add_argument("--workloads", default=",".join(ALL_WORKLOADS),
                        help="comma-separated workload names (default: all four)")
    parser.add_argument("--models", action="store_true",
                        help="compare supports, signs, stop reasons and picks, not bits")
    parser.add_argument("--write-record", metavar="OUT",
                        help="write the model record of OLD (default: this checkout) to OUT")
    parser.add_argument("--self-check", action="store_true",
                        help="plant a one-ulp change in NEW's last dual (with --models, a "
                             "sign flip of its last coefficient); the run must fail")
    args = parser.parse_args(argv)
    workloads, seeds = args.workloads.split(","), _seeds(args.seeds)
    if args.dump:
        _dump(*args.dump, workloads, seeds, dual=not args.models)
        return 0
    if args.write_record:
        return _write_record(args.old or Path(__file__).resolve().parent.parent, args.write_record)
    if args.old is None or args.new is None:
        parser.error("OLD and NEW checkouts are required")
    with tempfile.TemporaryDirectory() as tmp:
        old = _fit(args.old, workloads, seeds, tmp, args.models)
        new = _fit(args.new, workloads, seeds, tmp, args.models)
    if args.self_check:
        key = next(iter(new))
        record = new[key]["records"][-1]
        if args.models:
            record["values"][-1] *= -1.0
            planted = "a sign flip in values[-1]"
        else:
            record["dual"][0] = np.nextafter(record["dual"][0], np.inf)
            planted = "a one-ulp change in dual[0]"
        print(f"self-check: planted {planted} of {key[0]} seed {key[1]}, last knot")
    if args.models:
        bad, gaps, knots = compare_models(old, new)
        for name, gap in gaps.items():
            print(f"models {name}: largest relative coefficient gap {gap:.3g}")
    else:
        bad, notes, knots = compare(old, new)
        for line in notes:
            print(line)
    old_work, new_work = work_totals(old), work_totals(new)
    for name in old_work:
        print(f"work {name}: " + "; ".join(
            f"{c} OLD {old_work[name].get(c, '-')} NEW {new_work[name].get(c, '-')}"
            for c in WORK_COUNTERS))
    for line in bad:
        print("MISMATCH " + line)
    verdict = "same models" if args.models else "all identical"
    print(f"{len(old)} paths, {knots} knots: " + (f"{len(bad)} mismatches" if bad else verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
