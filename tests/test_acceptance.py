"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Every tolerance is fixed here; nothing is calibrated at run time.
"""

import time

import numpy as np

from ssnpath import (
    PathConfig,
    ProblemData,
    SimConfig,
    SsnConfig,
    cd_solve,
    default_lambda0,
    kkt_residual,
    make_instance,
    mbic_select,
    mutual_coherence,
    objective,
    refresh_dual,
    run_benchmark,
    sign_recovery_config,
    soft_threshold,
    soft_threshold_vec,
    solve_path,
    ssn_solve,
    theory_check,
)
from ssnpath.dual import PrimalDualState, active_partition, cold_start
from ssnpath.solver import ssn_update
from oracles import min_norm_probe, newton_step_dense


def _verdict(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _gaussian_instance(n, p, alpha, seed, sigma=0.5, T=5):
    cfg = SimConfig(n=n, p=p, design="autocorr", corr=0.0, sigma=sigma, T=T, seed=seed)
    return make_instance(cfg, alpha=alpha)


def test_01_orthogonal_closed_form():
    n = p = 50
    rng = np.random.default_rng(101)
    prob = ProblemData(np.sqrt(n) * np.eye(n), 3.0 * rng.standard_normal(n))
    start = time.perf_counter()
    cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=40,
                     max_inner=5, sparsity_cap=p)
    path = solve_path(prob, cfg)
    worst = max(
        float(np.max(np.abs(r.beta_dense(p) - soft_threshold_vec(prob.xty / n, r.lam))))
        for r in path.records
    )
    elapsed = time.perf_counter() - start
    _verdict(
        "01 orthogonal-closed-form",
        len(path) == 40 and worst <= 1e-10 and elapsed < 1.0,
        f"worst knot error {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_kkt_exactness_along_paths():
    worst = 0.0
    checked = 0
    for i, alpha in enumerate((0.0, 0.1)):
        for s in range(50):
            prob, _ = _gaussian_instance(50, 200, alpha, seed=(202, i, s))
            cfg = PathConfig(lambda0=default_lambda0(prob), gamma=1e-3 ** (1 / 50),
                             num_knots=51, max_inner=3)
            path = solve_path(prob, cfg)
            for rec in path.records:
                if rec.stop_reason == "active_set_repeated":
                    res = kkt_residual(prob, rec.state(prob.p), rec.lam)
                    worst = max(worst, res.norm_inf)
                    checked += 1
    _verdict(
        "02 kkt-exactness",
        checked >= 100 and worst <= 1e-8,
        f"{checked} converged knots, worst scaled residual {worst:.2e}",
    )


def test_03_oracle_agreement():
    # Newton solves are run warm started through a short continuation ending
    # at the target level (cold starts far from the solution can oscillate;
    # continuation is the method's globalization)
    worst_obj = worst_beta = 0.0
    for s in range(50):
        prob, _ = _gaussian_instance(20, 40, 0.1, seed=(303, s))
        lam0 = default_lambda0(prob)
        lam = 0.5 * lam0
        knots = 10
        cfg = PathConfig(lambda0=lam0, gamma=(lam / lam0) ** (1 / (knots - 1)),
                         num_knots=knots, max_inner=10, sparsity_cap=prob.p)
        path = solve_path(prob, cfg)
        beta_newton = path.records[-1].beta_dense(prob.p)
        lam_run = path.records[-1].lam
        cd = cd_solve(prob, lam_run, tol=1e-12, max_sweeps=100000)
        worst_obj = max(
            worst_obj,
            abs(objective(prob, beta_newton, lam_run) - objective(prob, cd.beta, lam_run)),
        )
        worst_beta = max(worst_beta, float(np.max(np.abs(beta_newton - cd.beta))))
    _verdict(
        "03 oracle-agreement",
        worst_obj <= 1e-8 and worst_beta <= 1e-6,
        f"worst objective gap {worst_obj:.2e}, worst coefficient gap {worst_beta:.2e}",
    )


def test_04_dense_newton_equivalence():
    worst = 0.0
    rng = np.random.default_rng(404)
    for s in range(50):
        if s % 2 == 0:
            prob, _ = _gaussian_instance(30, 60, 0.1, seed=(404, s))
            beta = 0.2 * rng.standard_normal(prob.p)
            state = PrimalDualState(beta, refresh_dual(prob, beta))
            lam = rng.uniform(0.3, 0.7) * default_lambda0(prob)
        else:
            prob, _ = _gaussian_instance(30, 50, 0.0, seed=(404, s))
            state = cold_start(prob)
            lam = 0.5 * default_lambda0(prob)
        part = active_partition(state, lam)
        a = ssn_update(prob, state, part, lam)
        b = newton_step_dense(prob, state, part, lam)
        worst = max(
            worst,
            float(np.max(np.abs(a.beta - b.beta))),
            float(np.max(np.abs(a.dual - b.dual))),
        )
    _verdict("04 dense-newton-equivalence", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_05_one_step_convergence():
    worst = 0.0
    for s in range(20):
        prob, _ = _gaussian_instance(60, 30, 0.0, seed=(505, s), sigma=0.3, T=6)
        lam = 0.4 * default_lambda0(prob)
        cd = cd_solve(prob, lam, tol=1e-13, max_sweeps=100000)
        state = PrimalDualState(cd.beta, refresh_dual(prob, cd.beta))
        ref = ssn_update(prob, state, active_partition(state, lam), lam)
        gaps = np.abs(np.abs(ref.beta + ref.dual) - lam)
        margin = float(gaps[gaps > 1e-9].min())
        rng = np.random.default_rng((505, s))
        init = PrimalDualState(
            ref.beta + 0.49 * margin * rng.uniform(-1, 1, prob.p),
            ref.dual + 0.49 * margin * rng.uniform(-1, 1, prob.p),
        )
        out = ssn_solve(prob, init, SsnConfig(lam=lam, max_iter=1))
        assert out.iterations == 1
        worst = max(worst, float(np.max(np.abs(out.state.beta - ref.beta))))
    _verdict("05 one-step-convergence", worst <= 1e-9, f"worst recovery gap {worst:.2e}")


def test_06_ridge_weight_limit():
    ok = 0
    final = []
    for s in range(10):
        prob, _ = _gaussian_instance(40, 15, 0.0, seed=(606, s), sigma=0.3, T=5)
        lam = 0.3 * default_lambda0(prob)
        direct = cd_solve(prob, lam, tol=1e-13, max_sweeps=200000).beta
        betas = min_norm_probe(prob, lam, [1e-2, 1e-4, 1e-6], tol=1e-13, max_sweeps=200000)
        d = [float(np.linalg.norm(b - direct)) for b in betas]
        if d[0] > d[1] > d[2] and d[2] < 1e-4:
            ok += 1
        final.append(d[2])
    _verdict(
        "06 ridge-weight-limit",
        ok == 10,
        f"{ok}/10 monotone, largest final distance {max(final):.2e}",
    )


def test_07_support_recovery_benchmark():
    start = time.perf_counter()
    cell = [SimConfig(n=600, p=3000, design="classical", corr=0.3, sigma=0.2, T=40)]
    rec = run_benchmark(cell, solver="snap", selector="mbic", reps=20, base_seed=1,
                        num_knots=101, max_inner=1)[0]
    elapsed = time.perf_counter() - start
    main_ok = rec.cm >= 0.80 and 40.0 <= rec.ms <= 41.0 and rec.ae <= 0.12 and elapsed < 600
    _verdict(
        "07a support-recovery (n=600, p=3000)",
        main_ok,
        f"cm={rec.cm:.2f} ms={rec.ms:.2f} ae={rec.ae:.4f} in {elapsed:.1f}s",
    )
    start = time.perf_counter()
    small = [SimConfig(n=200, p=1000, design="classical", corr=0.1, sigma=0.01, T=5)]
    rec2 = run_benchmark(small, solver="snap", selector="mbic", reps=20, base_seed=1,
                         num_knots=101, max_inner=1)[0]
    elapsed2 = time.perf_counter() - start
    _verdict(
        "07b support-recovery fallback (n=200, p=1000)",
        rec2.cm >= 0.90 and elapsed2 < 60,
        f"cm={rec2.cm:.2f} in {elapsed2:.1f}s",
    )


def test_08_inner_iteration_economy():
    contained = 0
    medians = []
    for s in range(20):
        cfg = SimConfig(n=400, p=2000, design="classical", corr=0.5, sigma=0.1, T=10,
                        seed=(808, s))
        prob, truth = make_instance(cfg)
        pcfg = PathConfig(lambda0=default_lambda0(prob), gamma=1e-3 ** (1 / 100),
                          num_knots=101, max_inner=5, shift_schedule="shifted")
        path = solve_path(prob, pcfg)
        sel = mbic_select(prob, path)
        true_support = set(truth.support.tolist())
        if all(set(r.indices.tolist()) <= true_support
               for r in path.records[: sel.chosen_knot + 1]):
            contained += 1
        medians.append(float(np.median([r.iterations for r in path.records])))
    _verdict(
        "08 inner-iteration-economy",
        max(medians) <= 2.0 and contained >= 18,
        f"max median iterations {max(medians):.1f}, containment {contained}/20 seeds",
    )


def test_09_sign_recovery_end_to_end():
    # primary config: low-coherence regime where the assumptions hold
    qualifying = passed = 0
    seed = 0
    while qualifying < 20 and seed < 80:
        cfg = SimConfig(n=2000, p=500, design="autocorr", corr=0.0, sigma=1e-3, T=2,
                        seed=(909, seed))
        seed += 1
        prob, truth = make_instance(cfg)
        report = theory_check(prob, truth)
        if not (report.a1_holds and report.a2_holds):
            continue
        qualifying += 1
        pcfg = sign_recovery_config(prob, truth.sigma, max_inner=max(10, truth.T))
        path = solve_path(prob, pcfg)
        beta_hat = path.records[-1].beta_dense(prob.p)
        sign_ok = np.array_equal(np.sign(beta_hat), np.sign(truth.beta_true))
        err = float(np.max(np.abs(beta_hat - truth.beta_true)))
        if sign_ok and err < (23.0 / 6.0) * report.lambda_u:
            passed += 1
    _verdict(
        "09a sign-recovery end-to-end (n=2000, p=500, T=2)",
        qualifying == 20 and passed >= 18,
        f"{passed}/{qualifying} qualifying seeds recovered signs within the bound",
    )
    # desk-scale config from the same family: coherence is too high for the
    # assumptions, so the criterion is not applicable there; report it
    na = 0
    for s in range(5):
        cfg = SimConfig(n=500, p=1000, design="autocorr", corr=0.0, sigma=1e-3, T=2,
                        seed=(910, s))
        prob, truth = make_instance(cfg)
        report = theory_check(prob, truth)
        if not (report.a1_holds and report.a2_holds):
            na += 1
    print(
        f"criterion 09b (n=500, p=1000, T=2): not applicable on {na}/5 probe seeds "
        "(coherence above the assumption threshold)"
    )


def test_10_property_suites():
    # worst-pairwise-correlation (coherence) inequalities, 500 draws
    rng = np.random.default_rng(1010)
    slack = 1e-10
    violations = 0
    for trial in range(500):
        prob, _ = _gaussian_instance(40, 16, 0.0, seed=(1010, trial), T=3)
        nu = mutual_coherence(prob)
        n, p = prob.n, prob.p
        perm = rng.permutation(p)
        a = int(rng.integers(1, 7))
        b = int(rng.integers(1, 7))
        A, B = np.sort(perm[:a]), np.sort(perm[a : a + b])
        u = rng.standard_normal(a)
        XA, XB = prob.X[:, A], prob.X[:, B]
        uinf = float(np.max(np.abs(u)))
        if float(np.max(np.abs(XB.T @ (XA @ u)))) > n * a * nu * uinf + slack:
            violations += 1
        if np.linalg.norm(XA, 2) > np.sqrt(n * (1 + (a - 1) * nu)) + slack:
            violations += 1
        gram_u = XA.T @ (XA @ u)
        if float(np.max(np.abs(gram_u - n * u))) > n * (1 + (a - 1) * nu) * uinf + slack:
            violations += 1
        if (a - 1) * nu < 1.0:
            lower = n * (1 - (a - 1) * nu)
            if float(np.max(np.abs(gram_u))) < lower * uinf - slack:
                violations += 1
            v = np.linalg.solve(XA.T @ XA, u)
            if float(np.max(np.abs(v))) > uinf / lower + slack:
                violations += 1

    # soft-threshold contraction and exact local linearity, 1000 draws each
    rng2 = np.random.default_rng(1011)
    for _ in range(1000):
        x1, x2 = rng2.uniform(-10, 10, 2)
        lam = rng2.uniform(0, 3)
        if abs(soft_threshold(x1, lam) - soft_threshold(x2, lam)) > abs(x1 - x2) + 1e-15:
            violations += 1
    checked = 0
    while checked < 1000:
        x = rng2.integers(-(2**20), 2**20) / 2**18
        lam = rng2.integers(0, 2**20) / 2**18
        gap = abs(abs(x) - lam)
        if gap == 0.0:
            continue
        h = (gap * rng2.integers(1, 2**10) / 2**10) / 2.0
        if rng2.random() < 0.5:
            h = -h
        grad = 1.0 if abs(x + h) > lam else 0.0
        if soft_threshold(x + h, lam) - soft_threshold(x, lam) - grad * h != 0.0:
            violations += 1
        checked += 1

    # coordinate-descent objective monotonicity, sweep by sweep
    for s in range(5):
        prob, _ = _gaussian_instance(25, 50, 0.05 * (s % 2), seed=(1012, s))
        lam = 0.2 * default_lambda0(prob)
        beta = None
        prev = np.inf
        for _ in range(20):
            beta = cd_solve(prob, lam, init=beta, tol=1e-300, max_sweeps=1).beta
            value = objective(prob, beta, lam)
            if value > prev + 1e-12:
                violations += 1
            prev = value

    _verdict("10 property-suites", violations == 0, f"{violations} violations")
