#!/usr/bin/env python3
"""Solve one l1-penalized least-squares problem and check it two ways.

Generates a small sparse-regression instance, runs the active-set Newton
solver at a single penalty level, and verifies the result against the
stationarity system and an independent coordinate-descent solve.
"""

import numpy as np

import ssnpath as sp

cfg = sp.SimConfig(n=100, p=250, design="classical", corr=0.3, sigma=0.1, T=6, seed=7)
prob, truth = sp.make_instance(cfg, alpha=0.1)
print(f"instance: n={prob.n}, p={prob.p}, true support {truth.support.tolist()}")

lam = 0.25 * sp.default_lambda0(prob)
print(f"penalty level lam = {lam:.4f} (lambda_max = {sp.default_lambda0(prob):.4f})")

out = sp.ssn_solve(prob, None, sp.SsnConfig(lam=lam, max_iter=10))
beta = out.state.beta
print(f"newton solve: {out.iterations} iterations, stop = {out.stop_reason.value}")
print(f"support found: {np.flatnonzero(beta).tolist()}")

residual = sp.kkt_residual(prob, out.state, lam)
print(f"stationarity residual (sup norm): {residual.norm_inf:.2e}")

cd = sp.cd_solve(prob, lam, tol=1e-12, max_sweeps=50000)
gap = abs(sp.objective(prob, beta, lam) - sp.objective(prob, cd.beta, lam))
print(f"coordinate descent took {cd.sweeps} sweeps; objective gap {gap:.2e}")
print(f"max coefficient difference vs CD: {np.max(np.abs(beta - cd.beta)):.2e}")
