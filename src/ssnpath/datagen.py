"""Synthetic sparse-regression instances and coherence-based theory checks.

Designs
-------
- ``classical``: rows i.i.d. N(0, Sigma) with Sigma_jk = corr^|j-k|,
  realized column-by-column through the first-order recursion
  x_1 ~ N(0,1), x_j = corr * x_{j-1} + sqrt(1 - corr^2) * eps_j.
- ``autocorr``: start from an i.i.d. N(0,1) matrix E and blend neighbors,
  X_j = E_j + corr * (E_{j-1} + E_{j+1}) for interior columns; the first and
  last columns are left untouched.

Nonzero coefficients are sign * 10^u with a fair random sign and
u ~ Uniform[0, 1], placed on a uniformly random support. Responses are
X beta + N(0, sigma^2) noise.

All generators are pure functions of (config, seed). Randomness comes from
numpy's PCG64 via ``default_rng``; the instance seed is split with
``SeedSequence.spawn`` into three substreams, one each for the design, the
coefficients, and the noise, so the pieces are individually reproducible.
Bitwise equality is guaranteed across runs with the same numpy generator;
alternative generators need only match in distribution.

Instances are built in place. The design's normals are drawn a block of rows
at a time on one worker thread, up to two blocks ahead, while the calling
thread blends the block before and copies it into the column-major design.
Right after the draw, ``make_instance`` centers, scales and norm-checks the
design, takes its final norms and rounds it to float32 in one pass over
blocks of columns, which the calling thread and one worker share, and hands
the norms and the float32 copy to ``ProblemData``. The draws keep their
row-major order from the one generator, so the design is the same as a serial
draw's; the generator passed in must not be used elsewhere while a design is
drawn from it. No n-by-p temporary is made, and every entry gets the same
floating-point operations as the whole-array formulas above, so
``tests/test_datagen.py`` checks instances bitwise against a reference
generator written with those formulas.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NoiseTooLarge
from .path import sign_recovery_config
from .problem import ProblemData, _column_pass

# Coherence is an O(p^2 n) dense computation; refuse silly sizes unless forced.
COHERENCE_GUARD_P = 5000

# Designs are drawn about this many entries (2 MiB) at a time, in row blocks
# copied into the column-major design. The worker drawing ahead of the blend
# fills a ring of three such buffers: two more than a serial draw needs, all
# setup memory, freed before the instance is returned.
_DRAW_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: dimensions, design family, noise, sparsity, seed.

    ``corr`` is the design's correlation parameter: in (0, 1) for
    ``classical``, any value >= 0 for ``autocorr`` (0 gives i.i.d. entries).
    ``seed`` may be an int or a tuple of ints (entropy for SeedSequence).
    """

    n: int
    p: int
    design: str
    corr: float
    sigma: float
    T: int
    seed: int | tuple = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2 to center and scale, got {self.n}")
        if self.p < 1:
            raise ValueError(f"p must be at least 1, got {self.p}")
        if self.design not in ("classical", "autocorr"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.design == "classical" and not (0.0 < self.corr < 1.0):
            raise ValueError("classical design needs corr in (0, 1)")
        if self.design == "autocorr" and self.corr < 0.0:
            raise ValueError("autocorr design needs corr >= 0")
        if not (0 <= self.T <= self.p):
            raise ValueError("sparsity T must lie in [0, p]")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")


@dataclass
class TruthModel:
    """Ground-truth coefficients for metric computation.

    ``support`` is the sorted index set of nonzeros; ``sigma`` the noise
    standard deviation used to generate the response.
    """

    beta_true: np.ndarray
    support: np.ndarray
    sigma: float

    @classmethod
    def from_beta(cls, beta_true, sigma):
        beta_true = np.asarray(beta_true, dtype=np.float64)
        return cls(beta_true, np.flatnonzero(beta_true), float(sigma))

    @property
    def T(self):
        return self.support.shape[0]

    @property
    def beta_min(self):
        if self.T == 0:
            return 0.0
        return float(np.min(np.abs(self.beta_true[self.support])))


def _normal_row_blocks(n, p, rng):
    """Yield ``(rows, E)``, ``E`` holding fresh N(0, 1) draws for a block of rows.

    The generator fills arrays element by element in row-major order, so the
    blocks stacked are bitwise ``rng.standard_normal((n, p))``. One worker
    thread draws the blocks in order, up to two ahead of the caller, into a
    ring of three reused buffers, so ``E`` is valid until the next block is
    requested. Only the worker touches ``rng``, which the caller must not use
    elsewhere until the generator is done; the worker is joined before the
    generator returns, also when it is closed early (``rng`` is then advanced
    by up to two blocks past the last one yielded) or either side raises.
    """
    step = max(1, min(n, _DRAW_ENTRIES // max(p, 1)))
    blocks = [slice(a, min(a + step, n)) for a in range(0, n, step)]
    ring = [np.empty((step, p)) for _ in range(3)]

    def draw(k):
        E = ring[k % 3][: blocks[k].stop - blocks[k].start]
        rng.standard_normal(out=E)
        return E

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = deque(worker.submit(draw, k) for k in range(min(2, len(blocks))))
        for k, rows in enumerate(blocks):
            E = ahead.popleft().result()
            if k + 2 < len(blocks):
                # block k + 2 reuses the buffer of block k - 1, which the caller is done with
                ahead.append(worker.submit(draw, k + 2))
            yield rows, E


def gen_classical(n, p, rho, rng):
    """Rows i.i.d. N(0, Sigma), Sigma_jk = rho^|j-k|, via the AR recursion."""
    c = math.sqrt(1.0 - rho * rho)
    X = np.empty((n, p), order="F")
    for rows, E in _normal_row_blocks(n, p, rng):
        E[:, 1:] *= c
        X[rows] = E
    # X_j = c * E_j + rho * X_{j-1}, one column view at a time in place.
    lag = np.empty(n)
    cols = list(X.T)
    for prev, col in zip(cols, cols[1:]):
        np.multiply(prev, rho, out=lag)
        np.add(col, lag, out=col)
    return X


def gen_autocorr(n, p, nu, rng):
    """Neighbor-blended Gaussian design; first and last columns untouched."""
    X = np.empty((n, p), order="F")
    for rows, E in _normal_row_blocks(n, p, rng):
        if p >= 3 and nu != 0.0:
            E[:, 1 : p - 1] += nu * (E[:, : p - 2] + E[:, 2:])
        X[rows] = E
    return X


def gen_beta(p, T, rng):
    """Sparse coefficients: uniform random support, entries sign * 10^Uniform[0,1].

    Every nonzero magnitude lies in [1, 10], so the magnitude range never
    exceeds 10.
    """
    beta = np.zeros(p)
    support = rng.choice(p, size=T, replace=False)
    signs = np.where(rng.random(T) < 0.5, -1.0, 1.0)
    beta[support] = signs * 10.0 ** rng.random(T)
    return beta


def gen_response(X, beta_true, sigma, rng):
    """y = X beta + N(0, sigma^2) noise."""
    y = X @ beta_true
    if sigma > 0.0:
        y = y + sigma * rng.standard_normal(X.shape[0])
    return y


def make_instance(config, alpha=0.0):
    """Generate (ProblemData, TruthModel) for a simulation cell.

    The design is centered and scaled to column norm sqrt(n) before the
    response is built, so the stored truth refers to the normalized columns.
    The response is centered; with centered columns that only removes the
    mean of the noise.
    """
    ss = np.random.SeedSequence(config.seed)
    s_design, s_coef, s_noise = ss.spawn(3)
    rng_design = np.random.default_rng(s_design)
    if config.design == "classical":
        X = gen_classical(config.n, config.p, config.corr, rng_design)
    else:
        X = gen_autocorr(config.n, config.p, config.corr, rng_design)
    design = _column_pass(X, X, center=True)
    beta_true = gen_beta(config.p, config.T, np.random.default_rng(s_coef))
    y = gen_response(X, beta_true, config.sigma, np.random.default_rng(s_noise))
    y = y - y.mean()
    return ProblemData(design, y, alpha), TruthModel.from_beta(beta_true, config.sigma)


def mutual_coherence(prob, force=False):
    """max_{i != j} |X_i'X_j| / n, the worst pairwise column correlation."""
    p = prob.p
    if p > COHERENCE_GUARD_P and not force:
        raise ValueError(
            f"coherence is O(p^2 n) dense work and p = {p} > {COHERENCE_GUARD_P}; "
            "pass force=True to override"
        )
    G = prob.X.T @ prob.X
    np.fill_diagonal(G, 0.0)
    return float(np.max(np.abs(G))) / prob.n


@dataclass
class TheoryReport:
    """Checks of the coherence and signal-strength conditions for sign recovery.

    ``a1_holds``: T * coherence <= 1/4. ``a2_holds``: the smallest nonzero
    coefficient is at least 78 * lambda_u, with lambda_u the universal noise
    threshold sigma * sqrt(2 log(p) / n). ``recovery_last_knot`` is the index
    of the last knot of the sign-recovery grid when that grid exists, which
    needs lambda_u > 0.
    """

    coherence: float
    t_times_coherence: float
    a1_holds: bool
    lambda_u: float
    delta_u: float
    beta_min: float
    a2_holds: bool
    recovery_last_knot: int | None


def theory_check(prob, truth, force=False):
    """Report-only evaluation of the recovery conditions for one instance."""
    nu = mutual_coherence(prob, force=force)
    t_nu = truth.T * nu
    lam_u = truth.sigma * math.sqrt(2.0 * math.log(prob.p) / prob.n)
    beta_min = truth.beta_min
    last_knot = None
    # no grid without a positive noise floor: sigma = 0 or a one-column design
    if lam_u > 0.0:
        try:
            last_knot = sign_recovery_config(prob, truth.sigma).num_knots - 1
        except NoiseTooLarge:
            last_knot = None
    return TheoryReport(
        coherence=nu,
        t_times_coherence=t_nu,
        a1_holds=bool(t_nu <= 0.25),
        lambda_u=lam_u,
        delta_u=3.0 * lam_u,
        beta_min=beta_min,
        a2_holds=bool(beta_min >= 78.0 * lam_u),
        recovery_last_knot=last_knot,
    )
