"""Benchmark workloads: the instance each replication draws and how it is fitted.

Every workload walks 100 knots with the last at 1e-3 * lambda0 and selects a
knot by mbic. Replication m of the workload at position i in ``WORKLOADS``
draws its instance from the seed tuple (seed, i, m), so a run's inputs are a
pure function of ``--seed``. ``why`` records what each workload is for; the
same text sits in BENCHMARK.json for every ``gated`` workload.
"""

from dataclasses import dataclass, replace

from ssnpath import PathConfig, SimConfig, cd_path, default_lambda0, make_instance, solve_path
from ssnpath.metrics import PRESETS

NUM_KNOTS = 100
#: Grid ratio that puts the last knot at 1e-3 * lambda0.
GAMMA = 1e-3 ** (1.0 / (NUM_KNOTS - 1))
CD_TOL = 1e-7
CD_MAX_SWEEPS = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``solver`` is ``"ssn"`` (:func:`solve_path`) or ``"cd"`` (:func:`cd_path`).
    ``alpha_per_n`` sets the ridge weight as a multiple of n. ``mem_passes``
    is the number of instances whose fit is repeated under tracemalloc; one
    suffices for the coordinate-descent path, whose peak barely moves between
    instances and whose traced fit takes about 10 s. ``gated = False`` keeps
    a workload out of BENCHMARK.json; it still runs by name.
    """

    name: str
    why: str
    cell: SimConfig
    solver: str = "ssn"
    alpha_per_n: float = 0.0
    max_inner: int = 1
    shift_schedule: str = "zero"
    mem_passes: int = 3
    gated: bool = True

    @property
    def solves_stated_problem(self):
        """Unshifted knots solve the stated problem, so their KKT residual is meaningful."""
        return self.shift_schedule == "zero"

    @property
    def has_unique_minimizer(self):
        """alpha > 0 makes the minimizer unique, so a CD oracle can check the pick."""
        return self.alpha_per_n > 0.0

    def instance(self, seed, index, m):
        cell = replace(self.cell, seed=(seed, index, m))
        return make_instance(cell, alpha=self.alpha_per_n * cell.n)

    def path_config(self, prob):
        return PathConfig(
            lambda0=default_lambda0(prob),
            gamma=GAMMA,
            num_knots=NUM_KNOTS,
            max_inner=self.max_inner,
            shift_schedule=self.shift_schedule,
        )

    def run_path(self, prob, config):
        if self.solver == "cd":
            return cd_path(prob, config, tol=CD_TOL, max_sweeps=CD_MAX_SWEEPS)
        return solve_path(prob, config)


WORKLOADS = (
    Workload(
        "table1",
        "the paper's headline cell and the CLI bench default; restricted solve, dual "
        "refresh and setup each take a sizeable share, so a change to any shows",
        PRESETS["table1"][0],
        shift_schedule="shifted",
    ),
    Workload(
        "table2",
        "X is 80 MB, far past cache: the full-length dual refresh, setup and the "
        "per-knot dense duals dominate, while the restricted solve is small",
        PRESETS["table2"][0],
        shift_schedule="shifted",
    ),
    Workload(
        "enet",
        "stated elastic-net problem solved to convergence: active sets near n/2, "
        "budgeted CG leaves some converged knots off KKT, and a CD oracle checks the pick",
        PRESETS["table1"][0],
        alpha_per_n=0.1,
        max_inner=5,
        # Kept out of BENCHMARK.json because a fit can fail its checks here: a
        # knot that budgeted CG leaves off KKT can be the one mbic selects, and
        # then the CD-oracle check fails. On seed 1466602153, replication 79 selects knot 42
        # (active_set_repeated, KKT residual 2.0e-4 * lam), 2.0e-4 from the
        # converged oracle against a limit of 1e-4. The check stands, so the
        # workload is run by hand and its failures are reported there.
        gated=False,
    ),
    Workload(
        "cd_small",
        "the only workload that runs the coordinate-descent path; no Newton-solver "
        "work happens here, so a solver change should leave it unchanged",
        PRESETS["small"][0],
        solver="cd",
        mem_passes=1,
        # On a shared 2-vCPU host, pure-Python sweeps swing with the host's load
        # far more than the BLAS workloads: run medians of 1.03, 1.24 and 1.36 s
        # over three ten-seed sets, spreads up to 0.28. No bound the benchmark may set holds that,
        # so it is run by hand, and with enet it is where the cd layer is timed.
        gated=False,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
