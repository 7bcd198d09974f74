"""Semismooth Newton active-set solver for l1 / elastic-net regression paths.

The package solves

    min_beta (1/2n) ||X beta - y||^2 + lam ||beta||_1 + (alpha/2n) ||beta||^2

at a fixed penalty (:func:`ssn_solve`) and along geometric penalty grids with
warm starts (:func:`solve_path`), selects the penalty by BIC-type criteria,
and ships a coordinate-descent oracle, synthetic-data generators, coherence
checks, and a benchmark harness. See the README and the demos/ scripts for
worked examples.
"""

from .cd import CdResult, cd_path, cd_solve, min_norm_probe
from .datagen import (
    SimConfig,
    TheoryReport,
    TruthModel,
    gen_autocorr,
    gen_beta,
    gen_classical,
    gen_response,
    make_instance,
    mutual_coherence,
    theory_check,
)
from .errors import (
    CgBreakdown,
    DegenerateResponse,
    DimensionMismatch,
    NoiseTooLarge,
    SingularSystem,
    SsnPathError,
    ZeroResidual,
    ZeroTruth,
    ZeroVarianceColumn,
)
from .io import write_metrics_csv, write_path_csv
from .kkt import (
    ActivePartition,
    KktResidual,
    NewtonMatrix,
    active_partition,
    assemble_newton_matrix,
    kkt_residual,
    newton_step_dense,
    refresh_dual,
    soft_threshold,
    soft_threshold_vec,
)
from .metrics import (
    PRESETS,
    MetricsRecord,
    RepMetrics,
    run_benchmark,
    solution_metrics,
)
from .path import (
    KnotRecord,
    PathConfig,
    PathResult,
    default_lambda0,
    grid_floor_index,
    sign_recovery_config,
    solve_path,
)
from .problem import PrimalDualState, ProblemData, cold_start, normalize, objective
from .select import SelectorResult, hbic_select, mbic_select
from .solver import CgPolicy, SsnConfig, SsnOutcome, StopReason, ssn_solve, ssn_update

__version__ = "0.1.0"

__all__ = [
    "ActivePartition",
    "CdResult",
    "CgBreakdown",
    "CgPolicy",
    "DegenerateResponse",
    "DimensionMismatch",
    "KktResidual",
    "KnotRecord",
    "MetricsRecord",
    "NewtonMatrix",
    "NoiseTooLarge",
    "PRESETS",
    "PathConfig",
    "PathResult",
    "PrimalDualState",
    "ProblemData",
    "RepMetrics",
    "SelectorResult",
    "SimConfig",
    "SingularSystem",
    "SsnConfig",
    "SsnOutcome",
    "SsnPathError",
    "StopReason",
    "TheoryReport",
    "TruthModel",
    "ZeroResidual",
    "ZeroTruth",
    "ZeroVarianceColumn",
    "active_partition",
    "assemble_newton_matrix",
    "cd_path",
    "cd_solve",
    "cold_start",
    "default_lambda0",
    "gen_autocorr",
    "gen_beta",
    "gen_classical",
    "gen_response",
    "grid_floor_index",
    "hbic_select",
    "kkt_residual",
    "make_instance",
    "mbic_select",
    "min_norm_probe",
    "mutual_coherence",
    "newton_step_dense",
    "normalize",
    "objective",
    "refresh_dual",
    "run_benchmark",
    "sign_recovery_config",
    "soft_threshold",
    "soft_threshold_vec",
    "solution_metrics",
    "solve_path",
    "ssn_solve",
    "ssn_update",
    "theory_check",
    "write_metrics_csv",
    "write_path_csv",
]
