"""Quantum trajectory ensembles for the analytic double slit.

Simulates particle trajectories guided by either the Bohm phase-gradient
momentum field or its density-anchored revision, for the closed-form
superposition of two dispersing Gaussian packets, and tests ensemble
statistics against the exact quantum position and momentum densities.
"""

__version__ = "0.1.0"

from .dynamics import IntegrationSchedule
from .ensemble import (
    EnsembleConfig,
    EnsembleResult,
    band_metrics,
    build_histogram,
    ks_test,
    run_ensemble,
    slice_values,
)
from .sampling import (
    InitialCondition,
    SeededStream,
    make_initial_conditions,
)
from .wavefield import (
    HBAR_NM2_ME_PS,
    THEORIES,
    DoubleSlitParams,
    NodeSingularity,
    continuity_residual,
    momentum_cdf,
    p_bb,
    p_revised,
    position_cdf,
    psi,
    rho,
    schrodinger_residual,
)

__all__ = [
    "HBAR_NM2_ME_PS",
    "THEORIES",
    "DoubleSlitParams",
    "NodeSingularity",
    "psi",
    "rho",
    "p_bb",
    "p_revised",
    "position_cdf",
    "momentum_cdf",
    "schrodinger_residual",
    "continuity_residual",
    "SeededStream",
    "InitialCondition",
    "make_initial_conditions",
    "IntegrationSchedule",
    "EnsembleConfig",
    "EnsembleResult",
    "run_ensemble",
    "slice_values",
    "build_histogram",
    "ks_test",
    "band_metrics",
]
