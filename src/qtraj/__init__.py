"""Quantum trajectory ensembles for the analytic double slit.

Simulates particle trajectories guided by either the Bohm phase-gradient
momentum field or its density-anchored revision, for the closed-form
superposition of two dispersing Gaussian packets, and tests ensemble
statistics against the exact quantum position and momentum densities.
"""

__version__ = "0.1.0"

from .dynamics import IntegrationSchedule, Trajectory
from .ensemble import (
    EnsembleConfig,
    EnsembleResult,
    Histogram,
    HistogramSpec,
    KSResult,
    SliceOutOfRange,
    TimeSlice,
    build_histogram,
    central_dip_metric,
    default_config,
    default_histogram_specs,
    ks_critical,
    ks_test,
    run_ensemble,
    side_band_peak,
    slice_values,
)
from .sampling import (
    THEORIES,
    InitialCondition,
    SeededStream,
    make_initial_conditions,
)
from .wavefield import (
    HBAR_NM2_ME_PS,
    DoubleSlitParams,
    NodeSingularity,
    continuity_residual,
    continuity_truncation_bound,
    envelope_density,
    momentum_cdf,
    node_floor,
    norm_constant,
    p_bb,
    p_revised,
    packet_amplitude,
    position_cdf,
    psi,
    rho,
    rho_peak_bound,
    schrodinger_residual,
    sigma_t,
    spread,
)

__all__ = [
    "HBAR_NM2_ME_PS",
    "THEORIES",
    "DoubleSlitParams",
    "EnsembleConfig",
    "EnsembleResult",
    "Histogram",
    "HistogramSpec",
    "InitialCondition",
    "IntegrationSchedule",
    "KSResult",
    "NodeSingularity",
    "SeededStream",
    "SliceOutOfRange",
    "TimeSlice",
    "Trajectory",
    "build_histogram",
    "central_dip_metric",
    "continuity_residual",
    "continuity_truncation_bound",
    "default_config",
    "default_histogram_specs",
    "envelope_density",
    "ks_critical",
    "ks_test",
    "make_initial_conditions",
    "momentum_cdf",
    "node_floor",
    "norm_constant",
    "p_bb",
    "p_revised",
    "packet_amplitude",
    "position_cdf",
    "psi",
    "rho",
    "rho_peak_bound",
    "run_ensemble",
    "schrodinger_residual",
    "side_band_peak",
    "sigma_t",
    "slice_values",
    "spread",
]
