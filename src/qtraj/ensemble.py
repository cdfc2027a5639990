"""Trajectory ensembles and their comparison against the quantum densities.

Runs reproducible ensembles under either guidance law, extracts position
and momentum values at common time slices, and quantifies the match with
the closed-form quantum densities via histograms, one-sample
Kolmogorov-Smirnov tests, and a central-dip ratio for the momentum
histograms (the observable that separates the two trajectory theories from
quantum mechanics at intermediate times).

Reproducibility: trajectory i draws from seed stream i regardless of
ensemble size, trajectories are transported in fixed-size batches whose
composition does not depend on the worker count, and every statistic is a
pure function of the ensemble, so a (config, seed) pair fixes all outputs
bit for bit.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .dynamics import IntegrationSchedule, TrajectoryColumns, default_schedule

# The batch engine keeps the module-level name ``integrate_batch``: the
# benchmark (bench/child.py) wraps that name to time the dynamics layer.
from .dynamics import transport_batch as integrate_batch
from .sampling import THEORIES, SeededStream, make_initial_conditions
from .wavefield import DoubleSlitParams, GuidanceField, momentum_density, rho

#: Trajectories per transport batch.  Fixed, so batch composition -- and
#: therefore every computed value -- is independent of the worker count.
_BATCH_SIZE = 2048

#: Trajectories per serialized CSV block; bounds the memory of writing and hashing.
_CSV_BLOCK = 128

#: Two-sided KS critical coefficients c(alpha), statistic threshold c/sqrt(n).
_KS_COEFFICIENTS = {0.01: 1.63, 0.05: 1.36}

_OBSERVABLES = ("position", "momentum")

#: Grid points of the tabulated position and momentum CDFs.
_CDF_POINTS = 65537


class SliceOutOfRange(Exception):
    """Raised when a time slice lies outside the integration span."""


@dataclass(frozen=True)
class HistogramSpec:
    """Bin count and value range for one observable's histograms."""

    n_bins: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins!r}")
        if not self.hi > self.lo:
            raise ValueError(f"empty histogram range [{self.lo!r}, {self.hi!r}]")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_bins + 1)


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything that determines an ensemble besides the physical params."""

    n_traj: int
    theory: str
    master_seed: int
    schedule: IntegrationSchedule
    slice_times: tuple[float, ...]
    position_hist: HistogramSpec
    momentum_hist: HistogramSpec

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.theory not in THEORIES:
            raise ValueError(f"theory must be one of {THEORIES}, got {self.theory!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed!r}")
        for t in self.slice_times:
            if not self.schedule.t0 <= t <= self.schedule.t_final:
                raise ValueError(f"slice time {t!r} outside [{self.schedule.t0!r}, {self.schedule.t_final!r}]")


def default_histogram_specs(
    params: DoubleSlitParams, t_final: float, n_bins: int = 200
) -> tuple[HistogramSpec, HistogramSpec]:
    """Position and momentum histogram specs wide enough for every slice."""
    x_hw = params.position_half_width(t_final)
    p_hw = 6.0 * params.sigma_p
    return HistogramSpec(n_bins, -x_hw, x_hw), HistogramSpec(n_bins, -p_hw, p_hw)


def default_config(
    params: DoubleSlitParams,
    theory: str = "revised",
    n_traj: int = 40000,
    master_seed: int = 1,
    schedule: IntegrationSchedule | None = None,
    slice_times: tuple[float, ...] | None = None,
    n_bins: int = 200,
) -> EnsembleConfig:
    sched = schedule if schedule is not None else default_schedule(params)
    slices = slice_times if slice_times is not None else (sched.t0, 3.5, sched.t_final)
    pos_spec, mom_spec = default_histogram_specs(params, sched.t_final, n_bins)
    return EnsembleConfig(
        n_traj=n_traj,
        theory=theory,
        master_seed=master_seed,
        schedule=sched,
        slice_times=tuple(slices),
        position_hist=pos_spec,
        momentum_hist=mom_spec,
    )


@dataclass
class EnsembleResult:
    """All trajectories of one run plus the configuration that made them."""

    config: EnsembleConfig
    params: DoubleSlitParams
    trajectories: TrajectoryColumns = field(repr=False)

    @property
    def status_counts(self) -> dict[str, int]:
        names, counts = np.unique(self.trajectories.status, return_counts=True)
        return {str(name): int(count) for name, count in zip(names, counts)}

    def csv_blocks(self) -> Iterator[str]:
        """The samples as CSV text, one row per (trajectory, sample), in blocks.

        The header comes first, then the rows of ``_CSV_BLOCK`` trajectories
        per block.  Values use 17 significant digits, so they round-trip
        exactly; the shared time column is formatted once.
        """
        cols = self.trajectories
        yield "traj_id,t,x,p,status\n"
        times = np.array(["%.17g" % t for t in cols.t.tolist()], dtype=object)
        for start in range(0, len(cols), _CSV_BLOCK):
            lanes = slice(start, start + _CSV_BLOCK)
            n_rec = cols.n_records[lanes]
            recorded = np.arange(times.size) < n_rec[:, None]
            n_rows = int(n_rec.sum())
            fields: list = [None] * (5 * n_rows)
            fields[0::5] = np.repeat(np.arange(start, start + n_rec.size), n_rec).tolist()
            fields[1::5] = np.broadcast_to(times, recorded.shape)[recorded].tolist()
            fields[2::5] = cols.x[lanes][recorded].tolist()
            fields[3::5] = cols.p[lanes][recorded].tolist()
            fields[4::5] = np.repeat(cols.status[lanes], n_rec).tolist()
            yield ("%d,%s,%.17g,%.17g,%s\n" * n_rows) % tuple(fields)

    def data_digest(self) -> str:
        """SHA-256 over the serialized samples; equal digests = equal ensembles."""
        digest = hashlib.sha256()
        for block in self.csv_blocks():
            digest.update(block.encode("ascii"))
        return digest.hexdigest()


def run_ensemble(
    config: EnsembleConfig, params: DoubleSlitParams, workers: int = 1
) -> EnsembleResult:
    """Sample initial conditions and transport the full ensemble exactly.

    Each batch goes through :func:`qtraj.dynamics.transport_batch`, so a
    trajectory stops early (status ``node_stalled``) when it escapes to
    infinity.  ``workers`` threads transport fixed-size batches
    concurrently; any worker count (including 1) yields an identical
    result.  Stops are recorded with their status, never raised.
    """
    sched = config.schedule
    ics = make_initial_conditions(
        config.n_traj, SeededStream(config.master_seed, 0), params, sched.t0, config.theory
    )
    batches = [ics[i : i + _BATCH_SIZE] for i in range(0, len(ics), _BATCH_SIZE)]
    if workers <= 1 or len(batches) == 1:
        batch_results = [integrate_batch(batch, sched, params) for batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batch_results = list(pool.map(lambda b: integrate_batch(b, sched, params), batches))
    return EnsembleResult(config=config, params=params, trajectories=TrajectoryColumns.concat(batch_results))


@dataclass(frozen=True)
class TimeSlice:
    """Observable values across the ensemble at one common time."""

    time: float
    observable: str
    values: np.ndarray
    n_contributing: int
    n_excluded: int


def slice_values(result: EnsembleResult, t: float, observable: str) -> TimeSlice:
    """Ensemble values of one observable at time t.

    Positions are linearly interpolated between the recorded samples that
    bracket t; momenta are re-evaluated from the guidance field at the
    interpolated point rather than interpolated, and come straight from the
    stored samples when t hits the recording grid.  Trajectories whose
    record ends before t (stalled or exited) are excluded and counted.
    Every lane records a prefix of one grid, so each step runs over all
    lanes at once.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    sched = result.config.schedule
    tol = 1e-9 * max(1.0, abs(t))
    if not (sched.t0 - tol <= t <= sched.t_final + tol):
        raise SliceOutOfRange(f"slice time {t!r} outside [{sched.t0!r}, {sched.t_final!r}]")

    cols = result.trajectories
    times, n_rec = cols.t, cols.n_records
    lanes = np.flatnonzero(~(t > times[n_rec - 1] + tol))
    n_rec = n_rec[lanes]
    # a lane's own searchsorted over its records: the grid's, capped at its length
    pos = np.minimum(np.searchsorted(times, t), n_rec)
    above = (pos < n_rec) & (np.abs(times[np.minimum(pos, n_rec - 1)] - t) <= tol)
    below = (pos > 0) & (np.abs(times[np.maximum(pos - 1, 0)] - t) <= tol)
    exact = np.where(above, pos, pos - 1)
    on_grid = above | below

    column = cols.p if observable == "momentum" else cols.x
    grid_values = column[lanes[on_grid], exact[on_grid]]
    between = lanes[~on_grid]
    lo = pos[~on_grid] - 1
    w = (t - times[lo]) / (times[lo + 1] - times[lo])
    x_lo = cols.x[between, lo]
    x_t = x_lo + w * (cols.x[between, lo + 1] - x_lo)
    n_excluded = len(cols) - lanes.size

    if observable == "position":
        values = np.empty(lanes.size)
        values[on_grid], values[~on_grid] = grid_values, x_t
    elif between.size:
        p0 = [cols.ics[i].p0 for i in between]
        field = GuidanceField(result.config.theory, result.params, cols.x[between, 0], p0, sched.t0)
        p, valid = field(x_t, t)
        # An interpolated point may sit below the node floor even though the
        # recorded samples do not; such values are excluded, not invented.
        values = np.concatenate([grid_values, np.asarray(p, dtype=float)[valid]])
        n_excluded += int(valid.size - np.count_nonzero(valid))
    else:
        values = grid_values
    return TimeSlice(
        time=t,
        observable=observable,
        values=values,
        n_contributing=values.size,
        n_excluded=n_excluded,
    )


@dataclass(frozen=True)
class Histogram:
    """Binned counts with a density normalization over the in-range mass."""

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    n_below: int
    n_above: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def build_histogram(values, spec: HistogramSpec) -> Histogram:
    """Histogram of values over ``spec``'s range; out-of-range tallied apart."""
    v = np.asarray(values, dtype=float)
    edges = spec.edges
    counts, _ = np.histogram(v, bins=edges)
    total = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (total * widths) if total > 0 else np.zeros_like(widths)
    return Histogram(
        edges=edges,
        counts=counts,
        density=density,
        n_below=int(np.count_nonzero(v < spec.lo)),
        n_above=int(np.count_nonzero(v > spec.hi)),
    )


@dataclass(frozen=True)
class KSResult:
    """One-sample Kolmogorov-Smirnov comparison against an oracle CDF."""

    statistic: float
    n: int
    alpha: float
    critical_at_alpha: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_at_alpha


def ks_critical(n: int, alpha: float) -> float:
    """Two-sided critical value c(alpha)/sqrt(n); tabulated c for common alpha,
    the asymptotic Smirnov form sqrt(-ln(alpha/2)/2) otherwise."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    coeff = _KS_COEFFICIENTS.get(alpha)
    if coeff is None:
        coeff = float(np.sqrt(-np.log(alpha / 2.0) / 2.0))
    return coeff / float(np.sqrt(n))


def ks_test(values, cdf_oracle: Callable[[np.ndarray], np.ndarray], alpha: float = 0.01) -> KSResult:
    """sup |F_n - F| against a monotone oracle CDF; no values give nan and a failed test."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n < 1:
        return KSResult(statistic=float("nan"), n=0, alpha=alpha, critical_at_alpha=float("nan"))
    f = np.clip(np.asarray(cdf_oracle(v), dtype=float), 0.0, 1.0)
    steps = np.arange(n, dtype=float)
    d_plus = np.max((steps + 1.0) / n - f)
    d_minus = np.max(f - steps / n)
    statistic = float(max(d_plus, d_minus))
    return KSResult(statistic=statistic, n=n, alpha=alpha, critical_at_alpha=ks_critical(n, alpha))


def _band_masks(histogram: Histogram, sigma_p: float) -> tuple[np.ndarray, np.ndarray]:
    centers = histogram.centers
    span = histogram.edges[-1] - histogram.edges[0]
    if abs(histogram.edges[0] + histogram.edges[-1]) > 1e-9 * span:
        raise ValueError("histogram range must be symmetric about 0 for band metrics")
    inner = np.abs(centers) < 0.5 * sigma_p
    outer = (np.abs(centers) > 0.5 * sigma_p) & (np.abs(centers) < 1.5 * sigma_p)
    if not inner.any() or not outer.any():
        raise ValueError("histogram too coarse to resolve the central and side bands")
    return inner, outer


def central_dip_metric(histogram: Histogram, params: DoubleSlitParams) -> float:
    """Mean density in |p| < sigma_p/2 over mean density in the first side bands.

    Below 1 means the histogram dips where the quantum momentum density has
    its global maximum -- the signature separating trajectory ensembles
    from quantum mechanics at intermediate times.
    """
    inner, outer = _band_masks(histogram, params.sigma_p)
    side = float(histogram.density[outer].mean())
    center = float(histogram.density[inner].mean())
    if side == 0.0:
        return float("inf") if center > 0.0 else float("nan")
    return center / side


def side_band_peak(histogram: Histogram, params: DoubleSlitParams) -> float:
    """Largest density in the side bands sigma_p/2 < |p| < 3 sigma_p/2."""
    _, outer = _band_masks(histogram, params.sigma_p)
    return float(histogram.density[outer].max())


@dataclass(frozen=True)
class TabulatedCDF:
    """CDF tabulated on a fine grid; callable, with quantile inversion."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ValueError("grid and values must be matching 1-d arrays")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("cdf values must be non-decreasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.values, left=0.0, right=1.0)

    def quantile(self, q) -> np.ndarray:
        return np.interp(q, self.values, self.grid)


def _tabulate_cdf(pdf: Callable[[np.ndarray], np.ndarray], half_width: float) -> TabulatedCDF:
    grid = np.linspace(-half_width, half_width, _CDF_POINTS)
    cdf = cumulative_trapezoid(pdf(grid), grid, initial=0.0)
    cdf /= cdf[-1]
    return TabulatedCDF(grid=grid, values=cdf)


def position_cdf(params: DoubleSlitParams, t: float) -> TabulatedCDF:
    """Quadrature CDF of the position density at time t on a fine grid."""
    return _tabulate_cdf(lambda x: rho(x, t, params), params.position_half_width(t))


def momentum_cdf(params: DoubleSlitParams) -> TabulatedCDF:
    """Quadrature CDF of the closed-form momentum density (time independent)."""
    return _tabulate_cdf(lambda p: momentum_density(p, params), params.momentum_half_width)
