"""Trajectory ensembles and their comparison against the quantum densities.

Runs reproducible ensembles under either guidance law, extracts position
and momentum values at common time slices, and quantifies the match with
the closed-form quantum densities via histograms, one-sample
Kolmogorov-Smirnov tests, and a central-dip ratio for the momentum
histograms (the observable that separates the two trajectory theories from
quantum mechanics at intermediate times).

Reproducibility: trajectory i draws from seed stream i regardless of
ensemble size, a lane's transported values do not depend on the batch it
rides in, and every statistic is a pure function of the ensemble, so a
(config, seed) pair fixes all outputs bit for bit at any worker count.
Fixed-size batches bound the working set of each transport call.
"""

from __future__ import annotations

import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .dynamics import IntegrationSchedule, TrajectoryColumns, integrate_batch
from .sampling import THEORIES, SeededStream, make_initial_conditions
from .wavefield import DoubleSlitParams, GuidanceField

#: Trajectories per transport batch: it bounds each transport call's working
#: set.  A lane's bits do not depend on its batch, so any size gives one result.
_BATCH_SIZE = 2048

#: Trajectories per serialized CSV block; bounds the memory of writing and hashing.
_CSV_BLOCK = 128

#: 10**k for the scalings k = 16 - X, X in [-4, 14], of a '%.17g' fixed-notation
#: value; every power up to 10**22 is an exact double.
_POW10 = np.array([float(10**k) for k in range(21)])

#: Veltkamp's splitter 2**27 + 1: a double splits exactly into two 26-bit halves.
_SPLITTER = 134217729.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the fast '%.17g' path, built on first use.

    A value's 48-byte field is six little-endian words: its sign at byte 0,
    then 21 digit slots, each followed by a slot for the point.  Slot 0 is a
    constant '0' (byte 6), slots 1-20 are the 17 digits zero-padded to 20, as
    five 4-digit groups.  Slot s holds the 10**(X + 4 - s) digit.  Returns
    each group's 8 bytes (its digits, 0xff point slots), the trailing zeros
    of each group, and per (units slot u, last kept slot L) the mask that
    keeps slots min(u, 4)..L and puts '.' after slot u when L > u.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    groups = np.full((10000, 8), 0xFF, np.uint8)
    groups[:, ::2] = digits
    z = digits == ord("0")
    trailing_zeros = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0].astype(np.int8))))
    slot, units, last = np.arange(21), np.arange(19)[:, None, None], np.arange(21)[None, :, None]
    masks = np.zeros((19, 21, 48), np.uint8)
    masks[..., 0] = 0xFF
    masks[..., 6::2] = ((slot >= np.minimum(units, 4)) & (slot <= last)) * 0xFF
    masks[..., 7::2] = ((slot == units) & (last > units)) * ord(".")
    return groups.view("<u8").ravel(), trailing_zeros, masks.view("<u8").reshape(19 * 21, 6)


_POW10_HI, _POW10_LO = _split(_POW10)
#: Word 0 of a field before masking: NUL sign, the constant '0' and its point slot.
_FIELD_HEAD = np.frombuffer(b"\0" * 6 + b"0\xff", "<u8")[0]

#: Two-sided KS critical coefficients c(alpha), statistic threshold c/sqrt(n).
_KS_COEFFICIENTS = {0.01: 1.63, 0.05: 1.36}

_OBSERVABLES = ("position", "momentum")


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything that determines an ensemble besides the physical params."""

    n_traj: int
    theory: str
    master_seed: int
    schedule: IntegrationSchedule
    slice_times: tuple[float, ...]
    n_bins: int  # ranges follow: histogram_edges(params, schedule.t_final, n_bins)

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.theory not in THEORIES:
            raise ValueError(f"theory must be one of {THEORIES}, got {self.theory!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed!r}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins!r}")
        for t in self.slice_times:
            if not self.schedule.t0 <= t <= self.schedule.t_final:
                raise ValueError(f"slice time {t!r} outside [{self.schedule.t0!r}, {self.schedule.t_final!r}]")


def histogram_edges(params: DoubleSlitParams, t_final: float, n_bins: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum bin edges, symmetric about 0 and wide enough for every slice."""
    x_hw = params.position_half_width(t_final)
    p_hw = 6.0 * params.sigma_p
    return np.linspace(-x_hw, x_hw, n_bins + 1), np.linspace(-p_hw, p_hw, n_bins + 1)


def default_config(
    params: DoubleSlitParams,
    theory: str = "revised",
    n_traj: int = 40000,
    master_seed: int = 1,
    schedule: IntegrationSchedule | None = None,
    slice_times: tuple[float, ...] | None = None,
    n_bins: int = 200,
) -> EnsembleConfig:
    sched = schedule if schedule is not None else IntegrationSchedule()
    slices = slice_times if slice_times is not None else (sched.t0, 3.5, sched.t_final)
    return EnsembleConfig(
        n_traj=n_traj,
        theory=theory,
        master_seed=master_seed,
        schedule=sched,
        slice_times=tuple(slices),
        n_bins=n_bins,
    )


def _scaled(a: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round-half-even(a * 10**(16 - exponent)) as int64, and the fraction of the exact product.

    Dekker's TwoProduct gives the product exactly as p + err.  When
    p >= 2**53 it is an even integer, so the rounded value is p + rint(err).
    """
    k = 16 - exponent
    b, b_hi, b_lo = np.take(_POW10, k), np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    p = a * b
    a_hi, a_lo = _split(a)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64), err - np.floor(err)


def _format_17g(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of every value as a 48-byte row padded with NUL bytes.

    Values in [1e-4, 1e15) in magnitude (``%g``'s fixed notation) take an
    exact numpy path: their 17 digits D = round-half-even(|v| * 10**(16 - X))
    must lie in [10**16, 10**17).  The exponent X is guessed from log10 and
    moved by one where D falls outside, so only +, -, *, rint and floor
    decide a digit.  Every other value, one whose D is still outside, and
    one whose scaled remainder lies within 1e-6 of a decimal tie, goes
    through Python's ``'%.17g'``.
    """
    group_bytes, group_trailing_zeros, field_masks = _digit_tables()
    v = np.ravel(values)
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 1.0)
    exponent = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 14)
    digits, frac = _scaled(a, exponent)
    off = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    exponent[off] += np.where(digits[off] < 10**16, -1, 1)
    digits[off], frac[off] = _scaled(a[off], exponent[off])
    fast &= (digits >= 10**16) & (digits < 10**17) & (np.abs(frac - 0.5) > 1e-6)

    groups = np.empty((5, n), np.int64)
    rest = digits
    for i, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[i] = rest // scale
        rest = rest - groups[i] * scale
    groups[4] = rest
    tz, zero = np.take(group_trailing_zeros, groups), groups == 0
    trailing = tz[4] + zero[4] * (tz[3] + zero[3] * (tz[2] + zero[2] * tz[1]))
    units = exponent + 4
    last = np.maximum(units, 20 - trailing)

    out = np.empty((n, 6), np.uint64)
    out[:, 0] = _FIELD_HEAD | (v < 0).astype(np.uint64) * ord("-")
    out[:, 1:] = np.take(group_bytes, groups).T
    out &= np.take(field_masks, units * 21 + last, axis=0)
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _byte_rows([b"%.17g" % s for s in v[slow].tolist()], 48)
    return out.reshape(np.shape(values) + (48,))


def _byte_rows(strings: list, width: int | None = None) -> np.ndarray:
    """ASCII strings as rows of a uint8 matrix, padded with NUL bytes."""
    return np.array(strings, dtype=f"S{width or ''}").view(np.uint8).reshape(len(strings), -1)


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

    def csv_blocks(self) -> Iterator[bytes]:
        """The samples as ASCII CSV bytes, one row per (trajectory, sample), in blocks.

        The header comes first, then the rows of ``_CSV_BLOCK`` trajectories
        per block.  Values are ``'%.17g'`` (17 significant digits), so they
        round-trip exactly.  A block's rows are one uint8 matrix of
        NUL-padded fields, compacted by deleting the NUL bytes: traj_id and
        status are formatted once per lane, t once per record time, and x
        and p by :func:`_format_17g`.
        """
        cols = self.trajectories
        yield b"traj_id,t,x,p,status\n"
        times = _byte_rows(["%.17g" % t for t in cols.t.tolist()])
        for start in range(0, len(cols), _CSV_BLOCK):
            lanes = slice(start, start + _CSV_BLOCK)
            n_rec = cols.n_records[lanes]
            recorded = np.arange(len(times)) < n_rec[:, None]
            xp = _format_17g(np.stack((cols.x[lanes][recorded], cols.p[lanes][recorded]), axis=1))
            fields = (
                np.repeat(_byte_rows(["%d" % i for i in range(start, start + n_rec.size)]), n_rec, axis=0),
                np.take(times, np.nonzero(recorded)[1], axis=0),
                xp[:, 0],
                xp[:, 1],
                np.repeat(_byte_rows(cols.status[lanes].tolist()), n_rec, axis=0),
            )
            rows = np.zeros((len(xp), sum(f.shape[1] + 1 for f in fields)), np.uint8)
            end = 0
            for f, separator in zip(fields, b",,,,\n"):
                rows[:, end : end + f.shape[1]] = f
                end += f.shape[1] + 1
                rows[:, end - 1] = separator
            yield rows.tobytes().translate(None, b"\0")

    def data_digest(self) -> str:
        """SHA-256 over the serialized samples; equal digests = equal ensembles."""
        digest = hashlib.sha256()
        for block in self.csv_blocks():
            digest.update(block)
        return digest.hexdigest()


def run_ensemble(
    config: EnsembleConfig, params: DoubleSlitParams, workers: int = 1
) -> EnsembleResult:
    """Sample initial conditions and transport the full ensemble exactly.

    Each batch goes through :func:`qtraj.dynamics.integrate_batch`, so a
    trajectory stops early (status ``node_stalled``) when it escapes to
    infinity.  A pool of ``workers`` threads transports fixed-size slices
    of the sampled batch, so a caller's numpy ``errstate`` never reaches
    them; any worker count yields an identical result.  Stops are recorded
    with their status, never raised; ``workers`` below 1 raises ValueError.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    sched = config.schedule
    ics = make_initial_conditions(
        config.n_traj, SeededStream(config.master_seed, 0), params, sched.t0, config.theory
    )
    batches = [ics[i : i + _BATCH_SIZE] for i in range(0, len(ics), _BATCH_SIZE)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        batch_results = list(pool.map(lambda b: integrate_batch(b, sched, params), batches))
    return EnsembleResult(config=config, params=params, trajectories=TrajectoryColumns.concat(ics, batch_results))


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
    Every lane records a prefix of one grid, so t is looked up on that grid
    once for all lanes.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    sched = result.config.schedule
    tol = 1e-9 * max(1.0, abs(t))
    if not (sched.t0 - tol <= t <= sched.t_final + tol):
        raise ValueError(f"slice time {t!r} outside [{sched.t0!r}, {sched.t_final!r}]")

    cols = result.trajectories
    times, n_rec = cols.t, cols.n_records
    lanes = np.flatnonzero(~(t > times[n_rec - 1] + tol))
    n_excluded = len(cols) - lanes.size
    g = int(np.searchsorted(times, t))
    exact = [i for i in (g, g - 1) if 0 <= i < times.size and abs(times[i] - t) <= tol]
    if exact:
        # on a grid finer than tol a lane may stop within tol before t: it gives its last record
        column = cols.p if observable == "momentum" else cols.x
        values = column[lanes, np.minimum(exact[0], n_rec[lanes] - 1)]
    else:
        # t lies inside (times[g - 1], times[g]), which every lane kept recorded
        w = (t - times[g - 1]) / (times[g] - times[g - 1])
        x_lo = cols.x[lanes, g - 1]
        values = x_lo + w * (cols.x[lanes, g] - x_lo)
        if observable == "momentum":
            field = GuidanceField(result.config.theory, result.params, cols.x[lanes, 0], cols.ics.p0[lanes], sched.t0)
            p, valid = field(values, t)
            # An interpolated point may sit below the node floor even though the
            # recorded samples do not; such values are excluded, not invented.
            values = np.asarray(p, dtype=float)[valid]
            n_excluded += int(valid.size - np.count_nonzero(valid))
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


def build_histogram(values, edges) -> Histogram:
    """Histogram of values over strictly increasing ``edges``; out-of-range values tallied apart."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(edges[1:] > edges[:-1]):
        raise ValueError(f"histogram edges must be at least 2 strictly increasing values, got {edges!r}")
    v = np.asarray(values, dtype=float)
    counts, _ = np.histogram(v, bins=edges)
    total = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (total * widths) if total > 0 else np.zeros_like(widths)
    return Histogram(
        edges=edges,
        counts=counts,
        density=density,
        n_below=int(np.count_nonzero(v < edges[0])),
        n_above=int(np.count_nonzero(v > edges[-1])),
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


def band_metrics(histogram: Histogram, params: DoubleSlitParams) -> tuple[float, float]:
    """Central-dip ratio and side-band peak of a momentum histogram.

    The ratio is the mean density in |p| < sigma_p/2 over the mean density
    in the first side bands sigma_p/2 < |p| < 3 sigma_p/2; below 1 means the
    histogram dips where the quantum momentum density has its global
    maximum -- the signature separating trajectory ensembles from quantum
    mechanics at intermediate times.  The peak is the largest density in
    those side bands.  Raises ValueError for a range not symmetric about 0
    or bins too coarse to resolve both bands.
    """
    edges, sigma_p = histogram.edges, params.sigma_p
    if abs(edges[0] + edges[-1]) > 1e-9 * (edges[-1] - edges[0]):
        raise ValueError("histogram range must be symmetric about 0 for band metrics")
    centers = np.abs(histogram.centers)
    inner = centers < 0.5 * sigma_p
    outer = (centers > 0.5 * sigma_p) & (centers < 1.5 * sigma_p)
    if not inner.any() or not outer.any():
        raise ValueError("histogram too coarse to resolve the central and side bands")
    side = histogram.density[outer]
    center = float(histogram.density[inner].mean())
    mean_side = float(side.mean())
    if mean_side == 0.0:
        dip = float("inf") if center > 0.0 else float("nan")
    else:
        dip = center / mean_side
    return dip, float(side.max())
