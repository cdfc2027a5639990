"""Reproducible sampling of trajectory initial conditions.

Initial positions are drawn from the position density at the start time
and initial momenta from the closed-form momentum density, both by
inversion: a uniform draw u becomes the quantile of the closed-form CDF
(:func:`position_cdf` or :func:`momentum_cdf`) at u, which
:meth:`ClosedFormCDF.quantile` confirms to |F(x) - u| <= 1e-14.

Reproducibility contract: every random quantity comes from a
:class:`SeededStream`, the address (master seed, stream index) of one
counter-based stream.  Stream ``i`` of master seed ``s`` is block ``i`` of
Philox4x64-10 under the key ``SeedSequence(s).generate_state(2, uint64)``:
the four 64-bit words at counter ``i``, of which a trajectory uses the
first two, as ``random()`` would -- the position uniform, then (revised
theory only) the momentum uniform.  So all the streams of a batch come
from one Philox call, and ensembles with the same master seed agree
trajectory-by-trajectory regardless of ensemble size, execution order, or
thread count -- and the two guidance theories see identical initial
positions.  A stream holds just one block, so there is no per-stream
generator: one started at counter ``i`` would run into stream ``i + 1``
after four draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .wavefield import ClosedFormCDF, DoubleSlitParams, GuidanceField, momentum_cdf, position_cdf

#: ``random()`` returns k * 2**-53 for k in [0, 2**53); an exact 0 is moved to
#: the middle of its cell, so every u lies strictly in (0, 1).  Adding this to
#: every draw would not do: it rounds the largest draw, 1 - 2**-53, up to 1.
_SMALLEST_U = 2.0 ** -54

THEORIES = ("dbb", "revised")


@dataclass(frozen=True)
class SeededStream:
    """Address of one stream of a seeded family: Philox block ``stream_index``
    under the key of ``master_seed``."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.stream_index < 2**256:  # Philox's counter is 256 bits
            raise ValueError(f"stream_index must lie in [0, 2**256), got {self.stream_index!r}")


@dataclass(frozen=True)
class InitialCondition:
    """Start states of a same-theory batch: lane i starts at (x0[i], p0[i]) at t0.
    ``x0`` and ``p0`` are equal-length 1-D arrays, or floats for one lane.  An
    int index gives one lane, with float fields; a slice or index array, a sub-batch."""

    x0: float | np.ndarray
    p0: float | np.ndarray
    t0: float = 0.0
    theory: str = "revised"

    def __post_init__(self) -> None:
        if self.theory not in THEORIES:
            raise ValueError(f"theory must be one of {THEORIES}, got {self.theory!r}")
        if np.shape(self.x0) != np.shape(self.p0):
            raise ValueError(f"x0 and p0 must have one shape, got {np.shape(self.x0)} and {np.shape(self.p0)}")

    def __len__(self) -> int:
        return len(self.x0)

    def __getitem__(self, index) -> "InitialCondition":
        if isinstance(index, (int, np.integer)):
            return replace(self, x0=float(self.x0[index]), p0=float(self.p0[index]))
        return replace(self, x0=self.x0[index], p0=self.p0[index])


def _uniforms(stream: SeededStream, n: int) -> np.ndarray:
    """(n, 2) array: row i holds the position and momentum uniforms of
    stream index + i, where ``stream`` is (seed, index).

    One Philox call yields every stream's 4-word block, and each of the
    first two words becomes ``(word >> 11) * 2**-53``, as ``random()`` does.
    """
    key = np.random.SeedSequence(stream.master_seed).generate_state(2, np.uint64)
    words = np.random.Philox(key=key, counter=stream.stream_index).random_raw(4 * n).reshape(n, 4)
    return (words[:, :2] >> np.uint64(11)) * 2.0**-53


def _inverted(cdf: ClosedFormCDF, u: np.ndarray, stream_of: Callable[[int], int], what: str) -> np.ndarray:
    """Quantiles of ``cdf`` at the uniform draws u; entry i was drawn by
    stream ``stream_of(i)``, which a non-finite quantile names.

    Such a quantile raises here, so numpy's floating-point warnings on the
    way to it (the CDF overflows far from the waist) are not shown.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = cdf.quantile(np.maximum(u, _SMALLEST_U))
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{what} is not finite on stream {stream_of(int(bad[0]))}")
    return x


def make_initial_conditions(
    n: int,
    stream: SeededStream,
    params: DoubleSlitParams,
    t0: float = 0.0,
    theory: str = "revised",
) -> InitialCondition:
    """The batch of initial conditions of n trajectories, one stream each.

    Trajectory i draws from ``SeededStream(seed, index + i)``, where ``stream``
    is (seed, index): first its position, then (revised theory only) its
    momentum.  Under the dbb theory the momentum is not a free initial datum
    -- it is the phase-gradient field at the start point, which vanishes
    identically at t0 = 0.  A position below the node floor is drawn like any
    other (the mass there is about 1e-13); the integrators' start-up rejects it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if stream.stream_index + n > 2**256:  # else the last streams would wrap round to counter 0
        raise ValueError(f"{n} streams from index {stream.stream_index} run past the last Philox counter")
    revised = theory == "revised"
    draws = _uniforms(stream, n)
    stream_of = lambda i: stream.stream_index + i
    positions = _inverted(position_cdf(params, t0), draws[:, 0], stream_of, f"position draw at t0={t0!r}")
    if revised:
        momenta = _inverted(momentum_cdf(params), draws[:, 1], stream_of, "momentum draw")
    else:
        momenta = GuidanceField("dbb", params)(positions, t0)[0]
    return InitialCondition(positions, momenta, t0, theory)
