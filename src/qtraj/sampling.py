"""Reproducible sampling of trajectory initial conditions.

Initial positions are drawn from the position density at the start time
and initial momenta from the closed-form momentum density, both by
rejection sampling against analytic envelopes, so the draws are exact with
respect to the target densities (no quadrature or inversion error).

Reproducibility contract: every random quantity comes from a
:class:`SeededStream`, a named position in a seeded family of independent
generators.  Trajectory ``i`` of an ensemble uses stream index ``i``, and
its position is always drawn before its momentum, so ensembles with the
same master seed agree trajectory-by-trajectory regardless of ensemble
size, execution order, or thread count -- and the two guidance theories
see identical initial positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavefield import (
    DoubleSlitParams,
    momentum_density,
    node_floor,
    norm_constant,
    p_bb,
    rho,
    sigma_t,
)

#: Allowed relative overshoot of density/envelope before declaring a bug.
_ENVELOPE_SLACK = 1.0 + 1e-9

#: Proposal batch size floor; acceptance is ~1/2 for both samplers, so one
#: batch nearly always suffices for a single draw.
_MIN_BATCH = 64

#: Streams whose first proposal rounds are evaluated as one block; bounds the
#: (streams, round) arrays of the batched sampler.
_CHUNK = 256

THEORIES = ("dbb", "revised")


class EnvelopeViolation(Exception):
    """Raised when a target density exceeds its rejection envelope (an implementation bug)."""


@dataclass(frozen=True)
class SeededStream:
    """Addressable member of a family of independent random streams."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError(f"stream_index must be nonnegative, got {self.stream_index!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; equal streams yield equal sequences."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, offset: int) -> "SeededStream":
        return SeededStream(self.master_seed, self.stream_index + offset)


@dataclass(frozen=True)
class InitialCondition:
    """Start state of one trajectory; with the theory, it fixes the path."""

    x0: float
    p0: float
    t0: float = 0.0
    theory: str = "revised"

    def __post_init__(self) -> None:
        if self.theory not in THEORIES:
            raise ValueError(f"theory must be one of {THEORIES}, got {self.theory!r}")


def _gaussian_pdf(x, center, width):
    return np.exp(-0.5 * ((x - center) / width) ** 2) / (width * np.sqrt(2.0 * np.pi))


def _position_ratio(x, params: DoubleSlitParams, t0: float, width: float):
    """Density/envelope ratio and node-floor test for position proposals x.

    Proposal: equal mixture of Gaussians at the two packet centers with the
    time-spread width; rho <= (4/N) * proposal pointwise, with equality
    only for fully overlapping packets.
    """
    proposal = 0.5 * (_gaussian_pdf(x, -params.x_half, width) + _gaussian_pdf(x, params.x_half, width))
    density = rho(x, t0, params)
    ratio = density / (4.0 / norm_constant(params) * proposal)
    return ratio, density > float(node_floor(params, t0))


def _momentum_ratio(p, params: DoubleSlitParams):
    """Density/envelope ratio for momentum proposals p.

    Proposal: Gaussian of width sigma_p; the ratio reduces to
    cos^2(x_half * p / hbar) <= 1 analytically, but it is computed from the
    density itself so a wrong density cannot pass silently.
    """
    return momentum_density(p, params) / (4.0 / norm_constant(params) * _gaussian_pdf(p, 0.0, params.sigma_p))


def _check_envelope(worst: float, what: str, where: str = "") -> None:
    if worst > _ENVELOPE_SLACK:
        raise EnvelopeViolation(f"{what} density exceeds its envelope by factor {worst:.17g}{where}")


def _draw_positions(n: int, rng: np.random.Generator, params: DoubleSlitParams, t0: float) -> np.ndarray:
    """Rejection-sample n positions from rho(., t0) using a live generator."""
    width = float(sigma_t(params, t0))
    out = np.empty(n, dtype=float)
    filled = 0
    while filled < n:
        batch = max(2 * (n - filled), _MIN_BATCH)
        centers = np.where(rng.random(batch) < 0.5, -params.x_half, params.x_half)
        x = rng.normal(centers, width)
        ratio, above_floor = _position_ratio(x, params, t0, width)
        _check_envelope(ratio.max(), "position", f" at t0={t0!r}")
        accepted = x[(rng.random(batch) < ratio) & above_floor]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def _draw_momenta(n: int, rng: np.random.Generator, params: DoubleSlitParams) -> np.ndarray:
    """Rejection-sample n momenta from the closed-form momentum density."""
    out = np.empty(n, dtype=float)
    filled = 0
    while filled < n:
        batch = max(2 * (n - filled), _MIN_BATCH)
        p = rng.normal(0.0, params.sigma_p, size=batch)
        ratio = _momentum_ratio(p, params)
        _check_envelope(ratio.max(), "momentum")
        accepted = p[rng.random(batch) < ratio]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def _first_accepted(keep: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first accepted draw and whether there was one."""
    first = keep.argmax(axis=1)
    return draws[np.arange(draws.shape[0]), first], keep[np.arange(keep.shape[0]), first]


def _sample_chunk(
    streams: list[SeededStream], params: DoubleSlitParams, t0: float, revised: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One position (and, if ``revised``, one momentum) per stream.

    Each stream's generator makes exactly the calls of ``_draw_positions(1, ...)``
    then ``_draw_momenta(1, ...)`` for their first proposal round, in the same
    order; densities, envelope checks and acceptance then run over the whole
    (streams, round) block at once.  A stream whose first round accepts
    nothing (probability about 2**-round) is redrawn through those two
    functions from a fresh generator, so every draw equals theirs bit for bit.
    Envelope checks fail in the order the per-stream loop meets them: the
    first stream with a violation is named, its position before its momentum,
    after the redraws of every stream ahead of it.
    """
    size = max(2, _MIN_BATCH)  # the first round of a single draw
    lanes = len(streams)
    width = float(sigma_t(params, t0))
    rngs = [stream.generator() for stream in streams]
    u = np.empty((lanes, size))
    for row, rng in enumerate(rngs):
        rng.random(out=u[row])
    centers = np.where(u < 0.5, -params.x_half, params.x_half)
    x = np.empty((lanes, size))
    p, v = (np.empty((lanes, size)), np.empty((lanes, size))) if revised else (None, None)
    for row, rng in enumerate(rngs):
        x[row] = rng.normal(centers[row], width)
        rng.random(out=u[row])  # u now holds the acceptance draws
        if revised:
            p[row] = rng.normal(0.0, params.sigma_p, size=size)
            rng.random(out=v[row])
    ratio, above_floor = _position_ratio(x, params, t0, width)
    position_worst = ratio.max(axis=1)
    positions, done = _first_accepted((u < ratio) & above_floor, x)
    momenta, momentum_worst = np.zeros(lanes), np.zeros(lanes)
    if revised:
        ratio = _momentum_ratio(p, params)
        # Only a stream whose first position round accepted goes on to these proposals.
        momentum_worst = np.where(done, ratio.max(axis=1), 0.0)
        momenta, accepted = _first_accepted(v < ratio, p)
        done &= accepted
    bad = np.flatnonzero((position_worst > _ENVELOPE_SLACK) | (momentum_worst > _ENVELOPE_SLACK))
    first_bad = int(bad[0]) if bad.size else lanes
    for row in np.flatnonzero(~done[:first_bad]):  # streams before the first violation run first
        rng = streams[row].generator()
        positions[row] = _draw_positions(1, rng, params, t0)[0]
        if revised:
            momenta[row] = _draw_momenta(1, rng, params)[0]
    if bad.size:
        on_stream = f" on stream {streams[first_bad].stream_index}"
        _check_envelope(position_worst[first_bad], "position", f" at t0={t0!r}{on_stream}")
        _check_envelope(momentum_worst[first_bad], "momentum", on_stream)
    return positions, momenta


def sample_positions(n: int, stream: SeededStream, params: DoubleSlitParams, t0: float = 0.0) -> np.ndarray:
    """n i.i.d. draws from the position density at time t0, from one stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return _draw_positions(n, stream.generator(), params, t0)


def sample_momenta(n: int, stream: SeededStream, params: DoubleSlitParams) -> np.ndarray:
    """n i.i.d. draws from the momentum density, from one stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return _draw_momenta(n, stream.generator(), params)


def make_initial_conditions(
    n: int,
    stream: SeededStream,
    params: DoubleSlitParams,
    t0: float = 0.0,
    theory: str = "revised",
) -> list[InitialCondition]:
    """Initial conditions for n trajectories with per-trajectory substreams.

    Trajectory i draws from ``stream.substream(i)``: first its position,
    then (revised theory only) its momentum.  Under the dbb theory the
    momentum is not a free initial datum -- it is the phase-gradient field
    at the start point, which vanishes identically at t0 = 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if theory not in THEORIES:
        raise ValueError(f"theory must be one of {THEORIES}, got {theory!r}")
    positions = np.empty(n, dtype=float)
    momenta = np.empty(n, dtype=float)
    for start in range(0, n, _CHUNK):
        streams = [stream.substream(i) for i in range(start, min(start + _CHUNK, n))]
        block = slice(start, start + len(streams))
        positions[block], momenta[block] = _sample_chunk(streams, params, t0, theory == "revised")
    if theory == "dbb":
        momenta = np.asarray(p_bb(positions, t0, params), dtype=float).reshape(n)
    return [
        InitialCondition(x0=float(positions[i]), p0=float(momenta[i]), t0=t0, theory=theory)
        for i in range(n)
    ]
