"""Reproducible sampling of trajectory initial conditions.

Initial positions are drawn from the position density at the start time
and initial momenta from the closed-form momentum density, both by
inversion: a uniform draw u becomes the quantile of the closed-form CDF
(:func:`position_cdf` or :func:`momentum_cdf`) at u, which
:meth:`ClosedFormCDF.quantile` confirms to |F(x) - u| <= 1e-14.

Reproducibility contract: every random quantity comes from a
:class:`SeededStream`, a named position in a seeded family of independent
generators.  Trajectory ``i`` of an ensemble uses ``SeededStream(seed, i)``:
its first ``random()`` gives its position and, under the revised theory,
its second gives its momentum, each a column of one :class:`InitialCondition`
batch.  So ensembles with the same master seed agree trajectory-by-trajectory
regardless of ensemble size, execution order, or thread count -- and the two
guidance theories see identical initial positions.  Stream ``i`` of master
seed ``s`` is ``PCG64(SeedSequence(entropy=s, spawn_key=(i,)))``; the batched
sampler derives those states itself, a block of streams at a time, and a
test holds them equal to numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .wavefield import ClosedFormCDF, DoubleSlitParams, GuidanceField, momentum_cdf, position_cdf

#: Streams whose states are derived as one block; bounds the list of states
#: held at once.
_CHUNK = 1024

#: ``random()`` returns k * 2**-53 for k in [0, 2**53); an exact 0 is moved to
#: the middle of its cell, so every u lies strictly in (0, 1).  Adding this to
#: every draw would not do: it rounds the largest draw, 1 - 2**-53, up to 1.
_SMALLEST_U = 2.0 ** -54

THEORIES = ("dbb", "revised")

# numpy's SeedSequence constants (uint32 hashmix and mix) and PCG64's
# 128-bit LCG multiplier, for deriving many streams' states at once.
_POOL_SIZE = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _uint32_words(value: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words, as numpy's SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(hash_const: np.uint32, multiplier: np.uint32):
    """SeedSequence's uint32 hashmix, its multiplier chain advancing one step per call."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * multiplier
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_states(master_seed: int, first: int, count: int) -> list[dict]:
    """``SeededStream(master_seed, i).generator().bit_generator.state`` for
    i in [first, first + count), without building a generator per stream.

    numpy seeds stream i from ``SeedSequence(entropy=master_seed,
    spawn_key=(i,))``: its run entropy padded to the pool size, then the
    words of i, are mixed into a 4-word pool, which ``generate_state(4,
    uint64)`` expands to PCG64's seed and increment.  Those uint32 steps
    run here over all streams at once as (lanes,) arrays; the hash
    multiplier chain depends only on the step, not on the data, so it is
    shared by every lane with as many entropy words.  PCG64's two-step
    seeding follows in Python ints.
    """
    run = _uint32_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    index_words = [_uint32_words(i) for i in range(first, first + count)]
    states: list[dict] = []
    with np.errstate(over="ignore"):
        # Consecutive indices: each word count is one run of lanes, in order.
        for n_words in sorted({len(words) for words in index_words}):
            entropy = np.array([run + words for words in index_words if len(words) == n_words], dtype=np.uint32)
            hashmix = _hasher(_INIT_A, _MULT_A)
            pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
            for src in range(_POOL_SIZE):
                for dst in range(_POOL_SIZE):
                    if src != dst:
                        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
            for src in range(_POOL_SIZE, entropy.shape[1]):
                for dst in range(_POOL_SIZE):
                    pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
            generate = _hasher(_INIT_B, _MULT_B)
            words = [generate(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
            # generate_state(4, uint64) pairs words little-endian; PCG64 reads
            # its seed and increment as (high, low) pairs of those.
            halves = [(words[k] | (words[k + 1] << np.uint64(32))).tolist() for k in (0, 2, 4, 6)]
            for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
                inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
                state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG_MULT + inc) & _MASK128
                states.append(
                    {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
                )
    return states


def _uniforms(stream: SeededStream, n: int, per_stream: int) -> np.ndarray:
    """(n, per_stream) array: row i holds the first ``per_stream`` ``random()``
    draws of ``SeededStream(seed, index + i)``, where ``stream`` is (seed, index).

    Each stream's state is loaded into one reused generator, so no
    ``SeededStream``, ``SeedSequence`` or ``PCG64`` object is built per
    stream.
    """
    draws = np.empty((n, per_stream))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for start in range(0, n, _CHUNK):
        states = _pcg64_states(stream.master_seed, stream.stream_index + start, min(_CHUNK, n - start))
        for row, state in enumerate(states, start):
            bit_generator.state = state
            rng.random(out=draws[row])
    return draws


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


def sample_positions(n: int, stream: SeededStream, params: DoubleSlitParams, t0: float = 0.0) -> np.ndarray:
    """n i.i.d. draws from the position density at time t0, from one stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    u = stream.generator().random(n)
    return _inverted(position_cdf(params, t0), u, lambda i: stream.stream_index, f"position draw at t0={t0!r}")


def sample_momenta(n: int, stream: SeededStream, params: DoubleSlitParams) -> np.ndarray:
    """n i.i.d. draws from the momentum density, from one stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    u = stream.generator().random(n)
    return _inverted(momentum_cdf(params), u, lambda i: stream.stream_index, "momentum draw")


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
    revised = theory == "revised"
    draws = _uniforms(stream, n, 2 if revised else 1)
    stream_of = lambda i: stream.stream_index + i
    positions = _inverted(position_cdf(params, t0), draws[:, 0], stream_of, f"position draw at t0={t0!r}")
    if revised:
        momenta = _inverted(momentum_cdf(params), draws[:, 1], stream_of, "momentum draw")
    else:
        momenta = GuidanceField("dbb", params)(positions, t0)[0]
    return InitialCondition(positions, momenta, t0, theory)
