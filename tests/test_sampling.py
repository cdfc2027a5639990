"""Initial-condition sampling: seeded streams and inversion of the
closed-form CDFs.

The samplers are held to their target densities (chi-squared, moments),
the batched sampler to a per-stream loop that inverts each stream's own
draws, bit for bit, and the vectorised stream seeding to numpy's.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from qtraj import (
    DoubleSlitParams,
    InitialCondition,
    IntegrationSchedule,
    NodeSingularity,
    SeededStream,
    make_initial_conditions,
    momentum_cdf,
    position_cdf,
    sample_momenta,
    sample_positions,
)
from qtraj import sampling
from qtraj.dynamics import integrate_batch, rk4_batch
from qtraj.wavefield import node_floor, p_bb, rho

MOMENTUM_SECOND_MOMENT_REF = 33.50224233169468699
CHI2_99_9 = chi2.ppf(0.999, df=49)


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------


def test_stream_reproducible():
    a = SeededStream(42).generator().uniform(size=8)
    b = SeededStream(42).generator().uniform(size=8)
    np.testing.assert_array_equal(a, b)


def test_stream_index_decorrelates():
    a = SeededStream(42, 0).generator().uniform(size=8)
    b = SeededStream(42, 1).generator().uniform(size=8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# samplers vs their target densities
# ---------------------------------------------------------------------------


def test_sample_positions_reproducible(params):
    a = sample_positions(1000, SeededStream(3), params)
    b = sample_positions(1000, SeededStream(3), params)
    np.testing.assert_array_equal(a, b)


def test_sample_positions_within_support(params):
    x = sample_positions(20000, SeededStream(5), params)
    assert x.shape == (20000,)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x)) < params.x_half + 10.0 * params.sigma


def test_sample_positions_chi_squared(params):
    """50 equal-probability bins from the closed-form CDF; df=49."""
    x = sample_positions(10**6, SeededStream(98), params)
    edges = position_cdf(params, 0.0).quantile(np.linspace(0.0, 1.0, 51))
    counts, _ = np.histogram(x, bins=edges)
    expected = x.size / 50.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < CHI2_99_9


def test_sample_momenta_chi_squared(params):
    p = sample_momenta(10**6, SeededStream(99), params)
    edges = momentum_cdf(params).quantile(np.linspace(0.0, 1.0, 51))
    counts, _ = np.histogram(p, bins=edges)
    expected = p.size / 50.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < CHI2_99_9


def test_sample_momenta_second_moment(params):
    p = sample_momenta(10**6, SeededStream(21), params)
    # SE of the mean of p^2 at n=1e6 is about 0.05; allow 6 sigma
    assert np.mean(p * p) == pytest.approx(MOMENTUM_SECOND_MOMENT_REF, abs=0.35)


def test_sample_positions_time_dependent_width(params):
    """Sampling at a later t0 must follow the dispersed density."""
    x5 = sample_positions(10**5, SeededStream(31), params, t0=5.0)
    x0 = sample_positions(10**5, SeededStream(31), params, t0=0.0)
    # variance grows by sigma_t(5)^2 - sigma^2 per packet
    assert np.var(x5) > np.var(x0) + 500.0
    val, _ = quad(lambda xx: rho(xx, 5.0, params), -450.0, 450.0, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# initial-condition assembly
# ---------------------------------------------------------------------------


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        InitialCondition(x0=0.0, p0=0.0, t0=0.0, theory="bohm")


def test_initial_condition_batch_contract(params):
    """A batch has a length; an int index gives one lane with float fields,
    a slice or an index array a sub-batch with the shared t0 and theory;
    x0 and p0 of different shapes raise."""
    ics = make_initial_conditions(6, SeededStream(4), params, 0.5, "revised")
    assert len(ics) == 6
    for i in (0, 3, np.int64(5), -1):
        lane = ics[i]
        assert type(lane.x0) is float and type(lane.p0) is float
        assert (lane.x0, lane.p0, lane.t0, lane.theory) == (ics.x0[i], ics.p0[i], 0.5, "revised")
    for index in (slice(1, 4), np.array([4, 0, 2]), slice(0, 0)):
        sub = ics[index]
        assert len(sub) == len(ics.x0[index]) and (sub.t0, sub.theory) == (0.5, "revised")
        np.testing.assert_array_equal(sub.x0, ics.x0[index])
        np.testing.assert_array_equal(sub.p0, ics.p0[index])
    for x0, p0 in ((np.zeros(3), np.zeros(2)), (np.zeros(3), 0.0)):
        with pytest.raises(ValueError, match="^x0 and p0 must have one shape"):
            InitialCondition(x0=x0, p0=p0)


def test_make_initial_conditions_dbb_momenta_zero(params):
    ics = make_initial_conditions(200, SeededStream(1), params, theory="dbb")
    assert len(ics) == 200
    assert ics.theory == "dbb"
    assert np.all(ics.p0 == 0.0)


def test_make_initial_conditions_positions_paired_across_theories(params):
    """Same master seed draws identical positions for both theories."""
    dbb = make_initial_conditions(300, SeededStream(1), params, theory="dbb")
    rev = make_initial_conditions(300, SeededStream(1), params, theory="revised")
    np.testing.assert_array_equal(dbb.x0, rev.x0)
    assert np.any(rev.p0 != 0.0)


def test_make_initial_conditions_momenta_follow_quantum_density(params):
    ics = make_initial_conditions(4000, SeededStream(9), params, theory="revised")
    p = ics.p0
    # loose two-moment check; the chi-squared test above covers the sampler
    assert np.mean(p) == pytest.approx(0.0, abs=0.5)
    assert np.mean(p * p) == pytest.approx(MOMENTUM_SECOND_MOMENT_REF, rel=0.1)


def test_make_initial_conditions_records_t0(params):
    ics = make_initial_conditions(10, SeededStream(2), params, t0=1.5, theory="revised")
    assert ics.t0 == 1.5


def test_momentum_density_positive_where_sampled(params):
    p = sample_momenta(5000, SeededStream(77), params)
    assert np.all(momentum_cdf(params).pdf(p) > 0.0)


# ---------------------------------------------------------------------------
# batched sampler against the per-stream reference
# ---------------------------------------------------------------------------


def _reference_initial_conditions(n, stream, params, t0, theory):
    """One stream per trajectory, each draw inverted on its own: position,
    then momentum."""
    positions, momenta = position_cdf(params, t0), momentum_cdf(params)
    x = np.empty(n)
    p = np.empty(n)
    for i in range(n):
        rng = SeededStream(stream.master_seed, stream.stream_index + i).generator()
        x[i] = positions.quantile(max(rng.random(), 2.0**-54))
        if theory == "revised":
            p[i] = momenta.quantile(max(rng.random(), 2.0**-54))
    if theory == "dbb":
        p = p_bb(x, t0, params)
    return x, p


def _batched(n, stream, params, t0, theory):
    ics = make_initial_conditions(n, stream, params, t0, theory)
    return ics.x0, ics.p0


@settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@example(seed=1, n=3000, ratio=5.0, mass=1.0, t0=0.7, theory="revised")
@example(seed=2, n=2049, ratio=5.0, mass=1.0, t0=0.0, theory="dbb")
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 3000),
    ratio=st.floats(0.0, 50.0),
    mass=st.floats(0.05, 20.0),
    t0=st.sampled_from([0.0, 0.7]),
    theory=st.sampled_from(["dbb", "revised"]),
)
def test_make_initial_conditions_matches_per_stream_loop(seed, n, ratio, mass, t0, theory):
    """Bit for bit, across chunk boundaries: the quantile of each entry
    depends only on its own draw, so inverting a block of draws at once
    gives what inverting each stream's draws alone gives."""
    params = DoubleSlitParams(x_half=ratio * 10.0, sigma=10.0, mass=mass)
    stream = SeededStream(seed, 3)
    x, p = _batched(n, stream, params, t0, theory)
    x_ref, p_ref = _reference_initial_conditions(n, stream, params, t0, theory)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(p, p_ref)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(p))


def test_extreme_uniform_draws_invert_to_finite_points(params):
    """random() returns 0 and 1 - 2**-53 at its ends; both must land strictly
    inside (0, 1) before inversion, or they would become -inf and +inf."""
    ends = np.array([0.0, 1.0 - 2.0**-53])
    for cdf in (position_cdf(params, 0.0), momentum_cdf(params)):
        x = sampling._inverted(cdf, ends, lambda i: i, "draw")
        assert np.all(np.isfinite(x)) and x[0] < x[1]
        assert 0.0 < cdf(x[0]) < 1e-15 and 1.0 - 1e-15 < cdf(x[1]) < 1.0


class _NanAt:
    """A CDF whose quantile is nan at the given draws."""

    def __init__(self, cdf, draws):
        self.cdf, self.draws = cdf, draws

    def quantile(self, u):
        return np.where(np.isin(u, self.draws), np.nan, self.cdf.quantile(u))


@pytest.mark.parametrize("observable", ["position", "momentum"])
def test_nan_quantile_names_its_stream(params, monkeypatch, observable):
    """A nan quantile at one draw -- stream 707's, in the middle of a chunk
    -- raises naming that stream, in the batched sampler and in the
    one-stream sampler, instead of passing a nan start on."""
    u, w = SeededStream(5, 707).generator().random(2)
    if observable == "position":
        monkeypatch.setattr(sampling, "position_cdf", lambda pr, t: _NanAt(position_cdf(pr, t), [u]))
        draw, what = sample_positions, r"position draw at t0=0\.0"
    else:
        # the batched sampler inverts w, the one-stream sampler u
        monkeypatch.setattr(sampling, "momentum_cdf", lambda pr: _NanAt(momentum_cdf(pr), [u, w]))
        draw, what = sample_momenta, "momentum draw"
    with pytest.raises(ValueError, match=f"^{what} is not finite on stream 707$"):
        make_initial_conditions(1000, SeededStream(5, 7), params, 0.0, "revised")
    with pytest.raises(ValueError, match=f"^{what} is not finite on stream 707$"):
        draw(1, SeededStream(5, 707), params)


@pytest.mark.parametrize("theory", ["dbb", "revised"])
def test_start_below_the_node_floor_is_left_to_the_engines(params, monkeypatch, theory):
    """Inversion samples all of rho, so a draw of 1e-14 lands below the node
    floor (|x| > 122.45 nm at t0 = 0): the sampler returns it, and the
    engines' start-up, the one place that decides where the field is
    defined, raises."""
    monkeypatch.setattr(sampling, "_uniforms", lambda stream, n, per_stream: np.full((n, per_stream), 1e-14))
    ics = make_initial_conditions(1, SeededStream(1), params, 0.0, theory)
    ic = ics[0]
    assert ic.x0 < -122.45 and rho(ic.x0, 0.0, params) < node_floor(params, 0.0)
    for engine in (integrate_batch, rk4_batch):
        with pytest.raises(NodeSingularity):
            engine(ics, IntegrationSchedule(), params)


# ---------------------------------------------------------------------------
# stream states derived a chunk at a time
# ---------------------------------------------------------------------------

#: Master seeds of one to three pool words, and of more words than the
#: 4-word pool holds (above 2**128).
_MASTER_SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(2**128, 2**200)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(seed=2**64 + 5, first=2**32 - 100, count=256)  # one chunk straddles 2**32
@example(seed=2**130 + 7, first=2**32 - 1, count=2)
@example(seed=0, first=0, count=256)
@given(
    seed=_MASTER_SEEDS,
    first=st.integers(0, 2**20) | st.integers(2**32 - 300, 2**32 + 10) | st.integers(2**64 - 10, 2**70),
    count=st.integers(1, 256),
)
def test_chunk_states_equal_per_stream_generators(seed, first, count):
    states = sampling._pcg64_states(seed, first, count)
    expected = [SeededStream(seed, i).generator().bit_generator.state for i in range(first, first + count)]
    assert states == expected


def test_make_initial_conditions_across_two_to_the_32(params):
    """Chunks whose stream indices gain a second word midway still draw
    what the per-stream loop draws."""
    stream = SeededStream(2**130 + 3, 2**32 - 300)
    x, p = _batched(600, stream, params, 0.0, "revised")
    x_ref, p_ref = _reference_initial_conditions(600, stream, params, 0.0, "revised")
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(p, p_ref)


@pytest.mark.parametrize(
    "draw,t0,ends",
    [
        (lambda params, t0: sample_positions(1, SeededStream(1), params, t0), -1e300, "far field"),
        (lambda params, t0: make_initial_conditions(2, SeededStream(1), params, t0, "dbb").x0, -1e160, "far field"),
        (lambda params, t0: sample_positions(1, SeededStream(1), params, t0), -5e151, "returns"),
    ],
    ids=["sample_positions-1e300", "make_initial_conditions-1e160", "sample_positions-5e151"],
)
def test_position_draw_far_from_the_waist(params, draw, t0, ends):
    """Far from the waist the draws are finite, without a floating-point
    warning.  At t0 = -1e300 and -1e160 the position law is the far-field
    one, so m x / |t0| is the momentum quantile of the same uniform draw;
    at t0 = -5e151 the draw is finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = np.atleast_1d(draw(params, t0))
    assert np.all(np.isfinite(x))
    if ends == "far field":
        u = np.array([SeededStream(1, i).generator().random() for i in range(x.size)])
        p = momentum_cdf(params).quantile(u)
        np.testing.assert_allclose(params.mass * x / abs(t0), p, rtol=0.0, atol=1e-12 * params.sigma_p)
