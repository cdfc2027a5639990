"""Initial-condition sampling: seeded streams and rejection samplers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from qtraj import (
    DoubleSlitParams,
    EnvelopeViolation,
    InitialCondition,
    SeededStream,
    make_initial_conditions,
    momentum_cdf,
    position_cdf,
    sample_momenta,
    sample_positions,
)
from qtraj import sampling
from qtraj.wavefield import momentum_density, p_bb, rho, sigma_t

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


def test_substream_matches_explicit_index():
    a = SeededStream(7).substream(13).generator().uniform(size=8)
    b = SeededStream(7, 13).generator().uniform(size=8)
    np.testing.assert_array_equal(a, b)


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
    """50 equal-probability bins from the quadrature CDF; df=49."""
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


def test_make_initial_conditions_dbb_momenta_zero(params):
    ics = make_initial_conditions(200, SeededStream(1), params, theory="dbb")
    assert len(ics) == 200
    assert all(ic.theory == "dbb" for ic in ics)
    assert all(ic.p0 == 0.0 for ic in ics)


def test_make_initial_conditions_positions_paired_across_theories(params):
    """Same master seed draws identical positions for both theories."""
    dbb = make_initial_conditions(300, SeededStream(1), params, theory="dbb")
    rev = make_initial_conditions(300, SeededStream(1), params, theory="revised")
    np.testing.assert_array_equal([ic.x0 for ic in dbb], [ic.x0 for ic in rev])
    assert any(ic.p0 != 0.0 for ic in rev)


def test_make_initial_conditions_momenta_follow_quantum_density(params):
    ics = make_initial_conditions(4000, SeededStream(9), params, theory="revised")
    p = np.array([ic.p0 for ic in ics])
    # loose two-moment check; the chi-squared test above covers the sampler
    assert np.mean(p) == pytest.approx(0.0, abs=0.5)
    assert np.mean(p * p) == pytest.approx(MOMENTUM_SECOND_MOMENT_REF, rel=0.1)


def test_make_initial_conditions_records_t0(params):
    ics = make_initial_conditions(10, SeededStream(2), params, t0=1.5, theory="revised")
    assert all(ic.t0 == 1.5 for ic in ics)


def test_momentum_density_positive_where_sampled(params):
    p = sample_momenta(5000, SeededStream(77), params)
    assert np.all(momentum_density(p, params) > 0.0)


# ---------------------------------------------------------------------------
# batched sampler against the per-stream reference
# ---------------------------------------------------------------------------


def _reference_initial_conditions(n, stream, params, t0, theory):
    """One stream per trajectory, drawn one at a time: position, then momentum."""
    x = np.empty(n)
    p = np.zeros(n)
    for i in range(n):
        rng = stream.substream(i).generator()
        x[i] = sampling._draw_positions(1, rng, params, t0)[0]
        if theory == "revised":
            p[i] = sampling._draw_momenta(1, rng, params)[0]
    if theory == "dbb":
        p = p_bb(x, t0, params)
    return x, p


def _batched(n, stream, params, t0, theory):
    ics = make_initial_conditions(n, stream, params, t0, theory)
    return np.array([ic.x0 for ic in ics]), np.array([ic.p0 for ic in ics])


@settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@example(seed=1, n=3000, ratio=5.0, mass=1.0, t0=0.7, theory="revised", min_batch=1)
@example(seed=2, n=2049, ratio=5.0, mass=1.0, t0=0.0, theory="dbb", min_batch=64)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 3000),
    ratio=st.floats(0.0, 50.0),
    mass=st.floats(0.05, 20.0),
    t0=st.sampled_from([0.0, 0.7]),
    theory=st.sampled_from(["dbb", "revised"]),
    min_batch=st.sampled_from([64, 1]),
)
def test_make_initial_conditions_matches_per_stream_loop(seed, n, ratio, mass, t0, theory, min_batch):
    """Bit for bit, across chunk boundaries; with a one-proposal floor about
    half the lanes are redrawn through the per-stream path."""
    params = DoubleSlitParams(x_half=ratio * 10.0, sigma=10.0, mass=mass)
    stream = SeededStream(seed, 3)
    with mock.patch.object(sampling, "_MIN_BATCH", min_batch):
        x, p = _batched(n, stream, params, t0, theory)
        x_ref, p_ref = _reference_initial_conditions(n, stream, params, t0, theory)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(p, p_ref)


def test_small_rounds_take_the_fallback_path(params):
    """With two proposals per first round, many lanes accept nothing at first
    and are redrawn; the draws still equal the per-stream loop's."""
    with mock.patch.object(sampling, "_MIN_BATCH", 1):
        with mock.patch.object(sampling, "_draw_positions", wraps=sampling._draw_positions) as redraws:
            x, p = _batched(1500, SeededStream(4), params, 0.0, "revised")
        assert 0.2 * 1500 < redraws.call_count < 0.8 * 1500
        x_ref, p_ref = _reference_initial_conditions(1500, SeededStream(4), params, 0.0, "revised")
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(p, p_ref)


def _first_round(stream, params):
    """The first position and momentum proposals of one stream, as drawn."""
    rng = stream.generator()
    centers = np.where(rng.random(64) < 0.5, -params.x_half, params.x_half)
    x = rng.normal(centers, float(sigma_t(params, 0.0)))
    rng.random(64)
    return x, rng.normal(0.0, params.sigma_p, size=64)


@pytest.mark.parametrize("observable", ["position", "momentum"])
def test_envelope_violation_names_its_stream(params, monkeypatch, observable):
    """A density above its envelope at a single proposal -- the last one of
    one lane's first round, in the middle of a chunk -- is caught."""
    x, p = _first_round(SeededStream(5, 7 + 700), params)
    if observable == "position":
        monkeypatch.setattr(sampling, "rho", lambda v, t, pr: rho(v, t, pr) * np.where(v == x[-1], 10.0, 1.0))
    else:
        monkeypatch.setattr(
            sampling, "momentum_density", lambda v, pr: momentum_density(v, pr) * np.where(v == p[-1], 10.0, 1.0)
        )
    with pytest.raises(EnvelopeViolation, match=f"{observable} density exceeds .* on stream 707$"):
        make_initial_conditions(1000, SeededStream(5, 7), params, 0.0, "revised")


@pytest.mark.parametrize("first", ["position", "momentum"])
def test_envelope_violations_fail_in_stream_order(params, monkeypatch, first):
    """With violations on two streams of one chunk, the earlier stream's is
    raised, as in the one-stream-at-a-time loop, whichever observable it is."""
    later = "momentum" if first == "position" else "position"
    bad = {first: SeededStream(5, 7 + 700), later: SeededStream(5, 7 + 703)}
    x = _first_round(bad["position"], params)[0][-1]
    p = _first_round(bad["momentum"], params)[1][-1]
    monkeypatch.setattr(sampling, "rho", lambda v, t, pr: rho(v, t, pr) * np.where(v == x, 10.0, 1.0))
    monkeypatch.setattr(
        sampling, "momentum_density", lambda v, pr: momentum_density(v, pr) * np.where(v == p, 10.0, 1.0)
    )
    with pytest.raises(EnvelopeViolation, match=f"^{first} density exceeds") as reference:
        _reference_initial_conditions(1000, SeededStream(5, 7), params, 0.0, "revised")
    with pytest.raises(EnvelopeViolation, match=f"on stream 707$") as batched:
        make_initial_conditions(1000, SeededStream(5, 7), params, 0.0, "revised")
    assert str(batched.value) == f"{reference.value} on stream 707"
