"""Analytic field oracles: wave function, densities, and guidance momenta.

Reference values below were computed independently with 40-digit arithmetic
(mpmath) from the closed-form double-slit solution and are frozen here as
regression oracles.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from qtraj import DoubleSlitParams, InitialCondition, NodeSingularity
from qtraj.wavefield import (
    HBAR_NM2_ME_PS,
    NODE_FLOOR_RELATIVE,
    _prefactor,
    continuity_residual,
    continuity_truncation_bound,
    envelope_density,
    inverse_mass_coordinate,
    mass_coordinate,
    momentum_density,
    node_floor,
    norm_constant,
    p_bb,
    p_revised,
    packet_amplitude,
    psi,
    rho,
    rho_peak_bound,
    schrodinger_residual,
    sigma_t,
)

# 40-digit reference values for X=50 nm, sigma=10 nm, electron mass.
NORM_CONSTANT_REF = 2.0000074533063442  # 2 + 2 exp(-X^2 / 2 sigma^2)
RHO_ORIGIN_REF = 2.9734279485338990646e-07  # rho(0, 0)
SIGMA_P_REF = 5.7883818025271487133  # hbar / (2 sigma), nm me / ps
MOMENTUM_DENSITY_ZERO_REF = 0.13784190721948746082  # momentum density at p=0
MOMENTUM_SECOND_MOMENT_REF = 33.50224233169468699  # integral of p^2 * density

# CODATA 2018: hbar = 1.054571817e-34 J s, m_e = 9.1093837015e-31 kg.
# 1 J s / kg = 1 m^2/s = 1e6 nm^2/ps, so hbar/m_e in nm^2/ps is the SI ratio
# scaled by 1e6.
_HBAR_SI = 1.054571817e-34
_MASS_SI = 9.1093837015e-31


def test_hbar_over_electron_mass_value():
    assert HBAR_NM2_ME_PS == pytest.approx(_HBAR_SI / _MASS_SI * 1e6, rel=1e-15)
    # frozen literal so any accidental constant edit fails loudly
    assert HBAR_NM2_ME_PS == pytest.approx(115.76763605054297, abs=1e-11)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# frozen scalar oracles
# ---------------------------------------------------------------------------


def test_norm_constant_frozen(params):
    assert norm_constant(params) == pytest.approx(NORM_CONSTANT_REF, rel=1e-15)


def test_rho_origin_frozen(params):
    assert rho(0.0, 0.0, params) == pytest.approx(RHO_ORIGIN_REF, rel=1e-13)


def test_sigma_p_frozen(params):
    assert params.sigma_p == pytest.approx(SIGMA_P_REF, rel=1e-15)


def test_momentum_density_peak_frozen(params):
    assert momentum_density(0.0, params) == pytest.approx(
        MOMENTUM_DENSITY_ZERO_REF, rel=1e-14
    )


def test_momentum_second_moment_matches_quadrature(params):
    val, err = quad(
        lambda p: p * p * momentum_density(p, params), -80.0, 80.0, limit=200
    )
    assert err < 1e-7
    assert val == pytest.approx(MOMENTUM_SECOND_MOMENT_REF, abs=1e-6)


# ---------------------------------------------------------------------------
# wave function structure
# ---------------------------------------------------------------------------


def test_packet_modulus_is_dispersing_gaussian(params, rng):
    """|psi_slit|^2 equals a normal law centered on the slit with width sigma_t."""
    x = rng.uniform(-120.0, 120.0, 300)
    t = rng.uniform(0.0, 5.0, 300)
    st = sigma_t(params, t)
    for slit, center in (("left", -params.x_half), ("right", params.x_half)):
        amp2 = np.abs(packet_amplitude(slit, x, t, params)) ** 2
        ref = np.exp(-((x - center) ** 2) / (2.0 * st**2)) / (
            np.sqrt(2.0 * np.pi) * st
        )
        np.testing.assert_allclose(amp2, ref, rtol=1e-12)


def test_rho_is_modulus_squared_of_psi(params, rng):
    x = rng.uniform(-100.0, 100.0, 200)
    t = rng.uniform(0.0, 5.0, 200)
    np.testing.assert_allclose(rho(x, t, params), np.abs(psi(x, t, params)) ** 2, rtol=1e-12)


def test_envelope_bounds_rho(params, rng):
    x = rng.uniform(-300.0, 300.0, 2000)
    t = rng.uniform(0.0, 5.0, 2000)
    assert np.all(rho(x, t, params) <= envelope_density(x, t, params) * (1 + 1e-12))


def test_rho_peak_bound_dominates_grid(params):
    x = np.linspace(-200.0, 200.0, 20001)
    for t in (0.0, 1.0, 3.5, 5.0):
        assert rho(x, t, params).max() <= rho_peak_bound(params, t)


def test_position_density_normalized(params):
    for t in (0.0, 1.0, 3.5, 5.0):
        val, err = quad(lambda x: rho(x, t, params), -400.0, 400.0, limit=400)
        assert err < 1e-7
        assert val == pytest.approx(1.0, abs=1e-6)


def test_momentum_density_normalized(params):
    val, err = quad(lambda p: momentum_density(p, params), -80.0, 80.0, limit=200)
    assert err < 1e-7
    assert val == pytest.approx(1.0, abs=1e-6)


def test_momentum_density_symmetric_with_interference_zeros(params):
    p = np.linspace(0.1, 30.0, 500)
    np.testing.assert_allclose(
        momentum_density(p, params), momentum_density(-p, params), rtol=1e-13
    )
    # cos^2(X p / hbar) vanishes at p = pi hbar / (2 X)
    p_zero = np.pi * HBAR_NM2_ME_PS / (2.0 * params.x_half)
    assert momentum_density(p_zero, params) < 1e-25
    assert momentum_density(0.0, params) > momentum_density(p, params).max()


# ---------------------------------------------------------------------------
# Schrodinger residual (positive and negative controls)
# ---------------------------------------------------------------------------


def _in_band_points(params, rng, n, rel=1e-2):
    x = rng.uniform(-90.0, 90.0, 4 * n)
    t = rng.uniform(0.05, 4.95, 4 * n)
    keep = rho(x, t, params) >= rel * envelope_density(x, t, params)
    return x[keep][:n], t[keep][:n]


def test_schrodinger_residual_small(params, rng):
    x, t = _in_band_points(params, rng, 2000)
    r = schrodinger_residual(x, t, params, h_x=params.sigma / 1000.0, h_t=2.5e-4)
    assert np.max(np.abs(r)) < 1e-4


def test_schrodinger_residual_flags_corrupted_field(params, rng):
    """An exponent width inconsistent with the prefactor must fail the check."""

    def psi_bad(x, t, p=params):
        d_bad = 4.0 * p.sigma**2 * 1.01 + 2j * HBAR_NM2_ME_PS * np.asarray(t, dtype=float) / p.mass
        pref = _prefactor(p, t)
        left = pref * np.exp(-((np.asarray(x) + p.x_half) ** 2) / d_bad)
        right = pref * np.exp(-((np.asarray(x) - p.x_half) ** 2) / d_bad)
        return (left + right) / np.sqrt(norm_constant(p))

    x, t = _in_band_points(params, rng, 500)
    r = schrodinger_residual(
        x, t, params, h_x=params.sigma / 1000.0, h_t=2.5e-4, psi_fn=psi_bad
    )
    assert np.median(np.abs(r)) > 5e-4


# ---------------------------------------------------------------------------
# guidance momenta
# ---------------------------------------------------------------------------


def test_p_bb_zero_initially(params, rng):
    x = rng.uniform(-100.0, 100.0, 500)
    assert np.all(p_bb(x, 0.0, params) == 0.0)


def test_rho_mirror_symmetric(params, rng):
    x = rng.uniform(0.0, 120.0, 300)
    t = rng.uniform(0.0, 5.0, 300)
    np.testing.assert_allclose(rho(-x, t, params), rho(x, t, params), rtol=1e-12)


def test_p_bb_antisymmetric(params, rng):
    x = rng.uniform(0.5, 90.0, 300)
    t = rng.uniform(0.1, 5.0, 300)
    np.testing.assert_allclose(p_bb(-x, t, params), -p_bb(x, t, params), rtol=1e-12, atol=1e-15)


def test_p_bb_matches_phase_gradient(params, rng):
    """hbar d(arg psi)/dx via central differences is an independent oracle."""
    x, t = _in_band_points(params, rng, 400, rel=1e-6)
    h = 1e-4
    dphase = np.angle(psi(x + h, t, params)) - np.angle(psi(x - h, t, params))
    # h is far below the fringe scale, so no phase wrapping occurs in-band
    ref = HBAR_NM2_ME_PS * dphase / (2.0 * h)
    np.testing.assert_allclose(p_bb(x, t, params), ref, rtol=1e-6, atol=1e-6)


def test_p_bb_raises_below_node_floor(params):
    with pytest.raises(NodeSingularity):
        p_bb(400.0, 1.0, params)
    with pytest.raises(NodeSingularity):
        p_bb(np.array([0.0, 400.0]), 1.0, params)


def test_node_floor_tracks_peak_bound(params):
    for t in (0.0, 2.0, 5.0):
        assert node_floor(params, t) == pytest.approx(
            NODE_FLOOR_RELATIVE * rho_peak_bound(params, t), rel=1e-15
        )


def test_p_revised_anchors_to_initial_momentum(params, rng):
    x0 = rng.uniform(-80.0, 80.0, 200)
    p0 = rng.uniform(-15.0, 15.0, 200)
    for xi, pi in zip(x0, p0):
        ic = InitialCondition(x0=float(xi), p0=float(pi), t0=0.0, theory="revised")
        assert abs(p_revised(xi, 0.0, ic, params) - pi) < 1e-12


def test_p_revised_composition(params, rng):
    """p_r = p_bb + (p0 - p_bb(x0,t0)) * rho(x0,t)/rho(x,t), termwise."""
    ic = InitialCondition(x0=37.0, p0=6.5, t0=0.0, theory="revised")
    x = rng.uniform(-80.0, 80.0, 200)
    t = rng.uniform(0.1, 5.0, 200)
    expected = p_bb(x, t, params) + (ic.p0 - p_bb(ic.x0, ic.t0, params)) * rho(
        ic.x0, t, params
    ) / rho(x, t, params)
    np.testing.assert_allclose(p_revised(x, t, ic, params), expected, rtol=1e-12)


def test_revised_correction_flux_is_position_independent(params):
    """(p_r - p_bb) * rho depends only on t: the correction adds a uniform flux."""
    ic = InitialCondition(x0=-42.0, p0=-3.0, t0=0.0, theory="revised")
    t = 2.75
    xs = np.array([-60.0, -10.0, 5.0, 33.0, 71.0])
    flux = (p_revised(xs, t, ic, params) - p_bb(xs, t, params)) * rho(xs, t, params)
    np.testing.assert_allclose(flux, flux[0], rtol=1e-10)


# ---------------------------------------------------------------------------
# continuity residuals
# ---------------------------------------------------------------------------


def test_continuity_residual_within_bound_dbb(params, rng):
    x, t = _in_band_points(params, rng, 2000, rel=1e-3)
    h_x, h_t = params.sigma / 1000.0, 2.5e-4
    r = continuity_residual(x, t, params, h_x, h_t, theory="dbb")
    b = continuity_truncation_bound(x, t, params, h_x, h_t)
    assert np.all(np.abs(r) <= 10.0 * b)


def test_continuity_residual_within_bound_revised(params, rng):
    x, t = _in_band_points(params, rng, 500, rel=1e-3)
    h_x, h_t = params.sigma / 1000.0, 2.5e-4
    b = continuity_truncation_bound(x, t, params, h_x, h_t)
    for seed in range(5):
        r2 = np.random.default_rng(seed)
        ic = InitialCondition(
            x0=float(r2.uniform(-70, 70)),
            p0=float(r2.uniform(-12, 12)),
            t0=0.0,
            theory="revised",
        )
        r = continuity_residual(x, t, params, h_x, h_t, theory="revised", ic=ic)
        assert np.all(np.abs(r) <= 10.0 * b)


def test_continuity_residual_flags_wrong_field(params, rng):
    """Doubling the momentum field breaks local mass conservation measurably."""
    x, t = _in_band_points(params, rng, 1000)
    h_x, h_t = params.sigma / 1000.0, 2.5e-4
    r = continuity_residual(
        x, t, params, h_x, h_t, theory="dbb",
        momentum_fn=lambda xx, tt: 2.0 * p_bb(xx, tt, params),
    )
    ratio = np.abs(r) / (10.0 * continuity_truncation_bound(x, t, params, h_x, h_t))
    assert np.max(ratio) > 10.0
    assert np.mean(ratio > 1.0) > 0.5


def test_truncation_bound_positive_and_finite(params, rng):
    x, t = _in_band_points(params, rng, 500)
    b = continuity_truncation_bound(x, t, params, params.sigma / 1000.0, 2.5e-4)
    assert np.all(np.isfinite(b)) and np.all(b > 0.0)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# mass coordinate F_t(x) and its inverse
# ---------------------------------------------------------------------------

# (x_half, sigma, tolerance): the paper's physics, wide slits, and a packet
# so narrow that exp(shift) * erfc(z) alone would give inf * 0.  The
# tolerance is the trapezoid rule's own error on the 400001-point grid.
_MASS_COORDINATE_CASES = [(50.0, 10.0, 2e-9), (500.0, 5.0, 5e-8), (50.0, 0.1, 2e-7)]


@pytest.mark.parametrize("x_half, sigma, tol", _MASS_COORDINATE_CASES)
@pytest.mark.parametrize("t", [0.0, 0.3, 5.0])
def test_mass_coordinate_matches_quadrature(x_half, sigma, tol, t):
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    half = x_half + 14.0 * float(sigma_t(params, t))
    grid = np.linspace(-half, half, 400_001)
    cumulative = cumulative_trapezoid(rho(grid, t, params), grid, initial=0.0)
    closed = mass_coordinate(grid, t, params)
    assert np.all(np.isfinite(closed))
    assert np.all(np.diff(closed) >= 0.0)
    assert np.max(np.abs(closed - cumulative)) < tol
    assert closed[0] < 1e-40 and closed[-1] == 1.0
    np.testing.assert_array_equal(mass_coordinate(np.array([-1e9, 1e9]), t, params), [0.0, 1.0])


@pytest.mark.parametrize("x_half, sigma, tol", _MASS_COORDINATE_CASES)
def test_inverse_mass_coordinate_round_trip(x_half, sigma, tol, rng):
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    u = np.concatenate([rng.uniform(0.0, 1.0, 4000), [1e-30, 1e-12, 0.5, 1.0 - 1e-12]])
    for t in (0.0, 0.125, 5.0):
        x, ok = inverse_mass_coordinate(u, t, params)
        assert np.all(ok)
        assert np.max(np.abs(mass_coordinate(x, t, params) - u)) <= 1e-12
        assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
    _, ok = inverse_mass_coordinate(np.array([0.0, 1.0, -0.5, 1.5, np.nan]), 1.0, params)
    assert not np.any(ok)


@pytest.mark.parametrize("kw", [{"x_half": -1.0}, {"sigma": 0.0}, {"mass": 0.0}, {"mass": -1.0}])
def test_params_reject_nonpositive(kw):
    base = {"x_half": 50.0, "sigma": 10.0}
    base.update(kw)
    with pytest.raises(ValueError):
        DoubleSlitParams(**base)
