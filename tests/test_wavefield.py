"""Analytic field oracles: wave function, densities, and guidance momenta.

Reference values below were computed independently with 40-digit arithmetic
(mpmath) from the closed-form double-slit solution and are frozen here as
regression oracles.
"""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad

from qtraj import DoubleSlitParams, InitialCondition, NodeSingularity
from qtraj.wavefield import (
    HBAR_NM2_ME_PS,
    NODE_FLOOR_RELATIVE,
    _QUANTILE_TOL,
    ClosedFormCDF,
    GuidanceField,
    _prefactor,
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
    assert momentum_cdf(params).pdf(0.0) == pytest.approx(
        MOMENTUM_DENSITY_ZERO_REF, rel=1e-14
    )


def test_momentum_second_moment_matches_quadrature(params):
    density = momentum_cdf(params).pdf
    val, err = quad(lambda p: p * p * float(density(p)), -80.0, 80.0, limit=200)
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


#: (physics, bound): largest relative error of rho against a 50-digit |psi|^2,
#: and of p_bb against a 50-digit hbar Im(psi'/psi) relative to max(|p_bb|,
#: sigma_p).  At sigma = 0.1 the fringe phase reaches hundreds of radians by
#: 5 ps, and its rounding (a few ulp of phi) sets the bound.
_REFERENCE_PHYSICS = {
    "paper": (DoubleSlitParams(50.0, 10.0), 1e-12),
    "sigma 0.1": (DoubleSlitParams(50.0, 0.1), 5e-11),
    "X 500 sigma 5": (DoubleSlitParams(500.0, 5.0), 1e-12),
    "m 0.01": (DoubleSlitParams(50.0, 10.0, 0.01), 1e-12),
}


def _reference_psi_squared(x: float, t: float, params) -> float:
    """|psi(x, t)|^2 from the complex closed form at 50 digits, for the exact doubles given."""
    with mpmath.workdps(50):
        physics = (HBAR_NM2_ME_PS, params.sigma, params.x_half, params.mass)
        hbar, sigma, x_half, mass = (mpmath.mpf(v) for v in physics)
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        denom = 4 * sigma**2 + 2j * hbar * t / mass
        prefactor = (2 * mpmath.pi) ** mpmath.mpf(-0.25) / mpmath.sqrt(sigma + 1j * hbar * t / (2 * mass * sigma))
        amp = prefactor * (mpmath.exp(-((x + x_half) ** 2) / denom) + mpmath.exp(-((x - x_half) ** 2) / denom))
        return float(abs(amp) ** 2 / (2 + 2 * mpmath.exp(-(x_half**2) / (2 * sigma**2))))


@functools.lru_cache(maxsize=None)
def _reference_sample(name: str):
    """Points (x, t) at t in {0, tau, 3.5 ps, 5 ps}, random over +-(X + 4 sigma_t)
    plus fringe minima (cos(phi / 2) = 0), where the 50-digit density is a
    normal double; with that density."""
    params, _ = _REFERENCE_PHYSICS[name]
    rng = np.random.default_rng(2024)
    xs, ts = [], []
    for t in (0.0, params.dispersion_time, 3.5, 5.0):
        width = float(sigma_t(params, t))
        reach = params.x_half + 4.0 * width
        x = rng.uniform(-reach, reach, 200)
        wave = params.x_half * HBAR_NM2_ME_PS * t / (4.0 * params.mass * params.sigma**2 * width**2)
        if wave > 0.0:  # phi / 2 = x * wave
            minima = (0.5 + np.arange(-400, 400)) * np.pi / wave
            minima = minima[np.abs(minima) < reach]
            x = np.concatenate([x, minima[:: max(1, minima.size // 60)]])
        xs.append(x)
        ts.append(np.full(x.size, t))
    x, t = np.concatenate(xs), np.concatenate(ts)
    reference = np.array([_reference_psi_squared(xi, ti, params) for xi, ti in zip(x, t)])
    normal = reference >= np.finfo(float).tiny
    return params, x[normal], t[normal], reference[normal]


def _worst_relative_error(name: str, density) -> float:
    params, x, t, reference = _reference_sample(name)
    return float(np.max(np.abs(density(x, t, params) - reference) / reference))


@pytest.mark.parametrize("name", list(_REFERENCE_PHYSICS))
def test_rho_matches_high_precision_reference(name):
    """The real form of rho agrees with a 50-digit |psi|^2, fringe minima included."""
    assert _reference_sample(name)[1].size > 200
    assert _worst_relative_error(name, rho) <= _REFERENCE_PHYSICS[name][1]


def test_complex_modulus_fails_the_reference_at_narrow_slits():
    """Negative control: |psi|^2 from complex packet amplitudes loses digits
    in its fringe phase at sigma = 0.1, beyond the bound the real form meets."""
    complex_rho = lambda x, t, params: np.abs(psi(x, t, params)) ** 2  # noqa: E731
    assert _worst_relative_error("sigma 0.1", complex_rho) > _REFERENCE_PHYSICS["sigma 0.1"][1]


def test_rho_shapes_and_broadcast_bits(params):
    """Scalars give a scalar, and one (8, 1) x (1, n) call equals its 8 rows,
    each a call of its own, bit for bit."""
    rng = np.random.default_rng(8)
    assert np.ndim(rho(0.3, 1.2, params)) == 0 and isinstance(rho(0.3, 1.2, params), float)
    assert isinstance(envelope_density(0.3, 1.2, params), float)
    x = rng.uniform(-150.0, 150.0, 1001)
    t = rng.uniform(0.0, 5.0, (8, 1))
    rows = np.stack([rho(x, tk, params) for tk in t[:, 0]])
    np.testing.assert_array_equal(rho(x[None, :], t, params), rows)


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
    density = momentum_cdf(params).pdf
    val, err = quad(lambda p: float(density(p)), -80.0, 80.0, limit=200)
    assert err < 1e-7
    assert val == pytest.approx(1.0, abs=1e-6)


def test_momentum_density_symmetric_with_interference_zeros(params):
    density = momentum_cdf(params).pdf
    p = np.linspace(0.1, 30.0, 500)
    np.testing.assert_allclose(density(p), density(-p), rtol=1e-13)
    # cos^2(X p / hbar) vanishes at p = pi hbar / (2 X)
    p_zero = np.pi * HBAR_NM2_ME_PS / (2.0 * params.x_half)
    assert density(p_zero) < 1e-25
    assert density(0.0) > density(p).max()


@pytest.mark.parametrize("x_half, sigma", [(50.0, 10.0), (0.0, 10.0), (82.5, 0.1)])
def test_momentum_pdf_is_the_two_exponential_form(x_half, sigma):
    """At center 0 the density kernel takes b = a: x - 0 and x + 0 square to
    the same double, so the pdf is bit-equal to the form that evaluates both
    exponentials, at +-0.0 too."""
    law = momentum_cdf(DoubleSlitParams(x_half=x_half, sigma=sigma))
    p = np.concatenate([np.linspace(-40.0, 40.0, 4001) * law.width, [0.0, -0.0, 5e-324, -5e-324]])
    scale = 0.5 / law.width
    a = np.exp(-np.square((p - law.center) * scale))
    b = np.exp(-np.square((p + law.center) * scale))
    total = np.square(a - b) + 4.0 * a * b * np.square(np.cos(p * law.wave))
    np.testing.assert_array_equal(law.pdf(p), total / (np.sqrt(2.0 * np.pi) * law.norm * law.width))


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


def _reference_bohm_momentum(x: float, t: float, params) -> float:
    """hbar Im[(d psi / dx) / psi] from the complex closed form at 50 digits, for the exact doubles given."""
    with mpmath.workdps(50):
        physics = (HBAR_NM2_ME_PS, params.sigma, params.x_half, params.mass)
        hbar, sigma, x_half, mass = (mpmath.mpf(v) for v in physics)
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        denom = 4 * sigma**2 + 2j * hbar * t / mass
        left, right = mpmath.exp(-((x + x_half) ** 2) / denom), mpmath.exp(-((x - x_half) ** 2) / denom)
        slope = -2 * ((x + x_half) * left + (x - x_half) * right) / denom
        return float(hbar * mpmath.im(slope / (left + right)))


@pytest.mark.parametrize("name", list(_REFERENCE_PHYSICS))
def test_p_bb_matches_high_precision_reference(name):
    """The real form of the Bohm field agrees with a 50-digit hbar Im(psi'/psi)
    wherever it is defined, fringe minima included, relative to max(|p_bb|, sigma_p)."""
    params, x, t, _ = _reference_sample(name)
    above = rho(x, t, params) > node_floor(params, t)
    x, t = x[above], t[above]
    assert x.size > 200
    reference = np.array([_reference_bohm_momentum(xi, ti, params) for xi, ti in zip(x, t)])
    error = np.abs(p_bb(x, t, params) - reference) / np.maximum(np.abs(reference), params.sigma_p)
    assert np.max(error) <= _REFERENCE_PHYSICS[name][1]


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


@pytest.mark.parametrize("theory", ["dbb", "revised"])
def test_guidance_field_floor_is_node_floor(params, theory):
    """The field marks a point valid exactly where rho exceeds the public
    node_floor, over the 400 doubles either side of each crossing of the
    floor, at both slits' outer tails."""
    field = GuidanceField(theory, params, 10.0, 1.0)
    for t in (0.0, 2.0, 5.0):
        floor = node_floor(params, t)
        lo, hi = params.x_half, params.x_half + 20.0 * float(sigma_t(params, t))
        for _ in range(200):  # rho falls through the floor between lo and hi
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rho(mid, t, params) > floor else (lo, mid)
        x = lo + np.arange(-400, 401) * np.spacing(lo)
        expected = rho(x, t, params) > floor
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(field(x, t)[1], expected)
        np.testing.assert_array_equal(field(-x, t)[1], expected)


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
    r = continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: p_bb(xx, tt, params))
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
        r = continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: p_revised(xx, tt, ic, params))
        assert np.all(np.abs(r) <= 10.0 * b)


def test_continuity_residual_flags_wrong_field(params, rng):
    """Doubling the momentum field breaks local mass conservation measurably."""
    x, t = _in_band_points(params, rng, 1000)
    h_x, h_t = params.sigma / 1000.0, 2.5e-4
    r = continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: 2.0 * p_bb(xx, tt, params))
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
    cdf = position_cdf(params, t)
    closed = cdf(grid)
    assert np.all(np.isfinite(closed))
    assert np.all(np.diff(closed) >= 0.0)
    assert np.max(np.abs(closed - cumulative)) < tol
    assert closed[0] < 1e-40 and closed[-1] == 1.0
    np.testing.assert_array_equal(cdf(np.array([-1e9, 1e9])), [0.0, 1.0])


@pytest.mark.parametrize("x_half, sigma, tol", _MASS_COORDINATE_CASES)
def test_inverse_mass_coordinate_round_trip(x_half, sigma, tol, rng):
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    u = np.concatenate([rng.uniform(0.0, 1.0, 4000), [1e-30, 1e-12, 0.5, 1.0 - 1e-12]])
    for t in (0.0, 0.125, 5.0):
        cdf = position_cdf(params, t)
        x = cdf.quantile(u)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(cdf(x) - u)) <= 1e-12
        assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
    x = position_cdf(params, 1.0).quantile(np.array([0.0, 1.0, -0.5, 1.5, np.nan]))
    np.testing.assert_array_equal(x, [-np.inf, np.inf, -np.inf, np.inf, np.nan])


# ---------------------------------------------------------------------------
# momentum CDF and its inverse
# ---------------------------------------------------------------------------


def test_momentum_cumulative_matches_quadrature(params):
    """The density is even, so F(p) = 1/2 + the integral from 0 to p."""
    sp = params.sigma_p
    p = np.linspace(-8.0 * sp, 8.0 * sp, 41)
    cdf = momentum_cdf(params)
    density = lambda q: float(cdf.pdf(q))  # noqa: E731
    quadrature = [0.5 + quad(density, 0.0, pk, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for pk in p]
    np.testing.assert_allclose(cdf(p), quadrature, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("x_half, sigma", [(500.0, 5.0), (50.0, 0.1)])
def test_momentum_cumulative_properties(x_half, sigma):
    """Finite, monotone, mirror symmetric and 0 / 1 in the limits, where
    exp(-q^2 / 2 s^2) erfc(z) alone would give inf * 0.  The grid stops at
    36 sigma_p: beyond it F(p) is below the smallest normal double."""
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    cdf = momentum_cdf(params)
    p = np.linspace(-36.0, 36.0, 400_001) * params.sigma_p
    f = cdf(p)
    assert np.all(np.isfinite(f))
    assert np.all(np.diff(f) >= 0.0)
    np.testing.assert_allclose(cdf(-p), 1.0 - f, rtol=0.0, atol=1e-15)
    assert 0.0 < f[0] < 1e-280 and f[-1] == 1.0
    assert np.all(np.isfinite(cdf(np.array([-45.0, 45.0]) * params.sigma_p)))
    np.testing.assert_array_equal(cdf(np.array([-1e9, 1e9])), [0.0, 1.0])


def _far_tails(half, width):
    """Both tails from 30 to 45 widths beyond +-half, where the closed forms
    reach subnormal values and then underflow."""
    left = -(half + np.linspace(45.0, 30.0, 200_001) * width)
    return left, -left[::-1]


@pytest.mark.parametrize(
    "x_half, sigma, t", [(50.0, 0.1, 3.5), (50.0, 0.1, 0.7), (500.0, 5.0, 3.5), (50.0, 10.0, 5.0)]
)
def test_mass_coordinate_far_tails_stay_in_unit_interval(x_half, sigma, t):
    """Once both terms are subnormal their cancellation leaves only rounding
    noise; F_t must still lie in [0, 1] and never decrease."""
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    for x in _far_tails(x_half, float(sigma_t(params, t))):
        f = position_cdf(params, t)(x)
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.all(np.diff(f) >= 0.0)


@pytest.mark.parametrize("x_half, sigma", [(500.0, 5.0), (50.0, 0.1), (50.0, 10.0)])
def test_momentum_cumulative_far_tails_stay_in_unit_interval(x_half, sigma):
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    for p in _far_tails(0.0, params.sigma_p):
        f = momentum_cdf(params)(p)
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.all(np.diff(f) >= 0.0)


@pytest.mark.parametrize("x_half, sigma", [(50.0, 10.0), (500.0, 5.0), (50.0, 0.1)])
def test_momentum_cdf_quantile_round_trip(x_half, sigma, rng):
    params = DoubleSlitParams(x_half=x_half, sigma=sigma)
    u = np.concatenate([rng.uniform(0.0, 1.0, 4000), [1e-30, 1e-12, 0.5, 1.0 - 1e-12]])
    cdf = momentum_cdf(params)
    p = cdf.quantile(u)
    assert np.all(np.isfinite(p))
    assert np.max(np.abs(cdf(p) - u)) <= 1e-12
    assert np.all(np.diff(p[np.argsort(u)]) >= 0.0)
    p = momentum_cdf(params).quantile(np.array([0.0, 1.0, -0.5, 1.5, np.nan]))
    np.testing.assert_array_equal(p, [-np.inf, np.inf, -np.inf, np.inf, np.nan])


def _reference_cdf(x: float, center, width_sq, wave, norm) -> tuple[float, float]:
    """F(-|x|) and F(x) at 50 digits for the two-packet law with the given
    center, width^2, half-wavenumber and norm, from its closed form with a
    complex erfc."""
    with mpmath.workdps(50):
        width, y = mpmath.sqrt(width_sq), -abs(mpmath.mpf(x))
        gauss = lambda v: mpmath.erfc(-v / mpmath.sqrt(2)) / 2  # noqa: E731
        shifted = mpmath.erfc(-(y - 2j * wave * width_sq) / (mpmath.sqrt(2) * width))
        cross = mpmath.exp(-(center**2) / (2 * width_sq) - 2 * wave**2 * width_sq) * mpmath.re(shifted)
        lower = (gauss((y - center) / width) + gauss((y + center) / width) + cross) / norm
        return float(lower), float(1 - lower if x > 0.0 else lower)


def _reference_laws(params, t):
    """The position law at t and the momentum law at 50 digits, for the exact
    doubles given: (center, width^2, half-wavenumber, norm) each."""
    with mpmath.workdps(50):
        physics = (HBAR_NM2_ME_PS, params.sigma, params.x_half, params.mass)
        hbar, sigma, x_half, mass = (mpmath.mpf(v) for v in physics)
        t = abs(mpmath.mpf(t))
        width_sq = sigma**2 + (hbar * t / (2 * mass * sigma)) ** 2
        norm = 2 + 2 * mpmath.exp(-(x_half**2) / (2 * sigma**2))
        position = (x_half, width_sq, x_half * hbar * t / (4 * mass * sigma**2 * width_sq), norm)
        return position, (0, (hbar / (2 * sigma)) ** 2, x_half / hbar, norm)


@pytest.mark.parametrize("name", list(_REFERENCE_PHYSICS))
def test_cdfs_match_high_precision_reference(name):
    """Both closed-form CDFs agree with a 50-digit complex-erfc closed form
    over +-(X + 8 sigma_t) at t in {0, tau, 3.5, 5 ps} and over +-8 sigma_p:
    to 2 ulp of 1 in F, and to 1e-12 relative in min(F, 1 - F), the tail
    the kernel evaluates (F(-|x|), since F(x) = 1 - F(-x))."""
    params, _ = _REFERENCE_PHYSICS[name]
    rng = np.random.default_rng(2025)
    cases = []
    for t in (0.0, params.dispersion_time, 3.5, 5.0):
        reach = params.x_half + 8.0 * float(sigma_t(params, t))
        cases.append((position_cdf(params, t), rng.uniform(-reach, reach, 60), _reference_laws(params, t)[0]))
    p = rng.uniform(-8.0, 8.0, 120) * params.sigma_p
    cases.append((momentum_cdf(params), p, _reference_laws(params, 0.0)[1]))
    for cdf, x, law in cases:
        lower, reference = np.array([_reference_cdf(xi, *law) for xi in x]).T
        assert np.max(np.abs(cdf(x) - reference)) <= 4.4e-16
        assert np.max(np.abs(cdf(-np.abs(x)) - lower) / lower) <= 1e-12


@pytest.mark.parametrize("name", list(_REFERENCE_PHYSICS))
def test_far_field_position_law_is_the_momentum_law(name):
    """At t = 1e12 tau the position law is the momentum law in p = m x / t:
    m x_u / t equals the momentum quantile p_u for u in [0.001, 0.999]."""
    params, _ = _REFERENCE_PHYSICS[name]
    t = 1e12 * params.dispersion_time
    u = np.linspace(0.001, 0.999, 999)
    far = params.mass * position_cdf(params, t).quantile(u) / t
    assert np.max(np.abs(far - momentum_cdf(params).quantile(u))) <= 1e-12 * params.sigma_p


def test_far_field_link_fails_with_doubled_fringes():
    """Negative control: a normalized momentum law with twice the
    half-wavenumber fails the far-field check at every reference physics."""
    u = np.linspace(0.001, 0.999, 999)
    for params, _ in _REFERENCE_PHYSICS.values():
        t = 1e12 * params.dispersion_time
        far = params.mass * position_cdf(params, t).quantile(u) / t
        law = momentum_cdf(params)
        doubled = ClosedFormCDF(0.0, law.width, 2.0 * law.wave, 2.0 + 2.0 * np.exp(-8.0 * (law.wave * law.width) ** 2))
        p = doubled.quantile(u)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs(far - p)) > 1e-6 * params.sigma_p


#: The draws a sampler can invert: ``random()``'s values in (0, 1), an exact 0
#: having been moved to 2**-54, the smallest; the largest is 1 - 2**-53.
_DRAWS = st.floats(2.0**-54, 1.0 - 2.0**-53)


@settings(max_examples=1000, deadline=None, derandomize=True)
@example(ratio=50.0, sigma=0.1, mass=0.01, when="100 tau", u=[0.5])
@example(ratio=0.0, sigma=100.0, mass=20.0, when="0", u=[0.5])
@given(
    ratio=st.floats(0.0, 50.0),
    sigma=st.floats(0.1, 100.0),
    mass=st.floats(0.01, 20.0),
    when=st.sampled_from(["0", "tau", "3.5 ps", "100 tau"]),
    u=st.lists(_DRAWS, min_size=1, max_size=16),
)
def test_quantiles_finite_and_monotone(ratio, sigma, mass, when, u):
    """Across X/sigma, sigma, mass and t, both closed-form quantiles are
    finite from the smallest draw to the largest, and non-decreasing in u
    between draws more than twice the quantile's tolerance apart.

    Closer draws are not ordered: |F(x) - u| <= 1e-14 leaves x free where F
    is flat at that scale, so u = 2**-54 and the next double invert one ulp
    out of order (X = 0, sigma = 10.25 nm, m = 1, t = tau).
    """
    params = DoubleSlitParams(x_half=ratio * sigma, sigma=sigma, mass=mass)
    tau = params.dispersion_time
    t = {"0": 0.0, "tau": tau, "3.5 ps": 3.5, "100 tau": 100.0 * tau}[when]
    u = np.sort(np.concatenate([u, [2.0**-54, 1.0 - 2.0**-53]]))
    resolved = u[None, :] - u[:, None] > 2.0 * _QUANTILE_TOL  # [i, j]: u[j] is resolvably above u[i]
    for cdf in (position_cdf(params, t), momentum_cdf(params)):
        q = cdf.quantile(u)
        assert np.all(np.isfinite(q))
        assert np.all((q[None, :] >= q[:, None]) | ~resolved)


@pytest.mark.parametrize("kw", [{"x_half": -1.0}, {"sigma": 0.0}, {"mass": 0.0}, {"mass": -1.0}])
def test_params_reject_nonpositive(kw):
    base = {"x_half": 50.0, "sigma": 10.0}
    base.update(kw)
    with pytest.raises(ValueError):
        DoubleSlitParams(**base)
