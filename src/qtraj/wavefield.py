"""Closed-form double-slit wave field and its guidance momentum fields.

Two freely dispersing Gaussian packets, centered at ``-x_half`` ("left")
and ``+x_half`` ("right"), are superposed and normalized once.  Everything
derived from them -- position density, momentum density, the Bohm
phase-gradient momentum field, and the density-anchored revision of that
field -- is evaluated analytically; spatial derivatives use the closed
form, never finite differences.

Finite-difference residual instruments (free Schrodinger equation,
continuity equation) live here too, but they are verification tools only.

All operations accept scalars or numpy arrays (broadcast) for ``x``,
``t``, ``p`` and are pure functions, safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, wofz

# CODATA 2018: hbar = 1.054571817e-34 J s (from the exact 2019 SI value of h),
# m_e = 9.1093837015(28)e-31 kg.  In nm/ps/m_e units hbar/m_e comes out near
# 115.768, which keeps every double-slit quantity at order 1-100.
_HBAR_SI = 1.054571817e-34
_ELECTRON_MASS_SI = 9.1093837015e-31

#: hbar in internal units (electron masses * nm^2 / ps).
HBAR_NM2_ME_PS = _HBAR_SI / _ELECTRON_MASS_SI * 1e6

#: Guidance fields are undefined where rho falls below this fraction of the
#: analytic peak-density bound at the same time.
NODE_FLOOR_RELATIVE = 1e-12

_QUARTIC_ROOT_2PI = (2.0 * np.pi) ** 0.25

#: Nodes of the table that seeds the inverse mass coordinate, spread over
#: +-(x_half + 12 sigma_t); every seed is refined and checked by Newton steps.
_QUANTILE_TABLE_POINTS = 2049
_QUANTILE_TABLE_HALF_WIDTHS = 12.0
#: An inverse is accepted once |F_t(x) - u| is at most this, or once its
#: bracket has shrunk to adjacent doubles (where F's slope times one ulp of
#: x exceeds it).
_QUANTILE_TOL = 1e-14
_QUANTILE_MAX_ITER = 100


class NodeSingularity(Exception):
    """Raised when a guidance field is requested where the density is below the node floor."""


@dataclass(frozen=True)
class DoubleSlitParams:
    """Physical configuration: slit half-separation and width (nm), particle mass (m_e).

    ``x_half = 0`` degenerates to a single slit of doubled amplitude.
    """

    x_half: float
    sigma: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not self.x_half >= 0:
            raise ValueError(f"x_half must be nonnegative, got {self.x_half!r}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")

    @property
    def sigma_p(self) -> float:
        """Momentum-space width hbar / (2 sigma) of a single slit packet."""
        return HBAR_NM2_ME_PS / (2.0 * self.sigma)

    @property
    def dispersion_time(self) -> float:
        """Characteristic spreading time 2 m sigma^2 / hbar."""
        return 2.0 * self.mass * self.sigma ** 2 / HBAR_NM2_ME_PS

    @property
    def momentum_half_width(self) -> float:
        """Half-width 10 sigma_p of a momentum range that holds the density."""
        return 10.0 * self.sigma_p

    def position_half_width(self, t: float) -> float:
        """Half-width of a position range that holds the density up to time t."""
        return self.x_half + 12.0 * self.sigma + 4.0 * float(spread(self, t))


def spread(params: DoubleSlitParams, t):
    """Extra width hbar*t / (2 m sigma) acquired by a packet after time t."""
    return HBAR_NM2_ME_PS * np.abs(t) / (2.0 * params.mass * params.sigma)


def sigma_t(params: DoubleSlitParams, t):
    """Position-space standard deviation of a single packet at time t."""
    return np.hypot(params.sigma, spread(params, t))


def _exp_denominator(params: DoubleSlitParams, t):
    """Complex denominator 4 sigma^2 + 2i hbar t / m of the packet exponent."""
    return 4.0 * params.sigma ** 2 + 2.0j * HBAR_NM2_ME_PS * np.asarray(t, dtype=float) / params.mass


def _prefactor(params: DoubleSlitParams, t):
    """Common packet prefactor (2 pi)^(-1/4) (sigma + i hbar t / (2 m sigma))^(-1/2)."""
    s = params.sigma + 1.0j * HBAR_NM2_ME_PS * np.asarray(t, dtype=float) / (2.0 * params.mass * params.sigma)
    return 1.0 / (_QUARTIC_ROOT_2PI * np.sqrt(s))


def _scalar_like(value, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return value[()] if isinstance(value, np.ndarray) else value
    return value


def packet_amplitude(slit: str, x, t, params: DoubleSlitParams):
    """Amplitude of the packet emerging from one slit.

    The left slit is centered at ``-x_half`` (its exponent reads
    ``(x + x_half)^2``), the right slit at ``+x_half``; the two are mirror
    images under x -> -x.
    """
    if slit == "left":
        center = -params.x_half
    elif slit == "right":
        center = params.x_half
    else:
        raise ValueError(f"slit must be 'left' or 'right', got {slit!r}")
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        value = _prefactor(params, t) * np.exp(-((x - center) ** 2) / _exp_denominator(params, t))
    return _scalar_like(value, x, t)


def norm_constant(params: DoubleSlitParams) -> float:
    """Squared norm 2 + 2 exp(-x_half^2 / (2 sigma^2)) of the two-packet sum."""
    with np.errstate(under="ignore"):
        return float(2.0 + 2.0 * np.exp(-params.x_half ** 2 / (2.0 * params.sigma ** 2)))


def psi(x, t, params: DoubleSlitParams):
    """Normalized superposition of the left and right packet amplitudes."""
    value = (packet_amplitude("left", x, t, params) + packet_amplitude("right", x, t, params)) / np.sqrt(
        norm_constant(params)
    )
    return _scalar_like(value, x, t)


def rho(x, t, params: DoubleSlitParams):
    """Position probability density |psi(x, t)|^2."""
    amp = psi(x, t, params)
    value = np.real(amp) ** 2 + np.imag(amp) ** 2
    return _scalar_like(value, x, t)


def envelope_density(x, t, params: DoubleSlitParams):
    """Fringe-free upper envelope (|psi_l| + |psi_r|)^2 / N of the density."""
    left = np.abs(packet_amplitude("left", x, t, params))
    right = np.abs(packet_amplitude("right", x, t, params))
    value = (left + right) ** 2 / norm_constant(params)
    return _scalar_like(value, x, t)


def rho_peak_bound(params: DoubleSlitParams, t):
    """Analytic upper bound on max_x rho(x, t), from the packet envelopes.

    |psi_l + psi_r|^2 <= 4 max_j |psi_j|^2 and each packet peaks at
    (2 pi)^(-1/2) / sigma_t; the bound overestimates the true maximum by at
    most a factor 4 (well-separated slits) and is tight for x_half = 0.
    """
    return 4.0 / (norm_constant(params) * np.sqrt(2.0 * np.pi) * sigma_t(params, t))


def node_floor(params: DoubleSlitParams, t):
    """Density threshold below which the guidance fields are undefined at time t."""
    return NODE_FLOOR_RELATIVE * rho_peak_bound(params, t)


def mass_coordinate(x, t, params: DoubleSlitParams):
    """Position CDF F_t(x), the integral of rho(x', t) over x' < x, in closed form.

    Each packet contributes a Gaussian CDF of width sigma_t; the cross term
    2 Re conj(psi_l) psi_r integrates to a complex erfc, whose large
    exponential prefactor is folded into the Faddeeva function w(z) =
    exp(-z^2) erfc(-iz), so nothing overflows at any X / sigma.  The state
    is mirror symmetric, so only x <= 0 is evaluated and F_t(x) =
    1 - F_t(-x) gives the rest; there the Faddeeva argument lies in the
    upper half plane, where |w| <= 1.  ``t`` must be a scalar or broadcast
    with ``x``.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    left = -np.abs(x)
    width = sigma_t(params, t)
    x_half = params.x_half
    direct = ndtr((left + x_half) / width) + ndtr((left - x_half) / width)
    # conj(psi_l) psi_r ~ exp(-alpha (x + x_half beta / alpha)^2 + shift), a = 1/D,
    # alpha = 2 Re a = 1 / (2 sigma_t^2), beta = conj(a) - a; exp(shift) erfc(z)
    # with z = -sqrt(alpha) (x + x_half beta / alpha) equals exp(shift - z^2) w(iz).
    a = 1.0 / _exp_denominator(params, t)
    alpha = 2.0 * np.real(a)
    beta = np.conj(a) - a
    z = -np.sqrt(alpha) * (left + x_half * beta / alpha)
    with np.errstate(under="ignore"):
        cross = np.exp(-alpha * (left ** 2 + x_half ** 2) - 2.0 * left * x_half * beta) * wofz(1.0j * z)
    lower = (direct + np.real(cross)) / norm_constant(params)
    value = np.where(x > 0.0, 1.0 - lower, lower)
    return _scalar_like(value, x, t)


def inverse_mass_coordinate(u, t: float, params: DoubleSlitParams) -> tuple[np.ndarray, np.ndarray]:
    """Positions x with F_t(x) = u, and a mask of the entries that converged.

    A table of F and rho (= dF/dx) on ``_QUANTILE_TABLE_POINTS`` nodes over
    +-(x_half + 12 sigma_t) brackets each u and seeds it by monotone cubic
    Hermite interpolation of x(F).  Newton steps x -= (F - u) / rho then
    refine it inside the bracket, bisecting whenever a step would leave it,
    until an evaluation confirms |F_t(x) - u| <= ``_QUANTILE_TOL`` or the
    bracket spans adjacent doubles.  Entries that never get there, and any u
    outside (0, 1), are marked False; their x is not a solution.  Each
    entry's arithmetic depends only on (u, t), not on the other entries.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t = float(t)
    width = float(sigma_t(params, t))
    half = params.x_half + _QUANTILE_TABLE_HALF_WIDTHS * width
    grid = np.linspace(-half, half, _QUANTILE_TABLE_POINTS)
    table = np.maximum.accumulate(mass_coordinate(grid, t, params))
    slope = rho(grid, t, params)

    # Bracket [lo, hi]; beyond the table, out to 40 sigma_t where F underflows.
    i = np.clip(np.searchsorted(table, u, side="right"), 0, grid.size)
    far = params.x_half + 40.0 * width
    lo = np.where(i > 0, grid[np.maximum(i - 1, 0)], -far)
    hi = np.where(i < grid.size, grid[np.minimum(i, grid.size - 1)], far)
    inside = (i > 0) & (i < grid.size)
    j = np.clip(i - 1, 0, grid.size - 2)
    f_lo, f_hi = table[j], table[j + 1]
    step = grid[1] - grid[0]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.clip((u - f_lo) / (f_hi - f_lo), 0.0, 1.0)
        # Tangents dx/ds = (F_hi - F_lo) / rho, capped at 3 steps so the
        # interpolant stays monotone and inside its bracket.
        m_lo = np.minimum((f_hi - f_lo) / slope[j], 3.0 * step)
        m_hi = np.minimum((f_hi - f_lo) / slope[j + 1], 3.0 * step)
        s2, s3 = s * s, s * s * s
        seed = (
            (2.0 * s3 - 3.0 * s2 + 1.0) * grid[j]
            + (s3 - 2.0 * s2 + s) * m_lo
            + (-2.0 * s3 + 3.0 * s2) * grid[j + 1]
            + (s3 - s2) * m_hi
        )
    seed = np.where(inside & np.isfinite(seed), np.clip(seed, lo, hi), 0.5 * (lo + hi))

    x = seed
    done = np.zeros(u.shape, dtype=bool)
    active = (u > 0.0) & (u < 1.0)
    for _ in range(_QUANTILE_MAX_ITER):
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        xa, ua, la, ha = x[lanes], u[lanes], lo[lanes], hi[lanes]
        residual = mass_coordinate(xa, t, params) - ua
        hit = np.abs(residual) <= _QUANTILE_TOL
        below = residual < 0.0
        la = np.where(below, xa, la)
        ha = np.where(below, ha, xa)
        finished = hit | (np.nextafter(la, np.inf) >= ha)
        lo[lanes], hi[lanes] = la, ha
        done[lanes] = finished
        active[lanes] = ~finished
        go = ~finished
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            newton = xa[go] - residual[go] / rho(xa[go], t, params)
        ok = np.isfinite(newton) & (newton > la[go]) & (newton < ha[go])
        x[lanes[go]] = np.where(ok, newton, 0.5 * (la[go] + ha[go]))
    return x, done


def _derivative_ratio(x, t, params: DoubleSlitParams):
    """(d psi / dx) / psi, evaluated in an overflow-safe ratio form.

    Writing psi_r / psi_l = exp(delta) with delta = 4 x x_half / D, the
    ratio becomes a weighted average of the two packet log-slopes; the
    larger packet is factored out so no exponential overflows.
    """
    x = np.asarray(x, dtype=float)
    denom = _exp_denominator(params, t)
    delta = 4.0 * x * params.x_half / denom
    shift = np.maximum(np.real(delta), 0.0)
    with np.errstate(under="ignore"):
        w_left = np.exp(-shift)
        w_right = np.exp(delta - shift)
    num = (x + params.x_half) * w_left + (x - params.x_half) * w_right
    den = w_left + w_right
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return (-2.0 / denom) * (num / den)


def _guidance_raw(x, t, params: DoubleSlitParams, x0=None, delta_p=None):
    """Guidance momentum and validity mask, without raising at nodes.

    The Bohm field hbar * Im[(d psi / dx) / psi], plus, when ``delta_p``
    is given, the revised correction ``delta_p * rho(x0, t) / rho(x, t)``.
    """
    density = rho(x, t, params)
    valid = np.asarray(density > node_floor(params, t)) & np.isfinite(density)
    value = HBAR_NM2_ME_PS * np.imag(_derivative_ratio(x, t, params))
    if delta_p is not None:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            value = value + delta_p * (rho(x0, t, params) / density)
        valid = valid & np.isfinite(np.asarray(value))
    return value, valid


class GuidanceField:
    """Momentum field of one guidance law for a set of anchored trajectories.

    Under the revised law lane i is anchored at ``(x0[i], p0[i])`` at time
    ``t0``; its correction strength ``p0 - p_bb(x0, t0)`` is computed once
    here.  ``x0`` is copied, so the caller may reuse its array.  ``x0`` and
    ``p0`` may be scalars (one anchor for every point) and are ignored under
    the Bohm law.  Raises :class:`NodeSingularity` if an
    anchor sits below the node floor.
    """

    def __init__(self, theory: str, params: DoubleSlitParams, x0=None, p0=None, t0: float = 0.0):
        if theory not in ("dbb", "revised"):
            raise ValueError(f"theory must be 'dbb' or 'revised', got {theory!r}")
        self.params = params
        self.x0 = self.delta_p = None
        if theory == "revised":
            self.x0 = np.array(x0, dtype=float)
            base, valid = _guidance_raw(self.x0, t0, params)
            if not np.all(valid):
                raise NodeSingularity("initial condition sits below the node floor")
            self.delta_p = np.asarray(p0 - base, dtype=float)

    def __call__(self, x, t, lanes=...):
        """Momentum and validity at (x, t); ``lanes`` selects the anchors of each point."""
        if self.delta_p is None:
            return _guidance_raw(x, t, self.params)
        return _guidance_raw(x, t, self.params, self.x0[lanes], self.delta_p[lanes])


def _checked(law: str, value, valid, x, t):
    if not np.all(valid):
        raise NodeSingularity(
            f"{law} field requested at {int(np.size(valid) - np.count_nonzero(valid))} "
            "point(s) with density below the node floor"
        )
    return _scalar_like(value, x, t)


def p_bb(x, t, params: DoubleSlitParams):
    """Bohm momentum field hbar * Im[(d psi / dx) / psi].

    Raises :class:`NodeSingularity` wherever the density is below the node
    floor, since the phase gradient is not meaningful there.
    """
    return _checked("Bohm", *_guidance_raw(x, t, params), x, t)


def p_revised(x, t, ic, params: DoubleSlitParams):
    """Revised momentum field: Bohm field plus the density-anchored correction.

    The correction ``(p0 - p_bb(x0, t0)) * rho(x0, t) / rho(x, t)`` keeps
    the continuity equation intact (it adds an x-independent term to the
    flux) while pinning the field to ``p0`` at the initial point.
    """
    field = GuidanceField("revised", params, ic.x0, ic.p0, ic.t0)
    return _checked("revised", *field(x, t), x, t)


def momentum_density(p, params: DoubleSlitParams):
    """Momentum probability density: Gaussian envelope times cos^2(x_half p / hbar).

    This is the squared modulus of the Fourier transform of psi; it is
    time independent for the free double-slit state.
    """
    p = np.asarray(p, dtype=float)
    hbar = HBAR_NM2_ME_PS
    sp = params.sigma_p
    with np.errstate(under="ignore"):
        prefactor = np.sqrt(2.0 / np.pi) / sp / (1.0 + np.exp(-2.0 * sp ** 2 * params.x_half ** 2 / hbar ** 2))
        value = prefactor * np.exp(-(p ** 2) / (2.0 * sp ** 2)) * np.cos(params.x_half * p / hbar) ** 2
    return _scalar_like(value, p)


def schrodinger_residual(x, t, params: DoubleSlitParams, h_x: float, h_t: float, psi_fn=None):
    """Free Schrodinger residual i hbar d_t psi + hbar^2/(2m) d_xx psi by central differences.

    Returns the residual normalized by |psi(x, t)| times the characteristic
    energy hbar^2 / (2 m sigma^2), so a correct wave field gives a value at
    the finite-difference truncation level.  ``psi_fn`` may substitute a
    different wave function (negative controls); it defaults to the
    module's analytic psi.
    """
    if psi_fn is None:
        psi_fn = lambda xx, tt: psi(xx, tt, params)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    hbar, mass = HBAR_NM2_ME_PS, params.mass
    center = psi_fn(x, t)
    d_t = (psi_fn(x, t + h_t) - psi_fn(x, t - h_t)) / (2.0 * h_t)
    d_xx = (psi_fn(x + h_x, t) - 2.0 * center + psi_fn(x - h_x, t)) / h_x ** 2
    residual = 1.0j * hbar * d_t + hbar ** 2 / (2.0 * mass) * d_xx
    scale = np.abs(center) * hbar ** 2 / (2.0 * mass * params.sigma ** 2)
    value = residual / scale
    return _scalar_like(value, x, t)


def continuity_residual(
    x,
    t,
    params: DoubleSlitParams,
    h_x: float,
    h_t: float,
    theory: str = "dbb",
    ic=None,
    momentum_fn=None,
):
    """Residual d_t rho + d_x(rho p / m) of the continuity equation by central differences.

    ``theory`` selects the guidance field ("dbb" or "revised", the latter
    requiring ``ic``); ``momentum_fn(x, t)`` overrides both for negative
    controls.  The residual is normalized by rho(x, t) / tau with
    tau = 2 m sigma^2 / hbar.
    """
    if momentum_fn is None:
        if theory == "dbb":
            momentum_fn = lambda xx, tt: p_bb(xx, tt, params)
        elif theory == "revised":
            if ic is None:
                raise ValueError("theory='revised' requires an initial condition")
            momentum_fn = lambda xx, tt: p_revised(xx, tt, ic, params)
        else:
            raise ValueError(f"theory must be 'dbb' or 'revised', got {theory!r}")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)

    def flux(xx, tt):
        return rho(xx, tt, params) * momentum_fn(xx, tt) / params.mass

    d_t_rho = (rho(x, t + h_t, params) - rho(x, t - h_t, params)) / (2.0 * h_t)
    d_x_flux = (flux(x + h_x, t) - flux(x - h_x, t)) / (2.0 * h_x)
    value = (d_t_rho + d_x_flux) * params.dispersion_time / rho(x, t, params)
    return _scalar_like(value, x, t)


def continuity_truncation_bound(x, t, params: DoubleSlitParams, h_x: float, h_t: float):
    """Order-of-magnitude bound on the continuity residual of the exact fields.

    Central differences leave truncation errors (h_t^2/6) d_t^3 rho and
    (h_x^2/6) d_x^3 (rho v).  Both third derivatives are estimated from the
    local wavenumber budget: packet log-slope, fringe wavenumber, and the
    envelope scale 1/sigma_t.  Derivatives scale with the fringe-free
    envelope rather than rho itself, hence the envelope/rho factor, which is
    what makes fringe minima expensive; a floating-point roundoff term for
    the divided differences is included as well.  The anchored correction
    contributes an x-independent flux term whose exact derivative vanishes,
    so the bound is theory independent.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    hbar, mass = HBAR_NM2_ME_PS, params.mass
    denom = _exp_denominator(params, t)
    width = sigma_t(params, t)

    k_packet = 2.0 * (np.abs(x) + params.x_half) / np.abs(denom)
    k_fringe = 8.0 * params.x_half * hbar * np.abs(t) / (mass * np.abs(denom) ** 2)
    k = k_packet + k_fringe + 1.0 / width
    omega = hbar * k ** 2 / mass

    env = envelope_density(x, t, params)
    density = rho(x, t, params)
    dip = env / density

    c3 = 10.0  # margin over the naive (scale)^3 derivative estimate
    tau = params.dispersion_time
    truncation = tau * dip * c3 * (h_t ** 2 / 6.0 * omega ** 3 + h_x ** 2 / 6.0 * (hbar / mass) * k ** 4)
    eps = 4.0 * np.finfo(float).eps
    roundoff = tau * dip * eps * (1.0 / h_t + (hbar * k / mass) / h_x)
    value = truncation + roundoff
    return _scalar_like(value, x, t)
