"""Closed-form double-slit oracle, written apart from the ``qtraj`` package.

The state is the normalized sum of two freely dispersing Gaussian packets
centred at -X and +X.  Everything here follows from that wave function in
closed form: the position density rho, its mass coordinate
F_t(x) = integral of rho up to x (complex erfc), the momentum density and
its CDF, and the Bohm field p_bb = hbar * Im(psi'/psi).  Time integrals of
rho along a fixed point use Gauss-Legendre quadrature, and ``self_check``
compares the closed forms against plain quadrature.

The mass-coordinate law used by the checks: under either guidance law,
dF_t(x(t))/dt = (delta_p / m) * rho(x0, t) with delta_p = p0 - p_bb(x0, t0)
(zero for dbb), so

    F_t(x(t)) = F_0(x0) + (delta_p / m) * integral_0^t rho(x0, s) ds.

A trajectory escapes to infinity in finite time exactly when the right
side leaves (0, 1); it is monotone in t because rho > 0.

Units: nm, ps, electron masses.  Only numpy and scipy.special are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtr

# CODATA 2018 hbar and electron mass; hbar / m_e in nm^2 / ps.
HBAR = 1.054571817e-34 / 9.1093837015e-31 * 1e6

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: Guidance fields are undefined where rho is below this share of the
#: packet-envelope bound 4 / (N sqrt(2 pi) sigma_t); the program's node rule.
NODE_FLOOR_RELATIVE = 1e-12


@dataclass(frozen=True)
class Physics:
    """Slit half-separation X (nm), packet width sigma (nm), mass (m_e)."""

    x_half: float = 50.0
    sigma: float = 10.0
    mass: float = 1.0

    @property
    def hbar_over_m(self) -> float:
        return HBAR / self.mass

    @property
    def sigma_p(self) -> float:
        return HBAR / (2.0 * self.sigma)

    @property
    def norm(self) -> float:
        """Squared norm of the unnormalized two-packet sum."""
        return 2.0 + 2.0 * np.exp(-self.x_half**2 / (2.0 * self.sigma**2))

    def spread(self, t):
        return self.hbar_over_m * np.abs(t) / (2.0 * self.sigma)

    def sigma_t(self, t):
        return np.hypot(self.sigma, self.spread(t))

    # ---- wave function -------------------------------------------------
    def _exponents(self, x, t):
        """Complex log-amplitudes of the left and right packets (unnormalized sum)."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        width = self.sigma + 0.5j * self.hbar_over_m * t / self.sigma
        log_c = -0.25 * np.log(2.0 * np.pi) - 0.5 * np.log(width)
        denom = 4.0 * self.sigma**2 + 2.0j * self.hbar_over_m * t
        left = log_c - (x + self.x_half) ** 2 / denom
        right = log_c - (x - self.x_half) ** 2 / denom
        return left, right, denom

    def rho(self, x, t):
        left, right, _ = self._exponents(x, t)
        with np.errstate(under="ignore"):
            amp = np.exp(left) + np.exp(right)
        return (amp.real**2 + amp.imag**2) / self.norm

    def p_bb(self, x, t):
        """hbar * Im(psi'/psi), with the larger packet factored out."""
        x = np.asarray(x, dtype=float)
        left, right, denom = self._exponents(x, t)
        top = np.maximum(left.real, right.real)
        with np.errstate(under="ignore"):
            w_left = np.exp(left - top)
            w_right = np.exp(right - top)
        slope = -2.0 * ((x + self.x_half) * w_left + (x - self.x_half) * w_right) / (denom * (w_left + w_right))
        return HBAR * slope.imag

    def node_floor(self, t):
        return NODE_FLOOR_RELATIVE * 4.0 / (self.norm * np.sqrt(2.0 * np.pi) * self.sigma_t(t))

    # ---- mass coordinate ----------------------------------------------
    def mass_coordinate(self, x, t):
        """F_t(x): each packet's Gaussian CDF plus the closed-form cross term."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        st = self.sigma_t(t)
        direct = ndtr((x + self.x_half) / st) + ndtr((x - self.x_half) / st)
        # conj(psi_L) psi_R = |c|^2 exp(-alpha (u + u0)^2 + shift) with
        # a = 1/D, alpha = 2 Re a, beta = conj(a) - a, u0 = X beta / alpha.
        a = 1.0 / (4.0 * self.sigma**2 + 2.0j * self.hbar_over_m * t)
        alpha = 2.0 * a.real
        beta = np.conj(a) - a
        u0 = self.x_half * beta / alpha
        shift = self.x_half**2 * beta**2 / alpha - alpha * self.x_half**2
        c2 = 1.0 / (np.sqrt(2.0 * np.pi) * st)
        partial = c2 * np.exp(shift) * 0.5 * np.sqrt(np.pi / alpha) * erfc(-np.sqrt(alpha) * (x + u0))
        return (direct + 2.0 * partial.real) / self.norm

    def rho_time_integral(self, x0, t_lo, t_hi):
        """integral_{t_lo}^{t_hi} rho(x0, s) ds by 8-point Gauss-Legendre (elementwise)."""
        x0 = np.asarray(x0, dtype=float)[..., None]
        t_lo = np.asarray(t_lo, dtype=float)[..., None]
        t_hi = np.asarray(t_hi, dtype=float)[..., None]
        half = 0.5 * (t_hi - t_lo)
        s = t_lo + half * (_GL_NODES + 1.0)
        return (half * self.rho(x0, s) * _GL_WEIGHTS).sum(axis=-1)

    # ---- momentum space -------------------------------------------------
    def momentum_density(self, p):
        p = np.asarray(p, dtype=float)
        sp = self.sigma_p
        k = 2.0 * self.x_half / HBAR
        damp = np.exp(-0.5 * (k * sp) ** 2)
        gauss = np.exp(-0.5 * (p / sp) ** 2) / (sp * np.sqrt(2.0 * np.pi))
        return gauss * (1.0 + np.cos(k * p)) / (1.0 + damp)

    def momentum_cdf(self, p):
        """CDF of the momentum density: Gaussian CDF plus Re of a shifted complex erfc."""
        p = np.asarray(p, dtype=float)
        sp = self.sigma_p
        k = 2.0 * self.x_half / HBAR
        damp = np.exp(-0.5 * (k * sp) ** 2)
        z = -(p - 1.0j * k * sp**2) / (sp * np.sqrt(2.0))
        return (erfc(-p / (sp * np.sqrt(2.0))) + (damp * erfc(z)).real) / (2.0 * (1.0 + damp))


def drift_integrals(phys: Physics, x0, t, first):
    """Per-sample integral_{t0}^{t} rho(x0, s) ds for time-ordered samples.

    ``first`` is True on each trajectory's first sample (taken at t0).  Each
    sample integrates from the previous sample's time, and the pieces are
    summed within each trajectory.
    """
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    first = np.asarray(first, dtype=bool)
    t_prev = np.empty_like(t)
    t_prev[1:] = t[:-1]
    t_prev[first] = t[first]
    pieces = phys.rho_time_integral(x0, t_prev, t)
    total = np.cumsum(pieces)
    starts = np.flatnonzero(first)
    offset = np.repeat(total[starts] - pieces[starts], np.diff(np.append(starts, t.size)))
    return total - offset


def self_check(phys: Physics) -> list[str]:
    """Closed forms against plain quadrature; returns a list of failures."""
    errors = []
    for t in (0.0, 1.3, 5.0):
        half = phys.x_half + 14.0 * float(phys.sigma_t(t))
        grid = np.linspace(-half, half, 400_001)
        dens = phys.rho(grid, t)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        probe = np.linspace(-0.8 * half, 0.8 * half, 41)
        err = np.max(np.abs(np.interp(probe, grid, cum) - phys.mass_coordinate(probe, t)))
        if err > 1e-7:
            errors.append(f"mass coordinate at t={t} differs from quadrature by {err:.2e}")
        total = float(phys.mass_coordinate(half * 3.0, t))
        if abs(total - 1.0) > 1e-12:
            errors.append(f"mass coordinate at t={t} tends to {total!r}, not 1")
    half_p = 12.0 * phys.sigma_p
    grid = np.linspace(-half_p, half_p, 400_001)
    dens = phys.momentum_density(grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    probe = np.linspace(-5.0 * phys.sigma_p, 5.0 * phys.sigma_p, 41)
    err = np.max(np.abs(np.interp(probe, grid, cum) - phys.momentum_cdf(probe)))
    if err > 1e-7:
        errors.append(f"momentum cdf differs from quadrature by {err:.2e}")
    # p_bb against the phase gradient by central differences of arg psi
    x = np.linspace(-90.0, 90.0, 37)
    h = 1e-4
    for t in (0.7, 3.5):
        left, right, _ = phys._exponents(np.stack([x - h, x + h]), t)
        phase = np.angle(np.exp(left) + np.exp(right))
        grad = HBAR * np.angle(np.exp(1j * (phase[1] - phase[0]))) / (2.0 * h)
        err = np.max(np.abs(grad - phys.p_bb(x, t)) / phys.sigma_p)
        if err > 1e-5:
            errors.append(f"p_bb at t={t} differs from the phase gradient by {err:.2e} sigma_p")
    # time integral against a fine trapezoid
    s = np.linspace(0.0, 5.0, 200_001)
    for x0 in (-63.0, 4.0, 51.0):
        dens = phys.rho(x0, s)
        ref = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(s)))
        steps = np.linspace(0.0, 5.0, 41)
        gl = float(phys.rho_time_integral(np.full(40, x0), steps[:-1], steps[1:]).sum())
        if abs(gl - ref) > 1e-9:
            errors.append(f"time integral of rho at x0={x0} differs from trapezoid by {abs(gl - ref):.2e}")
    return errors
