"""Closed-form double-slit wave field and its guidance momentum fields.

Two freely dispersing Gaussian packets, centered at ``-x_half`` ("left")
and ``+x_half`` ("right"), are superposed and normalized once.  Everything
derived from them -- position and momentum densities and CDFs, the Bohm
phase-gradient momentum field, and the density-anchored revision of that
field -- is evaluated analytically; spatial derivatives use the closed
form, never finite differences.  Both densities are one two-packet law
(center, width, fringe half-wavenumber, N): position at time t is
(x_half, sigma_t, x_half spread(t) / (2 sigma sigma_t^2), N), and momentum
is its far-field limit (0, sigma_p, x_half / hbar, N).  Each law is one
:class:`ClosedFormCDF` object, from :func:`position_cdf` or
:func:`momentum_cdf`: its call is the CDF, ``.pdf`` the density and
``.quantile`` the checked inverse.  For an array of times,
:func:`position_cdf` gives one law object whose ``width`` and ``wave`` take
the times' shape, one law per time, and whose quantile inverts them all in
one Newton pass; :func:`rho`, :func:`envelope_density` and
:class:`GuidanceField` take their terms from that object.
Every density goes through one real kernel (:func:`_density_terms`) and
every CDF through one closed form (:func:`_cumulative`), whose Faddeeva
function is Weideman's rational series in numpy (:func:`_faddeeva`), so
this module needs no scipy; one :class:`GuidanceField` evaluation gives the
density, its node-floor mask and both guidance laws.
Complex arithmetic remains only in ``psi``, ``packet_amplitude`` and the
Schrodinger residual, and in the CDF's fringe term, where the series runs
on complex arguments; for the CDF's Gaussian terms it runs in real
arithmetic.

Finite-difference residual instruments (free Schrodinger equation,
continuity equation) live here too, but they are verification tools only.

All operations accept scalars or numpy arrays (broadcast) for ``x``,
``t``, ``p`` and are pure functions, safe to call from any thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

#: Nodes of the table that seeds a quantile, spread over +-(center + 12 width):
#: 12 sigma_t beyond the slits for positions, 12 sigma_p for momenta.
_QUANTILE_TABLE_POINTS = 2049
_QUANTILE_TABLE_HALF_WIDTHS = 12.0
#: A quantile is accepted once |F(x) - u| is at most this, or once its
#: bracket has shrunk to adjacent doubles (where F's slope times one ulp of
#: x exceeds it).
_QUANTILE_TOL = 1e-14
_QUANTILE_MAX_ITER = 100
#: Inner node (1 - 1/sqrt 5) / 2 of the 4-point Gauss-Lobatto rule on [0, 1],
#: whose weights are 1/12, 5/12, 5/12, 1/12; the rule is exact to degree 5,
#: with error -delta^7 f^(6)(xi) / 1512000 over an interval of length delta.
_LOBATTO_NODE = 0.5 - 0.5 / np.sqrt(5.0)
#: Seed tables kept by :func:`_seed_table` (about 50 kB each): one per record
#: time of a default run up to 16 ps.  One lock makes each law's table a
#: single build, however many threads invert that law at once, while it is
#: among the last 128 built.
_SEED_TABLES = 128
_SEED_TABLE_LOCK = threading.Lock()

#: Smallest normal double; a CDF tail below it has no significant digits left.
_TINY = float(np.finfo(float).tiny)

#: Weideman's rational series for the Faddeeva function with N = 40 terms
#: (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)):
#: w(z) = [1 / sqrt(pi) + 2 sum_{n=1}^{N} a_n Z^(n-1) / (L - iz)] / (L - iz),
#: Z = (L + iz) / (L - iz), L = sqrt(N / sqrt 2), and
#: a_n = (1 / 4N) sum_{|k| < 2N} exp(-t_k^2) (L^2 + t_k^2) cos(pi n k / 2N),
#: t_k = L tan(pi k / 4N); the a_n below are rounded from 50 digits.
_WEIDEMAN_L = 5.3182958969449885
_WEIDEMAN_A = (
    2.8996245093897053, 2.61605415276186, 2.201513794878312, 1.7253830848179779,
    1.2563815675765133, 0.8472174576593818, 0.5266528988277086, 0.29989437996150065,
    0.15504263802479495, 0.07182361779074337, 0.029202916471241867, 0.010048186242783424,
    0.0027054056330737914, 0.0004398070159869668, -3.939363145489569e-05, -5.591309264248318e-05,
    -1.8007447144750956e-05, -1.0660138984947143e-06, 1.483566113220078e-06, 5.912136951899494e-07,
    1.4198642399935674e-08, -6.35177348504429e-08, -1.8315616783040462e-08, 3.2497465180436973e-09,
    3.0177805400090707e-09, 2.1086006347066517e-10, -3.5632339865976533e-10, -9.055124450928292e-11,
    3.47272670930455e-11, 1.7714495214011192e-11, -2.7276023158200452e-12, -2.907688342182867e-12,
    1.2031458219387989e-13, 4.5329666782606727e-13, 1.37256205867155e-14, -7.074086260286855e-14,
    -5.409310282882142e-15, 1.1357687198999241e-14, 1.128073562364402e-15, -1.899694947394927e-15,
)
#: The a_n as 0-d arrays of each dtype the series runs in, which numpy adds
#: with less overhead per call than Python floats.
_WEIDEMAN_TERMS = {np.dtype(kind): tuple(np.array(a, dtype=kind) for a in _WEIDEMAN_A) for kind in (float, complex)}
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)
_SQRT_HALF = np.sqrt(0.5)


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


def _density_terms(x, law: ClosedFormCDF):
    """Real terms of a two-packet law's density: a, b, wave x, T and sqrt(2 pi) width N.

    a = exp(-(x - center)^2 / (4 width^2)) and b = exp(-(x + center)^2 /
    (4 width^2)) are the packet moduli over their common factor, wave x is
    half the fringe phase phi (for the position law, phi is that of
    conj(psi_r) psi_l for t >= 0), and T = (a - b)^2 + 4 a b cos^2(phi / 2)
    = a^2 + b^2 + 2 a b cos phi is the density times sqrt(2 pi) width N.
    Both terms of T are non-negative, so a fringe minimum loses no digits to
    cancellation.  The width is never squared, so nothing overflows.  At
    center 0 (the momentum law), x - 0 and x + 0 square to the same double,
    so b is a itself.
    """
    center, width = law.center, law.width
    x = np.asarray(x, dtype=float)
    scale = 0.5 / width
    with np.errstate(under="ignore"):
        a = np.exp(-np.square((x - center) * scale))
        b = a if center == 0 else np.exp(-np.square((x + center) * scale))
    half = x * law.wave
    total = np.square(a - b) + 4.0 * a * b * np.square(np.cos(half))
    return a, b, half, total, np.sqrt(2.0 * np.pi) * law.norm * width


def rho(x, t, params: DoubleSlitParams):
    """Position probability density |psi(x, t)|^2, in real arithmetic.

    rho = [(a - b)^2 + 4 a b cos^2(phi / 2)] / (sqrt(2 pi) sigma_t N), with
    the terms of :func:`_density_terms` for the position law at t.
    """
    return _scalar_like(position_cdf(params, t).pdf(x), x, t)


def envelope_density(x, t, params: DoubleSlitParams):
    """Fringe-free upper envelope (|psi_l| + |psi_r|)^2 / N = (a + b)^2 /
    (sqrt(2 pi) sigma_t N) of the density; it bounds :func:`rho` term by term."""
    a, b, _, _, denom = _density_terms(x, position_cdf(params, t))
    return _scalar_like(np.square(a + b) / denom, x, t)


def node_floor(params: DoubleSlitParams, t):
    """Density threshold below which the guidance fields are undefined at time t.

    It is ``NODE_FLOOR_RELATIVE`` times an analytic upper bound on max_x
    rho(x, t), from the packet envelopes: |psi_l + psi_r|^2 <= 4 max_j
    |psi_j|^2 and each packet peaks at (2 pi)^(-1/2) / sigma_t, so the
    bound overestimates the true maximum by at most a factor 4
    (well-separated slits) and is tight for x_half = 0.
    """
    return _node_floor(np.sqrt(2.0 * np.pi) * norm_constant(params) * sigma_t(params, t))


def _node_floor(denom):
    """The node floor over the density denominator sqrt(2 pi) sigma_t N of
    :func:`_density_terms`: the peak bound is 4 / denom."""
    return NODE_FLOOR_RELATIVE * (4.0 / denom)


def _flush_tail(lower):
    """A lower CDF tail with values below the smallest normal double set to 0.

    There both closed-form terms are subnormal and their cancellation leaves
    only rounding noise, which can be negative or decreasing; 0 keeps the
    CDF in [0, 1] and non-decreasing.  nan passes through.
    """
    return np.where(lower < _TINY, 0.0, lower)


def _faddeeva(zeta):
    """The Faddeeva function w(i zeta) = exp(zeta^2) erfc(zeta), for Re zeta >= 0.

    Weideman's series with z = i zeta, so L - iz = L + zeta; elementwise,
    and in real arithmetic for a real zeta, where it is erfcx(zeta).  Each
    Horner product goes to a buffer distinct from its operands: numpy may
    round an in-place complex product differently from the same product in
    a batch, and every lane must get the same bits alone as in a batch.
    """
    denom = _WEIDEMAN_L + zeta
    ratio = (_WEIDEMAN_L - zeta) / denom
    terms = _WEIDEMAN_TERMS[ratio.dtype]
    series, product = np.full_like(ratio, terms[-1]), np.empty_like(ratio)
    for a in terms[-2::-1]:
        np.multiply(series, ratio, out=product)
        np.add(product, a, out=series)
    return (2.0 * series / denom + _INV_SQRT_PI) / denom


def _cumulative(x, center, width, wave, norm):
    """CDF of a two-packet law (see :func:`_density_terms`) at x, in closed form.

    In the scaled variables q = x / width, g = center / width and k = wave
    width, each packet contributes a Gaussian CDF ndtr((x -+ center) /
    width), formed before the division so no digits cancel, and the
    interference term 2 a b cos(2 wave x) integrates to a complex erfc,
    exp(-(q^2 + g^2) / 2) Re[exp(2ikq) w(i zeta)] with zeta = (-q + 2ik) /
    sqrt 2, whose large exponential prefactor is folded into the Faddeeva
    function w.  So nothing overflows at any center / width, and no width^2
    is formed.  The law is mirror symmetric, so only x <= 0 is evaluated and
    F(x) = 1 - F(-x) gives the rest; there Re zeta >= 0, where |w| <= 1.
    :func:`_faddeeva` gives w twice per evaluation: at zeta, in complex
    arithmetic, and on the imaginary axis, in real arithmetic, for both
    Gaussian terms at once: ndtr(y) = exp(-s^2) w(i |s|) / 2 with s = -y /
    sqrt 2, or 1 minus that for y > 0.  The value always lies in [0, 1] (see
    :func:`_flush_tail`).
    """
    x = np.asarray(x, dtype=float)
    left = -np.abs(x)
    q, g, k = left / width, center / width, wave * width
    # at center 0 (the momentum law) both packets' rows are one array
    centers = (center,) if center == 0 else (center, -center)
    s = np.stack([(left - c) / width for c in centers]) * -_SQRT_HALF
    with np.errstate(under="ignore"):
        fringe = np.real(np.exp(2.0j * k * q) * _faddeeva((-q + 2.0j * k) * _SQRT_HALF))
        cross = np.exp(-0.5 * (q * q + g * g)) * fringe
        tails = 0.5 * np.exp(-s * s) * _faddeeva(np.abs(s))
    gauss = np.where(s < 0.0, 1.0 - tails, tails)
    lower = _flush_tail((gauss[0] + gauss[-1] + cross) / norm)
    return np.where(x > 0.0, 1.0 - lower, lower)


@dataclass(frozen=True)
class ClosedFormCDF:
    """A two-packet law: its closed-form CDF (the call), density (``pdf``) and checked quantiles.

    The one way to evaluate a law's CDF, or its density at a fixed time.
    Two Gaussians of standard deviation ``width`` at +-``center`` interfere
    with fringes cos^2(wave x), over the squared norm ``norm`` (see
    :func:`_density_terms`).  The position law of several times (see
    :func:`position_cdf`) holds ``width`` and ``wave`` as arrays, one law
    per time."""

    center: float
    width: float | np.ndarray
    wave: float | np.ndarray
    norm: float

    def __call__(self, x) -> np.ndarray:
        return _cumulative(x, self.center, self.width, self.wave, self.norm)

    def pdf(self, x) -> np.ndarray:
        """The law's density at x."""
        _, _, _, total, denom = _density_terms(x, self)
        return total / denom

    def quantile(self, u) -> np.ndarray:
        """Points x with F(x) = u, shaped like u: -inf for u <= 0, +inf for
        u >= 1, and nan for an entry whose inversion did not converge or
        met a nan F.  For the law of several times (``width`` of shape
        (R, 1), say), u has one row per time.

        A table of F and its density on ``_QUANTILE_TABLE_POINTS`` nodes
        over +-(center + 12 width) brackets each u and seeds it by monotone
        cubic Hermite interpolation of x(F); beyond the table the bracket
        reaches +-(center + 40 width), where F has underflowed to 0 or 1.
        The first Newton step x -= (F - u) / pdf takes F at the seed from
        the table: its F at the bracket's left node plus the 4-point
        Gauss-Lobatto rule of the density up to the seed, which costs two
        densities beyond the pdf the step divides by, and no closed-form F
        (at the paper's physics it is within 6e-16 of the closed form).  The
        step is kept where it is finite and strictly inside the bracket.
        Newton steps on the closed-form F then refine x inside the bracket,
        bisecting whenever a step would leave it, until an evaluation
        confirms |F(x) - u| <= ``_QUANTILE_TOL`` or the bracket spans
        adjacent doubles; an entry whose first step the rule misjudged
        (fringes finer than the nodes) only takes more of them.  All entries
        of all rows share one Newton pass, but each entry's arithmetic
        depends only on its own u and law, not on the other entries.  Each
        row's table comes from :func:`_seed_table`.
        """
        shape = np.shape(u)
        with _SEED_TABLE_LOCK:
            tables = [
                _seed_table(self.center, width, wave, self.norm)
                for width, wave in zip(np.ravel(self.width).tolist(), np.ravel(self.wave).tolist())
            ]
        grid, table, slope = (np.stack(column) for column in zip(*tables))  # (rows, points)
        rows, points = grid.shape
        u = np.asarray(u, dtype=float).reshape(rows, -1)
        width = np.broadcast_to(np.reshape(self.width, (-1, 1)), u.shape)
        wave = np.broadcast_to(np.reshape(self.wave, (-1, 1)), u.shape)
        far = self.center + 40.0 * width

        i = np.stack([np.searchsorted(row, entries, side="right") for row, entries in zip(table, u)])
        lo = np.where(i > 0, np.take_along_axis(grid, np.maximum(i - 1, 0), axis=1), -far)
        hi = np.where(i < points, np.take_along_axis(grid, np.minimum(i, points - 1), axis=1), far)
        inside = (i > 0) & (i < points)
        j = np.clip(i - 1, 0, points - 2)
        x_lo, x_hi = np.take_along_axis(grid, j, axis=1), np.take_along_axis(grid, j + 1, axis=1)
        f_lo, f_hi = np.take_along_axis(table, j, axis=1), np.take_along_axis(table, j + 1, axis=1)
        step = grid[:, 1:2] - grid[:, 0:1]
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            s = np.clip((u - f_lo) / (f_hi - f_lo), 0.0, 1.0)
            # Tangents dx/ds = (F_hi - F_lo) / pdf, capped at 3 steps so the
            # interpolant stays monotone and inside its bracket.
            m_lo = np.minimum((f_hi - f_lo) / np.take_along_axis(slope, j, axis=1), 3.0 * step)
            m_hi = np.minimum((f_hi - f_lo) / np.take_along_axis(slope, j + 1, axis=1), 3.0 * step)
            s2, s3 = s * s, s * s * s
            seed = (
                (2.0 * s3 - 3.0 * s2 + 1.0) * x_lo
                + (s3 - 2.0 * s2 + s) * m_lo
                + (-2.0 * s3 + 3.0 * s2) * x_hi
                + (s3 - s2) * m_hi
            )
        seed = np.where(inside & np.isfinite(seed), np.clip(seed, lo, hi), 0.5 * (lo + hi))
        # F(seed) = F(x_lo) + the Lobatto rule of the density over [x_lo, seed]
        delta = seed - x_lo
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            pdf_seed, pdf_inner, pdf_outer = ClosedFormCDF(self.center, width, wave, self.norm).pdf(
                np.stack((seed, x_lo + _LOBATTO_NODE * delta, seed - _LOBATTO_NODE * delta))
            )
            swept = (np.take_along_axis(slope, j, axis=1) + pdf_seed) + 5.0 * (pdf_inner + pdf_outer)
            newton = seed - (f_lo + delta * swept / 12.0 - u) / pdf_seed
        seed = np.where(inside & np.isfinite(newton) & (newton > lo) & (newton < hi), newton, seed)

        u, lo, hi, width, wave = (column.ravel() for column in (u, lo, hi, width, wave))
        active = (u > 0.0) & (u < 1.0)
        x = np.where(active, seed.ravel(), np.nan)
        for _ in range(_QUANTILE_MAX_ITER):
            lanes = np.flatnonzero(active)
            if lanes.size == 0:
                break
            xa, ua, la, ha = x[lanes], u[lanes], lo[lanes], hi[lanes]
            wa, ka = width[lanes], wave[lanes]
            residual = ClosedFormCDF(self.center, wa, ka, self.norm)(xa) - ua
            hit = np.abs(residual) <= _QUANTILE_TOL
            undefined = np.isnan(residual)  # no bracket can close on it
            below = residual < 0.0
            la = np.where(below, xa, la)
            ha = np.where(below, ha, xa)
            finished = hit | undefined | (np.nextafter(la, np.inf) >= ha)
            lo[lanes], hi[lanes] = la, ha
            active[lanes] = ~finished
            x[lanes[undefined]] = np.nan
            go = ~finished
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                newton = xa[go] - residual[go] / ClosedFormCDF(self.center, wa[go], ka[go], self.norm).pdf(xa[go])
            ok = np.isfinite(newton) & (newton > la[go]) & (newton < ha[go])
            x[lanes[go]] = np.where(ok, newton, 0.5 * (la[go] + ha[go]))
        x[active] = np.nan  # never confirmed
        return np.where(u <= 0.0, -np.inf, np.where(u >= 1.0, np.inf, x)).reshape(shape)


@lru_cache(maxsize=_SEED_TABLES)
def _seed_table(center: float, width: float, wave: float, norm: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes over +-(center + 12 width), the running maximum of the law's F
    on them, and its density: the table that seeds :meth:`ClosedFormCDF.quantile`.

    The nodes are ``linspace(-half, 0, 1025)`` and its negation, and the law
    is evaluated on x <= 0 only: :func:`_cumulative` gives F(x) = 1 - F(-x)
    and :func:`_density_terms` an even density bit for bit, so the mirrored
    columns are F and the density on the whole grid.  Read-only, since one
    table serves every caller; callers hold ``_SEED_TABLE_LOCK``, so every
    batch, thread and theory that inverts a law shares one build while the
    table is among the last ``_SEED_TABLES`` built."""
    law = ClosedFormCDF(center, width, wave, norm)
    half = center + _QUANTILE_TABLE_HALF_WIDTHS * width
    left = np.linspace(-half, 0.0, _QUANTILE_TABLE_POINTS // 2 + 1)
    values, densities = law(left), law.pdf(left)
    mirror = slice(-2, None, -1)  # the nodes below 0, from the middle outwards
    grid = np.concatenate((left, -left[mirror]))
    table = (
        grid,
        np.maximum.accumulate(np.concatenate((values, 1.0 - values[mirror]))),
        np.concatenate((densities, densities[mirror])),
    )
    for column in table:
        column.setflags(write=False)
    return table


def position_cdf(params: DoubleSlitParams, t) -> ClosedFormCDF:
    """The position law at time t: the mass coordinate F_t(x), the integral
    of rho(x', t) over x' < x, with rho(., t) as its ``.pdf``; the two-packet
    law (x_half, sigma_t, x_half spread(t) / (2 sigma sigma_t^2), N).

    For an array t, ``width`` and ``wave`` take t's shape, one law per
    time; for a scalar t they are Python floats.
    """
    width = sigma_t(params, t)
    wave = params.x_half * (spread(params, t) / width) / (2.0 * params.sigma * width)  # spread / sigma_t <= 1
    if np.ndim(t) == 0:
        width, wave = float(width), float(wave)
    return ClosedFormCDF(params.x_half, width, wave, norm_constant(params))


def momentum_cdf(params: DoubleSlitParams) -> ClosedFormCDF:
    """The momentum law, time independent: (0, sigma_p, x_half / hbar, N),
    the far-field position law, rho(x, t) -> (m / t) |psi~(m x / t)|^2.  Its
    ``.pdf`` is the momentum density |psi~(p)|^2, a Gaussian envelope times
    cos^2(x_half p / hbar)."""
    return ClosedFormCDF(0.0, params.sigma_p, params.x_half / HBAR_NM2_ME_PS, norm_constant(params))


#: The two guidance laws: Bohm's phase gradient and its density-anchored revision.
THEORIES = ("dbb", "revised")


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
        if theory not in THEORIES:
            raise ValueError(f"theory must be one of {THEORIES}, got {theory!r}")
        self.params = params
        self.x0 = self.delta_p = None
        if theory == "revised":
            self.x0 = np.array(x0, dtype=float)
            base, valid = self(self.x0, t0)  # delta_p is still None: the Bohm field
            if not np.all(valid):
                raise NodeSingularity("initial condition sits below the node floor")
            self.delta_p = np.asarray(p0 - base, dtype=float)

    def __call__(self, x, t, lanes=...):
        """Momentum and validity at (x, t); ``lanes`` selects the anchors of each point.

        Points where rho is below the node floor (or not finite) are marked
        invalid instead of raising.  The Bohm field hbar Im[(d psi / dx) /
        psi] comes from the terms of :func:`_density_terms`, in real
        arithmetic:

            p_bb = kappa (x + x_half (b - a)(b + a) / T)
                   - (hbar x_half / sigma_t^2) a b sin(phi) / T,

        with kappa = hbar^2 t / (4 m sigma^2 sigma_t^2).  Both terms carry
        the sign of t; the terms' phi uses |t|, so the sign goes into the two
        per-time coefficients.  The revised law adds ``delta_p * rho(x0, t) /
        rho(x, t)``, both densities from the one position law at t.  The node
        floor is :func:`node_floor`'s, from the same denominator.
        """
        params = self.params
        x = np.asarray(x, dtype=float)
        law = position_cdf(params, t)
        a, b, half, total, denom = _density_terms(x, law)
        width = law.width
        density = total / denom
        valid = np.asarray(density > _node_floor(denom)) & np.isfinite(density)
        sign = np.sign(t)
        kappa = sign * (spread(params, t) / width) * (HBAR_NM2_ME_PS / (2.0 * params.sigma * width))
        fringe = sign * (HBAR_NM2_ME_PS * params.x_half / width) / width
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            value = kappa * (x + params.x_half * (b - a) * (b + a) / total) - fringe * a * b * np.sin(2.0 * half) / total
            if self.delta_p is not None:
                anchored = _density_terms(self.x0[lanes], law)[3]
                value = value + self.delta_p[lanes] * ((anchored / denom) / density)
                valid = valid & np.isfinite(value)
        return value, valid


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
    return _checked("Bohm", *GuidanceField("dbb", params)(x, t), x, t)


def p_revised(x, t, ic, params: DoubleSlitParams):
    """Revised momentum field: Bohm field plus the density-anchored correction.

    The correction ``(p0 - p_bb(x0, t0)) * rho(x0, t) / rho(x, t)`` keeps
    the continuity equation intact (it adds an x-independent term to the
    flux) while pinning the field to ``p0`` at the initial point.
    """
    field = GuidanceField("revised", params, ic.x0, ic.p0, ic.t0)
    return _checked("revised", *field(x, t), x, t)


def schrodinger_residual(x, t, params: DoubleSlitParams, h_x: float, h_t: float):
    """Free Schrodinger residual i hbar d_t psi + hbar^2/(2m) d_xx psi of :func:`psi` by central differences.

    Returns the residual normalized by |psi(x, t)| times the characteristic
    energy hbar^2 / (2 m sigma^2), so a correct wave field gives a value at
    the finite-difference truncation level.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    hbar, mass = HBAR_NM2_ME_PS, params.mass
    center = psi(x, t, params)
    d_t = (psi(x, t + h_t, params) - psi(x, t - h_t, params)) / (2.0 * h_t)
    d_xx = (psi(x + h_x, t, params) - 2.0 * center + psi(x - h_x, t, params)) / h_x ** 2
    residual = 1.0j * hbar * d_t + hbar ** 2 / (2.0 * mass) * d_xx
    scale = np.abs(center) * hbar ** 2 / (2.0 * mass * params.sigma ** 2)
    value = residual / scale
    return _scalar_like(value, x, t)


def continuity_residual(x, t, params: DoubleSlitParams, h_x: float, h_t: float, momentum_fn):
    """Residual d_t rho + d_x(rho p / m) of the continuity equation by central differences.

    ``momentum_fn(x, t)`` is the guidance field under test, for example
    ``p_bb`` or ``p_revised`` bound to ``params``.  The residual is
    normalized by rho(x, t) / tau with tau = 2 m sigma^2 / hbar.
    """
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
    width = sigma_t(params, t)

    # |4 sigma^2 + 2i hbar t / m| = 4 sigma sigma_t
    k_packet = (np.abs(x) + params.x_half) / (2.0 * params.sigma * width)
    k_fringe = params.x_half * spread(params, t) / (params.sigma * width) / width
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
