"""Trajectories under either guidance law: exact transport and RK4.

The equation of motion is ``m dx/dt = p_field(x, t)`` with the field given
by the Bohm phase gradient ("dbb") or its density-anchored revision
("revised").  In one dimension either law moves a trajectory along a known
mass coordinate,

    F_t(x(t)) = F_0(x0) + (delta_p / m) * integral_{t0}^{t} rho(x0, s) ds,

with delta_p = p0 - p_bb(x0, t0) (zero under the Bohm law), because the
revised correction adds an x-independent term to the probability flux.
:func:`transport_batch` builds trajectories from that identity: each
recorded position is the quantile of the closed-form position CDF, and a
trajectory whose right-hand side leaves (0, 1) has escaped to infinity.

:func:`integrate_batch` integrates the same equation with classical
fourth-order Runge-Kutta on a fixed base grid, with dyadic halving of the
step whenever a stage lands in a node-floor region or the step implies a
speed above the configured cap; the step recovers toward the base size
after accepted sub-steps.

Both engines record on the same grid: step times are bookkept as exact
dyadic fractions of the base grid, so a recorded sample at base cell k has
bit-identical time in every trajectory and the recording grid never
drifts.  Trajectories in a batch evolve over numpy lanes; elementwise
kernels make each lane's arithmetic independent of the batch it rides in,
so one trajectory alone reproduces its in-batch result bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .sampling import InitialCondition
from .wavefield import (
    DoubleSlitParams,
    GuidanceField,
    NodeSingularity,
    inverse_mass_coordinate,
    mass_coordinate,
    rho,
)

#: Hard cap on step attempts per trajectory, as a multiple of the base-step
#: count; a lane still unfinished after this many attempts is declared
#: stalled.  Unreachable for the fields simulated here (rejection cascades
#: either recover within a few halvings or hit dt_min quickly); the cap is
#: per-lane bookkeeping, so it does not depend on batch composition.
_MAX_ATTEMPT_FACTOR = 64

#: Recording interval target of the default schedule; the stride is
#: dt-dependent so slice times on multiples of this land on recorded samples.
_RECORD_INTERVAL_PS = 0.125

STATUS_COMPLETED = "completed"
STATUS_EXITED = "exited_domain"
STATUS_STALLED = "node_stalled"

#: Gauss-Legendre rule for the time integral of rho over each record interval.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class IntegrationSchedule:
    """Time grid, step-control limits, and spatial domain for one integration."""

    t0: float
    t_final: float
    dt_base: float
    record_stride: int
    dt_min: float
    max_speed: float
    x_bound: float

    def __post_init__(self) -> None:
        if not self.t_final > self.t0:
            raise ValueError(f"t_final must exceed t0, got [{self.t0!r}, {self.t_final!r}]")
        if not 0.0 < self.dt_min <= self.dt_base:
            raise ValueError(f"need 0 < dt_min <= dt_base, got dt_min={self.dt_min!r}, dt_base={self.dt_base!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride!r}")
        if not self.max_speed > 0:
            raise ValueError(f"max_speed must be positive, got {self.max_speed!r}")
        if not self.x_bound > 0:
            raise ValueError(f"x_bound must be positive, got {self.x_bound!r}")

    @property
    def n_base(self) -> int:
        """Number of base cells; dt_base is a target, the span divides exactly."""
        return max(1, round((self.t_final - self.t0) / self.dt_base))

    @property
    def dt_effective(self) -> float:
        return (self.t_final - self.t0) / self.n_base

    @property
    def max_halvings(self) -> int:
        """Largest halving level j with dt_effective / 2**j still >= dt_min."""
        return max(0, math.floor(math.log2(self.dt_effective / self.dt_min) + 1e-12))


def default_schedule(
    params: DoubleSlitParams,
    t0: float = 0.0,
    t_final: float = 5.0,
    dt_base: float = 0.005,
) -> IntegrationSchedule:
    """Schedule with the default step control: a record every
    ``_RECORD_INTERVAL_PS`` rounded to whole steps, speed cap 50 sigma_p / m,
    domain bound x_half + 40 sigma, minimum step dt_base / 2**20."""
    return IntegrationSchedule(
        t0=t0,
        t_final=t_final,
        dt_base=dt_base,
        record_stride=max(1, round(_RECORD_INTERVAL_PS / dt_base)),
        dt_min=dt_base / 2**20,
        max_speed=50.0 * params.sigma_p / params.mass,
        x_bound=params.x_half + 40.0 * params.sigma,
    )


@dataclass
class Trajectory:
    """Recorded samples of one trajectory and how the integration ended."""

    ic: InitialCondition
    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    status: str

    def __post_init__(self) -> None:
        if not (len(self.t) == len(self.x) == len(self.p)):
            raise ValueError("t, x, p must have equal lengths")


@dataclass(frozen=True, eq=False)
class TrajectoryColumns(Sequence):
    """Same-theory trajectories recorded on one shared grid, stored by column.

    Lane i holds ``n_records[i]`` samples: ``x[i, :n_records[i]]`` and
    ``p[i, :n_records[i]]`` at times ``t[:n_records[i]]``; later entries of
    its row are unused.  Indexing or iterating yields :class:`Trajectory`
    views over these arrays.
    """

    ics: list[InitialCondition]
    t: np.ndarray  # (R,) record grid
    x: np.ndarray  # (n, R)
    p: np.ndarray  # (n, R)
    n_records: np.ndarray  # (n,)
    status: np.ndarray  # (n,) status strings

    def __len__(self) -> int:
        return len(self.ics)

    def __getitem__(self, i: int) -> Trajectory:
        k = self.n_records[i]
        return Trajectory(ic=self.ics[i], t=self.t[:k], x=self.x[i, :k], p=self.p[i, :k], status=str(self.status[i]))

    @classmethod
    def concat(cls, parts: list["TrajectoryColumns"]) -> "TrajectoryColumns":
        """The lanes of ``parts`` in order; every part must share one record grid."""
        if len(parts) == 1:
            return parts[0]
        t = parts[0].t
        if any(not np.array_equal(part.t, t) for part in parts):
            raise ValueError("trajectory blocks recorded on different grids")

        def joined(name):
            return np.concatenate([getattr(part, name) for part in parts])

        ics = [ic for part in parts for ic in part.ics]
        return cls(ics, t, joined("x"), joined("p"), joined("n_records"), joined("status"))


def _batch_theory(ics: list[InitialCondition], schedule: IntegrationSchedule) -> str:
    """The one theory of a non-empty batch whose anchors all sit at the schedule's t0."""
    theory = ics[0].theory
    if any(ic.theory != theory for ic in ics):
        raise ValueError("all initial conditions in a batch must share one theory")
    if any(ic.t0 != schedule.t0 for ic in ics):
        raise ValueError("initial-condition t0 must match the schedule t0")
    return theory


def transport_batch(
    ics: list[InitialCondition],
    schedule: IntegrationSchedule,
    params: DoubleSlitParams,
) -> TrajectoryColumns:
    """Trajectories of a same-theory batch by exact mass-coordinate transport.

    Records fall on the grid :func:`integrate_batch` uses (every
    ``record_stride`` base cells and at t_final); no step loop runs, so the
    schedule's step-control limits and domain bound play no part.  At each
    record the target u = F_0(x0) + (delta_p / m) * integral of rho(x0, s)
    is advanced by an 8-point Gauss-Legendre rule over the record interval,
    and x is the inverse of the closed-form mass coordinate at u.  A lane
    whose u leaves (0, 1) has escaped to infinity and stops at its last
    record in range, marked ``node_stalled``; so does a lane whose inverse
    does not converge or whose x sits below the node floor, where no
    momentum is defined.  Momenta are the guidance field at the exact x.
    Every lane's records are a prefix of the one grid, so the batch comes
    back as columns.
    """
    n = len(ics)
    n_base = schedule.n_base
    span = schedule.t_final - schedule.t0
    cells = [k for k in range(n_base + 1) if k % schedule.record_stride == 0 or k == n_base]
    times = [schedule.t0 + (k / n_base) * span for k in cells]
    rec_x = np.full((n, len(times)), np.nan)
    rec_p = np.full((n, len(times)), np.nan)
    rec_n = np.ones(n, dtype=np.int64)
    status = np.full(n, STATUS_COMPLETED, dtype=object)
    x0 = np.array([ic.x0 for ic in ics], dtype=float)
    p0 = np.array([ic.p0 for ic in ics], dtype=float)
    columns = TrajectoryColumns(list(ics), np.array(times), rec_x, rec_p, rec_n, status)
    if not ics:
        return columns
    theory = _batch_theory(ics, schedule)

    field = GuidanceField(theory, params, x0, p0, schedule.t0)
    p_start, valid0 = field(x0, schedule.t0, np.arange(n))
    if not np.all(valid0):
        raise NodeSingularity("guidance field undefined at an initial condition")
    rec_x[:, 0] = x0
    rec_p[:, 0] = p_start

    u_start = mass_coordinate(x0, schedule.t0, params)
    drift = None if field.delta_p is None else field.delta_p / params.mass
    swept = np.zeros(n)  # integral of rho(x0, s) ds from t0 to the last record
    active = np.ones(n, dtype=bool)
    for r in range(1, len(times)):
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        t_lo, t_hi = times[r - 1], times[r]
        u = u_start[lanes]
        if drift is not None:
            half = 0.5 * (t_hi - t_lo)
            anchors = x0[lanes]
            piece = np.zeros(lanes.size)
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                piece += weight * rho(anchors, t_lo + half * (node + 1.0), params)
            swept[lanes] += half * piece
            u = u + drift[lanes] * swept[lanes]
        x, ok = inverse_mass_coordinate(u, t_hi, params)
        with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
            p, valid = field(x, t_hi, lanes)
        keep = ok & valid
        stop = lanes[~keep]
        status[stop] = STATUS_STALLED
        active[stop] = False
        kept = lanes[keep]
        rec_x[kept, r] = x[keep]
        rec_p[kept, r] = p[keep]
        rec_n[kept] = r + 1
    return columns


def integrate_batch(
    ics: list[InitialCondition],
    schedule: IntegrationSchedule,
    params: DoubleSlitParams,
) -> list[Trajectory]:
    """Integrate a batch of same-theory trajectories with RK4 in vectorized lockstep."""
    if not ics:
        return []
    theory = _batch_theory(ics, schedule)

    n = len(ics)
    n_base = schedule.n_base
    dt_eff = schedule.dt_effective
    span = schedule.t_final - schedule.t0
    stride = schedule.record_stride
    j_max = schedule.max_halvings
    mass = params.mass

    x = np.array([ic.x0 for ic in ics], dtype=float)
    field = GuidanceField(theory, params, x, [ic.p0 for ic in ics], schedule.t0)
    k = np.zeros(n, dtype=np.int64)  # completed base cells
    m = np.zeros(n, dtype=np.int64)  # sub-steps completed inside the current cell
    j = np.zeros(n, dtype=np.int64)  # halving level: step = dt_effective / 2**j
    active = np.ones(n, dtype=bool)
    status = np.full(n, STATUS_COMPLETED, dtype=object)

    p_cur, valid0 = field(x, schedule.t0, np.arange(n))
    if not np.all(valid0):
        raise NodeSingularity("guidance field undefined at an initial condition")

    max_records = n_base // stride + 3  # start, grid records, possible off-grid tail
    rec_t = np.empty((n, max_records), dtype=float)
    rec_x = np.empty((n, max_records), dtype=float)
    rec_p = np.empty((n, max_records), dtype=float)
    rec_n = np.zeros(n, dtype=np.int64)
    rec_t[:, 0] = schedule.t0
    rec_x[:, 0] = x
    rec_p[:, 0] = p_cur
    rec_n[:] = 1

    def times(kk, mm, jj):
        frac = (kk + np.ldexp(mm.astype(float), -jj)) / n_base
        return schedule.t0 + frac * span

    def finish(lanes, new_status):
        """Deactivate lanes; keep the current state as a final sample if off-grid."""
        status[lanes] = new_status
        active[lanes] = False
        off_grid = (m[lanes] != 0) | ((k[lanes] % stride != 0) & (k[lanes] != n_base))
        tail = lanes[off_grid]
        if tail.size:
            slot = rec_n[tail]
            rec_t[tail, slot] = times(k[tail], m[tail], j[tail])
            rec_x[tail, slot] = x[tail]
            rec_p[tail, slot] = p_cur[tail]
            rec_n[tail] = slot + 1

    max_attempts = _MAX_ATTEMPT_FACTOR * n_base + 4096
    for _ in range(max_attempts):
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        xa, ka, ma, ja = x[lanes], k[lanes], m[lanes], j[lanes]
        dt = np.ldexp(dt_eff, -ja)
        t_a = times(ka, ma, ja)
        t_h = schedule.t0 + ((ka + np.ldexp(2.0 * ma + 1.0, -(ja + 1))) / n_base) * span
        t_n = schedule.t0 + ((ka + np.ldexp(ma + 1.0, -ja)) / n_base) * span

        with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
            v1, ok1 = field(xa, t_a, lanes)
            v1 = v1 / mass
            v2, ok2 = field(xa + 0.5 * dt * v1, t_h, lanes)
            v2 = v2 / mass
            v3, ok3 = field(xa + 0.5 * dt * v2, t_h, lanes)
            v3 = v3 / mass
            v4, ok4 = field(xa + dt * v3, t_n, lanes)
            v4 = v4 / mass
            dx = (dt / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            x_new = xa + dx
            p_new, ok5 = field(x_new, t_n, lanes)
        ok = (
            ok1 & ok2 & ok3 & ok4 & ok5
            & np.isfinite(x_new)
            & (np.abs(dx) <= schedule.max_speed * dt)
        )

        rejected = lanes[~ok]
        if rejected.size:
            stalled = rejected[j[rejected] + 1 > j_max]
            retry = rejected[j[rejected] + 1 <= j_max]
            j[retry] += 1
            m[retry] *= 2
            if stalled.size:
                finish(stalled, STATUS_STALLED)

        accepted = lanes[ok]
        if accepted.size:
            x[accepted] = x_new[ok]
            p_cur[accepted] = p_new[ok]
            m[accepted] += 1
            carry = accepted[m[accepted] == 2 ** j[accepted]]
            k[carry] += 1
            m[carry] = 0

            at_cell = accepted[m[accepted] == 0]
            to_record = at_cell[(k[at_cell] % stride == 0) | (k[at_cell] == n_base)]
            if to_record.size:
                slot = rec_n[to_record]
                rec_t[to_record, slot] = times(k[to_record], m[to_record], j[to_record])
                rec_x[to_record, slot] = x[to_record]
                rec_p[to_record, slot] = p_cur[to_record]
                rec_n[to_record] = slot + 1

            done = accepted[(k[accepted] == n_base) & (m[accepted] == 0)]
            if done.size:
                status[done] = STATUS_COMPLETED
                active[done] = False
            out = accepted[active[accepted] & (np.abs(x[accepted]) > schedule.x_bound)]
            if out.size:
                finish(out, STATUS_EXITED)

            recover = accepted[active[accepted] & (j[accepted] > 0) & (m[accepted] % 2 == 0)]
            j[recover] -= 1
            m[recover] //= 2
    else:
        finish(np.flatnonzero(active), STATUS_STALLED)

    return [
        Trajectory(ic=ics[i], t=rec_t[i, : rec_n[i]], x=rec_x[i, : rec_n[i]], p=rec_p[i, : rec_n[i]], status=str(status[i]))
        for i in range(n)
    ]


def integrate(ic: InitialCondition, schedule: IntegrationSchedule, params: DoubleSlitParams) -> Trajectory:
    """Integrate a single trajectory (identical to its result in any batch)."""
    return integrate_batch([ic], schedule, params)[0]


def momentum_along(trajectory: Trajectory, params: DoubleSlitParams) -> np.ndarray:
    """Re-evaluate the guidance momentum at every recorded (x, t) sample.

    Idempotent with the momenta stored during integration; a NodeSingularity
    here means stored samples violate the node floor, which integration
    acceptance rules out.
    """
    ic = trajectory.ic
    field = GuidanceField(ic.theory, params, ic.x0, ic.p0, ic.t0)
    value, valid = field(trajectory.x, trajectory.t)
    if not np.all(valid):
        raise NodeSingularity("stored trajectory sample violates the node floor")
    return np.asarray(value, dtype=float)
