"""Trajectories under either guidance law: exact transport and RK4.

The equation of motion is ``m dx/dt = p_field(x, t)`` with the field given
by the Bohm phase gradient ("dbb") or its density-anchored revision
("revised").  In one dimension either law moves a trajectory along a known
mass coordinate,

    F_t(x(t)) = F_0(x0) + (delta_p / m) * integral_{t0}^{t} rho(x0, s) ds,

with delta_p = p0 - p_bb(x0, t0) (zero under the Bohm law), because the
revised correction adds an x-independent term to the probability flux.
:func:`integrate_batch` builds trajectories from that identity: each
recorded position is the quantile of the closed-form position CDF, and a
trajectory whose right-hand side leaves (0, 1) has escaped to infinity.
It fills one set of columns in pieces of lanes on worker threads, each
piece by blocks of record times: the right-hand sides of a whole block
come first, then one inversion of the position law at the block's times
(one law object, one law per time), so each CDF evaluation runs on one
large array.

:func:`rk4_batch` integrates the same equation with classical
fourth-order Runge-Kutta on a fixed base grid, with dyadic halving of the
step whenever a stage lands in a node-floor region or the step implies a
speed above 50 sigma_p / m; the step recovers toward the base size after
accepted sub-steps.

Both engines take one :class:`InitialCondition` batch and return
:class:`TrajectoryColumns` on the schedule's one record grid; a lane that
stops keeps its records up to its last grid record.  RK4 bookkeeps step
times as exact dyadic fractions of the base grid, so its record steps land
on the grid times.  Trajectories in a batch evolve over numpy lanes;
elementwise kernels make each lane's arithmetic independent of the batch
it rides in, so a one-lane slice reproduces its in-batch result bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .sampling import InitialCondition
from .wavefield import DoubleSlitParams, GuidanceField, NodeSingularity, position_cdf, rho

#: Hard cap on step attempts per trajectory, as a multiple of the base-step
#: count; a lane still unfinished after this many attempts is declared
#: stalled.  Unreachable for the fields simulated here (rejection cascades
#: either recover within a few halvings or exhaust them quickly); the cap is
#: per-lane bookkeeping, so it does not depend on batch composition.
_MAX_ATTEMPT_FACTOR = 64

#: RK4 step control in the physics' own scales: a step halves at most
#: ``_MAX_HALVINGS`` times below dt_effective, a step implying a speed above
#: ``_SPEED_CAP_SIGMA_P`` sigma_p / m is rejected, and a lane farther than
#: ``_DOMAIN_SIGMAS`` sigma beyond the slit centres has exited the domain.
_MAX_HALVINGS = 20
_SPEED_CAP_SIGMA_P = 50.0
_DOMAIN_SIGMAS = 40.0

#: Recording interval target; the stride is dt-dependent so slice times on
#: multiples of this land on recorded samples.
_RECORD_INTERVAL_PS = 0.125

STATUS_COMPLETED = "completed"
STATUS_EXITED = "exited_domain"
STATUS_STALLED = "node_stalled"

#: Gauss-Legendre rule for the time integral of rho over each record interval.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: The exact transport moves the lanes in pieces of this many, each piece
#: on one worker thread: it bounds a piece's working set.  A lane's bits do
#: not depend on its piece, so any size gives one result.
_BATCH_SIZE = 2048

#: A piece advances a block of record times at once, about this many
#: lanes x records, so each CDF inversion works on one large array.
_BLOCK_POINTS = 16384


@dataclass(frozen=True)
class IntegrationSchedule:
    """The record grid both engines share.

    [t0, t_final] splits into ``n_base`` equal base cells of about dt_base;
    a sample is recorded every ``record_stride`` cells and at t_final.
    """

    t0: float = 0.0
    t_final: float = 5.0
    dt_base: float = 0.005

    def __post_init__(self) -> None:
        if not self.t_final > self.t0:
            raise ValueError(f"t_final must exceed t0, got [{self.t0!r}, {self.t_final!r}]")
        if not self.dt_base > 0.0:
            raise ValueError(f"dt_base must be positive, got {self.dt_base!r}")

    @property
    def n_base(self) -> int:
        """Number of base cells; dt_base is a target, the span divides exactly."""
        return max(1, round((self.t_final - self.t0) / self.dt_base))

    @property
    def dt_effective(self) -> float:
        return (self.t_final - self.t0) / self.n_base

    @property
    def record_stride(self) -> int:
        """Base cells per record: ``_RECORD_INTERVAL_PS`` rounded to whole cells."""
        return max(1, round(_RECORD_INTERVAL_PS / self.dt_base))

    def is_record(self, k):
        """Whether base cell boundary k (an int or an int array) is recorded."""
        return (k % self.record_stride == 0) | (k == self.n_base)

    @property
    def record_times(self) -> np.ndarray:
        """Times of the recorded cell boundaries, bit-equal to RK4's step times;
        the last is t_final exactly."""
        cells = np.append(np.arange(0, self.n_base, self.record_stride), self.n_base)
        times = self.t0 + (cells / self.n_base) * (self.t_final - self.t0)
        times[-1] = self.t_final  # the sum rounds away from t_final when |t0| >> t_final - t0
        return times


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
    views over these arrays; a slice yields those lanes' columns, whose
    writes land in these arrays.
    """

    ics: InitialCondition  # (n,) batch
    t: np.ndarray  # (R,) record grid
    x: np.ndarray  # (n, R)
    p: np.ndarray  # (n, R)
    n_records: np.ndarray  # (n,)
    status: np.ndarray  # (n,) status strings

    def __len__(self) -> int:
        return len(self.ics)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TrajectoryColumns(self.ics[i], self.t, self.x[i], self.p[i], self.n_records[i], self.status[i])
        k = self.n_records[i]
        return Trajectory(ic=self.ics[i], t=self.t[:k], x=self.x[i, :k], p=self.p[i, :k], status=str(self.status[i]))


def _start(ics: InitialCondition, schedule: IntegrationSchedule) -> TrajectoryColumns:
    """A batch's columns on the record grid, allocated once: each lane holds
    one record (see :func:`_anchor`) and status ``completed``."""
    if ics.t0 != schedule.t0:
        raise ValueError("initial-condition t0 must match the schedule t0")
    n, times = len(ics), schedule.record_times
    blank, status = np.full((n, times.size), np.nan), np.full(n, STATUS_COMPLETED, dtype=object)
    return TrajectoryColumns(ics, times, blank, blank.copy(), np.ones(n, dtype=np.int64), status)


def _anchor(columns: TrajectoryColumns, schedule: IntegrationSchedule, params: DoubleSlitParams) -> GuidanceField:
    """The guidance field of the lanes of ``columns``, after writing their
    start record at t0 (the drawn p0 under the revised law, the field's
    under Bohm's); raises :class:`NodeSingularity` where it is undefined."""
    ics = columns.ics
    field = GuidanceField(ics.theory, params, ics.x0, ics.p0, schedule.t0)
    p_start, valid0 = field(ics.x0, schedule.t0, np.arange(len(ics)))
    if not np.all(valid0):
        raise NodeSingularity("guidance field undefined at an initial condition")
    # the revised field at the anchor is p_bb + (p0 - p_bb), which can miss p0 by an ulp
    columns.x[:, 0], columns.p[:, 0] = ics.x0, p_start if field.delta_p is None else ics.p0
    return field


def integrate_batch(
    ics: InitialCondition, schedule: IntegrationSchedule, params: DoubleSlitParams, workers: int = 1
) -> TrajectoryColumns:
    """Trajectories of a same-theory batch by exact mass-coordinate transport.

    The columns are allocated once; a pool of ``workers`` threads (so a
    caller's numpy ``errstate`` never reaches them) fills them in pieces of
    ``_BATCH_SIZE`` lanes, each piece its own rows.  Any worker count gives
    one result; below 1 raises ValueError.

    Records fall on the schedule's record grid, which :func:`rk4_batch`
    shares; no step loop runs, so RK4's step control plays no part.  At each
    record the target u = F_0(x0) + (delta_p / m) * integral of rho(x0, s)
    is advanced by an 8-point Gauss-Legendre rule over the record interval,
    and x is the inverse of the closed-form mass coordinate at u.

    A piece's active lanes advance a block of record times at once, about
    ``_BLOCK_POINTS`` lanes x records: rho at the 8 nodes of every record of
    the block in one broadcast call, each record's nodes summed in node
    order and the intervals added record by record, as one record at a time
    would; then ``position_cdf(params, t_hi[:, None])``, the position law
    of the block's record times, is inverted in one Newton pass, each
    record time seeded from its own cached table (1025 closed-form points,
    mirrored to 2049 nodes), whose first Newton step needs no closed-form
    F; so each record costs about one closed-form evaluation, the one that
    confirms its x.  A lane keeps the records before its first failing one
    in the block, and stops there marked ``node_stalled``: where its u
    leaves (0, 1) (it has escaped to infinity), where its inverse is not
    finite (it did not converge), or where its x sits below the node floor
    (no momentum is defined).  Momenta are the guidance field at the exact
    x.  Every lane's records are a prefix of the one grid, so the batch
    comes back as columns.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    columns = _start(ics, schedule)
    pieces = [columns[i : i + _BATCH_SIZE] for i in range(0, len(ics), _BATCH_SIZE)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda piece: _transport(piece, schedule, params), pieces))
    return columns


def _transport(columns: TrajectoryColumns, schedule: IntegrationSchedule, params: DoubleSlitParams) -> None:
    """Fill the rows of one piece of :func:`integrate_batch`, block by block."""
    field = _anchor(columns, schedule, params)
    times, rec_x, rec_p, rec_n, status = columns.t, columns.x, columns.p, columns.n_records, columns.status
    x0 = rec_x[:, 0].copy()
    n = x0.size

    u_start = position_cdf(params, schedule.t0)(x0)
    drift = None if field.delta_p is None else field.delta_p / params.mass
    swept = np.zeros(n)  # integral of rho(x0, s) ds from t0 to the last record
    active = np.ones(n, dtype=bool)
    first = 1  # the block's first record
    while first < len(times):
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        block = np.arange(first, min(len(times), first + max(1, _BLOCK_POINTS // lanes.size)))
        t_hi = times[block]
        u = np.broadcast_to(u_start[lanes], (block.size, lanes.size))
        if drift is not None:
            half = 0.5 * (t_hi - times[block - 1])
            nodes = times[block - 1, None] + half[:, None] * (_GL_NODES + 1.0)  # (records, 8)
            densities = rho(x0[lanes], nodes[:, :, None], params)  # (records, 8, lanes)
            interval = sum(weight * densities[:, k] for k, weight in enumerate(_GL_WEIGHTS))  # in node order
            # record by record down axis 0, as the integral grows
            sweep = np.add.accumulate(np.vstack((swept[lanes], half[:, None] * interval)), axis=0)[1:]
            swept[lanes] = sweep[-1]
            u = u + drift[lanes] * sweep
        x = position_cdf(params, t_hi[:, None]).quantile(u)
        with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
            p, valid = field(x, t_hi[:, None], lanes)
        # each lane keeps the records before its first failing one
        kept = np.logical_and.accumulate(np.isfinite(x) & valid, axis=0)
        count = np.count_nonzero(kept, axis=0)
        rec_x[lanes, first : first + block.size] = np.where(kept, x, np.nan).T
        rec_p[lanes, first : first + block.size] = np.where(kept, p, np.nan).T
        rec_n[lanes] = first + count
        stop = lanes[count < block.size]
        status[stop] = STATUS_STALLED
        active[stop] = False
        first += block.size


def rk4_batch(
    ics: InitialCondition,
    schedule: IntegrationSchedule,
    params: DoubleSlitParams,
) -> TrajectoryColumns:
    """Integrate a batch of same-theory trajectories with RK4 in vectorized lockstep.

    Records fall on the schedule's record grid, so the batch comes back as
    columns, as from :func:`integrate_batch`.  A lane that stops (exits the
    domain or stalls) keeps its records up to its last grid record; its
    state between that record and the stop is not kept.
    """
    columns = _start(ics, schedule)
    field = _anchor(columns, schedule, params)
    rec_x, rec_p, rec_n, status = columns.x, columns.p, columns.n_records, columns.status
    x, p_cur = rec_x[:, 0].copy(), rec_p[:, 0].copy()

    n = x.size
    n_base = schedule.n_base
    dt_eff = schedule.dt_effective
    span = schedule.t_final - schedule.t0
    mass = params.mass
    max_speed = _SPEED_CAP_SIGMA_P * params.sigma_p / mass
    x_bound = params.x_half + _DOMAIN_SIGMAS * params.sigma

    k = np.zeros(n, dtype=np.int64)  # completed base cells
    m = np.zeros(n, dtype=np.int64)  # sub-steps completed inside the current cell
    j = np.zeros(n, dtype=np.int64)  # halving level: step = dt_effective / 2**j
    active = np.ones(n, dtype=bool)

    def times(kk, mm, jj):
        frac = (kk + np.ldexp(mm.astype(float), -jj)) / n_base
        return schedule.t0 + frac * span

    def finish(lanes, new_status):
        status[lanes] = new_status
        active[lanes] = False

    max_attempts = _MAX_ATTEMPT_FACTOR * n_base + 4096
    for _ in range(max_attempts):
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        xa, ka, ma, ja = x[lanes], k[lanes], m[lanes], j[lanes]
        dt = np.ldexp(dt_eff, -ja)
        t_a = times(ka, ma, ja)
        t_h = times(ka, 2 * ma + 1, ja + 1)
        t_n = times(ka, ma + 1, ja)

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
            & (np.abs(dx) <= max_speed * dt)
        )

        rejected = lanes[~ok]
        if rejected.size:
            stalled = rejected[j[rejected] + 1 > _MAX_HALVINGS]
            retry = rejected[j[rejected] + 1 <= _MAX_HALVINGS]
            j[retry] += 1
            m[retry] *= 2
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
            rec = at_cell[schedule.is_record(k[at_cell])]  # each lane's next grid record
            slot = rec_n[rec]
            rec_x[rec, slot], rec_p[rec, slot] = x[rec], p_cur[rec]
            rec_n[rec] = slot + 1

            active[accepted[(k[accepted] == n_base) & (m[accepted] == 0)]] = False  # status stays completed
            finish(accepted[active[accepted] & (np.abs(x[accepted]) > x_bound)], STATUS_EXITED)

            recover = accepted[active[accepted] & (j[accepted] > 0) & (m[accepted] % 2 == 0)]
            j[recover] -= 1
            m[recover] //= 2
    else:
        finish(np.flatnonzero(active), STATUS_STALLED)

    return columns
