"""Trajectory integration: schedules, RK4 order, statuses, reproducibility."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtraj import (
    DoubleSlitParams,
    InitialCondition,
    IntegrationSchedule,
    NodeSingularity,
    SeededStream,
    Trajectory,
    default_schedule,
    integrate,
    integrate_batch,
    make_initial_conditions,
    momentum_along,
)
from qtraj.dynamics import STATUS_COMPLETED, STATUS_EXITED, STATUS_STALLED, transport_batch
from qtraj.wavefield import GuidanceField, mass_coordinate, p_bb, p_revised, rho

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _schedule(params, **kw):
    base = dict(
        t0=0.0,
        t_final=5.0,
        dt_base=0.005,
        record_stride=25,
        dt_min=0.005 / 2**20,
        max_speed=50.0 * params.sigma_p,
        x_bound=params.x_half + 40.0 * params.sigma,
    )
    base.update(kw)
    return IntegrationSchedule(**base)


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def test_default_schedule_fields(params, schedule):
    assert schedule.t0 == 0.0 and schedule.t_final == 5.0
    assert schedule.dt_base == 0.005
    assert schedule.max_speed == pytest.approx(50.0 * params.sigma_p)
    assert schedule.x_bound == pytest.approx(params.x_half + 40.0 * params.sigma)
    assert schedule.n_base == 1000


@pytest.mark.parametrize(
    "kw",
    [
        {"t_final": 0.0},
        {"dt_base": 0.0},
        {"dt_min": 0.02},
        {"record_stride": 0},
        {"max_speed": -1.0},
        {"x_bound": 0.0},
    ],
)
def test_schedule_rejects_bad_values(params, kw):
    with pytest.raises(ValueError):
        _schedule(params, **kw)


def test_guidance_field_matches_p_bb_and_p_revised(params):
    """The field the integrator, the slicer and momentum_along share equals
    p_bb / p_revised bit for bit, each lane under its own anchor."""
    ics = [InitialCondition(x0=x0, p0=p0, t0=0.0) for x0, p0 in ((-30.0, 9.0), (20.0, 4.0), (42.0, -2.5))]
    rng = np.random.default_rng(7)
    x = rng.uniform(-80.0, 80.0, 60)
    t = rng.uniform(0.1, 5.0, 60)
    lanes = np.arange(60) % len(ics)
    for theory in ("dbb", "revised"):
        field = GuidanceField(theory, params, [ic.x0 for ic in ics], [ic.p0 for ic in ics], 0.0)
        p, valid = field(x, t, lanes)
        assert np.all(valid)
        for i, ic in enumerate(ics):
            at = lanes == i
            expected = p_bb(x[at], t[at], params) if theory == "dbb" else p_revised(x[at], t[at], ic, params)
            np.testing.assert_array_equal(p[at], expected)
    with pytest.raises(NodeSingularity):
        GuidanceField("revised", params, [0.0, 400.0], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        GuidanceField("pilot", params)


# ---------------------------------------------------------------------------
# single-trajectory behavior
# ---------------------------------------------------------------------------


def test_completed_dbb_trajectory_structure(params, schedule):
    ic = InitialCondition(x0=55.0, p0=0.0, t0=0.0, theory="dbb")
    tr = integrate(ic, schedule, params)
    t = np.asarray(tr.t)
    assert tr.status == STATUS_COMPLETED
    assert t[0] == 0.0 and t[-1] == 5.0
    assert np.all(np.diff(t) > 0.0)
    # records land exactly on the stride grid: every 25 * 0.005 ps
    np.testing.assert_array_equal(t, np.arange(41) * 0.125)
    assert tr.x[0] == ic.x0
    assert tr.p[0] == p_bb(ic.x0, 0.0, params)


def test_first_sample_reports_field_momentum(params, schedule):
    ic = InitialCondition(x0=-30.0, p0=9.0, t0=0.0, theory="revised")
    tr = integrate(ic, schedule, params)
    assert tr.p[0] == pytest.approx(9.0, abs=1e-12)


def test_runaway_revised_trajectory_stalls(params, schedule):
    """A strong momentum offset self-amplifies until the speed cap halts it."""
    ic = InitialCondition(x0=55.0, p0=8.0, t0=0.0, theory="revised")
    tr = integrate(ic, schedule, params)
    assert tr.status == STATUS_STALLED
    t = np.asarray(tr.t)
    assert t[-1] < 5.0
    assert np.all(np.diff(t) > 0.0)
    assert abs(tr.x[-1]) < schedule.x_bound


def test_runaway_exits_small_domain(params):
    sched = _schedule(params, x_bound=70.0)
    ic = InitialCondition(x0=55.0, p0=8.0, t0=0.0, theory="revised")
    tr = integrate(ic, sched, params)
    assert tr.status == STATUS_EXITED
    assert abs(tr.x[-1]) > 70.0


def test_integrate_batch_matches_sequential(params, schedule):
    """Either engine gives each lane the same bytes alone as in a batch."""
    ics = make_initial_conditions(48, SeededStream(6), params, theory="revised")
    for engine in (integrate_batch, transport_batch):
        batch = engine(ics, schedule, params)
        for ic, tb in zip(ics, batch):
            ts = engine([ic], schedule, params)[0]
            assert ts.status == tb.status
            np.testing.assert_array_equal(np.asarray(ts.t), np.asarray(tb.t))
            np.testing.assert_array_equal(np.asarray(ts.x), np.asarray(tb.x))
            np.testing.assert_array_equal(np.asarray(ts.p), np.asarray(tb.p))


def test_integrate_rejects_mismatched_t0(params, schedule):
    ic = InitialCondition(x0=10.0, p0=0.0, t0=1.0, theory="dbb")
    with pytest.raises(ValueError):
        integrate(ic, schedule, params)


def test_record_times_contain_slice_times(params, schedule):
    """3.5 ps and 5 ps must be exact grid points (dyadic time arithmetic)."""
    ic = InitialCondition(x0=-12.0, p0=0.0, t0=0.0, theory="dbb")
    tr = integrate(ic, schedule, params)
    t = np.asarray(tr.t)
    assert 3.5 in t and 5.0 in t and 0.0 in t


# ---------------------------------------------------------------------------
# exact mass-coordinate transport
# ---------------------------------------------------------------------------


def _closed_form_targets(ics, times, params):
    """F_0(x0) + (delta_p / m) * integral of rho(x0, s) ds at each time, per lane.

    The time integral is an 8-point Gauss-Legendre rule over each interval
    between consecutive ``times``, summed in order.
    """
    x0 = np.array([ic.x0 for ic in ics])
    t0 = ics[0].t0
    target = np.repeat(mass_coordinate(x0, t0, params)[:, None], len(times), axis=1)
    if ics[0].theory == "dbb":
        return target
    drift = (np.array([ic.p0 for ic in ics]) - p_bb(x0, t0, params)) / params.mass
    lo, hi = np.asarray(times[:-1]), np.asarray(times[1:])
    half = 0.5 * (hi - lo)
    s = lo[:, None] + half[:, None] * (_GL_NODES + 1.0)
    pieces = half * (rho(x0[:, None, None], s[None], params) * _GL_WEIGHTS).sum(axis=-1)
    target[:, 1:] += drift[:, None] * np.cumsum(pieces, axis=1)
    return target


def _check_transport(ics, sched, params, tol):
    """Every recorded sample sits on its closed-form mass coordinate; a lane
    stops before t_final only if that coordinate leaves (0, 1) by then."""
    trajs = transport_batch(ics, sched, params)
    cells = [k for k in range(sched.n_base + 1) if k % sched.record_stride == 0 or k == sched.n_base]
    times = np.array([sched.t0 + (k / sched.n_base) * (sched.t_final - sched.t0) for k in cells])
    target = _closed_form_targets(ics, times, params)
    for i, tr in enumerate(trajs):
        k = tr.t.size
        np.testing.assert_array_equal(tr.t, times[:k])
        residual = np.abs(mass_coordinate(tr.x[1:], tr.t[1:], params) - target[i, 1:k])
        assert residual.size == 0 or residual.max() <= tol
        if tr.status == STATUS_COMPLETED:
            assert k == times.size
        else:
            assert tr.status == STATUS_STALLED and k < times.size
            assert not 0.0 < target[i, k] < 1.0
    return trajs, target


def test_transport_agrees_with_rk4(params, schedule):
    """On lanes both engines complete, RK4 tracks the exact transport to its
    own truncation error; RK4 completes no lane that transport stops."""
    for theory, x_tol, p_tol in (("dbb", 1e-7, 1e-7), ("revised", 1e-3, 1e-3)):
        ics = make_initial_conditions(512, SeededStream(1, 0), params, 0.0, theory)
        exact = transport_batch(ics, schedule, params)
        rk4 = integrate_batch(ics, schedule, params)
        both = [(a, b) for a, b in zip(exact, rk4) if a.status == b.status == STATUS_COMPLETED]
        assert len(both) > 300
        for a, b in both:
            np.testing.assert_array_equal(a.t, b.t)
            assert np.max(np.abs(a.x - b.x)) <= x_tol
            assert np.max(np.abs(a.p - b.p)) <= p_tol * params.sigma_p
        assert not any(a.status != STATUS_COMPLETED and b.status == STATUS_COMPLETED for a, b in zip(exact, rk4))


def test_transport_escape_stops_at_last_record(params, schedule):
    """The runaway anchor RK4 stalls at its speed cap escapes in closed form:
    transport keeps every record whose mass coordinate is still in (0, 1)."""
    ic = InitialCondition(x0=55.0, p0=8.0, t0=0.0, theory="revised")
    (tr,), target = _check_transport([ic], schedule, params, 1e-13)
    assert tr.status == STATUS_STALLED
    assert np.all((target[0, : tr.t.size] > 0.0) & (target[0, : tr.t.size] < 1.0))
    # the domain bound and speed cap of the schedule do not enter
    (small,) = transport_batch([ic], _schedule(params, x_bound=70.0), params)
    np.testing.assert_array_equal(small.x, tr.x)
    assert small.status == STATUS_STALLED


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    ratio=st.floats(0.0, 500.0),
    mass=st.floats(0.05, 20.0),
    span=st.floats(0.05, 10.0),
    theory=st.sampled_from(["dbb", "revised"]),
)
def test_transport_keeps_mass_coordinate_law(ratio, mass, span, theory):
    """Across X/sigma, mass and time span, every recorded sample keeps
    F_t(x) = F_0(x0) + (delta_p / m) * integral of rho to 1e-12."""
    params = DoubleSlitParams(x_half=ratio * 5.0, sigma=5.0, mass=mass)
    sched = _schedule(params, t_final=span, dt_base=span / 16, record_stride=2)
    ics = make_initial_conditions(16, SeededStream(3), params, 0.0, theory)
    _check_transport(ics, sched, params, 1e-12)


# ---------------------------------------------------------------------------
# integrator order
# ---------------------------------------------------------------------------


def test_rk4_convergence_slope(params):
    """Endpoint error on a smooth trajectory scales like dt^4."""
    ic = InitialCondition(x0=55.0, p0=0.0, t0=0.0, theory="dbb")

    def endpoint(dt):
        sched = _schedule(
            params, dt_base=dt, record_stride=10**9, dt_min=dt * 0.9
        )
        tr = integrate(ic, sched, params)
        assert tr.status == STATUS_COMPLETED
        return tr.x[-1]

    ref = endpoint(0.25 / 2**6)
    dts = np.array([0.5, 0.25, 0.125])
    errs = np.array([abs(endpoint(dt) - ref) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.5 < slope < 4.5


def test_first_step_displacement_is_second_order(params):
    """Velocity vanishes at t=0, so x(dt) - x0 must shrink like dt^2."""
    ic = InitialCondition(x0=55.0, p0=0.0, t0=0.0, theory="dbb")

    def displacement(dt):
        sched = _schedule(
            params, t_final=dt, dt_base=dt, record_stride=1
        )
        tr = integrate(ic, sched, params)
        return abs(tr.x[-1] - ic.x0)

    ratio = displacement(0.02) / displacement(0.01)
    assert ratio == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# momentum reconstruction
# ---------------------------------------------------------------------------


def test_momentum_along_matches_and_idempotent(params, schedule):
    ic = InitialCondition(x0=42.0, p0=4.0, t0=0.0, theory="revised")
    tr = integrate(ic, schedule, params)
    p1 = np.asarray(momentum_along(tr, params))
    np.testing.assert_array_equal(p1, np.asarray(tr.p))
    redone = Trajectory(ic=tr.ic, t=tr.t, x=tr.x, p=p1, status=tr.status)
    p2 = np.asarray(momentum_along(redone, params))
    assert np.max(np.abs(p2 - p1)) < 1e-12


def test_momentum_along_rejects_node_positions(params, schedule):
    ic = InitialCondition(x0=5.0, p0=0.0, t0=0.0, theory="dbb")
    tr = integrate(ic, schedule, params)
    bad = Trajectory(
        ic=tr.ic,
        t=tr.t,
        x=np.concatenate([np.asarray(tr.x)[:-1], [400.0]]),
        p=tr.p,
        status=tr.status,
    )
    with pytest.raises(NodeSingularity):
        momentum_along(bad, params)
