"""Trajectory integration: schedules, RK4 order, statuses, reproducibility."""

import numpy as np
import pytest

from qtraj import (
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
from qtraj.dynamics import STATUS_COMPLETED, STATUS_EXITED, STATUS_STALLED
from qtraj.wavefield import GuidanceField, p_bb, p_revised


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
    ics = make_initial_conditions(48, SeededStream(6), params, theory="revised")
    batch = integrate_batch(ics, schedule, params)
    for ic, tb in zip(ics, batch):
        ts = integrate(ic, schedule, params)
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
