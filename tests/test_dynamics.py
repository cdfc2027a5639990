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
    make_initial_conditions,
)
from qtraj.dynamics import STATUS_COMPLETED, STATUS_EXITED, STATUS_STALLED, integrate_batch, rk4_batch
from qtraj.wavefield import GuidanceField, p_bb, p_revised, position_cdf, rho

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def one_lane(ic):
    """The batch of one lane starting at ``ic``."""
    return InitialCondition(np.array([ic.x0]), np.array([ic.p0]), ic.t0, ic.theory)


def integrate(ic, schedule, params):
    """One trajectory by RK4, identical to its result in any batch."""
    return rk4_batch(one_lane(ic), schedule, params)[0]


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def test_default_schedule_fields(schedule):
    assert schedule.t0 == 0.0 and schedule.t_final == 5.0
    assert schedule.dt_base == 0.005
    assert schedule.n_base == 1000
    assert schedule.record_stride == 25


@pytest.mark.parametrize(
    "kw",
    [
        {"t_final": 0.0},
        {"dt_base": 0.0},
        {"dt_base": -1.0},
        {"dt_base": float("nan")},
        {"t_final": float("nan")},
        {"t0": 6.0},
    ],
)
def test_schedule_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        IntegrationSchedule(**kw)


@pytest.mark.parametrize("dt_base", [0.005, 0.0125, 0.125])
def test_record_grid_every_eighth_ps(params, dt_base):
    """At the benchmark workloads' steps, both engines record every 0.125 ps."""
    sched = IntegrationSchedule(dt_base=dt_base)
    np.testing.assert_array_equal(sched.record_times, np.arange(41) * 0.125)
    ic = InitialCondition(x0=55.0, p0=0.0, t0=0.0, theory="dbb")
    for engine in (integrate_batch, rk4_batch):
        np.testing.assert_array_equal(engine(one_lane(ic), sched, params)[0].t, sched.record_times)


def test_record_grid_at_a_nanosecond_step():
    """dt_base = 1e-9 ps gives 5e9 base cells; the record grid is still the
    41 eighth-picosecond times, built without touching every cell."""
    sched = IntegrationSchedule(dt_base=1e-9)
    assert sched.n_base == 5 * 10**9 and sched.record_stride == 125 * 10**6
    np.testing.assert_array_equal(sched.record_times, np.arange(41) * 0.125)


def test_record_grid_ends_off_stride_at_t_final(params):
    """A step that does not divide 0.125 ps records every round(0.125 / dt)
    cells and once more at t_final."""
    sched = IntegrationSchedule(dt_base=0.02)
    assert sched.n_base == 250 and sched.record_stride == 6
    times = sched.record_times
    np.testing.assert_array_equal(times[:-1], (np.arange(0, 250, 6) / 250) * 5.0)
    assert times.size == 43 and times[-2] < 5.0 and times[-1] == 5.0
    ic = InitialCondition(x0=-12.0, p0=0.0, t0=0.0, theory="dbb")
    for engine in (integrate_batch, rk4_batch):
        np.testing.assert_array_equal(engine(one_lane(ic), sched, params)[0].t, times)


def test_record_grid_ends_at_t_final_far_from_zero():
    """With |t0| >> t_final - t0 the sum t0 + 1.0 * (t_final - t0) rounds to
    4 ps, not 5; the last record time is t_final all the same."""
    sched = IntegrationSchedule(t0=-1e16, t_final=5.0, dt_base=1e16 + 5.0)
    assert sched.n_base == 1 and sched.t0 + 1.0 * (sched.t_final - sched.t0) == 4.0
    np.testing.assert_array_equal(sched.record_times, [-1e16, 5.0])


def test_guidance_field_matches_p_bb_and_p_revised(params):
    """The field the integrator, the transport and the slicer share equals
    p_bb / p_revised bit for bit, each lane under its own anchor."""
    ics = InitialCondition(x0=np.array([-30.0, 20.0, 42.0]), p0=np.array([9.0, 4.0, -2.5]), t0=0.0)
    rng = np.random.default_rng(7)
    x = rng.uniform(-80.0, 80.0, 60)
    t = rng.uniform(0.1, 5.0, 60)
    lanes = np.arange(60) % len(ics)
    for theory in ("dbb", "revised"):
        field = GuidanceField(theory, params, ics.x0, ics.p0, 0.0)
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


@pytest.mark.parametrize("t0", [0.0, 1.0])
@pytest.mark.parametrize("engine", [integrate_batch, rk4_batch], ids=lambda f: f.__name__)
def test_first_revised_record_is_the_drawn_momentum(params, engine, t0):
    """Under the revised law a lane's first recorded momentum is its drawn
    p0 bit for bit, also where p_bb(x0, t0) does not vanish and the field
    p_bb + (p0 - p_bb) can round away from p0."""
    ics = make_initial_conditions(1024, SeededStream(1, 0), params, t0, "revised")
    sched = IntegrationSchedule(t0=t0, t_final=t0 + 0.25, dt_base=0.125)
    np.testing.assert_array_equal(engine(ics, sched, params).p[:, 0], ics.p0)


def test_runaway_revised_trajectory_stalls(params, schedule):
    """A strong momentum offset self-amplifies until the speed cap halts it."""
    ic = InitialCondition(x0=55.0, p0=8.0, t0=0.0, theory="revised")
    tr = integrate(ic, schedule, params)
    assert tr.status == STATUS_STALLED
    t = np.asarray(tr.t)
    assert t[-1] < 5.0
    assert np.all(np.diff(t) > 0.0)
    assert abs(tr.x[-1]) < params.x_half + 40.0 * params.sigma


def test_runaway_exits_small_domain(schedule):
    """At sigma = 0.1 nm the domain bound x_half + 40 sigma is 54 nm, and the
    dispersing packet carries Bohm trajectories past it.  An exited lane keeps
    a prefix of the record grid, every record but the last inside the bound:
    it crossed the bound after its last record, or on it."""
    narrow = DoubleSlitParams(50.0, 0.1)
    ics = make_initial_conditions(8, SeededStream(1, 0), narrow, 0.0, "dbb")
    times = schedule.record_times
    for tr in rk4_batch(ics, schedule, narrow):
        assert tr.status == STATUS_EXITED
        assert tr.t.size < times.size
        np.testing.assert_array_equal(tr.t, times[: tr.t.size])
        assert np.all(np.abs(tr.x[:-1]) <= 54.0)
    # recording every base cell, a lane that exits at a cell boundary keeps
    # its exit state as its last record: the status is set only past 54 nm
    every_cell = IntegrationSchedule(dt_base=0.125)
    columns = rk4_batch(ics, every_cell, narrow)
    past = [tr for tr in columns if abs(tr.x[-1]) > 54.0]
    assert past and all(tr.status == STATUS_EXITED for tr in past)
    assert all(np.all(np.abs(tr.x[:-1]) <= 54.0) for tr in columns)


def test_integrate_batch_matches_sequential(params, schedule):
    """Either engine gives each lane the same bytes alone as in a batch."""
    ics = make_initial_conditions(48, SeededStream(6), params, theory="revised")
    for engine in (rk4_batch, integrate_batch):
        batch = engine(ics, schedule, params)
        for i, tb in enumerate(batch):
            ts = engine(ics[i : i + 1], schedule, params)[0]
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
    x0, t0 = ics.x0, ics.t0
    target = np.repeat(position_cdf(params, t0)(x0)[:, None], len(times), axis=1)
    if ics.theory == "dbb":
        return target
    drift = (ics.p0 - p_bb(x0, t0, params)) / params.mass
    lo, hi = np.asarray(times[:-1]), np.asarray(times[1:])
    half = 0.5 * (hi - lo)
    s = lo[:, None] + half[:, None] * (_GL_NODES + 1.0)
    pieces = half * (rho(x0[:, None, None], s[None], params) * _GL_WEIGHTS).sum(axis=-1)
    target[:, 1:] += drift[:, None] * np.cumsum(pieces, axis=1)
    return target


def _check_transport(ics, sched, params, tol):
    """Every recorded sample sits on its closed-form mass coordinate; a lane
    stops before t_final only if that coordinate leaves (0, 1) by then."""
    trajs = integrate_batch(ics, sched, params)
    times = sched.record_times
    target = _closed_form_targets(ics, times, params)
    reached = np.full(target.shape, np.nan)  # F_t(x) at each lane's records
    for r in range(1, times.size):
        lanes = trajs.n_records > r
        reached[lanes, r] = position_cdf(params, times[r])(trajs.x[lanes, r])
    for i, tr in enumerate(trajs):
        k = tr.t.size
        np.testing.assert_array_equal(tr.t, times[:k])
        residual = np.abs(reached[i, 1:k] - target[i, 1:k])
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
        exact = integrate_batch(ics, schedule, params)
        rk4 = rk4_batch(ics, schedule, params)
        np.testing.assert_array_equal(exact.t, rk4.t)
        both = (exact.status == STATUS_COMPLETED) & (rk4.status == STATUS_COMPLETED)
        assert np.count_nonzero(both) > 300
        assert np.max(np.abs(exact.x[both] - rk4.x[both])) <= x_tol
        assert np.max(np.abs(exact.p[both] - rk4.p[both])) <= p_tol * params.sigma_p
        assert not np.any((exact.status != STATUS_COMPLETED) & (rk4.status == STATUS_COMPLETED))


def test_transport_spends_one_closed_form_point_per_record(params, schedule, seed_tables, cdf_points):
    """A 2048-lane dbb transport at the paper's physics builds one table of
    1025 closed-form points per record time, and beyond those tables spends
    at most 1.1 closed-form points per transported record: the start's F_0(x0)
    and the evaluation that confirms each quantile."""
    ics = make_initial_conditions(2048, SeededStream(1, 0), params, 0.0, "dbb")
    built = seed_tables.cache_info().misses  # F_t0's, which the sampler inverts
    cdf_points.clear()
    columns = integrate_batch(ics, schedule, params)
    records = np.count_nonzero(np.isfinite(columns.x[:, 1:]))
    tables = seed_tables.cache_info().misses - built
    assert tables == schedule.record_times.size - 1
    assert (sum(cdf_points) - 1025 * tables) / records <= 1.1


def test_transport_escape_stops_at_last_record(params, schedule):
    """The runaway anchor RK4 stalls at its speed cap escapes in closed form:
    transport keeps every record whose mass coordinate is still in (0, 1)."""
    ic = InitialCondition(x0=55.0, p0=8.0, t0=0.0, theory="revised")
    (tr,), target = _check_transport(one_lane(ic), schedule, params, 1e-13)
    assert tr.status == STATUS_STALLED
    assert np.all((target[0, : tr.t.size] > 0.0) & (target[0, : tr.t.size] < 1.0))


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
    sched = IntegrationSchedule(t_final=span, dt_base=span / 16)
    ics = make_initial_conditions(16, SeededStream(3), params, 0.0, theory)
    _check_transport(ics, sched, params, 1e-12)


# ---------------------------------------------------------------------------
# integrator order
# ---------------------------------------------------------------------------


def test_rk4_convergence_slope(params):
    """Endpoint error on a smooth trajectory scales like dt^4."""
    ic = InitialCondition(x0=55.0, p0=0.0, t0=0.0, theory="dbb")

    def endpoint(dt):
        sched = IntegrationSchedule(dt_base=dt)
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
        sched = IntegrationSchedule(t_final=dt, dt_base=dt)
        tr = integrate(ic, sched, params)
        return abs(tr.x[-1] - ic.x0)

    ratio = displacement(0.02) / displacement(0.01)
    assert ratio == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# stored momenta
# ---------------------------------------------------------------------------


def test_stored_rk4_momenta_equal_guidance_field(params, schedule):
    """Every stored RK4 momentum is the guidance field at its recorded
    (x, t), re-evaluated from the anchor alone."""
    ic = InitialCondition(x0=42.0, p0=4.0, t0=0.0, theory="revised")
    tr = integrate(ic, schedule, params)
    p, valid = GuidanceField(ic.theory, params, ic.x0, ic.p0, ic.t0)(tr.x, tr.t)
    assert np.all(valid)
    np.testing.assert_array_equal(p, tr.p)


def test_guidance_field_flags_node_position_on_trajectory(params, schedule):
    """A sample moved to x = 400 nm, below the node floor, comes back invalid."""
    ic = InitialCondition(x0=5.0, p0=0.0, t0=0.0, theory="dbb")
    tr = integrate(ic, schedule, params)
    x = np.concatenate([tr.x[:-1], [400.0]])
    _, valid = GuidanceField(ic.theory, params, ic.x0, ic.p0, ic.t0)(x, tr.t)
    assert np.all(valid[:-1]) and not valid[-1]


# ---------------------------------------------------------------------------
# scale covariance
# ---------------------------------------------------------------------------

#: (lambda, mu) of x -> lambda x, m -> mu m, t -> lambda^2 mu t.  Powers of
#: two keep every product and quotient of the kernels exact, so a program
#: with no hidden absolute scale gives x / lambda and p lambda bit for bit.
_SCALINGS = [(2.0, 1.0), (0.5, 1.0), (1.0, 4.0), (4.0, 0.25)]
_COVARIANCE_LANES = {integrate_batch: 256, rk4_batch: 64}

_ABSOLUTE_RECORD_INTERVAL = pytest.mark.xfail(
    strict=True,
    reason="dynamics._RECORD_INTERVAL_PS is an absolute 0.125 ps, and the revised transport "
    "integrates rho(x0, s) in one Gauss-Legendre piece per record interval",
)


def _scaled(params, schedule, lam, mu):
    k = lam * lam * mu
    scaled = DoubleSlitParams(x_half=lam * params.x_half, sigma=lam * params.sigma, mass=mu * params.mass)
    return scaled, IntegrationSchedule(k * schedule.t0, k * schedule.t_final, k * schedule.dt_base), k


@pytest.fixture(scope="module")
def unscaled_runs(params, schedule):
    """The seed-1 runs of each engine and law at the paper's physics, keyed by (engine, theory)."""
    runs = {}

    def run(engine, theory):
        if (engine, theory) not in runs:
            ics = make_initial_conditions(_COVARIANCE_LANES[engine], SeededStream(1, 0), params, 0.0, theory)
            runs[engine, theory] = ics, engine(ics, schedule, params)
        return runs[engine, theory]

    return run


@pytest.mark.parametrize(("lam", "mu"), _SCALINGS, ids=lambda v: f"{v:g}")
@pytest.mark.parametrize(
    ("engine", "theory"),
    [
        (integrate_batch, "dbb"),
        pytest.param(integrate_batch, "revised", marks=_ABSOLUTE_RECORD_INTERVAL),
        (rk4_batch, "dbb"),
        (rk4_batch, "revised"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_scale_covariance(params, schedule, unscaled_runs, engine, theory, lam, mu):
    """Under x -> lambda x, m -> mu m, t -> lambda^2 mu t the draws and the
    trajectories scale exactly: x0 / lambda and p0 lambda equal the unscaled
    draws, and x / lambda, p lambda and the statuses equal the unscaled run
    at the record times the two grids share."""
    ics, base = unscaled_runs(engine, theory)
    scaled_params, scaled_schedule, k = _scaled(params, schedule, lam, mu)
    scaled_ics = make_initial_conditions(len(ics), SeededStream(1, 0), scaled_params, 0.0, theory)
    np.testing.assert_array_equal(scaled_ics.x0 / lam, ics.x0)
    np.testing.assert_array_equal(scaled_ics.p0 * lam, ics.p0)

    run = engine(scaled_ics, scaled_schedule, scaled_params)
    shared, at_base, at_run = np.intersect1d(k * base.t, run.t, return_indices=True)
    assert shared.size >= 8 and shared[-1] == scaled_schedule.t_final
    np.testing.assert_array_equal(run.status, base.status)
    np.testing.assert_array_equal(run.x[:, at_run] / lam, base.x[:, at_base])
    np.testing.assert_array_equal(run.p[:, at_run] * lam, base.p[:, at_base])
