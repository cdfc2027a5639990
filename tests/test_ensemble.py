"""Ensemble statistics: runs, time slices, histograms, KS, dip metrics."""

import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from qtraj import (
    EnsembleConfig,
    EnsembleResult,
    IntegrationSchedule,
    SeededStream,
    band_metrics,
    build_histogram,
    ks_test,
    make_initial_conditions,
    momentum_cdf,
    position_cdf,
    run_ensemble,
    slice_values,
)
from qtraj import dynamics, ensemble
from qtraj.dynamics import TrajectoryColumns, rk4_batch
from qtraj.ensemble import Histogram, histogram_edges, ks_critical
from qtraj.wavefield import GuidanceField, p_bb, p_revised, rho


@pytest.fixture(scope="module")
def small_run(params):
    cfg = EnsembleConfig(theory="revised", n_traj=96, master_seed=11)
    return cfg, run_ensemble(cfg, params, workers=2)


@pytest.fixture(scope="module")
def small_run_dbb(params):
    cfg = EnsembleConfig(theory="dbb", n_traj=96, master_seed=11)
    return cfg, run_ensemble(cfg, params, workers=2)


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


def test_histogram_edge_validation(params):
    """build_histogram rejects fewer than 2 edges (np.histogram takes one
    edge without complaint) and edges that do not strictly increase."""
    for edges in ([], [0.0], [1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan, 1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_histogram([0.5], edges)
    for n_bins in (1, 4):
        pos, mom = histogram_edges(params, 5.0, n_bins)
        np.testing.assert_array_equal(pos, np.linspace(pos[0], pos[-1], n_bins + 1))
        np.testing.assert_array_equal(mom, np.linspace(mom[0], mom[-1], n_bins + 1))


def test_histogram_edges_symmetric(params):
    pos, mom = histogram_edges(params, 5.0)
    assert pos.size == mom.size == 201
    assert pos[0] == -pos[-1] and mom[0] == -mom[-1]
    assert mom[-1] == pytest.approx(6.0 * params.sigma_p)
    assert pos[-1] > params.x_half + 10.0 * params.sigma


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def test_run_ensemble_counts_and_digest(params, small_run):
    cfg, res = small_run
    assert len(res.trajectories) == 96
    assert sum(res.status_counts.values()) == 96
    rerun = run_ensemble(cfg, params, workers=1)
    assert rerun.data_digest() == res.data_digest()


def test_run_ensemble_worker_independent(params):
    cfg = EnsembleConfig(theory="revised", n_traj=40, master_seed=23)
    a = run_ensemble(cfg, params, workers=1)
    b = run_ensemble(cfg, params, workers=4)
    assert a.data_digest() == b.data_digest()


def test_shared_quantile_tables_under_thread_contention(params, monkeypatch, seed_tables):
    """Eight transport pieces on four threads, switching every microsecond,
    first invert each record time's position law together; each distinct law
    still builds one seed table, and the ensemble equals the one-piece build."""
    cfg = EnsembleConfig(theory="revised", n_traj=256, master_seed=23)
    monkeypatch.setattr(dynamics, "_BATCH_SIZE", 32)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        result = run_ensemble(cfg, params, workers=4)
    finally:
        sys.setswitchinterval(interval)
    built = seed_tables.cache_info()
    # the position law at each record time and the momentum law of the draws
    assert built.misses == built.currsize == cfg.schedule.record_times.size + 1
    monkeypatch.undo()  # one piece
    assert result.data_digest() == run_ensemble(cfg, params, workers=1).data_digest()


def test_run_holds_its_record_grid_once(params):
    """A 40000-lane dbb run (0 to 5 ps at dt 0.125 ps, one worker) allocates
    its x and p record columns once: its traced peak beyond those columns
    stays below 0.75 of their bytes.  A second copy of the grid, such as
    joining per-batch columns into a new array, would exceed it."""
    cfg = EnsembleConfig(theory="dbb", n_traj=40000, schedule=IntegrationSchedule(0.0, 5.0, 0.125))
    tracemalloc.start()
    try:
        result = run_ensemble(cfg, params, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = result.trajectories.x.nbytes + result.trajectories.p.nbytes
    assert peak - columns < 0.75 * columns, f"peak {peak / 1e6:.1f} MB over {columns / 1e6:.1f} MB of columns"


def test_rows_format(small_run):
    _, res = small_run
    rows = iter(b"".join(res.csv_blocks()).decode("ascii").splitlines())
    assert next(rows) == "traj_id,t,x,p,status"
    first = next(rows).split(",")
    assert first[0] == "0" and first[4] in {"completed", "node_stalled", "exited_domain"}
    # 17 significant digits round-trip exactly
    assert float(first[2]) == res.trajectories[0].x[0]


#: Values at the edges of the formatter's fast path: signed zeros, non-finite
#: values, the smallest subnormal, the ends of [1e-4, 1e15) with the floats
#: just below them, the literals 9.9999999999999999e k (which round up to
#: the next power of ten) and the floats just below each power of ten, where
#: log10 may guess the exponent one too high, and exact decimal ties in the
#: 17th digit.
_FORMAT_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
    1e-4, math.nextafter(1e-4, 0.0), 1e15, math.nextafter(1e15, 0.0),
    *(float(f"9.9999999999999999e{k}") for k in range(-5, 16)),
    *(math.nextafter(10.0**k, 0.0) for k in range(-4, 16)),
    100000000000000.125, 10000000000000.0625, -100000000000000.125,
]  # fmt: skip

_FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
_FIXED_NOTATION = st.builds(
    lambda v, negative: -v if negative else v, st.floats(1e-4, 1e15, exclude_max=True), st.booleans()
)
_SHORT_DECIMALS = st.builds(lambda m, k: m * 10.0**k, st.integers(-(10**6), 10**6), st.integers(-10, 9))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_FLOAT_BITS, _FIXED_NOTATION, _SHORT_DECIMALS), min_size=1, max_size=64))
@example(_FORMAT_EDGES)
def test_csv_float_fields_equal_percent_17g(values):
    """The CSV's float formatter gives '%.17g' byte for byte: on any float64
    bit pattern, across %g's fixed-notation range and at its edges."""
    fields = ensemble._format_17g(np.array(values))
    assert [bytes(row).replace(b"\0", b"") for row in fields] == [b"%.17g" % v for v in values]


# ---------------------------------------------------------------------------
# time slices
# ---------------------------------------------------------------------------


def test_slice_positions_at_t0_are_initial_positions(small_run):
    _, res = small_run
    sl = slice_values(res, 0.0, "position")
    np.testing.assert_array_equal(sl.values, res.trajectories.ics.x0)
    assert sl.n_excluded == 0


def test_slice_at_grid_time_returns_stored_samples(small_run_dbb):
    _, res = small_run_dbb
    sl = slice_values(res, 0.125, "position")
    np.testing.assert_array_equal(sl.values, [tr.x[1] for tr in res.trajectories])
    slp = slice_values(res, 0.125, "momentum")
    np.testing.assert_array_equal(slp.values, [tr.p[1] for tr in res.trajectories])


def test_slice_interpolates_linearly(small_run_dbb):
    _, res = small_run_dbb
    t = 0.0625  # halfway between the first two recorded times
    sl = slice_values(res, t, "position")
    expected = [0.5 * (tr.x[0] + tr.x[1]) for tr in res.trajectories]
    np.testing.assert_allclose(sl.values, expected, rtol=1e-14)


@pytest.mark.parametrize("theory", ["dbb", "revised"])
def test_slice_momentum_reevaluates_field(params, request, theory):
    _, res = request.getfixturevalue("small_run_dbb" if theory == "dbb" else "small_run")
    t = 0.0625
    xs = np.asarray(slice_values(res, t, "position").values)
    ps = np.asarray(slice_values(res, t, "momentum").values)
    kept = [tr for tr in res.trajectories if tr.t[-1] >= t]
    assert len(kept) == xs.size == ps.size
    if theory == "dbb":
        expected = p_bb(xs, t, params)
    else:
        expected = [p_revised(x, t, tr.ic, params) for x, tr in zip(xs, kept)]
    np.testing.assert_allclose(ps, expected, rtol=1e-12, atol=1e-15)


def test_dbb_samples_conserve_mass_coordinate(params, small_run_dbb):
    """The Bohm flow in one dimension keeps each trajectory's mass coordinate:
    F_t(x_t) = F_0(x0) with F_t the position CDF, at every recorded sample."""
    _, res = small_run_dbb
    t = np.concatenate([tr.t for tr in res.trajectories])
    x = np.concatenate([tr.x for tr in res.trajectories])
    x0 = np.concatenate([np.full(tr.t.size, tr.ic.x0) for tr in res.trajectories])
    u0 = position_cdf(params, 0.0)(x0)
    drift = np.empty_like(x)
    for tk in np.unique(t):
        at = t == tk
        drift[at] = position_cdf(params, tk)(x[at]) - u0[at]
    assert np.max(np.abs(drift)) < 1e-6


def test_slice_excludes_stalled_after_stall(small_run):
    _, res = small_run
    n_stalled = res.status_counts.get("node_stalled", 0)
    assert n_stalled > 0  # revised runaway trajectories exist at this seed
    sl = slice_values(res, 5.0, "position")
    assert sl.n_excluded == n_stalled
    assert sl.n_contributing == 96 - n_stalled


def test_slice_counts_conserved_at_every_time(small_run):
    _, res = small_run
    for t in (0.0, 1.25, 3.5, 5.0):
        for obs in ("position", "momentum"):
            sl = slice_values(res, t, obs)
            assert sl.n_contributing + sl.n_excluded == 96
            assert len(sl.values) == sl.n_contributing


def test_final_momentum_ks_ordering(params):
    """Revised final-time momenta track the quantum density more closely
    than dbb final-time momenta.  Only the ordering of the two KS
    statistics is asserted, not any magnitude."""
    cdf = momentum_cdf(params)
    stats = {}
    for theory in ("dbb", "revised"):
        cfg = EnsembleConfig(theory=theory, n_traj=2000, master_seed=3)
        res = run_ensemble(cfg, params, workers=4)
        sl = slice_values(res, 5.0, "momentum")
        stats[theory] = ks_test(np.asarray(sl.values), cdf).statistic
    assert stats["revised"] < stats["dbb"]


def test_revised_stall_fraction_regression(params, schedule):
    """Pin RK4's stall count at a fixed seed as a regression bound.

    The revised law drifts each mass coordinate at rate
    (p0 - p_bb(x0, t0)) rho(x0, t) / m, so some trajectories escape to
    infinity in finite time (130 here, in closed form).  RK4 also stalls 65
    finite paths, 64 of which complete once its 50 sigma_p / m speed cap is
    lifted, so it reports 195.  This anchors the integrator's rate so changes that shift
    it are caught; ensembles no longer run on RK4 (see the transport pin
    below).
    """
    ics = make_initial_conditions(512, SeededStream(1, 0), params, 0.0, "revised")
    counts = Counter(traj.status for traj in rk4_batch(ics, schedule, params))
    assert dict(counts) == {"completed": 317, "node_stalled": 195}


@pytest.fixture(scope="module")
def revised_512(params):
    cfg = EnsembleConfig(theory="revised", n_traj=512, master_seed=1)
    return run_ensemble(cfg, params, workers=4)


def test_revised_transport_stops_exactly_the_escapes(params, revised_512):
    """Ensembles stop a revised trajectory exactly when its closed-form mass
    coordinate F_0(x0) + (delta_p / m) * integral of rho(x0, s) ds leaves
    (0, 1) by t_final, with the time integral taken by 8-point Gauss-Legendre
    over each 0.125 ps record interval.  At seed 1 that is 130 of 512.  The
    same configuration at n=40000 stops 9296."""
    res = revised_512
    assert dict(res.status_counts) == {"completed": 382, "node_stalled": 130}

    x0, p0 = res.trajectories.ics.x0, res.trajectories.ics.p0
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 5.0, 41)
    s = edges[:-1, None] + 0.0625 * (nodes + 1.0)
    swept = (0.0625 * rho(x0[:, None, None], s[None], params) * weights).sum(axis=(1, 2))
    final = position_cdf(params, 0.0)(x0) + (p0 - p_bb(x0, 0.0, params)) / params.mass * swept
    escapes = (final <= 0.0) | (final >= 1.0)
    assert np.count_nonzero(escapes) == 130
    np.testing.assert_array_equal(escapes, [tr.status == "node_stalled" for tr in res.trajectories])


def _reference_slice(result, t, observable):
    """Per-trajectory slicer: each lane's own searchsorted over its records."""
    sched = result.config.schedule
    tol = 1e-9 * max(1.0, abs(t))
    values, pending_x, pending_traj = [], [], []
    n_excluded = 0
    want_momentum = observable == "momentum"
    for idx, traj in enumerate(result.trajectories):
        tt = traj.t
        if t > tt[-1] + tol:
            n_excluded += 1
            continue
        pos = int(np.searchsorted(tt, t))
        if pos < tt.size and abs(tt[pos] - t) <= tol:
            exact = pos
        elif pos > 0 and abs(tt[pos - 1] - t) <= tol:
            exact = pos - 1
        else:
            exact = -1
        if exact >= 0:
            values.append(float(traj.p[exact] if want_momentum else traj.x[exact]))
            continue
        lo = pos - 1
        w = (t - tt[lo]) / (tt[lo + 1] - tt[lo])
        x_t = float(traj.x[lo] + w * (traj.x[lo + 1] - traj.x[lo]))
        if want_momentum:
            pending_x.append(x_t)
            pending_traj.append(idx)
        else:
            values.append(x_t)
    if pending_x:
        ics = [result.trajectories[i].ic for i in pending_traj]
        field = GuidanceField(result.config.theory, result.params, [ic.x0 for ic in ics], [ic.p0 for ic in ics], sched.t0)
        p, valid = field(np.array(pending_x, dtype=float), t)
        values.extend(np.asarray(p, dtype=float)[valid].tolist())
        n_excluded += int(valid.size - np.count_nonzero(valid))
    return np.array(values, dtype=float), n_excluded


def test_slicer_matches_per_trajectory_reference(revised_512):
    """On an ensemble with 130 escapes: at t0, on and off the record grid,
    at, just after and within or beyond tol of a stop, at and within tol of
    t_final, both observables; and on the escaped lanes alone, off the grid
    after every stop, where no lane is recorded."""
    res = revised_512
    cols = res.trajectories
    stopped_at = np.unique(cols.t[cols.n_records[cols.n_records < cols.t.size] - 1])
    first_stop = float(stopped_at[0])
    tol = 1e-9 * max(1.0, first_stop)
    near_stop = [first_stop + f * tol for f in (-2.0, -0.5, 0.5, 2.0)]
    times = [0.0, -1e-10, 1e-10, 2.5, 1.3, 4.0625, first_stop, first_stop + 1e-10, first_stop + 1e-3, *near_stop]
    times += [4.999, 5.0 - 4e-9, 5.0, 5.0 + 4e-9]
    escaped = np.flatnonzero(cols.n_records < cols.t.size)
    last = int(cols.n_records[escaped].max())
    gone = EnsembleResult(
        config=res.config,
        params=res.params,
        trajectories=TrajectoryColumns(
            cols.ics[escaped],
            cols.t,
            cols.x[escaped],
            cols.p[escaped],
            cols.n_records[escaped],
            cols.status[escaped],
        ),
    )
    off_grid = [0.5 * (cols.t[last - 1] + cols.t[last]), 0.5 * (cols.t[-2] + cols.t[-1]), 5.0]
    cases = [(res, t) for t in times] + [(gone, t) for t in off_grid]
    for result, t in cases:
        for observable in ("position", "momentum"):
            sl = slice_values(result, t, observable)
            values, n_excluded = _reference_slice(result, t, observable)
            np.testing.assert_array_equal(sl.values, values)
            assert sl.n_excluded == n_excluded
            assert sl.n_contributing == values.size
    assert 0 < slice_values(res, first_stop + 1e-3, "position").n_excluded < 130
    # within tol after a stop the stopping lanes still give their last record
    assert slice_values(res, near_stop[2], "position").n_excluded < slice_values(res, near_stop[3], "position").n_excluded
    for t in off_grid:
        sl = slice_values(gone, t, "momentum")
        assert sl.n_contributing == 0 and sl.n_excluded == escaped.size == 130


def test_slicer_on_a_final_interval_inside_tol(params):
    """With 4e9 + 1 base cells the last record interval, 1.25e-9 ps, is
    shorter than tol: a lane stopped one record before t_final still gives
    that record at t_final, as the per-trajectory reference does."""
    n_base = 4 * 10**9 + 1
    sched = IntegrationSchedule(dt_base=5.0 / n_base)
    assert sched.n_base == n_base and sched.record_times.size == 42
    res = run_ensemble(EnsembleConfig(theory="dbb", n_traj=8, master_seed=2, schedule=sched), params)
    cut = np.where(np.arange(8) % 2 == 0, sched.record_times.size - 1, sched.record_times.size)
    res = EnsembleResult(config=res.config, params=params, trajectories=replace(res.trajectories, n_records=cut))
    for t in (5.0, 5.0 - 1.25e-9, 5.0 - 1e-8):
        for observable in ("position", "momentum"):
            values, n_excluded = _reference_slice(res, t, observable)
            sl = slice_values(res, t, observable)
            np.testing.assert_array_equal(sl.values, values)
            assert sl.n_excluded == n_excluded == 0


def test_slice_time_out_of_range(small_run):
    _, res = small_run
    with pytest.raises(ValueError, match="outside"):
        slice_values(res, 5.5, "position")
    with pytest.raises(ValueError, match="outside"):
        slice_values(res, -0.1, "position")
    with pytest.raises(ValueError):
        slice_values(res, 1.0, "energy")


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_build_histogram_counts_and_density():
    h = build_histogram([0.5, 1.5, 1.5, 5.0, -1.0], np.linspace(0.0, 2.0, 3))
    np.testing.assert_array_equal(h.counts, [1, 2])
    assert h.n_below == 1 and h.n_above == 1
    np.testing.assert_allclose(h.density, [1 / 3.0, 2 / 3.0])
    # density integrates to one over the covered range
    assert np.sum(h.density * np.diff(h.edges)) == pytest.approx(1.0)


def test_build_histogram_empty_range():
    h = build_histogram([10.0, 12.0], np.linspace(0.0, 1.0, 5))
    assert h.counts.sum() == 0
    assert np.all(h.density == 0.0)
    assert h.n_above == 2


# ---------------------------------------------------------------------------
# KS test
# ---------------------------------------------------------------------------


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=500)
    ours = ks_test(vals, norm.cdf, alpha=0.05)
    ref = kstest(vals, norm.cdf)
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_critical_table():
    assert ks_critical(400, 0.01) == pytest.approx(1.63 / 20.0)
    assert ks_critical(400, 0.05) == pytest.approx(1.36 / 20.0)
    # fallback to the asymptotic inversion for other levels
    assert ks_critical(100, 0.2) == pytest.approx(np.sqrt(-np.log(0.1) / 2.0) / 10.0)


def test_ks_single_value():
    res = ks_test([0.3], norm.cdf, alpha=0.01)
    assert res.n == 1
    assert res.statistic == pytest.approx(max(norm.cdf(0.3), 1.0 - norm.cdf(0.3)))
    assert res.critical_at_alpha > 1.0


def test_ks_no_values_is_nan_and_fails():
    res = ks_test([], norm.cdf)
    assert res.n == 0 and np.isnan(res.statistic) and np.isnan(res.critical_at_alpha) and not res.passed


def test_ks_self_consistency_monte_carlo(params):
    """Oracle-drawn samples pass at alpha=0.01 in at least 99 of 100 runs."""
    cdf = momentum_cdf(params)
    passed = 0
    for rep in range(100):
        u = np.random.default_rng(1000 + rep).uniform(size=10**4)
        if ks_test(cdf.quantile(u), cdf, alpha=0.01).passed:
            passed += 1
    assert passed >= 99


def test_ks_rejects_shifted_density(params):
    cdf = momentum_cdf(params)
    u = np.random.default_rng(5).uniform(size=10**4)
    shifted = cdf.quantile(u) + 2.0 * params.sigma_p
    assert not ks_test(shifted, cdf, alpha=0.01).passed


# ---------------------------------------------------------------------------
# band metrics
# ---------------------------------------------------------------------------


def _flat_histogram(params, inner_level, outer_level):
    sp = params.sigma_p
    edges = np.linspace(-3.0 * sp, 3.0 * sp, 121)
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = np.where(np.abs(centers) < 0.5 * sp, inner_level, outer_level)
    counts = np.rint(density * np.diff(edges) * 1e6).astype(int)
    return Histogram(
        edges=edges, counts=counts, density=density, n_below=0, n_above=0
    )


def test_central_dip_metric_exact_ratio(params):
    h = _flat_histogram(params, inner_level=0.2, outer_level=0.8)
    assert band_metrics(h, params)[0] == pytest.approx(0.25, rel=1e-12)


def test_central_dip_metric_infinite_when_side_empty(params):
    h = _flat_histogram(params, inner_level=0.3, outer_level=0.0)
    assert band_metrics(h, params)[0] == np.inf


def test_central_dip_metric_requires_symmetric_range(params):
    h = build_histogram([0.5], np.linspace(-1.0, 2.0, 11))
    with pytest.raises(ValueError):
        band_metrics(h, params)


def test_side_band_peak_exact(params):
    h = _flat_histogram(params, inner_level=0.2, outer_level=0.8)
    assert band_metrics(h, params)[1] == pytest.approx(0.8, rel=1e-12)


def test_direct_momentum_draws_have_central_peak(params):
    _, mom = histogram_edges(params, 5.0)
    draws = make_initial_conditions(20000, SeededStream(61), params, 0.0, "revised").p0
    h = build_histogram(draws, mom)
    assert band_metrics(h, params)[0] > 1.0


def test_momentum_histogram_matches_density_within_poisson_bars(params):
    """Bin densities sit within 4 sigma Poisson bars of the target on >=95% of bins."""
    n = 40000
    _, mom = histogram_edges(params, 5.0)
    draws = make_initial_conditions(n, SeededStream(71), params, 0.0, "revised").p0
    h = build_histogram(draws, mom)
    width = np.diff(h.edges)
    oracle = momentum_cdf(params).pdf(h.centers)
    expected_counts = np.maximum(oracle * width * n, 1.0)
    bars = 4.0 * np.sqrt(expected_counts) / (n * width)
    ok = np.abs(h.density - oracle) <= bars
    assert np.mean(ok) >= 0.95


# ---------------------------------------------------------------------------
# CDF oracles
# ---------------------------------------------------------------------------


def test_position_cdf_properties(params):
    cdf = position_cdf(params, 0.0)
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-9)
    x = np.linspace(-200.0, 200.0, 101)
    f = cdf(x)
    assert np.all(np.diff(f) >= 0.0)
    assert f[0] < 1e-6 and f[-1] > 1.0 - 1e-6


def test_momentum_cdf_symmetry(params):
    cdf = momentum_cdf(params)
    p = np.linspace(0.5, 20.0, 40)
    np.testing.assert_allclose(cdf(-p), 1.0 - cdf(p), atol=1e-9)


def test_quantile_inverts_cdf(params):
    u = np.linspace(0.001, 0.999, 97)
    for cdf in (momentum_cdf(params), position_cdf(params, 0.0), position_cdf(params, 3.5)):
        np.testing.assert_allclose(cdf(cdf.quantile(u)), u, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(cdf.quantile([0.0, 1.0]), [-np.inf, np.inf])
