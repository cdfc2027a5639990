"""Acceptance gate: ten full-scale checks against the closed-form theory.

In one dimension the Bohm law never changes a trajectory's mass coordinate
F_t(x) = integral of rho(x', t) over x' < x, and rho has no zeros for this
state, so a dbb position at time t is exactly F_t^-1(F_0(x0)).  That closed
form is criterion 7's oracle; its revised counterpart explains criterion 5.

Criterion 7 compares the band-mean central-dip ratio at t=3.5 with the same
metric of the exact momentum density (quadrature over the same bins): both
trajectory ensembles must sit more than five standard errors below it, and
the dbb ratio must equal its closed-form value.  A bound of 1 on that ratio
is out of reach for any correct dbb program here: the closed form gives
1.737 at seed 1, because the valley at p=0 is narrower than the central
band.

Criterion 5 documents real behavior of the revised guidance law and stays
red.  The law drifts each mass coordinate at rate
(p0 - p_bb(x0, t0)) rho(x0, t) / m; a trajectory whose coordinate reaches 0
or 1 escapes to infinity in finite time.  Ensembles are built by exact
transport along that mass coordinate, so they stop exactly the 9296 of the
40000 seed-1 trajectories that escape in closed form, and the survivors'
positions at t=5 give D=0.0380.  The survivor law in closed form gives the
population D=0.0359, 3.9 times the critical value at this n: the fault is
in the law, not the seed, and no numerical fix passes the t=5 revised KS
clause.  Its 120 s build-time clause passes:
each build takes seconds on a 2-core machine.  The assertions state the
required bounds verbatim and fail honestly rather than loosening them.
"""

import hashlib
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qtraj import (
    EnsembleConfig,
    InitialCondition,
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
from qtraj.cli import main
from qtraj.dynamics import rk4_batch
from qtraj.ensemble import Histogram, histogram_edges
from qtraj.wavefield import (
    continuity_residual,
    continuity_truncation_bound,
    envelope_density,
    p_bb,
    p_revised,
    rho,
    schrodinger_residual,
)

N_FULL = 40000
MASTER_SEED = 1


def _in_band(params, rng, n, rel):
    x = rng.uniform(-90.0, 90.0, 6 * n)
    t = rng.uniform(0.05, 4.95, 6 * n)
    keep = rho(x, t, params) >= rel * envelope_density(x, t, params)
    assert np.count_nonzero(keep) >= n
    return x[keep][:n], t[keep][:n]


@pytest.fixture(scope="module")
def full_ensembles(params):
    """Both 40000-trajectory ensembles, seed 1, with wall-clock build times."""
    out = {}
    for theory in ("dbb", "revised"):
        cfg = EnsembleConfig(theory=theory, n_traj=N_FULL, master_seed=MASTER_SEED)
        start = time.perf_counter()
        result = run_ensemble(cfg, params, workers=4)
        out[theory] = (result, time.perf_counter() - start)
    return out


def test_criterion_01_schrodinger_residual(params):
    rng = np.random.default_rng(101)
    x, t = _in_band(params, rng, 10**4, rel=1e-2)
    start = time.perf_counter()
    r = schrodinger_residual(x, t, params, h_x=params.sigma / 1000.0, h_t=2.5e-4)
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(r)))
    ok = worst < 1e-4 and elapsed < 10.0
    print(
        f"CRITERION 01 schrodinger residual: {'PASS' if ok else 'FAIL'} — "
        f"max={worst:.3e} (<1e-4), {elapsed:.2f}s (<10s)"
    )
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_02_continuity_residual(params):
    rng = np.random.default_rng(102)
    x, t = _in_band(params, rng, 10**4, rel=1e-3)
    h_x, h_t = params.sigma / 1000.0, 2.5e-4
    start = time.perf_counter()
    bound = continuity_truncation_bound(x, t, params, h_x, h_t)
    worst_dbb = float(
        np.max(np.abs(continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: p_bb(xx, tt, params))) / bound)
    )
    worst_rev = 0.0
    for ic in make_initial_conditions(100, SeededStream(55), params, theory="revised"):
        r = continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: p_revised(xx, tt, ic, params))
        worst_rev = max(worst_rev, float(np.max(np.abs(r) / bound)))
    elapsed = time.perf_counter() - start
    ok = worst_dbb < 10.0 and worst_rev < 10.0 and elapsed < 30.0
    print(
        f"CRITERION 02 continuity residual: {'PASS' if ok else 'FAIL'} — dbb max ratio={worst_dbb:.2e}, "
        f"revised max ratio={worst_rev:.2e} (<10), {elapsed:.1f}s (<30s)"
    )
    assert worst_dbb < 10.0
    assert worst_rev < 10.0
    assert elapsed < 30.0


def test_criterion_03_normalizations(params):
    worst = 0.0
    for t in (0.0, 1.0, 3.5, 5.0):
        val, err = quad(lambda xx: rho(xx, t, params), -450.0, 450.0, limit=400)
        assert err < 1e-7
        worst = max(worst, abs(val - 1.0))
    density = momentum_cdf(params).pdf
    val, err = quad(lambda p: float(density(p)), -80.0, 80.0, limit=200)
    assert err < 1e-7
    worst_mom = abs(val - 1.0)
    ok = worst < 1e-6 and worst_mom < 1e-6
    print(
        f"CRITERION 03 normalizations: {'PASS' if ok else 'FAIL'} — "
        f"position worst={worst:.2e}, momentum={worst_mom:.2e} (<1e-6)"
    )
    assert worst < 1e-6
    assert worst_mom < 1e-6


def test_criterion_04_anchoring(params):
    ics = make_initial_conditions(1000, SeededStream(77), params, theory="revised")
    worst = max(abs(p_revised(ic.x0, ic.t0, ic, params) - ic.p0) for ic in ics)
    dbb = make_initial_conditions(1000, SeededStream(77), params, theory="dbb")
    all_zero = all(ic.p0 == 0.0 for ic in dbb)
    ok = worst < 1e-12 and all_zero
    print(
        f"CRITERION 04 anchoring: {'PASS' if ok else 'FAIL'} — "
        f"worst |p_r(x0,t0)-p0|={worst:.2e} (<1e-12), dbb p0 all zero={all_zero}"
    )
    assert worst < 1e-12
    assert all_zero


def test_criterion_05_position_slices_ks(params, full_ensembles):
    stats = {}
    for theory in ("dbb", "revised"):
        result, elapsed = full_ensembles[theory]
        for t in (0.0, 5.0):
            sl = slice_values(result, t, "position")
            ks = ks_test(sl.values, position_cdf(params, t), alpha=0.01)
            stats[(theory, t)] = (ks, sl, elapsed)
    lines = []
    for (theory, t), (ks, sl, elapsed) in stats.items():
        lines.append(
            f"{theory} t={t}: D={ks.statistic:.5f} crit={ks.critical_at_alpha:.5f} "
            f"n={sl.n_contributing} excluded={sl.n_excluded} build={elapsed:.0f}s"
        )
    detail = "; ".join(lines)
    ok = all(ks.passed for ks, _, _ in stats.values()) and all(
        elapsed < 120.0 for _, _, elapsed in stats.values()
    )
    print(f"CRITERION 05 position KS (both theories, t=0 and t=5): {'PASS' if ok else 'FAIL'} — {detail}")
    assert all(e < 120.0 for _, _, e in stats.values()), detail
    assert all(k.passed for k, _, _ in stats.values()), (
        "position KS at alpha=0.01 must pass for both theories at t=0 and t=5; " + detail
    )


def _survival(params, t, drift=1.0):
    """Probability that a revised trajectory started at t0 = 0 has not
    escaped by t, in closed form up to quadrature.

    p_bb vanishes at t0 = 0, so delta_p = p0, drawn from the momentum law G
    independently of x0 ~ rho(., 0).  The mass coordinate F_0(x0) + (p0 / m)
    I(x0, t), with I(x0, t) the integral of rho(x0, s) over s in [0, t],
    stays in (0, 1) exactly when p0 lies between -m F_0 / I and
    m (1 - F_0) / I.  I is taken by 400-node Gauss-Legendre in
    theta = arctan(s / tau), where the integrand is smooth, and scaled by
    ``drift``; the outer integral over x0 by an 8001-point trapezoid rule.
    """
    tau = params.dispersion_time
    nodes, weights = np.polynomial.legendre.leggauss(400)
    top = np.arctan(t / tau)
    theta = 0.5 * top * (nodes + 1.0)
    ds = 0.5 * top * weights * tau / np.cos(theta) ** 2
    s = tau * np.tan(theta)
    x0 = np.linspace(-200.0, 200.0, 8001)
    swept = np.concatenate([rho(part[:, None], s, params) @ ds for part in np.array_split(x0, 8)])
    f0, m, momenta = position_cdf(params, 0.0)(x0), params.mass, momentum_cdf(params)
    spread_p = drift * swept / m
    kept = momenta((1.0 - f0) / spread_p) - momenta(-f0 / spread_p)
    return float(np.trapezoid(rho(x0, 0.0, params) * kept, x0))


def test_revised_escapes_follow_the_closed_form_survival(params, full_ensembles):
    """The revised escape count by t_final lies within 4 binomial SE of
    n (1 - S(t_final)), and a drift scaled by 2 predicts a count more than
    4 SE away: the count tests the law, not only the sampler."""
    result, _ = full_ensembles["revised"]
    t = result.config.schedule.t_final
    escaped = result.status_counts["node_stalled"]
    predicted = {}
    for drift in (1.0, 2.0):
        survive = _survival(params, t, drift)
        predicted[drift] = (N_FULL * (1.0 - survive), np.sqrt(N_FULL * survive * (1.0 - survive)))
    detail = f"escaped={escaped}; " + "; ".join(
        f"drift x{drift:g}: {count:.1f} +- {se:.1f}" for drift, (count, se) in predicted.items()
    )
    (count, se), (doubled, doubled_se) = predicted[1.0], predicted[2.0]
    assert abs(escaped - count) < 4.0 * se, detail
    assert abs(escaped - doubled) > 4.0 * doubled_se, detail


def test_criterion_06_initial_momentum_ks(params, full_ensembles):
    revised, _ = full_ensembles["revised"]
    sl = slice_values(revised, 0.0, "momentum")
    cdf = momentum_cdf(params)
    ks_rev = ks_test(sl.values, cdf, alpha=0.01)

    dbb, _ = full_ensembles["dbb"]
    sl0 = slice_values(dbb, 0.0, "momentum")
    assert np.all(np.asarray(sl0.values) == 0.0)
    ks_dbb = ks_test(sl0.values, cdf, alpha=0.01)
    f0 = float(cdf(0.0))
    expected_point_mass_stat = max(f0, 1.0 - f0)
    ok = (
        ks_rev.passed
        and not ks_dbb.passed
        and abs(ks_dbb.statistic - expected_point_mass_stat) < 1e-6
    )
    print(
        f"CRITERION 06 initial momenta: {'PASS' if ok else 'FAIL'} — revised D={ks_rev.statistic:.5f} "
        f"(crit {ks_rev.critical_at_alpha:.5f}), dbb point-mass D={ks_dbb.statistic:.6f} "
        f"vs sup|F-step|={expected_point_mass_stat:.6f}"
    )
    assert ks_rev.passed
    assert not ks_dbb.passed
    assert ks_dbb.statistic == pytest.approx(expected_point_mass_stat, abs=1e-6)


def _quantum_dip(params, edges):
    """Central-dip ratio of the exact momentum density, binned by quadrature."""
    density = momentum_cdf(params).pdf
    mass = np.array([quad(lambda p: float(density(p)), a, b)[0] for a, b in zip(edges[:-1], edges[1:])])
    h = Histogram(
        edges=edges, counts=mass, density=mass / (mass.sum() * np.diff(edges)), n_below=0, n_above=0
    )
    return band_metrics(h, params)[0]


def _dip_and_se(h, params):
    """Central-dip ratio of a histogram and its delta-method standard error.

    The bands have equal-width bins, so the ratio is (C_in/n_in)/(C_out/n_out)
    in the band counts; for multinomial counts Var(log ratio) = 1/C_in + 1/C_out.
    """
    centers, sp = np.abs(h.centers), params.sigma_p
    inner, outer = centers < 0.5 * sp, (centers > 0.5 * sp) & (centers < 1.5 * sp)  # band_metrics' bands
    ratio = band_metrics(h, params)[0]
    return ratio, ratio * float(np.sqrt(1.0 / h.counts[inner].sum() + 1.0 / h.counts[outer].sum()))


def _closed_form_dbb_momenta(x0, t, params):
    """dbb momenta at time t from the conserved mass coordinate F_t(x_t) = F_0(x0).

    In one dimension the Bohm flow preserves the order of trajectories, so
    each keeps the probability mass to its left; rho has no zeros here, so
    the quantile inverts F_t uniquely.
    """
    x_t = position_cdf(params, t).quantile(position_cdf(params, 0.0)(x0))
    return p_bb(x_t, t, params)


def test_criterion_07_central_dip(params, full_ensembles):
    """Trajectory momentum histograms at t=3.5 sit measurably below the quantum
    central-dip ratio, and the dbb ratio is the one the Bohm law itself fixes."""
    t = 3.5
    _, mom_edges = histogram_edges(params, 5.0)
    quantum = _quantum_dip(params, mom_edges)
    dips, ses, peaks = {}, {}, {}
    for theory in ("dbb", "revised"):
        result, _ = full_ensembles[theory]
        h = build_histogram(np.asarray(slice_values(result, t, "momentum").values), mom_edges)
        dips[theory], ses[theory] = _dip_and_se(h, params)
        peaks[theory] = band_metrics(h, params)[1]
    x0 = full_ensembles["dbb"][0].trajectories.ics.x0
    closed = band_metrics(build_histogram(_closed_form_dbb_momenta(x0, t, params), mom_edges), params)[0]
    direct, direct_se = _dip_and_se(
        build_histogram(make_initial_conditions(N_FULL, SeededStream(404), params).p0, mom_edges), params
    )

    def below_quantum(ratio, se):
        return ratio + 5.0 * se < quantum

    trajectories_below = all(below_quantum(dips[th], ses[th]) for th in ("dbb", "revised"))
    direct_below = below_quantum(direct, direct_se)
    detail = (
        f"dip dbb={dips['dbb']:.3f} (SE {ses['dbb']:.3f}), dip revised={dips['revised']:.3f} "
        f"(SE {ses['revised']:.3f}); ratio+5SE < quantum={quantum:.3f} required; "
        f"dbb closed-form={closed:.4f} (|dbb-closed|<0.005 required); "
        f"direct-draw dip={direct:.3f} (SE {direct_se:.3f}) (>1 and not below quantum required); "
        f"side peaks dbb={peaks['dbb']:.4f} > revised={peaks['revised']:.4f} required"
    )
    ok = (
        trajectories_below
        and abs(dips["dbb"] - closed) < 0.005
        and direct > 1.0
        and not direct_below
        and peaks["dbb"] > peaks["revised"]
    )
    print(f"CRITERION 07 central dip at t=3.5: {'PASS' if ok else 'FAIL'} — {detail}")
    assert direct > 1.0, detail
    assert peaks["dbb"] > peaks["revised"], detail
    assert trajectories_below, (
        "band-mean ratio + 5 SE must lie below the quantum value at t=3.5 for both theories; " + detail
    )
    assert abs(dips["dbb"] - closed) < 0.005, detail
    assert not direct_below, "direct quantum draws must not pass the below-quantum clause; " + detail


def test_criterion_08_rk4_order(params):
    ics = InitialCondition(x0=np.array([55.0]), p0=np.array([0.0]), t0=0.0, theory="dbb")

    def endpoint(dt):
        sched = IntegrationSchedule(t0=0.0, t_final=5.0, dt_base=dt)
        (tr,) = rk4_batch(ics, sched, params)
        assert tr.status == "completed"
        return tr.x[-1]

    ref = endpoint(0.25 / 2**7)
    dts = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = np.array([abs(endpoint(dt) - ref) for dt in dts])
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = 3.7 <= slope <= 4.3
    print(f"CRITERION 08 RK4 order: {'PASS' if ok else 'FAIL'} — slope={slope:.3f} (4 +- 0.3)")
    assert 3.7 <= slope <= 4.3


def test_criterion_09_determinism(params, tmp_path):
    digests = []
    for workers, sub in ((1, "a"), (4, "b")):
        rc = main(
            [
                "run", "--theory", "revised", "--n", "4096", "--seed", "5",
                "--out", str(tmp_path / sub), "--workers", str(workers),
            ]
        )
        assert rc == 0
        chunk = hashlib.sha256()
        for name in ("trajectories.csv", "histograms.txt"):
            chunk.update((tmp_path / sub / name).read_bytes())
        digests.append(chunk.hexdigest())
    ok = digests[0] == digests[1]
    print(f"CRITERION 09 determinism: {'PASS' if ok else 'FAIL'} — digests equal={ok}")
    assert digests[0] == digests[1]


def test_criterion_10_crossings(params):
    inversions = {}
    for theory in ("dbb", "revised"):
        cfg = EnsembleConfig(theory=theory, n_traj=1000, master_seed=MASTER_SEED)
        result = run_ensemble(cfg, params, workers=4)
        n_rec = min(len(tr.t) for tr in result.trajectories)
        xs = np.array([tr.x[:n_rec] for tr in result.trajectories])
        order = np.argsort(xs[:, 0], kind="stable")
        count = 0
        for k in range(n_rec):
            count += int(np.sum(np.diff(xs[order, k]) < 0.0))
        inversions[theory] = count
    ok = inversions["dbb"] == 0 and inversions["revised"] > 0
    print(
        f"CRITERION 10 crossings: {'PASS' if ok else 'FAIL'} — dbb inversions={inversions['dbb']} "
        f"(must be 0), revised inversions={inversions['revised']} (must be >0)"
    )
    assert inversions["dbb"] == 0
    assert inversions["revised"] > 0
