"""Command-line interface: config parsing, outputs, exit codes."""

import functools
import hashlib
import io
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.introspect import opt_func_info

from qtraj import DoubleSlitParams, EnsembleResult, default_config, p_bb, rho, run_ensemble
from qtraj import dynamics, ensemble
from qtraj.cli import (
    CONFIG_DEFAULTS,
    ConfigError,
    _total_mass,
    build_slice_report,
    main,
    parse_config,
    verify_checks,
    write_histograms,
    write_trajectories,
)
from qtraj.wavefield import ClosedFormCDF, position_cdf


def _write_config(tmp_path, **kw):
    lines = ["# test configuration", ""]
    lines += [f"{k} = {v}" for k, v in kw.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


FAST = dict(n_traj=150, dt_ps=0.02, theory="dbb", seed=9)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_defaults():
    setup = parse_config()
    assert setup.params == DoubleSlitParams(50.0, 10.0)
    cfg = setup.config
    assert cfg == default_config(setup.params)  # CLI and library defaults are one
    assert cfg.n_traj == 40000
    assert cfg.theory == "revised"
    assert cfg.master_seed == 1
    assert cfg.schedule.t0 == 0.0 and cfg.schedule.t_final == 5.0
    assert cfg.schedule.dt_base == 0.005
    assert cfg.slice_times == (0.0, 3.5, 5.0)
    assert set(CONFIG_DEFAULTS) == {
        "x_half_nm", "sigma_nm", "mass_me", "n_traj", "theory", "seed",
        "t0_ps", "t_final_ps", "dt_ps", "slices_ps", "bins", "out_dir",
    }


def test_config_file_roundtrip(tmp_path):
    path = _write_config(tmp_path, sigma_nm=8.0, n_traj=77, theory="dbb", slices_ps="0, 2.5")
    setup = parse_config(path)
    assert setup.params.sigma == 8.0
    assert setup.config.n_traj == 77
    assert setup.config.theory == "dbb"
    assert setup.config.slice_times == (0.0, 2.5)


def test_overrides_beat_file(tmp_path):
    path = _write_config(tmp_path, n_traj=77, seed=3)
    setup = parse_config(path, overrides={"n_traj": "12", "theory": "dbb"})
    assert setup.config.n_traj == 12
    assert setup.config.master_seed == 3
    assert setup.config.theory == "dbb"


@pytest.mark.parametrize(
    "key,value",
    [
        ("n_traj", "0"),
        ("n_traj", "2.5"),
        ("theory", "bohm"),
        ("sigma_nm", "0"),
        ("seed", "-1"),
        ("dt_ps", "0"),
        ("t_final_ps", "0"),
        ("slices_ps", "0, 9"),
        ("bins", "0"),
        ("sigma_nm", "1e-300"),
        ("x_half_nm", "1e300"),
        ("sigma_nm", "1e300"),
        ("mass_me", "1e-310"),
        ("t_final_ps", "1e306"),  # the position law there overflows
        ("t0_ps", "-1e306"),
    ],
)
def test_invalid_values_rejected(tmp_path, key, value):
    path = _write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.key == key
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "route,name,reason",
    [
        ("config", "out\u00e9", "must be ASCII text"),
        ("flag", "out\u00e9", "must be ASCII text"),
        ("config", "a\x00b", "must be printable ASCII text"),
        ("flag", "nl\nout", "must be printable ASCII text"),
    ],
    ids=["config", "flag", "config-nul", "flag-newline"],
)
def test_non_ascii_out_dir_rejected(tmp_path, capsys, route, name, reason):
    """The manifest echoes out_dir into an ASCII config line, so an out_dir
    that is not printable ASCII is a config error, exit 2, before anything
    is written: from the config file and from --out alike.  mkdir raises
    ValueError on a NUL, and a newline would split the manifest line."""
    out, ascii_out = tmp_path / name, tmp_path / "o"
    path = tmp_path / "run.cfg"
    path.write_text(f"out_dir = {out if route == 'config' else ascii_out}\n", encoding="utf-8")
    overrides = {"out_dir": str(out)} if route == "flag" else {}
    with pytest.raises(ConfigError) as exc:
        parse_config(path, overrides)
    assert exc.value.key == "out_dir"
    argv = ["run", "--config", str(path), "--n", "8", "--theory", "dbb"]
    assert main(argv + (["--out", str(out)] if route == "flag" else [])) == 2
    assert f"error: config key 'out_dir': {reason}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "text,key",
    [("n_traj = \uff18\n".encode("utf-8"), "n_traj"), (b"n_traj = \xff\n", "config")],
    ids=["fullwidth-digit", "not-utf8"],
)
def test_non_ascii_config_text_rejected(tmp_path, text, key):
    """int() reads a fullwidth digit, but the manifest could not echo it;
    a file that is not UTF-8 cannot be read at all."""
    path = tmp_path / "run.cfg"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.key == key
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("x_half_nm = 50\nslit_count = 3\n", encoding="ascii")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert "slit_count" in str(exc.value)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n", encoding="ascii")
    with pytest.raises(ConfigError):
        parse_config(path)


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = _write_config(tmp, out_dir=tmp / "out", **FAST)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    return tmp / "out", cfg


def test_run_writes_expected_files(run_dir):
    out, _ = run_dir
    assert (out / "trajectories.csv").is_file()
    assert (out / "histograms.txt").is_file()
    assert (out / "manifest.txt").is_file()


def test_trajectories_csv_roundtrip(run_dir, params):
    out, cfg = run_dir
    setup = parse_config(cfg)
    result = run_ensemble(setup.config, setup.params, workers=2)
    rows = ["traj_id,t,x,p,status"]
    for i, traj in enumerate(result.trajectories):
        rows += [f"{i},{t:.17g},{x:.17g},{p:.17g},{traj.status}" for t, x, p in zip(traj.t, traj.x, traj.p)]
    expected = "\n".join(rows) + "\n"
    assert (out / "trajectories.csv").read_text(encoding="ascii") == expected
    # spot-check exact float round-trip through the 17-digit format
    line = expected.splitlines()[1].split(",")
    assert float(line[1]) == result.trajectories[0].t[0]
    assert float(line[2]) == result.trajectories[0].x[0]


def test_histogram_report_structure(run_dir):
    out, _ = run_dir
    text = (out / "histograms.txt").read_text(encoding="ascii")
    assert text.count("[slice]") == 6  # 3 slice times x 2 observables
    assert "observable = position" in text and "observable = momentum" in text
    assert "columns = bin_lo bin_hi count density oracle_density" in text
    assert "ks_statistic" in text


def test_manifest_reparses_to_same_config(run_dir):
    out, cfg = run_dir
    original = parse_config(cfg)
    echoed = parse_config(out / "manifest.txt")
    assert echoed.config == original.config
    assert echoed.params == original.params


def test_rerun_from_manifest_reproduces_digests(run_dir, tmp_path):
    """Re-running from a manifest gives the same bytes; each manifest names
    the SIMD path of numpy's exp that made them, on a comment line."""
    out, _ = run_dir
    rc = main(["run", "--config", str(out / "manifest.txt"), "--out", str(tmp_path / "redo")])
    assert rc == 0
    for name in ("trajectories.csv", "histograms.txt"):
        assert hashlib.sha256((tmp_path / "redo" / name).read_bytes()).hexdigest() == hashlib.sha256(
            (out / name).read_bytes()
        ).hexdigest()
    level = opt_func_info(func_name="exp", signature="float64")["exp"]["dd"]["current"]
    for manifest in (out / "manifest.txt", tmp_path / "redo" / "manifest.txt"):
        lines = manifest.read_text(encoding="ascii").splitlines()
        assert lines.count(f"# numpy_exp = {level}") == 1


#: numpy's SIMD paths above the x86-64 baseline, for one process; numpy
#: ignores the names a host lacks.
_BASELINE_SIMD = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


@pytest.mark.parametrize("theory", ["dbb", "revised"])
def test_baseline_simd_run_matches_in_process_run(tmp_path, theory):
    """A run in a process held to numpy's baseline SIMD paths gives the
    statuses and histogram bytes of an in-process run, and positions within
    2^10 ulp of max(|x|, sigma).  The positions are not bit-equal on a host
    with AVX2 or AVX-512: there numpy's exp and complex products round
    differently, and the quantile may stop anywhere |F(x) - u| <= 1e-14."""
    cfg = _write_config(tmp_path, n_traj=256, dt_ps=0.125, theory=theory, seed=1, slices_ps="0, 2.5, 5")
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "here")]) == 0
    env = dict(os.environ, **_BASELINE_SIMD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "qtraj.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "there")],
        env=env, capture_output=True, check=True, timeout=120,
    )
    manifest = (tmp_path / "there" / "manifest.txt").read_text(encoding="ascii")
    assert "# numpy_exp = X86_V" not in manifest  # the setting took effect
    assert (tmp_path / "here" / "histograms.txt").read_bytes() == (tmp_path / "there" / "histograms.txt").read_bytes()
    here, there = (
        np.genfromtxt(tmp_path / side / "trajectories.csv", delimiter=",", names=True, dtype=None, encoding="ascii")
        for side in ("here", "there")
    )
    for column in ("traj_id", "t", "status"):
        np.testing.assert_array_equal(here[column], there[column])
    scale = np.spacing(np.maximum(np.abs(here["x"]), parse_config(cfg).params.sigma))
    assert np.max(np.abs(here["x"] - there["x"]) / scale) <= 2.0**10


#: Counts the minor page faults of one cli.main call in a fresh interpreter.
_COUNT_MAIN_FAULTS = """\
import io, resource, sys
from contextlib import redirect_stdout
from qtraj.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds only")
def test_fresh_run_reuses_its_heap(tmp_path):
    """A fresh `qtraj run` starts glibc's malloc at the thresholds a warm
    process reaches, so the transport's block temporaries are not mapped and
    faulted in anew each time: a 2048-lane dbb run over 5 ps at 0.125 ps takes
    well under 10^4 minor page faults inside cli.main (about 2 10^4 at glibc's
    start-up thresholds)."""
    cfg = _write_config(tmp_path, n_traj=2048, dt_ps=0.125, t0_ps=0, t_final_ps=5, theory="dbb", seed=1)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _COUNT_MAIN_FAULTS, "run", "--config", str(cfg), "--out", str(tmp_path / "o")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
    code, faults = map(int, done.stdout.split())
    assert code == 0
    assert faults < 10_000, faults


def test_heap_setting_is_a_no_op_off_glibc(tmp_path, monkeypatch):
    """Where confstr knows no glibc version, main loads no C library and runs as before."""
    loaded = []

    def unknown_name(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr("qtraj.cli.os.confstr", unknown_name)
    monkeypatch.setattr("qtraj.cli.ctypes.CDLL", lambda *args, **kwargs: loaded.append(args))
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--theory", "dbb", "--n", "8", "--out", str(tmp_path / "o")]) == 0
    assert loaded == []


def test_run_worker_count_does_not_change_output(tmp_path):
    digests = []
    for workers, sub in ((1, "w1"), (3, "w3")):
        cfg = _write_config(tmp_path, out_dir=tmp_path / sub, **FAST)
        rc = main(["run", "--config", str(cfg), "--workers", str(workers)])
        assert rc == 0
        digests.append(
            hashlib.sha256((tmp_path / sub / "trajectories.csv").read_bytes()).hexdigest()
        )
    assert digests[0] == digests[1]


def test_workers_default_to_one(tmp_path, monkeypatch):
    seen = []

    def spy(config, params, workers):
        seen.append(workers)
        return run_ensemble(config, params, workers)

    monkeypatch.setattr("qtraj.cli.run_ensemble", spy)
    assert main(["run", "--theory", "dbb", "--n", "8", "--out", str(tmp_path / "o")]) == 0
    assert seen == [1]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    """run and compare exit 2 naming --workers before they write anything,
    and run_ensemble raises instead of running one worker."""
    out = tmp_path / "o"
    for command in ("run", "compare"):
        assert main([command, "--n", "8", "--workers", str(workers), "--out", str(out)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()
    params = DoubleSlitParams(50.0, 10.0)
    with pytest.raises(ValueError, match="^workers must be >= 1"):
        run_ensemble(default_config(params, theory="dbb", n_traj=8), params, workers=workers)


def test_run_cli_flag_overrides(tmp_path, capsys):
    """run takes all six flags."""
    argv = ["run", "--config", str(_write_config(tmp_path)), "--theory", "dbb", "--n", "32", "--seed", "4"]
    rc = main(argv + ["--out", str(tmp_path / "o"), "--workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theory=dbb n_traj=32" in out
    assert (tmp_path / "o" / "trajectories.csv").is_file()
    assert parse_config(tmp_path / "o" / "manifest.txt").config.master_seed == 4


# ---------------------------------------------------------------------------
# compare and verify subcommands
# ---------------------------------------------------------------------------


def test_compare_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_traj=80, dt_ps=0.02, seed=2, out_dir=tmp_path / "cmp")
    rc = main(["compare", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "time_ps observable dbb_ks dbb_passed revised_ks revised_passed" in out
    for name in (
        "trajectories-dbb.csv",
        "trajectories-revised.csv",
        "histograms-dbb.txt",
        "histograms-revised.txt",
        "manifest-dbb.txt",
        "manifest-revised.txt",
        "compare.txt",
    ):
        assert (tmp_path / "cmp" / name).is_file()


def test_compare_with_empty_slices_exits_zero(tmp_path, capsys):
    """At sigma = 0.1 nm the packets spread to ~2900 nm by 5 ps.  Every dbb
    trajectory completes, every revised stop is a closed-form escape, and no
    sample is nan."""
    params = DoubleSlitParams(50.0, 0.1)
    cfg = _write_config(tmp_path, sigma_nm=0.1, out_dir=tmp_path / "narrow")
    rc = main(["compare", "--config", str(cfg), "--n", "64", "--workers", "1"])
    assert rc == 0
    nodes, weights = np.polynomial.legendre.leggauss(8)
    s = np.arange(40)[:, None] * 0.125 + 0.0625 * (nodes + 1.0)
    for theory in ("dbb", "revised"):
        path = tmp_path / "narrow" / f"trajectories-{theory}.csv"
        samples = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3))
        assert np.all(np.isfinite(samples))
        status = {}
        for line in path.read_text(encoding="ascii").splitlines()[1:]:
            status.setdefault(int(line.split(",", 1)[0]), line.rsplit(",", 1)[1])
        first = np.searchsorted(samples[:, 0], np.arange(64))
        x0, p0 = samples[first, 2], samples[first, 3]
        swept = (0.0625 * rho(x0[:, None, None], s[None], params) * weights).sum(axis=(1, 2))
        final = position_cdf(params, 0.0)(x0) + (p0 - p_bb(x0, 0.0, params)) / params.mass * swept
        escapes = (final <= 0.0) | (final >= 1.0)
        np.testing.assert_array_equal(escapes, [status[i] == "node_stalled" for i in range(64)])
        assert set(status.values()) <= {"completed", "node_stalled"}
    dbb = (tmp_path / "narrow" / "histograms-dbb.txt").read_text(encoding="ascii")
    assert dbb.count("\nn_contributing = 64\n") == 6


def test_empty_slice_report_is_nan_and_failed(tmp_path):
    """A slice no trajectory reaches reports a nan KS statistic and a failed test."""
    params = DoubleSlitParams(50.0, 10.0)
    res = run_ensemble(default_config(params, theory="dbb", n_traj=8, master_seed=2), params)
    cut = replace(res.trajectories, n_records=np.full(8, 20), status=np.full(8, "node_stalled", dtype=object))
    stopped = EnsembleResult(config=res.config, params=params, trajectories=cut)
    reports = [build_slice_report(stopped, 3.5, obs) for obs in ("position", "momentum")]
    for report in reports:
        assert report.slice.n_contributing == 0 and report.slice.n_excluded == 8
        assert np.isnan(report.ks.statistic) and not report.ks.passed
    text = write_histograms(reports, tmp_path / "h.txt").path.read_text(encoding="ascii")
    assert text.count("\nn_contributing = 0\n") == 2
    assert text.count("\nks_statistic = nan\n") == 2
    assert text.count("\nks_passed = false\n") == 2


@functools.cache
def _small_dbb_result() -> EnsembleResult:
    params = DoubleSlitParams(50.0, 10.0)
    return run_ensemble(default_config(params, theory="dbb", n_traj=8, master_seed=2), params)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.integers(1, 41), min_size=8, max_size=8),
    cap=st.integers(1, 41),
    on_grid=st.booleans(),
    k=st.integers(0, 40),
    fraction=st.floats(0.0, 1.0),
)
@example(counts=[1] * 8, cap=41, on_grid=True, k=40, fraction=0.0)
@example(counts=[20] * 8, cap=41, on_grid=False, k=0, fraction=0.7)
def test_slice_counts_the_lanes_recorded_at_its_time(counts, cap, on_grid, k, fraction):
    """With per-lane record counts cut (all below ``cap``) and a slice time
    on or off the 41-record grid, every lane either contributes or is
    excluded; the position slice holds exactly the lanes whose last record
    lies at or after t - tol, and a slice no lane reaches reports
    n_contributing = 0 with a nan, failed KS test."""
    res = _small_dbb_result()
    times = res.trajectories.t
    n_rec = np.minimum(counts, cap)
    status = np.where(n_rec < times.size, "node_stalled", "completed").astype(object)
    cut = replace(res.trajectories, n_records=n_rec, status=status)
    stopped = EnsembleResult(config=res.config, params=res.params, trajectories=cut)
    t = float(times[k]) if on_grid else float(times[0] + fraction * (times[-1] - times[0]))
    reached = int(np.count_nonzero(times[n_rec - 1] >= t - 1e-9 * max(1.0, abs(t))))
    for observable in ("position", "momentum"):
        report = build_slice_report(stopped, t, observable)
        assert report.slice.n_contributing + report.slice.n_excluded == 8
        if observable == "position":
            assert report.slice.n_contributing == reached
        if reached == 0:
            assert report.slice.n_contributing == 0
            assert np.isnan(report.ks.statistic) and not report.ks.passed


def test_coarse_bins_still_produce_reports(tmp_path, capsys):
    cfg = _write_config(tmp_path, bins=4, n_traj=40, dt_ps=0.02, seed=6, out_dir=tmp_path / "o4")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    text = (tmp_path / "o4" / "histograms.txt").read_text(encoding="ascii")
    assert text.count("[slice]") == 6
    assert "central_dip_ratio = nan" in text


def test_histogram_ranges_follow_bins_and_t_final(tmp_path):
    """Both observables' edges are those of histogram_edges for the run's
    physics, t_final and bins."""
    cfg = _write_config(tmp_path, bins=7, t_final_ps=4, slices_ps="0, 2, 4", out_dir=tmp_path / "o7", **FAST)
    assert main(["run", "--config", str(cfg)]) == 0
    edges = dict(zip(("position", "momentum"), ensemble.histogram_edges(DoubleSlitParams(50.0, 10.0), 4.0, 7)))
    blocks = (tmp_path / "o7" / "histograms.txt").read_text(encoding="ascii").split("[slice]")[1:]
    assert len(blocks) == 6
    for block in blocks:
        observable = block.split("observable = ", 1)[1].split(" ", 1)[0]
        table = block.split("columns = bin_lo bin_hi count density oracle_density\n")[1]
        rows = [line.split() for line in table.splitlines() if line]
        assert [row[0] for row in rows] + [rows[-1][1]] == [f"{edge:.10g}" for edge in edges[observable]]


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_time_step_scales_with_mass(tmp_path, capsys):
    """At 0.01 electron masses tau is 100x shorter, so a fixed h_t fails there,
    and spreading outgrows sigma, so a position range fixed in sigma misses mass."""
    cfg = _write_config(tmp_path, mass_me=0.01)
    assert main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS schrodinger_residual:" in out and "PASS position_norm:" in out
    assert "FAIL" not in out


#: (X nm, sigma nm, m m_e): the paper's physics, narrow slits, a light
#: particle whose packets outgrow sigma, and wide slits.
_VERIFY_PHYSICS = [(50.0, 10.0, 1.0), (50.0, 0.1, 1.0), (50.0, 10.0, 0.01), (500.0, 10.0, 1.0)]


def _norm_errors(checks):
    """The |integral - 1| that the two normalization checks print."""
    details = {name: detail for name, _, detail in checks}
    return [float(details[name].split("= ")[1].split()[0]) for name in ("position_norm", "momentum_norm")]


@pytest.mark.parametrize("physics", _VERIFY_PHYSICS, ids=lambda physics: "-".join(f"{v:g}" for v in physics))
def test_verify_normalizations_hold_to_1e_11(physics):
    """Both laws integrate to 1 within 1e-11, the position law at t = 0, 1,
    3.5 and 5 ps; only schrodinger_residual at sigma = 0.1 fails (ROADMAP
    item 2)."""
    checks = verify_checks(DoubleSlitParams(*physics))
    assert max(_norm_errors(checks)) <= 1e-11
    failed = [name for name, passed, _ in checks if not passed]
    assert failed == (["schrodinger_residual"] if physics[1] == 0.1 else [])


def test_verify_normalization_memory_is_bounded():
    """At X = 5000 nm, sigma = 10 nm the t = 5 ps position law takes 421,893
    trapezoid nodes, 27 MB of traced peak as one array; summed in chunks it
    stays below 8 MB and integrates to 1 within 1e-11."""
    law = position_cdf(DoubleSlitParams(5000.0, 10.0), 5.0)
    tracemalloc.start()
    try:
        mass = _total_mass(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(mass - 1.0) <= 1e-11
    assert peak < 8e6, f"normalization sum peaked at {peak / 1e6:.1f} MB"


def test_verify_normalization_flags_a_scaled_density(monkeypatch):
    """A density 1 + 2e-6 times too large fails position_norm."""
    pdf = ClosedFormCDF.pdf
    monkeypatch.setattr(ClosedFormCDF, "pdf", lambda law, x: (1.0 + 2e-6) * pdf(law, x))
    checks = {name: passed for name, passed, _ in verify_checks(DoubleSlitParams(50.0, 10.0))}
    assert not checks["position_norm"] and not checks["momentum_norm"]


@pytest.mark.parametrize("physics", [{"x_half_nm": 500, "sigma_nm": 5}, {"sigma_nm": 0.1}])
def test_verify_reports_instead_of_raising(tmp_path, capsys, physics):
    """Sample points below the node floor are skipped, not raised on."""
    cfg = _write_config(tmp_path, **physics)
    assert main(["verify", "--config", str(cfg)]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.startswith(("PASS ", "FAIL "))]) == 5


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, theory="bohm")
    rc = main(["run", "--config", str(path)])
    assert rc == 2
    assert "theory" in capsys.readouterr().err


def test_slice_at_t_final_far_from_t0_exits_cleanly(tmp_path, capsys):
    """At t0 = -1e16 ps the span sum rounds to 4 ps; the record grid still
    ends at t_final, so the slice at 5 ps lies on it."""
    path = _write_config(tmp_path, t0_ps="-1e16", dt_ps="1e16", slices_ps="-1e16, 5", n_traj=16)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "t_final,rc",
    [
        ("1e14", 2),  # 2e16 base cells, above 2^53: rejected naming dt_ps
        ("1e13", 1),  # 8e13 records, which numpy refuses outright (582 TiB)
    ],
)
def test_record_grid_too_large_exits_cleanly(tmp_path, capsys, t_final, rc):
    path = _write_config(tmp_path, t_final_ps=t_final, n_traj=8)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == rc
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert rc != 2 or "'dt_ps'" in err


#: The half-wavenumber x_half spread(t) / (2 sigma sigma_t^2) overflows where the
#: far bracket does not: at X = 1e150 nm, sigma = 1e-150 nm it is inf at t = 1e-302 ps.
_HALF_WAVENUMBER_OVERFLOW = {"x_half_nm": "1e150", "sigma_nm": "1e-150", "t_final_ps": "1e-302"}


@pytest.mark.parametrize(
    "t0,physics,rc,key",
    [
        ("-1e300", {}, 0, None),
        ("-7e305", {}, 0, None),
        ("-1e306", {}, 2, "t0_ps"),
        ("0", _HALF_WAVENUMBER_OVERFLOW, 2, "t_final_ps"),
    ],
    ids=["-1e300-0", "-7e305-0", "-1e306-2", "half-wavenumber-2"],
)
def test_t0_far_from_zero_ends_without_hanging(tmp_path, t0, physics, rc, key):
    """A time at which the position law overflows is rejected naming its key:
    at the paper's physics, beyond about 7.8e305 ps its far bracket x_half +
    40 sigma_t(t0) does; its half-wavenumber, formed as x_half (spread /
    sigma_t) / (2 sigma sigma_t), overflows first only where x_half / sigma is
    near the top of the doubles.  A t0 inside runs to the end with no warning,
    and every dbb lane keeps its mass coordinate: F_5(x) = F_t0(x0) to 1e-12."""
    t_final = float(physics.get("t_final_ps", 5.0))
    path = _write_config(
        tmp_path,
        theory="dbb",
        t0_ps=t0,
        dt_ps=str(t_final - float(t0)),
        slices_ps=f"{t0}, {t_final!r}",
        n_traj=16,
        **physics,
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error", "-m", "qtraj.cli", "run", "--config", str(path), "--out", str(tmp_path / "o")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == rc, done.stderr
    if rc == 2:
        assert done.stderr.startswith(f"error: config key '{key}'") and done.stderr.count("\n") == 1
        return
    assert done.stderr == ""
    samples = np.loadtxt(tmp_path / "o" / "trajectories.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    params = DoubleSlitParams(50.0, 10.0)
    x0, x5 = samples[0::2, 1], samples[1::2, 1]
    assert x0.size == x5.size == 16 and np.all(samples[1::2, 0] == 5.0)
    drift = position_cdf(params, 5.0)(x5) - position_cdf(params, float(t0))(x0)
    assert np.max(np.abs(drift)) <= 1e-12


@settings(max_examples=250, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["run", "compare"]),
    n=st.integers(1, 8),
    theory=st.sampled_from(["dbb", "revised"]),
    ratio=st.floats(0.0, 50.0),
    sigma=st.floats(0.1, 100.0),
    mass=st.floats(0.01, 20.0),
    t0=st.sampled_from([-1.0, 0.0, 0.5]),
    span=st.floats(0.01, 30.0),
)
def test_run_and_compare_end_in_an_exit_code(command, n, theory, ratio, sigma, mass, t0, span):
    """Across X/sigma, sigma, mass, t0 and span, at dt = span / 20 with slices
    at t0, mid-span and t_final, run and compare end in exit code 0, 1 or 2
    and never raise; ``--theory`` goes to run only, since compare runs both."""
    t_final = t0 + span
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(
            Path(tmp),
            x_half_nm=repr(ratio * sigma),
            sigma_nm=repr(sigma),
            mass_me=repr(mass),
            t0_ps=repr(t0),
            t_final_ps=repr(t_final),
            dt_ps=repr(span / 20),
            slices_ps=f"{t0!r}, {t0 + span / 2!r}, {t_final!r}",
            out_dir=Path(tmp) / "o",
        )
        argv = [command, "--config", str(cfg), "--n", str(n)] + (["--theory", theory] if command == "run" else [])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2)


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(ratio=st.floats(0.0, 50.0), sigma=st.floats(0.1, 100.0), mass=st.floats(0.01, 20.0))
def test_verify_ends_in_an_exit_code(ratio, sigma, mass):
    """Across the same X/sigma, sigma and mass, verify ends in exit code 0, 1
    or 2 and never raises; a check that fails is exit 1 (schrodinger_residual
    at sigma = 0.1, for one).  At X = 82.5 nm, sigma = 10 nm a continuity
    point whose x +- h_x fell below the node floor raised NodeSingularity."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp), x_half_nm=repr(ratio * sigma), sigma_nm=repr(sigma), mass_me=repr(mass))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(["verify", "--config", str(cfg)])
    assert rc in (0, 1, 2)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.text(st.characters(codec="ascii", exclude_characters="/"), min_size=1, max_size=12).filter(
        lambda text: text not in (".", "..")
    ),
    n=st.integers(1, 4),
)
@example(name="blank ", n=1).via("re-parsing strips a trailing blank")
@example(name="#x = y", n=1)
def test_run_ends_in_an_exit_code_for_any_ascii_out_dir(name, n):
    """Over out_dir names drawn from all of ASCII ('/' excluded and '.' and
    '..' filtered out, so every run writes inside its own temporary
    directory), run ends in exit code 0, 1 or 2; on exit 0 the manifest
    re-parses to the same config, and on exit 2 nothing was written."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / name)
        overrides = {"n_traj": str(n), "theory": "dbb", "out_dir": out}
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(["run", "--n", str(n), "--theory", "dbb", "--out", out])
        assert rc in (0, 1, 2)
        if rc == 0:
            echoed = parse_config(Path(out) / "manifest.txt")
            assert echoed.raw == parse_config(None, overrides).raw
        if rc == 2:
            assert os.listdir(tmp) == []


@pytest.mark.parametrize(
    "command,name,what", [("run", "manifest.txt", "manifest"), ("compare", "compare.txt", "compare table")]
)
def test_unwritable_output_exits_one_naming_it(tmp_path, capsys, command, name, what):
    """A directory where an output file goes makes its write fail; the run
    ends with exit 1 and one error line naming the file and its kind."""
    cfg = _write_config(tmp_path, n_traj=16, dt_ps=0.02, seed=3, out_dir=tmp_path / "o")
    (tmp_path / "o" / name).mkdir(parents=True)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: writing {what} to {tmp_path / 'o' / name}: ") and err.count("\n") == 1


def test_bad_flag_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--theory", "bohm", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["compare", "--theory", "dbb"], ["verify", "--n", "5"], ["verify", "--workers", "0"], ["verify", "--out", "o"]],
    ids=["compare-theory", "verify-n", "verify-workers", "verify-out"],
)
def test_flags_a_command_does_not_read_exit_via_argparse(argv, capsys):
    """compare always runs both laws and verify reads only --config and
    --seed, so any other flag is an argparse error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("theory", ["dbb", "revised"])
def test_trajectories_csv_matches_row_by_row_serialization(tmp_path, theory):
    """Blocks of the CSV writer equal one formatted row per sample, across
    block boundaries, stopped lanes (revised) and the p = 0 and -0 that
    Bohm's field gives at t0 (dbb), which take the per-value fallback of the
    float formatter; the digest is the file's sha256."""
    out = tmp_path / theory
    assert main(["run", "--theory", theory, "--n", "600", "--seed", "1", "--out", str(out)]) == 0
    setup = parse_config(None, {"theory": theory, "n_traj": "600", "seed": "1"})
    result = run_ensemble(setup.config, setup.params)
    if theory == "revised":
        assert 0 < result.status_counts["node_stalled"] < 600
    else:
        assert {"0", "-0"} <= {f"{p:.17g}" for p in result.trajectories.p[:, 0]}
    rows = ["traj_id,t,x,p,status"]
    for i, traj in enumerate(result.trajectories):
        rows += [f"{i},{t:.17g},{x:.17g},{p:.17g},{traj.status}" for t, x, p in zip(traj.t, traj.x, traj.p)]
    written = (out / "trajectories.csv").read_bytes()
    assert written == ("\n".join(rows) + "\n").encode("ascii")
    digest = hashlib.sha256(written).hexdigest()
    assert result.data_digest() == digest
    manifest = (out / "manifest.txt").read_text(encoding="ascii")
    assert f"# file trajectories.csv sha256 = {digest}\n" in manifest


def test_writers_return_the_sha256_of_their_bytes(tmp_path):
    """Each data file is hashed as it is written; the digest is the file's."""
    params = DoubleSlitParams(50.0, 10.0)
    result = run_ensemble(default_config(params, theory="revised", n_traj=300, master_seed=4), params)
    reports = [build_slice_report(result, 3.5, obs) for obs in ("position", "momentum")]
    for written in (write_trajectories(result, tmp_path / "t.csv"), write_histograms(reports, tmp_path / "h.txt")):
        assert written.sha256 == hashlib.sha256(written.path.read_bytes()).hexdigest()
        assert Path(written) == written.path  # usable wherever a path is
    assert write_trajectories(result, tmp_path / "t2.csv").sha256 == result.data_digest()


def test_csv_writer_memory_is_bounded(tmp_path):
    """Writing trajectories.csv holds one block of _CSV_BLOCK lanes at a time:
    its traced peak does not grow from 2048 to 8192 lanes by more than one
    block's x and p fields, and stays below 8 MB."""
    params = DoubleSlitParams(50.0, 10.0)
    full = run_ensemble(default_config(params, theory="dbb", n_traj=8192, master_seed=1), params)
    cols = full.trajectories
    head = dynamics.TrajectoryColumns(
        cols.ics[:2048], cols.t, cols.x[:2048], cols.p[:2048], cols.n_records[:2048], cols.status[:2048]
    )
    peaks = []
    for result in (EnsembleResult(full.config, params, head), full):
        tracemalloc.start()
        try:
            write_trajectories(result, tmp_path / "t.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_fields = ensemble._CSV_BLOCK * cols.t.size * 2 * 48
    assert peaks[1] - peaks[0] < block_fields, f"peaks {peaks[0] / 1e6:.2f} -> {peaks[1] / 1e6:.2f} MB"
    assert max(peaks) < 8e6, f"CSV writer peaked at {max(peaks) / 1e6:.1f} MB"


def test_compare_builds_one_quantile_table_per_record_time(tmp_path, monkeypatch, seed_tables):
    """Two batches per theory invert F_t at the same record times, each
    block of times as one array; each time's quantile table is built once
    and shared by every batch and both theories.  F_t0, which every batch
    evaluates at its start, is the one the sampler inverts for both
    theories' position draws; the only other table is the momentum law of
    the revised draws."""
    monkeypatch.setattr(ensemble, "_BATCH_SIZE", 32)
    inverted = mock.Mock(wraps=dynamics.position_cdf)
    monkeypatch.setattr(dynamics, "position_cdf", inverted)
    batches = mock.Mock(wraps=dynamics.integrate_batch)
    monkeypatch.setattr(ensemble, "integrate_batch", batches)
    cfg = _write_config(tmp_path, n_traj=64, dt_ps=0.02, seed=3, out_dir=tmp_path / "o")
    assert main(["compare", "--config", str(cfg)]) == 0
    assert batches.call_count == 4
    arguments = [np.ravel(call.args[1]) for call in inverted.call_args_list]
    times = set(np.concatenate(arguments).tolist())
    assert len(times) == 43 and 0.0 in times and max(map(len, arguments)) == 42
    assert seed_tables.cache_info().misses == len(times) + 1
