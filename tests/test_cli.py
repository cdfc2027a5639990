"""Command-line interface: config parsing, outputs, exit codes."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qtraj import DoubleSlitParams, EnsembleResult, default_config, momentum_cdf, p_bb, rho, run_ensemble
from qtraj.cli import CONFIG_DEFAULTS, ConfigError, build_slice_report, main, parse_config, write_histograms
from qtraj.wavefield import mass_coordinate


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
    ],
)
def test_invalid_values_rejected(tmp_path, key, value):
    path = _write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError):
        parse_config(path)


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
    out, _ = run_dir
    rc = main(["run", "--config", str(out / "manifest.txt"), "--out", str(tmp_path / "redo")])
    assert rc == 0
    for name in ("trajectories.csv", "histograms.txt"):
        assert hashlib.sha256((tmp_path / "redo" / name).read_bytes()).hexdigest() == hashlib.sha256(
            (out / name).read_bytes()
        ).hexdigest()


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


def test_run_cli_flag_overrides(tmp_path, capsys):
    rc = main(
        ["run", "--theory", "dbb", "--n", "32", "--seed", "4", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "theory=dbb n_traj=32" in out
    assert (tmp_path / "o" / "trajectories.csv").is_file()


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
        final = mass_coordinate(x0, 0.0, params) + (p0 - p_bb(x0, 0.0, params)) / params.mass * swept
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
    oracle = momentum_cdf(params)
    reports = [build_slice_report(stopped, 3.5, obs, oracle) for obs in ("position", "momentum")]
    for report in reports:
        assert report.slice.n_contributing == 0 and report.slice.n_excluded == 8
        assert np.isnan(report.ks.statistic) and not report.ks.passed
    text = write_histograms(reports, tmp_path / "h.txt").read_text(encoding="ascii")
    assert text.count("\nn_contributing = 0\n") == 2
    assert text.count("\nks_statistic = nan\n") == 2
    assert text.count("\nks_passed = false\n") == 2


def test_coarse_bins_still_produce_reports(tmp_path, capsys):
    cfg = _write_config(tmp_path, bins=4, n_traj=40, dt_ps=0.02, seed=6, out_dir=tmp_path / "o4")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    text = (tmp_path / "o4" / "histograms.txt").read_text(encoding="ascii")
    assert text.count("[slice]") == 6
    assert "central_dip_ratio = nan" in text


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_time_step_scales_with_mass(tmp_path, capsys):
    """At 0.01 electron masses tau is 100x shorter; a fixed h_t fails there."""
    cfg = _write_config(tmp_path, mass_me=0.01)
    assert main(["verify", "--config", str(cfg)]) in (0, 1)
    assert "PASS schrodinger_residual:" in capsys.readouterr().out


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


def test_bad_flag_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--theory", "bohm", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_trajectories_csv_matches_row_by_row_serialization(tmp_path):
    """Blocks of the CSV writer equal one formatted row per sample, across
    block boundaries and stopped lanes; the digest is the file's sha256."""
    out = tmp_path / "rev"
    assert main(["run", "--theory", "revised", "--n", "600", "--seed", "1", "--out", str(out)]) == 0
    setup = parse_config(None, {"theory": "revised", "n_traj": "600", "seed": "1"})
    result = run_ensemble(setup.config, setup.params)
    assert 0 < result.status_counts["node_stalled"] < 600
    rows = ["traj_id,t,x,p,status"]
    for i, traj in enumerate(result.trajectories):
        rows += [f"{i},{t:.17g},{x:.17g},{p:.17g},{traj.status}" for t, x, p in zip(traj.t, traj.x, traj.p)]
    written = (out / "trajectories.csv").read_bytes()
    assert written == ("\n".join(rows) + "\n").encode("ascii")
    digest = hashlib.sha256(written).hexdigest()
    assert result.data_digest() == digest
    manifest = (out / "manifest.txt").read_text(encoding="ascii")
    assert f"# file trajectories.csv sha256 = {digest}\n" in manifest
