"""Command-line entry points, configuration, and plot-ready text output.

Commands::

    qtraj run      one ensemble -> trajectories CSV + histogram document + manifest
    qtraj compare  both guidance laws on the same seed -> side-by-side statistics
    qtraj verify   analytic self-checks (residuals, normalizations), exit 0/1

Configuration is a ``key = value`` text file (``#`` comments) whose keys
are listed in ``CONFIG_DEFAULTS``; command-line flags override file
values.  The run manifest echoes the configuration in the same format
(metadata lines are comments), so a manifest is itself a valid config that
reproduces the run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import IntegrationSchedule
from .ensemble import (
    EnsembleConfig,
    EnsembleResult,
    Histogram,
    KSResult,
    TimeSlice,
    band_metrics,
    build_histogram,
    default_config,
    histogram_edges,
    ks_test,
    run_ensemble,
    slice_values,
)
from .sampling import THEORIES, SeededStream, make_initial_conditions
from .wavefield import (
    HBAR_NM2_ME_PS,
    DoubleSlitParams,
    continuity_residual,
    continuity_truncation_bound,
    envelope_density,
    momentum_cdf,
    node_floor,
    p_bb,
    p_revised,
    position_cdf,
    rho,
    schrodinger_residual,
    sigma_t,
)

#: Documented config keys with their default values (as config-file text).
CONFIG_DEFAULTS = {
    "x_half_nm": "50",
    "sigma_nm": "10",
    "mass_me": "1",
    "n_traj": "40000",
    "theory": "revised",
    "seed": "1",
    "t0_ps": "0",
    "t_final_ps": "5",
    "dt_ps": "0.005",
    "slices_ps": "0, 3.5, 5",
    "bins": "200",
    "out_dir": "qtraj_out",
}

#: Finite-difference steps and node-exclusion bands for the verify checks.
_VERIFY_H_X_FRACTION = 1e-3  # h_x = sigma / 1000
_VERIFY_H_T_FRACTION = 1.5e-4  # h_t = dispersion time tau * 1.5e-4
_SCHRODINGER_BAND = 1e-2  # require rho >= band * envelope
_CONTINUITY_BAND = 1e-3
_SCHRODINGER_TOL = 1e-4
_CONTINUITY_MARGIN = 10.0
_MASS_CHUNK = 16384  # nodes per density call of a normalization sum


class ConfigError(Exception):
    """Invalid, unknown, or inconsistent configuration key."""

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"config key '{key}': {reason}")


@dataclass(frozen=True)
class RunSetup:
    """Fully validated run inputs: physics, ensemble config, output directory."""

    params: DoubleSlitParams
    config: EnsembleConfig
    out_dir: Path
    raw: dict[str, str]


def _read_config_file(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("config", f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(key, f"unknown key ({path}:{line_no})")
        entries[key] = value.strip()
    return entries


def _parse_float(raw: dict[str, str], key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(key, f"not a number: {raw[key]!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw[key]!r}")
    return value


def _parse_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(key, f"not an integer: {raw[key]!r}") from exc


def parse_config(path: str | Path | None = None, overrides: dict[str, str] | None = None) -> RunSetup:
    """Merge defaults, optional config file, and flag overrides; validate all keys."""
    raw = dict(CONFIG_DEFAULTS)
    if path is not None:
        raw.update(_read_config_file(Path(path)))
    for key, value in (overrides or {}).items():
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(key, "unknown key")
        if value is not None:
            raw[key] = str(value)
    for key, value in raw.items():
        if not value.isascii():  # the manifest echoes every value, and each output file is ASCII
            raise ConfigError(key, f"must be ASCII text, got {ascii(value)}")
    out_dir = raw["out_dir"]
    if not out_dir.isprintable() or out_dir != out_dir.strip():  # else its manifest line would not re-parse
        raise ConfigError("out_dir", f"must be printable ASCII text with no blank at either end, got {out_dir!r}")

    x_half = _parse_float(raw, "x_half_nm")
    if x_half < 0:
        raise ConfigError("x_half_nm", f"must be >= 0, got {x_half!r}")
    sigma = _parse_float(raw, "sigma_nm")
    if sigma <= 0:
        raise ConfigError("sigma_nm", f"must be > 0, got {sigma!r}")
    mass = _parse_float(raw, "mass_me")
    if mass <= 0:
        raise ConfigError("mass_me", f"must be > 0, got {mass!r}")
    params = DoubleSlitParams(x_half=x_half, sigma=sigma, mass=mass)
    t0 = _parse_float(raw, "t0_ps")
    t_final = _parse_float(raw, "t_final_ps")
    if not t_final > t0:
        raise ConfigError("t_final_ps", f"must exceed t0_ps={t0!r}, got {t_final!r}")
    dt = _parse_float(raw, "dt_ps")
    if not 0 < dt <= t_final - t0:
        raise ConfigError("dt_ps", f"must lie in (0, t_final - t0], got {dt!r}")
    for key, scale, value in (
        ("x_half_nm", "x_half^2", x_half * x_half),
        ("sigma_nm", "sigma^2", sigma * sigma),
        ("sigma_nm", "sigma_p^2", params.sigma_p * params.sigma_p),
        ("mass_me", "hbar/m", HBAR_NM2_ME_PS / mass),
    ):
        # the physics squares and divides by these; only x_half^2 may vanish
        if not (np.isfinite(value) and (value > 0 or key == "x_half_nm")):
            raise ConfigError(key, f"{scale} = {value!r} lies outside the range of a double")
    for key, t in (("t0_ps", t0), ("t_final_ps", t_final)):
        # quantile brackets the position law at t by +-(x_half + 40 sigma_t(t)), and its
        # fringe half-wavenumber holds x_half spread(t); neither may overflow
        with np.errstate(all="ignore"):
            law = position_cdf(params, t)
        far = law.center + 40.0 * law.width
        if not (np.isfinite(far) and np.isfinite(law.wave)):
            raise ConfigError(
                key, f"the position law at t = {t!r} has far bracket x_half + 40 sigma_t = {far!r} and "
                f"half-wavenumber {law.wave!r}, outside the range of a double"
            )

    n_traj = _parse_int(raw, "n_traj")
    if n_traj < 1:
        raise ConfigError("n_traj", f"must be >= 1, got {n_traj!r}")
    theory = raw["theory"]
    if theory not in THEORIES:
        raise ConfigError("theory", f"must be one of {THEORIES}, got {theory!r}")
    seed = _parse_int(raw, "seed")
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed!r}")
    bins = _parse_int(raw, "bins")
    if bins < 1:
        raise ConfigError("bins", f"must be >= 1, got {bins!r}")

    try:
        slice_times = tuple(float(part) for part in raw["slices_ps"].split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError("slices_ps", f"not a comma-separated list of numbers: {raw['slices_ps']!r}") from exc
    if not slice_times:
        raise ConfigError("slices_ps", "needs at least one slice time")

    schedule = IntegrationSchedule(t0=t0, t_final=t_final, dt_base=dt)
    if schedule.n_base > 2**53:  # beyond 2^53 cells, k / n_base and the record times are no longer exact
        raise ConfigError("dt_ps", f"splits [t0, t_final] into {schedule.n_base} base cells, more than 2^53")
    try:
        config = default_config(
            params,
            theory=theory,
            n_traj=n_traj,
            master_seed=seed,
            schedule=schedule,
            slice_times=slice_times,
            n_bins=bins,
        )
    except ValueError as exc:
        raise ConfigError("slices_ps", str(exc)) from exc
    return RunSetup(params=params, config=config, out_dir=Path(out_dir), raw=raw)


@dataclass(frozen=True)
class WrittenFile:
    """A written output file and the sha256 of the bytes written; usable as its path."""

    path: Path
    sha256: str

    def __fspath__(self) -> str:
        return str(self.path)


def _write_hashed(path: str | Path, chunks: Iterable[bytes], what: str) -> WrittenFile:
    """Write the chunks, hashing each one on its way to the file."""
    path = Path(path)
    digest = hashlib.sha256()
    try:
        with path.open("wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
                digest.update(chunk)
    except OSError as exc:
        raise OSError(f"writing {what} to {path}: {exc}") from exc
    return WrittenFile(path, digest.hexdigest())


def write_trajectories(result: EnsembleResult, path: str | Path) -> WrittenFile:
    """Delimited text of every recorded sample with 17-significant-digit values."""
    return _write_hashed(path, result.csv_blocks(), "trajectories")


@dataclass(frozen=True)
class SliceReport:
    """One slice/observable block of the histogram document."""

    time: float
    observable: str
    theory: str
    slice: TimeSlice
    histogram: Histogram
    oracle_density: np.ndarray
    ks: KSResult
    central_dip: float | None
    side_peak: float | None


def build_slice_report(result: EnsembleResult, t: float, observable: str) -> SliceReport:
    """Slice, histogram and KS test of one observable at time t."""
    params = result.params
    config = result.config
    values = slice_values(result, t, observable)
    position_edges, momentum_edges = histogram_edges(params, config.schedule.t_final, config.n_bins)
    if observable == "position":
        law = position_cdf(params, t)
        hist = build_histogram(values.values, position_edges)
        dip = peak = None
    else:
        law = momentum_cdf(params)
        hist = build_histogram(values.values, momentum_edges)
        try:
            dip, peak = band_metrics(hist, params)
        except ValueError:  # bins too coarse to resolve the dip bands
            dip = peak = float("nan")
    ks = ks_test(values.values, law, alpha=0.01)
    return SliceReport(
        time=t,
        observable=observable,
        theory=config.theory,
        slice=values,
        histogram=hist,
        oracle_density=law.pdf(hist.centers),
        ks=ks,
        central_dip=dip,
        side_peak=peak,
    )


def _report_lines(report: SliceReport) -> list[str]:
    lines = [
        f"[slice] time_ps = {report.time:.10g} | observable = {report.observable} | theory = {report.theory}",
        f"n_contributing = {report.slice.n_contributing}",
        f"n_excluded = {report.slice.n_excluded}",
        f"n_below_range = {report.histogram.n_below}",
        f"n_above_range = {report.histogram.n_above}",
        f"ks_statistic = {report.ks.statistic:.10g}",
        f"ks_critical = {report.ks.critical_at_alpha:.10g}",
        f"ks_alpha = {report.ks.alpha:.10g}",
        f"ks_passed = {str(report.ks.passed).lower()}",
    ]
    if report.central_dip is not None:
        lines.append(f"central_dip_ratio = {report.central_dip:.10g}")
        lines.append(f"side_band_peak = {report.side_peak:.10g}")
    lines.append("columns = bin_lo bin_hi count density oracle_density")
    hist = report.histogram
    edges = hist.edges.tolist()  # Python floats and ints format faster than numpy scalars
    for lo, hi, count, density, oracle in zip(
        edges, edges[1:], hist.counts.tolist(), hist.density.tolist(), report.oracle_density.tolist()
    ):
        lines.append(f"{lo:.10g} {hi:.10g} {count:d} {density:.10g} {oracle:.10g}")
    lines.append("")
    return lines


def write_histograms(reports: list[SliceReport], path: str | Path) -> WrittenFile:
    """Histogram document: per slice, edges/counts/density plus oracle and stats."""
    lines: list[str] = []
    for report in reports:
        lines.extend(_report_lines(report))
    return _write_hashed(path, ["\n".join(lines).encode("ascii")], "histograms")


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _numpy_exp_level() -> str:
    """The SIMD path numpy's float64 exp dispatches to; the output bytes depend on it."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        return "unknown"
    return opt_func_info(func_name="exp", signature="float64")["exp"]["dd"]["current"]


def _manifest_text(
    echo: dict[str, str], started_utc: str, status_counts: dict[str, int], files: list[WrittenFile]
) -> str:
    """Manifest in config syntax: metadata as comments, so it re-parses as config."""
    lines = [
        "# run manifest; reusable as a config file: qtraj run --config <this file>",
        f"# version = {__version__}",
        f"# started_utc = {started_utc}",
        f"# finished_utc = {_utc_stamp()}",
        f"# numpy_exp = {_numpy_exp_level()}",
    ]
    for status, count in sorted(status_counts.items()):
        lines.append(f"# status {status} = {count}")
    for written in files:
        lines.append(f"# file {written.path.name} sha256 = {written.sha256}")
    for key in CONFIG_DEFAULTS:
        lines.append(f"{key} = {echo[key]}")
    return "\n".join(lines) + "\n"


def _run_one(setup: RunSetup, theory: str, workers: int, suffix: str = "") -> list[SliceReport]:
    """Execute one ensemble, write its three output files and report them on stdout."""
    config = replace(setup.config, theory=theory)
    started = _utc_stamp()
    result = run_ensemble(config, setup.params, workers=workers)
    counts = result.status_counts
    setup.out_dir.mkdir(parents=True, exist_ok=True)
    trajectories = write_trajectories(result, setup.out_dir / f"trajectories{suffix}.csv")
    reports = [build_slice_report(result, t, obs) for t in config.slice_times for obs in ("position", "momentum")]
    histograms = write_histograms(reports, setup.out_dir / f"histograms{suffix}.txt")
    manifest = _write_hashed(
        setup.out_dir / f"manifest{suffix}.txt",
        [_manifest_text(dict(setup.raw, theory=theory), started, counts, [trajectories, histograms]).encode("ascii")],
        "manifest",
    )
    summary = ", ".join(f"{status}={count}" for status, count in sorted(counts.items()))
    print(f"theory={theory} n_traj={len(result.trajectories)}: {summary}")
    for written in (trajectories, histograms, manifest):
        print(f"wrote {written.path}")
    return reports


def cmd_run(setup: RunSetup, workers: int) -> int:
    _run_one(setup, setup.config.theory, workers)
    return 0


def cmd_compare(setup: RunSetup, workers: int) -> int:
    """Both theories on one seed (identical initial positions), side by side."""
    # each theory's reports come in the same slice order, so they pair up
    pairs = list(zip(*(_run_one(setup, theory, workers, suffix=f"-{theory}") for theory in THEORIES)))
    lines = ["time_ps observable dbb_ks dbb_passed revised_ks revised_passed"]
    for dbb, rev in pairs:
        lines.append(
            f"{dbb.time:.10g} {dbb.observable} {dbb.ks.statistic:.10g} {str(dbb.ks.passed).lower()} "
            f"{rev.ks.statistic:.10g} {str(rev.ks.passed).lower()}"
        )
    lines.append("")
    lines.append("time_ps dbb_central_dip revised_central_dip dbb_side_peak revised_side_peak")
    for dbb, rev in pairs:
        if dbb.observable == "momentum":
            lines.append(
                f"{dbb.time:.10g} {dbb.central_dip:.10g} {rev.central_dip:.10g} "
                f"{dbb.side_peak:.10g} {rev.side_peak:.10g}"
            )
    table = "\n".join(lines)
    print(table)
    compare = _write_hashed(setup.out_dir / "compare.txt", [(table + "\n").encode("ascii")], "compare table")
    print(f"wrote {compare.path}")
    return 0


def _interior_points(
    params: DoubleSlitParams,
    n: int,
    t_final: float,
    band: float,
    h_x: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (x, t) with rho above ``band`` times the fringe-free envelope,
    and above the node floor at x and x +- h_x, where the checks' central
    differences evaluate the guidance fields."""
    xs = np.empty(0)
    ts = np.empty(0)
    while xs.size < n:
        t = rng.uniform(0.0, t_final, size=2 * n)
        hw = params.x_half + 3.0 * np.asarray(sigma_t(params, t))
        x = rng.uniform(-1.0, 1.0, size=2 * n) * hw
        stencil = np.min([rho(x + step, t, params) for step in (-h_x, 0.0, h_x)], axis=0)
        keep = (rho(x, t, params) >= band * envelope_density(x, t, params)) & (stencil > node_floor(params, t))
        xs = np.concatenate([xs, x[keep]])
        ts = np.concatenate([ts, t[keep]])
    return xs[:n], ts[:n]


def _total_mass(law) -> float:
    """Trapezoid sum of a law's density over +-(center + 12 width), where its
    ends are below 1e-32, at 8 points per width and 16 per fringe: exact to
    rounding for an analytic, Gaussian-decaying integrand (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)).  The nodes are those of
    ``np.linspace(-half, half, n + 1)``, taken ``_MASS_CHUNK`` at a time, so
    the memory does not grow with the node count, which grows as (X/sigma)^2."""
    half = law.center + 12.0 * law.width
    n = int(np.ceil(2.0 * half * max(8.0 / law.width, 16.0 * law.wave / np.pi)))
    step = 2.0 * half / n
    total = 0.0
    for start in range(0, n + 1, _MASS_CHUNK):
        i = np.arange(start, min(start + _MASS_CHUNK, n + 1))
        total += float(law.pdf(np.where(i < n, i * step - half, half)).sum())
    return step * total


def verify_checks(params: DoubleSlitParams, t_final: float = 5.0, seed: int = 1) -> list[tuple[str, bool, str]]:
    """Analytic self-checks behind `qtraj verify`; returns (name, passed, detail).
    numpy alone: each normalization is one :func:`_total_mass`, and the revised
    continuity check pairs 20 anchors with 500 points in one call."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(seed)

    worst = max(abs(_total_mass(position_cdf(params, t)) - 1.0) for t in (0.0, 1.0, 3.5, t_final))
    checks.append(("position_norm", worst < 1e-6, f"max |integral - 1| = {worst:.3e} over t in {{0, 1, 3.5, {t_final:g}}}"))
    err = abs(_total_mass(momentum_cdf(params)) - 1.0)
    checks.append(("momentum_norm", err < 1e-6, f"|integral - 1| = {err:.3e}"))

    h_x = _VERIFY_H_X_FRACTION * params.sigma
    h_t = _VERIFY_H_T_FRACTION * params.dispersion_time
    x, t = _interior_points(params, 10_000, t_final, _SCHRODINGER_BAND, h_x, rng)
    residual = np.abs(schrodinger_residual(x, t, params, h_x, h_t))
    peak = float(residual.max())
    checks.append(
        ("schrodinger_residual", peak < _SCHRODINGER_TOL, f"max normalized residual = {peak:.3e} at 10^4 points")
    )

    x, t = _interior_points(params, 10_000, t_final, _CONTINUITY_BAND, h_x, rng)
    bound = _CONTINUITY_MARGIN * np.asarray(continuity_truncation_bound(x, t, params, h_x, h_t))
    resid = np.abs(continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: p_bb(xx, tt, params)))
    ratio = float((resid / bound).max())
    checks.append(("continuity_dbb", ratio < 1.0, f"max residual/(10 x budget) = {ratio:.3e}"))

    x, t = _interior_points(params, 500, t_final, _CONTINUITY_BAND, h_x, rng)
    anchors = make_initial_conditions(20, SeededStream(seed, 0), params, 0.0, "revised")[np.repeat(np.arange(20), x.size)]
    x, t = np.tile(x, 20), np.tile(t, 20)  # lane i x.size + j pairs anchor i with point j
    bound = _CONTINUITY_MARGIN * np.asarray(continuity_truncation_bound(x, t, params, h_x, h_t))
    resid = np.abs(continuity_residual(x, t, params, h_x, h_t, lambda xx, tt: p_revised(xx, tt, anchors, params)))
    ratio = float((resid / bound).max())
    checks.append(("continuity_revised", ratio < 1.0, f"max residual/(10 x budget) = {ratio:.3e} over 20 ic"))

    return checks


def cmd_verify(setup: RunSetup) -> int:
    checks = verify_checks(setup.params, t_final=setup.config.schedule.t_final, seed=setup.config.master_seed)
    failed = 0
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failed += 0 if passed else 1
    return 0 if failed == 0 else 1


def _keep_freed_heap() -> None:
    """Start glibc's malloc at the ceiling of its adaptive thresholds
    (mallopt(3)), so the transport's block temporaries reuse the heap instead
    of being mapped, faulted in and returned to the kernel each time.  32 MiB
    is the most glibc raises the mmap threshold to on 64-bit hosts
    (DEFAULT_MMAP_THRESHOLD_MAX), and it sets the trim threshold to twice the
    mmap threshold when it raises it.  No-op off glibc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()  # the command line owns its process; the library leaves the allocator alone
    parser = argparse.ArgumentParser(
        prog="qtraj",
        description="Quantum trajectory ensembles for the analytic double slit under two guidance laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run one ensemble and write trajectories, histograms, and a manifest"),
        ("compare", "run both guidance laws on the same seed and emit side-by-side statistics"),
        ("verify", "run analytic self-checks; exit nonzero on failure"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.set_defaults(theory=None, n=None, out=None, workers=1)  # for the flags a command does not read
        cmd.add_argument("--config", metavar="FILE", default=None, help="config file (key = value lines)")
        if name == "run":  # compare runs both laws
            cmd.add_argument("--theory", choices=THEORIES, default=None, help="guidance law override")
        cmd.add_argument("--seed", type=int, default=None, metavar="N", help="master seed override")
        if name != "verify":
            cmd.add_argument("--n", type=int, default=None, metavar="N", help="trajectory count override")
            cmd.add_argument("--out", default=None, metavar="DIR", help="output directory override")
            cmd.add_argument("--workers", type=int, default=1, metavar="N", help="worker threads for the trajectory batches (default 1)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2

    overrides = {
        "theory": args.theory,
        "seed": args.seed,
        "n_traj": args.n,
        "out_dir": args.out,
    }
    try:
        setup = parse_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(setup, args.workers)
        if args.command == "compare":
            return cmd_compare(setup, args.workers)
        return cmd_verify(setup)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
