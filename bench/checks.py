"""Checks of one round's output files against the benchmark's own oracle.

Nothing here imports ``qtraj``: trajectories, histograms, the compare
table and the manifests are read back from the files the command wrote and
recomputed from ``oracle``.  Each check returns a list of error strings;
an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import Physics, drift_integrals
from workloads import Workload

STATUSES = ("completed", "node_stalled", "exited_domain")

#: Tolerance on KS statistics: the program's CDFs are trapezoid tables whose
#: error stays below 4e-8 at these parameters.
KS_TOL = 1e-6

#: alpha of the KS gate on the initial positions and momenta.  It is far
#: below the program's 0.01 because the benchmark runs dozens of seeds and
#: an exact sampler fails a 0.01 test on one seed in a hundred.
KS_GATE_ALPHA = 1e-6

#: Two-sided KS coefficient c(0.01) of the program's documented table.
KS_C_001 = 1.63

#: Length of the Gauss-Legendre pieces of the drift integral up to t_final.
DRIFT_PIECE_PS = 0.125


@dataclass
class Ensemble:
    """Recorded samples of one theory, time-ordered within each trajectory."""

    theory: str
    traj: np.ndarray
    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    row_status: np.ndarray
    header: str = "traj_id,t,x,p,status"

    def __post_init__(self) -> None:
        first = np.ones(self.traj.size, dtype=bool)
        first[1:] = self.traj[1:] != self.traj[:-1]
        self.first = first
        self.starts = np.flatnonzero(first)
        self.ends = np.append(self.starts[1:], self.traj.size)

    @property
    def n(self) -> int:
        return self.starts.size

    @property
    def status(self) -> np.ndarray:
        return self.row_status[self.starts]

    @property
    def x0(self) -> np.ndarray:
        return self.x[self.starts]

    @property
    def p0(self) -> np.ndarray:
        return self.p[self.starts]

    def per_sample(self, values: np.ndarray) -> np.ndarray:
        return np.repeat(values, self.ends - self.starts)

    def subset(self, trajectories) -> "Ensemble":
        keep = np.isin(self.traj, np.asarray(trajectories))
        return Ensemble(self.theory, self.traj[keep], self.t[keep].copy(), self.x[keep].copy(),
                        self.p[keep].copy(), self.row_status[keep].copy(), self.header)


def read_trajectories(path: Path, theory: str) -> Ensemble:
    numbers = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    with path.open(encoding="ascii") as handle:
        header = handle.readline().rstrip("\n")
        status = np.array([line[line.rindex(",") + 1 :].rstrip("\n") for line in handle], dtype="U16")
    traj = numbers[:, 0].astype(np.int64)
    return Ensemble(theory, traj, numbers[:, 1], numbers[:, 2], numbers[:, 3], status, header)


# ---------------------------------------------------------------------------
# trajectories: structure, mass coordinate, outcomes, initial draws


def structure_errors(ens: Ensemble, wl: Workload) -> list[str]:
    errors = []
    t0 = float(wl.config["t0_ps"])
    t_final = float(wl.config["t_final_ps"])
    if ens.header != "traj_id,t,x,p,status":
        errors.append(f"{ens.theory}: header {ens.header!r}")
    if ens.n != wl.n_traj or not np.array_equal(ens.traj[ens.starts], np.arange(ens.n)):
        errors.append(f"{ens.theory}: trajectory ids are not 0..{wl.n_traj - 1} in order")
        return errors
    if np.any(ens.t[ens.starts] != t0):
        errors.append(f"{ens.theory}: a trajectory does not start at t0")
    steps = np.diff(ens.t)[~ens.first[1:]]
    if np.any(steps <= 0.0):
        errors.append(f"{ens.theory}: sample times not increasing within a trajectory")
    if np.any(ens.row_status != ens.per_sample(ens.status)):
        errors.append(f"{ens.theory}: status changes within a trajectory")
    unknown = set(np.unique(ens.status)) - set(STATUSES)
    if unknown:
        errors.append(f"{ens.theory}: unknown statuses {sorted(unknown)}")
    last_t = ens.t[ens.ends - 1]
    completed = ens.status == "completed"
    if np.any(np.abs(last_t[completed] - t_final) > 1e-9):
        errors.append(f"{ens.theory}: a completed trajectory ends before t_final")
    if np.any(last_t[~completed] >= t_final):
        errors.append(f"{ens.theory}: a stopped trajectory reaches t_final")
    return errors


def anchor_offsets(ens: Ensemble, phys: Physics) -> np.ndarray:
    """delta_p = p0 - p_bb(x0, t0) per trajectory; zero under the Bohm law."""
    if ens.theory == "dbb":
        return np.zeros(ens.n)
    return ens.p0 - phys.p_bb(ens.x0, ens.t[ens.starts])


def mass_coordinate_residuals(ens: Ensemble, phys: Physics) -> np.ndarray:
    """F_t(x) minus its closed-form value along each trajectory, per sample."""
    x0 = ens.per_sample(ens.x0)
    target = phys.mass_coordinate(x0, ens.t[ens.per_sample(ens.starts)])
    if ens.theory != "dbb":
        drift = ens.per_sample(anchor_offsets(ens, phys)) / phys.mass
        target = target + drift * drift_integrals(phys, x0, ens.t, ens.first)
    return phys.mass_coordinate(ens.x, ens.t) - target


def mass_coordinate_errors(ens: Ensemble, phys: Physics, tol: float) -> list[str]:
    residual = np.abs(mass_coordinate_residuals(ens, phys))
    worst = int(np.argmax(residual))
    if not residual[worst] <= tol:
        return [
            f"{ens.theory}: |F_t(x) - closed form| = {residual[worst]:.3e} > {tol:.0e} "
            f"at trajectory {int(ens.traj[worst])}, t = {ens.t[worst]!r}"
        ]
    return []


def final_mass_coordinate(ens: Ensemble, phys: Physics, wl: Workload) -> np.ndarray:
    """Closed-form F at t_final of each trajectory's anchor point."""
    t0 = float(wl.config["t0_ps"])
    t_final = float(wl.config["t_final_ps"])
    start = phys.mass_coordinate(ens.x0, t0)
    if ens.theory == "dbb":
        return start
    edges = np.linspace(t0, t_final, round((t_final - t0) / DRIFT_PIECE_PS) + 1)
    pieces = phys.rho_time_integral(ens.x0[:, None], edges[None, :-1], edges[None, 1:])
    return start + anchor_offsets(ens, phys) / phys.mass * pieces.sum(axis=1)


def outcome_failures(ens: Ensemble, phys: Physics, wl: Workload) -> dict[str, int]:
    """Trajectories whose status disagrees with the closed form, by kind.

    A trajectory escapes to infinity before t_final exactly when its
    closed-form mass coordinate leaves (0, 1) by then; only an escaping
    trajectory may stop early.
    """
    final = final_mass_coordinate(ens, phys, wl)
    escapes = (final <= 0.0) | (final >= 1.0)
    status = ens.status
    return {
        "completed_but_escapes": int(np.count_nonzero((status == "completed") & escapes)),
        "stalled_but_stays": int(np.count_nonzero((status == "node_stalled") & ~escapes)),
        "exited_but_stays": int(np.count_nonzero((status == "exited_domain") & ~escapes)),
    }


def ks_statistic(values: np.ndarray, cdf) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    f = np.clip(cdf(v), 0.0, 1.0)
    steps = np.arange(n, dtype=float)
    return float(max(np.max((steps + 1.0) / n - f), np.max(f - steps / n)))


def ks_critical(n: int, alpha: float) -> float:
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)


def initial_draw_errors(ens: Ensemble, phys: Physics, notes: dict) -> list[str]:
    """KS of x0 against F_0 and, for revised, of p0 against the momentum CDF."""
    errors = []
    t0 = float(ens.t[0])
    draws = [("x0", ens.x0, lambda v: phys.mass_coordinate(v, t0))]
    if ens.theory == "revised":
        draws.append(("p0", ens.p0, phys.momentum_cdf))
    critical = ks_critical(ens.n, KS_GATE_ALPHA)
    for label, values, cdf in draws:
        d = ks_statistic(values, cdf)
        notes[f"{ens.theory}.{label}_ks"] = round(d, 6)
        if not d < critical:
            errors.append(f"{ens.theory}: KS of {label} = {d:.4f} >= {critical:.4f} (alpha {KS_GATE_ALPHA:g})")
    return errors


# ---------------------------------------------------------------------------
# slices and the histogram document


def slice_values(ens: Ensemble, phys: Physics, t: float, observable: str) -> tuple[np.ndarray, int]:
    """Values at time t and the number of trajectories excluded.

    On the record grid the stored sample is used; between records the
    position is interpolated linearly and the momentum is the guidance
    field at that point, evaluated from ``oracle``.
    """
    tol = 1e-9 * max(1.0, abs(t))
    last = ens.t[ens.ends - 1]
    alive = np.flatnonzero(t <= last + tol)
    n_excluded = ens.n - alive.size
    starts = ens.starts[alive]
    lengths = (ens.ends - ens.starts)[alive]
    before = np.add.reduceat((ens.t < t).astype(np.int64), ens.starts)[alive]
    hit = starts + np.minimum(before, lengths - 1)
    prev = starts + np.maximum(before - 1, 0)
    exact = np.where(np.abs(ens.t[hit] - t) <= tol, hit, np.where(np.abs(ens.t[prev] - t) <= tol, prev, -1))
    on_grid = exact >= 0
    column = ens.p if observable == "momentum" else ens.x
    values = [column[exact[on_grid]]]
    lo = prev[~on_grid]
    w = (t - ens.t[lo]) / (ens.t[lo + 1] - ens.t[lo])
    x_t = ens.x[lo] + w * (ens.x[lo + 1] - ens.x[lo])
    if observable == "position":
        values.append(x_t)
    elif x_t.size:
        p = phys.p_bb(x_t, t)
        dens = phys.rho(x_t, t)
        if ens.theory == "revised":
            owner = alive[~on_grid]
            x0 = ens.x0[owner]
            p = p + anchor_offsets(ens, phys)[owner] * phys.rho(x0, t) / dens
        valid = (dens > phys.node_floor(t)) & np.isfinite(p)
        values.append(p[valid])
        n_excluded += int(np.count_nonzero(~valid))
    return np.concatenate(values), n_excluded


@dataclass
class Block:
    """One ``[slice]`` block of a histogram document."""

    time: float
    observable: str
    theory: str
    fields: dict[str, float] = field(default_factory=dict)
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 5)))


def parse_histograms(text: str) -> list[Block]:
    blocks: list[Block] = []
    for chunk in text.split("[slice] ")[1:]:
        lines = chunk.strip("\n").split("\n")
        head = dict(part.strip().split(" = ") for part in lines[0].split("|"))
        block = Block(float(head["time_ps"]), head["observable"], head["theory"])
        rows = []
        for line in lines[1:]:
            if " = " in line:
                key, value = line.split(" = ")
                if key == "ks_passed":
                    block.fields[key] = {"true": 1.0, "false": 0.0}[value]
                elif key != "columns":
                    block.fields[key] = float(value)
            elif line:
                rows.append([float(v) for v in line.split()])
        block.rows = np.array(rows, dtype=float).reshape(-1, 5)
        blocks.append(block)
    return blocks


def _band_metrics(centers, density, sigma_p) -> tuple[float, float]:
    inner = np.abs(centers) < 0.5 * sigma_p
    outer = (np.abs(centers) > 0.5 * sigma_p) & (np.abs(centers) < 1.5 * sigma_p)
    if not inner.any() or not outer.any():
        return math.nan, math.nan
    side = float(density[outer].mean())
    center = float(density[inner].mean())
    dip = center / side if side > 0.0 else (math.inf if center > 0.0 else math.nan)
    return dip, float(density[outer].max())


def expected_block(ens: Ensemble, phys: Physics, wl: Workload, t: float, observable: str) -> Block:
    """The block the program should write, recomputed from the samples."""
    values, n_excluded = slice_values(ens, phys, t, observable)
    bins = int(wl.config["bins"])
    if observable == "position":
        half = phys.x_half + 12.0 * phys.sigma + 4.0 * float(phys.spread(float(wl.config["t_final_ps"])))
        cdf = lambda v: phys.mass_coordinate(v, t)  # noqa: E731
    else:
        half = 6.0 * phys.sigma_p
        cdf = phys.momentum_cdf
    edges = np.linspace(-half, half, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    total = int(counts.sum())
    density = counts / (total * np.diff(edges)) if total else np.zeros(bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    oracle = phys.rho(centers, t) if observable == "position" else phys.momentum_density(centers)
    n = values.size
    stat = ks_statistic(values, cdf)
    critical = KS_C_001 / math.sqrt(n)
    block = Block(t, observable, ens.theory)
    block.fields = {
        "n_contributing": n,
        "n_excluded": n_excluded,
        "n_below_range": int(np.count_nonzero(values < -half)),
        "n_above_range": int(np.count_nonzero(values > half)),
        "ks_statistic": stat,
        "ks_critical": critical,
        "ks_alpha": 0.01,
        "ks_passed": float(stat < critical),
    }
    if observable == "momentum":
        dip, peak = _band_metrics(centers, density, phys.sigma_p)
        block.fields["central_dip_ratio"] = dip
        block.fields["side_band_peak"] = peak
    block.rows = np.column_stack([edges[:-1], edges[1:], counts, density, oracle])
    return block


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def block_errors(got: Block, want: Block) -> list[str]:
    where = f"{want.theory} {want.observable} t={want.time:g}"
    if (got.time, got.observable, got.theory) != (want.time, want.observable, want.theory):
        return [f"{where}: block header reads {got.theory} {got.observable} t={got.time:g}"]
    errors = []
    if set(got.fields) != set(want.fields):
        errors.append(f"{where}: fields {sorted(got.fields)} != {sorted(want.fields)}")
        return errors
    for key in ("n_contributing", "n_excluded", "n_below_range", "n_above_range"):
        if got.fields[key] != want.fields[key]:
            errors.append(f"{where}: {key} = {got.fields[key]:g}, recomputed {want.fields[key]:g}")
    if not _close(got.fields["ks_statistic"], want.fields["ks_statistic"], 0.0, KS_TOL):
        errors.append(f"{where}: ks_statistic {got.fields['ks_statistic']!r}, recomputed {want.fields['ks_statistic']!r}")
    for key, rel in (("ks_critical", 1e-9), ("ks_alpha", 0.0), ("central_dip_ratio", 1e-9), ("side_band_peak", 1e-9)):
        if key in want.fields and not _close(got.fields[key], want.fields[key], rel):
            errors.append(f"{where}: {key} {got.fields[key]!r}, recomputed {want.fields[key]!r}")
    passed = got.fields["ks_statistic"] < got.fields["ks_critical"]
    if got.fields["ks_passed"] != float(passed):
        errors.append(f"{where}: ks_passed disagrees with its own statistic and critical value")
    if got.rows.shape != want.rows.shape:
        errors.append(f"{where}: {got.rows.shape[0]} histogram rows, expected {want.rows.shape[0]}")
        return errors
    span = want.rows[-1, 1] - want.rows[0, 0]
    if np.any(np.abs(got.rows[:, :2] - want.rows[:, :2]) > 1e-9 * span):
        errors.append(f"{where}: bin edges differ")
    bad = np.flatnonzero(got.rows[:, 2] != want.rows[:, 2])
    if bad.size:
        i = int(bad[0])
        errors.append(f"{where}: {bad.size} bin counts differ, first bin {i}: {got.rows[i, 2]:g} vs {want.rows[i, 2]:g}")
    for col, name, rel in ((3, "density", 1e-9), (4, "oracle_density", 1e-8)):
        diff = np.abs(got.rows[:, col] - want.rows[:, col])
        if np.any(diff > rel * np.maximum(np.abs(got.rows[:, col]), np.abs(want.rows[:, col])) + 1e-300):
            errors.append(f"{where}: {name} column differs")
    return errors


def histogram_errors(blocks: list[Block], expected: list[Block]) -> list[str]:
    if len(blocks) != len(expected):
        return [f"{len(blocks)} histogram blocks, expected {len(expected)}"]
    return [e for got, want in zip(blocks, expected) for e in block_errors(got, want)]


def compare_errors(text: str, expected: dict[str, list[Block]], slice_times: list[float]) -> list[str]:
    """The compare table against the recomputed blocks of both theories."""
    lines = text.rstrip("\n").split("\n")
    ks_rows, dip_rows = [], []
    table = ks_rows
    for line in lines[1:]:
        if not line:
            table = dip_rows
        elif not line.startswith("time_ps"):
            table.append(line.split())
    errors = []
    index = {(b.theory, b.time, b.observable): b for blocks in expected.values() for b in blocks}
    want_keys = [(t, obs) for t in slice_times for obs in ("position", "momentum")]
    if [(float(r[0]), r[1]) for r in ks_rows] != want_keys:
        return ["compare.txt: KS table rows do not follow the slices"]
    for row in ks_rows:
        t, obs = float(row[0]), row[1]
        for theory, stat, flag in (("dbb", row[2], row[3]), ("revised", row[4], row[5])):
            want = index[(theory, t, obs)].fields
            if not _close(float(stat), want["ks_statistic"], 0.0, KS_TOL):
                errors.append(f"compare.txt: {theory} {obs} t={t:g} KS {stat}, recomputed {want['ks_statistic']!r}")
            if flag != ("true" if float(stat) < want["ks_critical"] else "false"):
                errors.append(f"compare.txt: {theory} {obs} t={t:g} passed flag {flag}")
    if [float(r[0]) for r in dip_rows] != slice_times:
        return errors + ["compare.txt: dip table rows do not follow the slices"]
    for row in dip_rows:
        t = float(row[0])
        dbb = index[("dbb", t, "momentum")].fields
        rev = index[("revised", t, "momentum")].fields
        for value, want in zip(row[1:], (dbb["central_dip_ratio"], rev["central_dip_ratio"],
                                          dbb["side_band_peak"], rev["side_band_peak"])):
            if not _close(float(value), want, 1e-9):
                errors.append(f"compare.txt: t={t:g} band metric {value}, recomputed {want!r}")
    return errors


# ---------------------------------------------------------------------------
# manifest and determinism


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_errors(text: str, files: dict[str, bytes], ens: Ensemble, wl: Workload, seed: int) -> list[str]:
    """Digests against hashlib, status counts against the CSV, config echo."""
    errors = []
    digests, counts, echo = {}, {}, {}
    for line in text.split("\n"):
        if line.startswith("# file "):
            name, _, digest = line[len("# file "):].partition(" sha256 = ")
            digests[name] = digest
        elif line.startswith("# status "):
            status, _, count = line[len("# status "):].partition(" = ")
            counts[status] = int(count)
        elif line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            echo[key] = value
    if set(digests) != set(files):
        errors.append(f"manifest lists {sorted(digests)}, expected {sorted(files)}")
    for name, data in files.items():
        if digests.get(name) != sha256_hex(data):
            errors.append(f"manifest sha256 of {name} does not match the file")
    statuses, n = np.unique(ens.status, return_counts=True)
    if counts != {str(s): int(c) for s, c in zip(statuses, n)}:
        errors.append(f"manifest status counts {counts} do not match the CSV")
    want = dict(wl.config, theory=ens.theory, n_traj=str(wl.n_traj), seed=str(wl.program_seed(seed)))
    for key, value in want.items():
        if echo.get(key) != value:
            errors.append(f"manifest echoes {key} = {echo.get(key)!r}, expected {value!r}")
    return errors


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file; manifests without their two timestamp lines."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.startswith("manifest"):
            lines = data.split(b"\n")
            data = b"\n".join(line for line in lines if not line.startswith((b"# started_utc", b"# finished_utc")))
        digests[path.name] = sha256_hex(data)
    return digests


def determinism_errors(reference: dict[str, str], other: dict[str, str], round_no: int) -> list[str]:
    if reference == other:
        return []
    differ = sorted(k for k in set(reference) | set(other) if reference.get(k) != other.get(k))
    return [f"round {round_no} wrote different bytes than round 1 in {differ}"]


# ---------------------------------------------------------------------------
# everything for one round's outputs


def file_names(wl: Workload, theory: str) -> tuple[str, str, str]:
    suffix = f"-{theory}" if wl.command == "compare" else ""
    return f"trajectories{suffix}.csv", f"histograms{suffix}.txt", f"manifest{suffix}.txt"


@dataclass
class Outputs:
    """One round's files, read back."""

    ensembles: dict[str, Ensemble]
    histograms: dict[str, list[Block]]
    manifests: dict[str, str]
    files: dict[str, dict[str, bytes]]
    compare: str | None


def load_outputs(out_dir: Path, wl: Workload) -> Outputs:
    ensembles, histograms, manifests, files = {}, {}, {}, {}
    for theory in wl.theories:
        traj_name, hist_name, manifest_name = file_names(wl, theory)
        ensembles[theory] = read_trajectories(out_dir / traj_name, theory)
        hist_bytes = (out_dir / hist_name).read_bytes()
        histograms[theory] = parse_histograms(hist_bytes.decode("ascii"))
        manifests[theory] = (out_dir / manifest_name).read_text(encoding="ascii")
        files[theory] = {traj_name: (out_dir / traj_name).read_bytes(), hist_name: hist_bytes}
    compare = (out_dir / "compare.txt").read_text(encoding="ascii") if wl.command == "compare" else None
    return Outputs(ensembles, histograms, manifests, files, compare)


@dataclass
class Verdict:
    errors: list[str]
    failures: dict[str, int]
    notes: dict
    expected: dict[str, list[Block]]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def check_outputs(out: Outputs, wl: Workload, phys: Physics, seed: int) -> Verdict:
    errors: list[str] = []
    failures: dict[str, int] = {}
    notes: dict = {}
    expected: dict[str, list[Block]] = {}
    for theory, ens in out.ensembles.items():
        structure = structure_errors(ens, wl)
        errors += structure
        if structure:
            continue
        residual = np.abs(mass_coordinate_residuals(ens, phys))
        notes[f"{theory}.worst_mass_coordinate_error"] = float(f"{residual.max():.3e}")
        errors += mass_coordinate_errors(ens, phys, wl.sample_tol)
        for kind, count in outcome_failures(ens, phys, wl).items():
            failures[f"{theory}.{kind}"] = count
        errors += initial_draw_errors(ens, phys, notes)
        expected[theory] = [
            expected_block(ens, phys, wl, t, obs) for t in wl.slice_times for obs in ("position", "momentum")
        ]
        errors += histogram_errors(out.histograms[theory], expected[theory])
        errors += manifest_errors(out.manifests[theory], out.files[theory], ens, wl, seed)
    if out.compare is not None and len(expected) == 2:
        errors += compare_errors(out.compare, expected, wl.slice_times)
    return Verdict(errors, failures, notes, expected)


def controls(out: Outputs, verdict: Verdict, wl: Workload, phys: Physics, seed: int) -> list[str]:
    """Corrupt one artefact per check and return the corruptions a check missed."""
    missed = []
    theory = wl.theories[-1]
    ens = out.ensembles[theory]
    completed = np.flatnonzero(ens.status == "completed")

    # 1e-3 nm on the densest recorded sample after t0, in its own trajectory
    density = np.where(ens.first, 0.0, phys.rho(ens.x, ens.t))
    densest = int(np.argmax(density))
    moved = ens.subset([ens.traj[densest]])
    moved.x[densest - ens.starts[ens.traj[densest]]] += 1e-3
    if not mass_coordinate_errors(moved, phys, wl.sample_tol):
        missed.append("mass coordinate: a 1e-3 nm move of one sample passed")

    flipped = ens.subset(completed[:8])
    before = sum(outcome_failures(flipped, phys, wl).values())
    flipped.row_status[flipped.starts[0] : flipped.ends[0]] = "node_stalled"
    if sum(outcome_failures(flipped, phys, wl).values()) != before + 1:
        missed.append("outcomes: a completed trajectory relabelled node_stalled was not counted")

    shifted = ens.subset(np.arange(ens.n))
    shifted.x[shifted.first] += phys.sigma
    if not initial_draw_errors(shifted, phys, {}):
        missed.append("initial draws: x0 shifted by sigma passed the KS gate")

    want = verdict.expected[theory][-1]
    for corrupt in ("count", "ks"):
        got = out.histograms[theory][-1]
        bad = Block(got.time, got.observable, got.theory, dict(got.fields), got.rows.copy())
        if corrupt == "count":
            bad.rows[int(np.argmax(bad.rows[:, 2])), 2] -= 1
        else:
            bad.fields["ks_statistic"] += 1e-4
        if not block_errors(bad, want):
            missed.append(f"histograms: a changed {corrupt} passed")

    files = dict(out.files[theory])
    name = next(iter(files))
    data = bytearray(files[name])
    data[len(data) // 2] ^= 0x01
    files[name] = bytes(data)
    if not manifest_errors(out.manifests[theory], files, ens, wl, seed):
        missed.append(f"manifest: one flipped byte of {name} passed")

    if out.compare is not None:
        lines = out.compare.split("\n")
        cells = lines[1].split()
        cells[2] = repr(float(cells[2]) + 1e-4)
        lines[1] = " ".join(cells)
        if not compare_errors("\n".join(lines), verdict.expected, wl.slice_times):
            missed.append("compare.txt: a changed KS statistic passed")

    digests = {"a": "0" * 64, "b": "1" * 64}
    if not determinism_errors(digests, dict(digests, b="2" * 64), 2):
        missed.append("determinism: a changed digest passed")
    return missed
