"""Benchmark of the ``qtraj`` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs one workload's
``qtraj`` command through ``cli.main`` in a fresh interpreter
(``bench/child.py``).  An untimed warm-up round comes first; timed rounds
then repeat until ``--seconds`` have passed.  Every round must write the
same bytes as the warm-up round, whose files are checked against the closed-form oracle in ``bench/oracle.py``, with a
negative control for each check.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` trajectories, and the
metrics -- end to end with ``--trace 0``, per layer with ``--trace 1``.
Progress and check details go to standard error.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracle
from spans import self_time
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
#: Set-up-only interpreters per run, besides the set-up every timed round measures.
SETUP_PROBES = 2


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Rounds:
    """Runs rounds of one workload inside a private work directory."""

    def __init__(self, root: Path, work: Path, wl: Workload, seed: int):
        self.root, self.work, self.wl, self.seed = root, work, wl, seed
        self.config = work / "workload.cfg"
        self.config.write_text(wl.config_text(), encoding="ascii")
        self.out = work / "out"
        self.reference = work / "reference"
        self.reference_digests: dict[str, str] | None = None
        self.count = 0
        self.errors: list[str] = []

    def child(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {"src": str(self.root / "src"), "config": str(self.config),
                "overrides": self.wl.overrides(self.seed, str(self.out)),
                "argv": self.wl.argv(self.seed, str(self.config), str(self.out)), "result": str(result_path),
                "trace": trace, "setup_only": setup_only, "probe_seed": self.seed}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                              cwd=self.root, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"round process exited with {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def round(self, trace: bool) -> dict:
        if self.out.exists():
            shutil.rmtree(self.out)
        result = self.child(trace=trace)
        self.count += 1
        if result["rc"] != 0:
            raise RuntimeError(f"qtraj {' '.join(self.wl.argv(self.seed, 'CFG', 'OUT'))} returned {result['rc']}")
        digests = checks.output_digests(self.out)
        if self.reference_digests is None:
            self.reference_digests = digests
            self.out.rename(self.reference)
        else:
            self.errors += checks.determinism_errors(self.reference_digests, digests, self.count)
            shutil.rmtree(self.out)
        return result


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(wl: Workload, timed: list[dict], setups: list[float]) -> dict:
    per_round = wl.trajectories_per_round
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": median(r["wall_s"] for r in timed), "unit": "s"},
        "cpu_s": {"value": median(r["cpu_s"] for r in timed), "unit": "s"},
        "traj_per_s": {"value": median(per_round / r["wall_s"] for r in timed), "unit": "1/s"},
        "peak_rss_mb": {"value": median(r["rss_mb"] for r in timed), "unit": "MB"},
    }


def layer_metrics(traced: dict) -> dict:
    """Per-layer numbers of one traced round, from its spans and probes."""
    spans = traced["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    out = {}
    sampling = named("sampling")
    out["sampling.s"] = total("sampling")
    out["sampling.us_per_traj"] = 1e6 * out["sampling.s"] / sum(s["n"] for s in sampling)
    batches = named("dynamics")
    out["dynamics.s"] = total("dynamics")
    for theory in ("dbb", "revised"):
        mine = [s for s in batches if s["theory"] == theory]
        if mine:
            out[f"dynamics.ms_per_traj.{theory}"] = 1e3 * sum(s["end"] - s["start"] for s in mine) / sum(
                s["n"] for s in mine)
    out["dynamics.batch_max_s"] = max(s["end"] - s["start"] for s in batches)
    out["dynamics.stalled"] = sum(s["stalled"] for s in batches)
    out.update(traced["probes"])
    pool_wall = pool_cpu = 0.0
    for run in named("ensemble.run"):
        child = next(s for s in sampling if s["parent"] == run["id"])
        pool_wall += run["end"] - child["end"]
        pool_cpu += run["cpu_end"] - child["cpu_end"]
    out["ensemble.pool_wall_s"] = pool_wall
    out["ensemble.pool_cpu_s"] = pool_cpu
    out["ensemble.slice_s"] = total("ensemble.slice")
    out["ensemble.cdf_s"] = total("ensemble.cdf")
    out["ensemble.cdf_calls"] = len(named("ensemble.cdf"))
    out["ensemble.ks_s"] = total("ensemble.ks")
    out["ensemble.hist_s"] = total("ensemble.hist")
    out["cli.csv_s"] = total("cli.csv")
    out["cli.csv_mb_per_s"] = sum(s["bytes"] for s in named("cli.csv")) / 1e6 / out["cli.csv_s"]
    out["cli.hist_write_s"] = total("cli.hist_write")
    out["cli.self_s"] = sum(self_time(s, spans) for s in named("cli.cmd"))
    return out


LAYER_UNITS = {
    "setup.import_s": "s", "sampling.s": "s", "sampling.us_per_traj": "us",
    "dynamics.s": "s", "dynamics.ms_per_traj.dbb": "ms", "dynamics.ms_per_traj.revised": "ms",
    "dynamics.batch_max_s": "s", "dynamics.stalled": "count",
    "wavefield.rho_ns_per_pt": "ns", "wavefield.p_bb_ns_per_pt": "ns", "wavefield.p_revised_ns_per_pt": "ns",
    "ensemble.pool_wall_s": "s", "ensemble.pool_cpu_s": "s",
    "ensemble.slice_s": "s", "ensemble.cdf_s": "s", "ensemble.cdf_calls": "count", "ensemble.ks_s": "s",
    "ensemble.hist_s": "s",
    "cli.csv_s": "s", "cli.csv_mb_per_s": "MB/s", "cli.hist_write_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(timed: list[dict], traced: list[dict], imports: list[float]) -> dict:
    rounds = [layer_metrics(r) for r in traced]
    values = {name: median(r[name] for r in rounds) for name in rounds[0]}
    for name, unit in LAYER_UNITS.items():
        if unit == "count":
            values[name] = int(values[name])
    values["setup.import_s"] = median(imports)
    values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in timed)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def measure(rounds: Rounds, seconds: int, trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """A warm-up round, then whole rounds until ``seconds`` pass.

    The warm-up round writes the files the checks read; it is not timed.
    With ``trace`` every other timed round is traced.
    """
    rounds.round(False)
    log("round 1 (warm-up) done")
    timed, traced = [], []
    start = time.perf_counter()
    while True:
        is_traced = trace and len(timed) > len(traced)
        result = rounds.round(is_traced)
        (traced if is_traced else timed).append(result)
        log(f"round {rounds.count} {'traced' if is_traced else 'untraced'}: wall {result['wall_s']:.3f} s, "
            f"cpu {result['cpu_s']:.3f} s, set-up {result['setup_s']:.3f} s, rss {result['rss_mb']:.1f} MB")
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    probes = [rounds.child(setup_only=True) for _ in range(SETUP_PROBES)]
    return timed, traced, probes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtraj" / "cli.py").is_file():
        log(f"no qtraj sources under {root / 'src'}; run from the root of a qtraj checkout")
        return 2
    wl = WORKLOADS[args.workload]
    phys = wl.physics()
    errors = [f"oracle: {e}" for e in oracle.self_check(phys)]
    work = root / ".qbench" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rounds = Rounds(root, work, wl, args.seed)
        timed, traced, probes = measure(rounds, args.seconds, bool(args.trace))
        errors += rounds.errors
        try:
            outputs = checks.load_outputs(rounds.reference, wl)
            verdict = checks.check_outputs(outputs, wl, phys, args.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable output files
            verdict = checks.Verdict([f"reading the outputs: {exc!r}"], {}, {}, {})
        errors += verdict.errors
        if not verdict.errors:  # the controls corrupt outputs that passed every check
            errors += [f"control not caught: {m}" for m in checks.controls(outputs, verdict, wl, phys, args.seed)]
        setups = [r["setup_s"] for r in timed + traced + probes]
        imports = [r["import_s"] for r in timed + traced + probes]
        if args.trace:
            metrics = per_layer(timed, traced, imports)
            trace_dir = root / ".qbench" / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_file = trace_dir / f"{wl.name}-s{args.seed}-{os.getpid()}.json"
            trace_file.write_text(json.dumps([r["spans"] for r in traced]), encoding="utf-8")
        else:
            metrics = end_to_end(wl, timed, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_rounds = rounds.count
    log(f"checks: {json.dumps(verdict.notes)}")
    log(f"outcomes disagreeing with the closed form, per round: {json.dumps(verdict.failures)}")
    for error in errors:
        log(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": n_rounds * wl.trajectories_per_round,
        "failed": n_rounds * verdict.failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
