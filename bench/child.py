"""One round of a workload in a fresh interpreter.

Usage (from ``run.py``): ``python3 bench/child.py SPEC.json``.  The spec
names the source tree, the workload's config file and ``qtraj`` argv, and
where to write the result.  The round times the import of ``qtraj.cli``
plus the parse of the config (set-up), then ``cli.main(argv)`` untraced or,
with ``trace``, with spans around each layer's public functions followed
by the wavefield and dynamics probes.  With ``setup_only`` it stops after
set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

PROBE_POINTS = 2048
PROBE_REPEATS = 15
PROBE_LANES = 256


def _install_spans(tracer, cli, ensemble, results):
    n_of = lambda args, kwargs, result: {"n": len(result), "theory": result[0].theory}  # noqa: E731

    def batch(args, kwargs, result):
        return {"n": len(args[0]), "theory": args[0][0].theory,
                "stalled": sum(traj.status == "node_stalled" for traj in result)}

    def ensemble_run(args, kwargs, result):
        results.append(result)
        return {"n": len(result.trajectories)}

    written = lambda args, kwargs, result: {"bytes": os.path.getsize(result)}  # noqa: E731
    tracer.wrap(ensemble, "make_initial_conditions", "sampling", n_of)
    tracer.wrap(ensemble, "integrate_batch", "dynamics", batch)
    tracer.wrap(cli, "run_ensemble", "ensemble.run", ensemble_run)
    tracer.wrap(cli, "slice_values", "ensemble.slice")
    tracer.wrap(cli, "position_cdf", "ensemble.cdf")
    tracer.wrap(cli, "momentum_cdf", "ensemble.cdf")
    tracer.wrap(cli, "ks_test", "ensemble.ks")
    tracer.wrap(cli, "build_histogram", "ensemble.hist")
    tracer.wrap(cli, "write_trajectories", "cli.csv", written)
    tracer.wrap(cli, "write_histograms", "cli.hist_write", written)
    tracer.wrap(cli, "cmd_run", "cli.cmd")
    tracer.wrap(cli, "cmd_compare", "cli.cmd")


def _median_call(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _probes(results, seed: int, theories_run: set[str]) -> dict:
    """Field kernels on recorded samples; dynamics of a theory the run skipped."""
    import numpy as np
    from qtraj.dynamics import integrate_batch
    from qtraj.sampling import InitialCondition, SeededStream, make_initial_conditions
    from qtraj.wavefield import p_bb, p_revised, rho

    params = results[0].params
    trajs = [traj for result in results for traj in result.trajectories]
    lengths = np.array([traj.t.size for traj in trajs])
    rng = np.random.default_rng(seed)
    picks = rng.choice(int(lengths.sum()), size=PROBE_POINTS, replace=False)
    owner = np.searchsorted(np.cumsum(lengths), picks, side="right")
    offset = picks - (np.cumsum(lengths) - lengths)[owner]
    x = np.array([trajs[i].x[k] for i, k in zip(owner, offset)])
    t = np.array([trajs[i].t[k] for i, k in zip(owner, offset)])
    t0 = trajs[0].ic.t0
    anchors = InitialCondition(x0=np.array([trajs[i].ic.x0 for i in owner]),
                               p0=np.array([trajs[i].ic.p0 for i in owner]), t0=t0, theory="revised")
    ns = 1e9 / PROBE_POINTS
    probes = {
        "wavefield.rho_ns_per_pt": ns * _median_call(lambda: rho(x, t, params), PROBE_REPEATS),
        "wavefield.p_bb_ns_per_pt": ns * _median_call(lambda: p_bb(x, t, params), PROBE_REPEATS),
        "wavefield.p_revised_ns_per_pt": ns * _median_call(lambda: p_revised(x, t, anchors, params), PROBE_REPEATS),
    }
    schedule = results[0].config.schedule
    for theory in ("dbb", "revised"):
        if theory in theories_run:
            continue
        ics = make_initial_conditions(PROBE_LANES, SeededStream(seed, 0), params, t0, theory)
        t_start = time.perf_counter()
        integrate_batch(ics, schedule, params)
        probes[f"dynamics.ms_per_traj.{theory}"] = 1e3 * (time.perf_counter() - t_start) / PROBE_LANES
    return probes


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t_start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import qtraj.cli as cli

    t_import = time.perf_counter()
    cli.parse_config(spec["config"], spec["overrides"])
    t_setup = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"qtraj was imported from {cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 3
    result = {"import_s": t_import - t_start, "setup_s": t_setup - t_start}
    if not spec["setup_only"]:
        tracer = results = None
        if spec["trace"]:
            import qtraj.ensemble as ensemble
            from spans import Tracer

            tracer, results = Tracer(), []
            _install_spans(tracer, cli, ensemble, results)
        with open(os.devnull, "w", encoding="ascii") as sink, redirect_stdout(sink):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            rc = cli.main(spec["argv"])
            wall1, cpu1 = time.perf_counter(), time.process_time()
        result.update(rc=rc, wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0,
                      rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["spans"] = tracer.spans
            theories = {span["theory"] for span in tracer.spans if span["name"] == "dynamics"}
            result["probes"] = _probes(results, spec["probe_seed"], theories)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
