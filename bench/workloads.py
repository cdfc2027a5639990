"""The benchmark's workloads: one ``qtraj`` command line each, with its config.

Every workload writes its full physics and schedule into its own config
file, so a change of the program's defaults does not silently change what
is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from oracle import Physics

#: Config keys every workload pins (the rest come from flags).
_PAPER_CONFIG = {
    "x_half_nm": "50",
    "sigma_nm": "10",
    "mass_me": "1",
    "t0_ps": "0",
    "t_final_ps": "5",
    "dt_ps": "0.005",
    "slices_ps": "0, 3.5, 5",
    "bins": "200",
}

#: 0.3, 0.7, ..., 4.7 ps: off the 0.125 ps record grid except 3.5.
_COARSE_SLICES = ", ".join(["0"] + [f"{0.3 + 0.4 * i:.1f}" for i in range(12)] + ["5"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "compare"
    theories: tuple[str, ...]
    n_traj: int  # per theory
    workers: int
    config: dict[str, str] = field(default_factory=dict)
    #: The program's seed when it must not follow ``--seed``: these workloads
    #: keep the revised-stall fault, whose inputs must be the same in every run.
    fixed_seed: int | None = None
    #: Largest |F_t(x) - closed form| accepted on a recorded sample.
    sample_tol: float = 1e-6

    def program_seed(self, seed: int) -> int:
        return self.fixed_seed if self.fixed_seed is not None else seed

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def overrides(self, seed: int, out_dir: str) -> dict[str, str]:
        """The config keys the command line sets, as ``qtraj.cli.parse_config`` takes them."""
        keys = {"n_traj": str(self.n_traj), "seed": str(self.program_seed(seed)), "out_dir": out_dir}
        if self.command == "run":
            keys["theory"] = self.theories[0]
        return keys

    def argv(self, seed: int, config_path: str, out_dir: str) -> list[str]:
        flags = {"n_traj": "--n", "seed": "--seed", "out_dir": "--out", "theory": "--theory"}
        argv = [self.command, "--config", config_path]
        for key, value in self.overrides(seed, out_dir).items():
            argv += [flags[key], value]
        return argv + ["--workers", str(self.workers)]

    def physics(self) -> Physics:
        return Physics(float(self.config["x_half_nm"]), float(self.config["sigma_nm"]), float(self.config["mass_me"]))

    @property
    def slice_times(self) -> list[float]:
        return [float(part) for part in self.config["slices_ps"].split(",")]

    @property
    def trajectories_per_round(self) -> int:
        return self.n_traj * len(self.theories)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-paper",
            why="qtraj compare on the paper's physics, 512 per theory, 1 worker: integration and the field kernel dominate",
            command="compare",
            theories=("dbb", "revised"),
            n_traj=512,
            workers=1,
            config=dict(_PAPER_CONFIG),
            fixed_seed=1,
        ),
        Workload(
            name="run-dbb-coarse",
            why="dbb at dt 0.125 ps, 8192 trajectories, 14 slices, 1 worker: sampling, CSV writing and slicing dominate",
            command="run",
            theories=("dbb",),
            n_traj=8192,
            workers=1,
            config={**_PAPER_CONFIG, "dt_ps": "0.125", "slices_ps": _COARSE_SLICES},
            sample_tol=1e-5,
        ),
        Workload(
            name="run-revised-pool",
            why="revised at dt 0.0125 ps, 4096 trajectories in 2 batches on 2 worker threads: the only path through the pool",
            command="run",
            theories=("revised",),
            n_traj=4096,
            workers=2,
            config={**_PAPER_CONFIG, "dt_ps": "0.0125"},
            fixed_seed=1,
            sample_tol=1e-5,
        ),
    )
}
