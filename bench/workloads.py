"""Benchmark workloads: README commands with inputs generated from a seed.

Seed 0 gives the README command itself (the sweep grids unshifted, the
sphere exported at delta = 1). Any other seed shifts each sweep grid by a
fraction of one step in [-1/2, 1/2), which keeps the point count and keeps
every bracket the grid was chosen for, and draws the sphere parameter from
[0.95, 1.05). The CLI only ever sees the generated argv.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    model_args: tuple
    start: float
    stop: float
    step: float

    def points(self):
        """Grid size, by the CLI's own rule for a sweep grid."""
        return int((self.stop - self.start) / self.step + 1e-9) + 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "phaseline" or "sphere"
    sweep: Sweep | None = None
    sphere_args: tuple = ()
    labels: tuple = ()  # label names as the CLI writes them


CANONICAL_6 = ("1", "12", "13", "14", "123", "124", "135", "1234", "1235", "1245",
               "12345", "tot")
SPHERE_DELTA = 1.0  # the README sphere export; other seeds draw from [0.95, 1.05)

# Why each workload is here is in README.md: many small parity-blocked
# problems (xy), few large dense ones (ti at n = 10), a solver bypass (sphere)
# and the only total-S_z / degenerate-ground-space sweep (xxz, aligned-up).
WORKLOADS = {w.name: w for w in (
    Workload("phaseline-xy-n6", "phaseline",
             sweep=Sweep(("--model", "xy", "--gamma", "0.5"), 0.0, 2.0, 0.005),
             labels=CANONICAL_6),
    Workload("phaseline-ti-n10", "phaseline",
             sweep=Sweep(("--model", "ti", "--n", "10"), 0.95, 1.05, 0.1),
             labels=("1", "12", "tot")),
    Workload("sphere-xxz-n6", "sphere",
             sphere_args=("--model", "xxz", "--labels", "12,135,tot"),
             labels=("12", "135", "tot")),
    Workload("phaseline-xxz-aligned", "phaseline",
             sweep=Sweep(("--model", "xxz", "--policy", "aligned-up"), -2.0, 10.0, 0.05),
             labels=CANONICAL_6),
)}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs: everything but the output directory."""

    workload: Workload
    seed: int
    args: tuple
    params: tuple  # sweep grid, or the single sphere parameter

    def argv(self, outdir):
        return [*self.args, "--out", outdir]


def make_inputs(workload, seed):
    rng = random.Random(seed)
    if workload.command == "sphere":
        delta = SPHERE_DELTA if seed == 0 else 0.95 + 0.1 * rng.random()
        args = ("sphere", *workload.sphere_args, "--param-value", repr(delta))
        return Inputs(workload, seed, args, (delta,))
    sw = workload.sweep
    shift = 0.0 if seed == 0 else (rng.random() - 0.5) * sw.step
    start, stop = sw.start + shift, sw.stop + shift
    args = ("phaseline", *sw.model_args, "--param-start", repr(start),
            "--param-stop", repr(stop), "--param-step", repr(sw.step))
    params = tuple(start + k * sw.step for k in range(sw.points()))
    return Inputs(workload, seed, args, params)
