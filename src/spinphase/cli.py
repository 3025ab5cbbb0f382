"""Command-line front end: phase-line sweeps, sphere fields, animation frames,
analytic formula tables and the acceptance-check runner.

All data files are CSV with a header row; floats are serialized with 17
significant digits so reruns with the same configuration are byte-identical.
Every run writes a manifest.json with the resolved configuration and sha256
checksums of the emitted files (written last, atomically)."""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

from . import __version__
from .errors import ConfigError, NumericalError, SpinPhaseError
from .models import (ModelSpec, ground_state, ti_classical_energy, ti_classical_mx,
                     ti_classical_mz, ti_thermo_energy, ti_thermo_mx, ti_thermo_mz,
                     xy_factorization_angle, xy_factorization_point)
from .qcore import label_name, parse_label, validate_labels
from .analysis import (SweepConfig, canonical_labels, find_derivative_extrema,
                       find_sector_crossings, first_derivative, grid_values, ground_states,
                       sweep)
from .wigner import SphereGrid, sphere_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def fmt(x):
    """17-significant-digit decimal form; round-trips double precision."""
    return f"{float(x):.17g}"


def _atomic_write(path, data: bytes):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path, payload):
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir, config, files, critical_points=None, started=None):
    manifest = {
        "tool": "spinphase",
        "version": __version__,
        "config": config,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "files": {os.path.basename(p): _sha256(p) for p in files},
    }
    if critical_points is not None:
        manifest["critical_points"] = critical_points
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def _utcnow():
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# configuration handling


_MODEL = ("phaseline", "sphere", "animate")
_SWEEP = ("phaseline", "animate", "formulas")

# Every option once: key (the long flag without its dashes, and the config
# file key) -> (default, subcommands that read it, argparse keywords). Each
# subcommand offers only the flags it reads; a config file may set any key, so
# that one file can serve every subcommand.
OPTIONS = {
    "model": (None, _MODEL + ("formulas",), {"choices": ("ti", "xy", "xxz"),
                                             "help": "chain family"}),
    "n": (6, _MODEL, {"type": int, "help": "number of sites"}),
    "h": (1.0, _MODEL, {"type": float, "help": "transverse field strength"}),
    "gamma": (1.0, _MODEL, {"type": float, "help": "xy anisotropy"}),
    "j": (1.0, _MODEL, {"type": float, "help": "xxz coupling strength"}),
    "param-start": (None, _SWEEP, {"type": float, "help": "sweep start value"}),
    "param-stop": (None, _SWEEP, {"type": float, "help": "sweep stop value"}),
    "param-step": (0.01, _SWEEP, {"type": float, "help": "sweep step"}),
    "param-value": (None, ("sphere",), {"type": float,
                                        "help": "parameter value (lambda or delta)"}),
    "values": (None, ("formulas",), {"help": "comma list of parameter values"}),
    "labels": (None, _MODEL, {"help": "comma list of site subsets, e.g. 1,12,135,tot"}),
    "policy": ("symmetric", _MODEL, {"choices": ("symmetric", "mixture", "aligned-up"),
                                     "help": "degenerate ground-space policy"}),
    "phase-theta": (0.0, ("phaseline",), {"type": float, "help": "phase point theta"}),
    "phase-phi": (0.0, ("phaseline",), {"type": float, "help": "phase point phi"}),
    "grid-theta": (181, ("sphere", "animate"), {"type": int,
                                                "help": "sphere grid theta samples"}),
    "grid-phi": (360, ("sphere", "animate"), {"type": int, "help": "sphere grid phi samples"}),
    "out": (".", _MODEL + ("formulas",), {"help": "output directory"}),
    "seed": (0, ("verify",), {"type": int, "help": "random seed for verification draws"}),
}

DEFAULTS = {key: default for key, (default, _, _) in OPTIONS.items()}


def read_config_file(path):
    """Flat `key = value` file; keys match the long flag names without dashes.
    Values are converted to the option's type."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("_", "-")
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = OPTIONS[key][2].get("type", str)(value)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def resolve_config(args):
    """Merge precedence: command line > config file > defaults."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(read_config_file(args.config))
    for key in OPTIONS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    cfg["policy"] = cfg["policy"].replace("-", "_")
    cfg["subcommand"] = args.subcommand
    return cfg


def _model_spec(cfg, param_value=None):
    family = cfg["model"]
    if family is None:
        raise ConfigError("--model is required")
    spec = ModelSpec(family=family, n=cfg["n"], h=cfg["h"], gamma=cfg["gamma"], j=cfg["j"])
    if param_value is not None:
        spec = spec.with_param(param_value)
    return spec


def _labels(cfg, n):
    if cfg["labels"] is None:
        return canonical_labels(n)
    # a malformed label raises ValueError, which `main` reports as a config error
    labels = [parse_label(tok, n) for tok in cfg["labels"].split(",") if tok.strip()]
    if not labels:
        raise ConfigError(f"--labels lists no label: {cfg['labels']!r}")
    return validate_labels(labels, n)


def _sweep_config(cfg):
    if cfg["param-start"] is None or cfg["param-stop"] is None:
        raise ConfigError("--param-start and --param-stop are required for this command")
    return SweepConfig(spec=_model_spec(cfg), start=cfg["param-start"], stop=cfg["param-stop"],
                       step=cfg["param-step"], labels=_labels(cfg, cfg["n"]),
                       policy=cfg["policy"], theta=cfg["phase-theta"], phi=cfg["phase-phi"])


def _ensure_outdir(cfg):
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    if not os.access(outdir, os.W_OK):
        raise ConfigError(f"output directory {outdir} is not writable")
    return outdir


def _critical_point_payload(points):
    return [{"kind": p.kind, "location": p.location, "magnitude": p.magnitude,
             "label": p.label, "detail": p.detail} for p in points]


def _parity_cell(value):
    return "" if math.isnan(value) else str(int(value))


PHASELINE_PLOT_STUB = '''\
#!/usr/bin/env python3
"""Render phaseline.csv produced alongside this script.

Columns:
  param      -- swept coupling (lambda for ti/xy, delta for xxz)
  label      -- correlation subset ("1", "12", ..., "tot")
  value      -- equal-angle Wigner value of the reduced state at the phase point
  energy     -- ground-state energy at this parameter
  degeneracy -- ground-space dimension within the degeneracy tolerance
  parity     -- spin-parity quantum number (+1/-1, empty when indefinite)
  gap        -- energy gap between the two lowest levels

derivative.csv carries the same layout with `dvalue`, the finite-difference
first derivative of `value` with respect to `param`.
"""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(lambda: ([], []))
with open("phaseline.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        xs, ys = series[row["label"]]
        xs.append(float(row["param"]))
        ys.append(float(row["value"]))

for label, (xs, ys) in sorted(series.items(), key=lambda kv: (len(kv[0]), kv[0])):
    plt.plot(xs, ys, label=label)
plt.xlabel("sweep parameter")
plt.ylabel("equal-angle Wigner value")
plt.legend(fontsize=7, ncol=2)
plt.tight_layout()
plt.savefig("phaseline.png", dpi=200)
'''

SPHERE_PLOT_STUB = '''\
#!/usr/bin/env python3
"""Render the sphere_<label>.csv files produced alongside this script.

Columns (theta-major ordering):
  theta -- polar angle in [0, pi], inclusive endpoints
  phi   -- azimuthal angle in [0, 2*pi), exclusive endpoint
  value -- equal-angle Wigner value of the reduced state at (theta, phi)

Values are raw (not clipped or normalized); aligned product states exceed 1.
"""
import csv
import glob

import matplotlib.pyplot as plt
import numpy as np

for path in sorted(glob.glob("sphere_*.csv")):
    thetas, phis, values = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            thetas.append(float(row["theta"]))
            phis.append(float(row["phi"]))
            values.append(float(row["value"]))
    n_theta = len(sorted(set(thetas)))
    n_phi = len(values) // n_theta
    grid = np.array(values).reshape(n_theta, n_phi)
    plt.figure()
    plt.imshow(grid, extent=(0, 2 * np.pi, np.pi, 0), aspect="auto", cmap="RdBu_r")
    plt.colorbar(label="equal-angle Wigner value")
    plt.xlabel("phi")
    plt.ylabel("theta")
    plt.title(path)
    plt.savefig(path.replace(".csv", ".png"), dpi=150)
    plt.close()
'''


def _write_plot_stub(outdir, name, stub):
    path = os.path.join(outdir, name)
    _atomic_write(path, stub.encode("utf-8"))
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_phaseline(cfg):
    started = _utcnow()
    outdir = _ensure_outdir(cfg)
    sweep_cfg = _sweep_config(cfg)
    line = sweep(sweep_cfg)
    n = sweep_cfg.spec.n

    rows = []
    for i, p in enumerate(line.params):
        for sites in sweep_cfg.labels:
            rows.append((fmt(p), label_name(sites, n), fmt(line.values[sites][i]),
                         fmt(line.energy[i]), str(int(line.degeneracy[i])),
                         _parity_cell(line.parity[i]), fmt(line.gap[i])))
    phaseline_path = os.path.join(outdir, "phaseline.csv")
    write_csv(phaseline_path, ("param", "label", "value", "energy", "degeneracy",
                               "parity", "gap"), rows)

    rows = []
    derivatives = {sites: first_derivative(line, sites) for sites in sweep_cfg.labels}
    for i, p in enumerate(line.params):
        for sites in sweep_cfg.labels:
            rows.append((fmt(p), label_name(sites, n), fmt(derivatives[sites][i])))
    derivative_path = os.path.join(outdir, "derivative.csv")
    write_csv(derivative_path, ("param", "label", "dvalue"), rows)

    points = []
    if len(line.params) >= 5:  # extremum refinement needs interior points
        for sites in sweep_cfg.labels:
            points.extend(find_derivative_extrema(line, sites))
    points.extend(find_sector_crossings(line))
    payload = _critical_point_payload(points)
    critical_path = os.path.join(outdir, "criticalpoints.json")
    write_json(critical_path, {"critical_points": payload})

    files = [phaseline_path, derivative_path, critical_path,
             _write_plot_stub(outdir, "plot_phaseline.py", PHASELINE_PLOT_STUB)]
    write_manifest(outdir, cfg, files, critical_points=payload, started=started)
    return files


def _write_sphere_files(outdir, state, labels, grid, n):
    # the "theta,phi" cells, theta-major like the values, formatted once for every label
    angles = [f"{fmt(theta)},{fmt(phi)}" for theta in grid.thetas for phi in grid.phis]
    files = []
    for sites in labels:
        values = sphere_field(state, sites, grid, n=n).ravel()
        rows = [(angle, fmt(v)) for angle, v in zip(angles, values)]
        path = os.path.join(outdir, f"sphere_{label_name(sites, n)}.csv")
        write_csv(path, ("theta", "phi", "value"), rows)
        files.append(path)
    return files


def cmd_sphere(cfg):
    started = _utcnow()
    outdir = _ensure_outdir(cfg)
    if cfg["param-value"] is None:
        raise ConfigError("--param-value is required for the sphere command")
    spec = _model_spec(cfg, cfg["param-value"])
    labels = _labels(cfg, spec.n)
    grid = SphereGrid(cfg["grid-theta"], cfg["grid-phi"])
    gs = ground_state(spec, policy=cfg["policy"])
    files = _write_sphere_files(outdir, gs.state, labels, grid, spec.n)
    files.append(_write_plot_stub(outdir, "plot_sphere.py", SPHERE_PLOT_STUB))
    write_manifest(outdir, cfg, files, started=started)
    return files


def cmd_animate(cfg):
    started = _utcnow()
    outdir = _ensure_outdir(cfg)
    sweep_cfg = _sweep_config(cfg)
    grid = SphereGrid(cfg["grid-theta"], cfg["grid-phi"])
    files = []
    index_rows = []
    for idx, (value, gs) in enumerate(ground_states(sweep_cfg)):
        frame_dir = os.path.join(outdir, f"frame_{idx:04d}")
        os.makedirs(frame_dir, exist_ok=True)
        files.extend(_write_sphere_files(frame_dir, gs.state, sweep_cfg.labels, grid,
                                         sweep_cfg.spec.n))
        index_rows.append((str(idx), fmt(value)))
    index_path = os.path.join(outdir, "frames.csv")
    write_csv(index_path, ("frame", "param"), index_rows)
    files.append(index_path)
    files.append(_write_plot_stub(outdir, "plot_sphere.py", SPHERE_PLOT_STUB))
    write_manifest(outdir, cfg, files, started=started)
    return files


def _formula_values(cfg):
    if cfg["values"] is not None:
        try:
            values = [float(tok) for tok in cfg["values"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values list: {cfg['values']!r}") from exc
        if not values:
            raise ConfigError(f"--values lists no value: {cfg['values']!r}")
        return values
    if cfg["param-start"] is None or cfg["param-stop"] is None:
        raise ConfigError("formulas needs --values or --param-start/--param-stop")
    return grid_values(cfg["param-start"], cfg["param-stop"], cfg["param-step"])


def cmd_formulas(cfg):
    started = _utcnow()
    outdir = _ensure_outdir(cfg)
    family = cfg["model"]
    values = _formula_values(cfg)
    if family == "ti":
        header = ("lambda", "energy_classical", "mx_classical", "mz_classical",
                  "energy_thermo", "mx_thermo", "mz_thermo")
        rows = [(fmt(v), fmt(ti_classical_energy(v)), fmt(ti_classical_mx(v)),
                 fmt(ti_classical_mz(v)), fmt(ti_thermo_energy(v)), fmt(ti_thermo_mx(v)),
                 fmt(ti_thermo_mz(v))) for v in values]
    elif family == "xy":
        header = ("gamma", "factorization_lambda", "alignment_angle")
        rows = []
        for v in values:
            lam_f = xy_factorization_point(v)
            rows.append((fmt(v), "inf" if math.isinf(lam_f) else fmt(lam_f),
                         fmt(xy_factorization_angle(v))))
    else:
        raise ConfigError("formulas is defined for --model ti or xy only")
    print("\t".join(header))
    for row in rows:
        print("\t".join(row))
    path = os.path.join(outdir, "formulas.csv")
    write_csv(path, header, rows)
    write_manifest(outdir, cfg, [path], started=started)
    return [path]


def cmd_verify(cfg):
    from .acceptance import run_all

    results = run_all(seed=cfg["seed"])
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.ident}: {res.description} [{res.detail}]")
    return all(res.passed for res in results)


# ---------------------------------------------------------------------------
# argument parsing


COMMANDS = {
    "phaseline": "sweep a parameter and export phase lines",
    "sphere": "export sphere-sampled Wigner fields at one parameter",
    "animate": "sphere fields at every sweep value (frame directories)",
    "formulas": "evaluate closed-form reference formulas",
    "verify": "run the acceptance checks",
}


class _SubcommandParser(argparse.ArgumentParser):
    """Rejects a flag its subcommand does not read under that subcommand's usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="Equal-angle spin Wigner phase lines, sphere fields and "
                    "critical-point detection for cyclic spin-1/2 chains.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_SubcommandParser)
    for command, help_text in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (default, commands, kwargs) in OPTIONS.items():
            if command in commands:
                shown = "" if default is None else f" (default {default})"
                p.add_argument(f"--{key}", **{**kwargs, "help": kwargs["help"] + shown})
        p.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.subcommand == "verify":
            return EXIT_OK if cmd_verify(cfg) else EXIT_NUMERICAL
        # looked up at call time, so a wrapper rebound to the module-level name runs
        globals()[f"cmd_{args.subcommand}"](cfg)
        return EXIT_OK
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpinPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
