"""Command-line front end: phase-line sweeps, sphere fields, animation frames,
analytic formula tables and the acceptance-check runner.

Each file-writing subcommand (`phaseline`, `sphere`, `animate`, `formulas`)
computes its data and writes it one batch at a time, each batch joined,
encoded, hashed and written before the next is laid out. A table goes to
`write_csv` as columns of cells; a sphere field goes to `write_sphere_csv` as
its array, one string per theta row. A float becomes its cell by
`fmt_column`, which formats each distinct double once with 17 significant
digits, exactly as `fmt` formats each value, so reruns with the same
configuration are byte-identical. `main` creates the output directory, writes
the subcommand's plot stub and writes manifest.json last (atomically), with
the resolved configuration and the sha256 checksum of each emitted file,
taken from its bytes as they are written, so no file is read back. `verify`
writes no files."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, models
from .errors import ConfigError, NumericalError, SpinPhaseError
from .models import (ModelSpec, ground_state, ground_states, ti_classical_energy,
                     ti_classical_mx, ti_classical_mz, ti_thermo_energy, ti_thermo_mx,
                     ti_thermo_mz, xy_factorization_angle, xy_factorization_point)
from .qcore import label_name, n_sites, parse_label, validate_labels
from .analysis import (SweepConfig, canonical_labels, find_derivative_extrema,
                       find_sector_crossings, first_derivative, grid_values, sweep)
from .wigner import SphereGrid, sphere_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def fmt(x):
    """17-significant-digit decimal form; round-trips double precision."""
    return f"{float(x):.17g}"


def fmt_column(values):
    """`[fmt(x) for x in values]` for the doubles of an array (raveled in C
    order), formatting each distinct double once.

    Doubles are told apart by their bits, so 0.0 and -0.0 stay apart, as they
    would not by `==` or as float dict keys; `np.unique` is avoided because it
    loads numpy.ma."""
    bits = np.asarray(values, dtype=float).ravel().view(np.uint64)
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(len(bits), dtype=bool)  # first of its run of equal bits
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = list(map("%.17g".__mod__, ordered[first].view(float).tolist()))
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return np.array(distinct, dtype=object)[inverse].tolist()


def _atomic_write(path, chunks):
    """Write the bytes `chunks` to `path` in turn, by way of a temporary file in
    the same directory that replaces `path` once the last chunk is written;
    returns the sha256 hex digest of the bytes, which the manifest records. An
    exception while the chunks are made or written leaves `path` as it was and
    removes the temporary file."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


# table rows laid out, joined and written at a time by `write_csv`; a sphere
# file is written in whole theta rows of about as many cells
_BATCH_ROWS = 4096


def write_csv(path, columns):
    """Write `{header: cells}` as CSV, row i holding cell i of every column.

    Columns of unequal length raise ValueError before any file is opened. The
    rows are written _BATCH_ROWS at a time: a batch's cells and separators are
    laid out in one list and joined once, with no string built per row, and
    the batch is encoded, hashed and written before the next is laid out.
    Returns the file's sha256 digest."""
    cols = list(columns.values())
    rows, stride = len(cols[0]), 2 * len(cols)
    if any(len(cells) != rows for cells in cols):
        raise ValueError(f"columns of unequal length {[len(cells) for cells in cols]}")

    def batches():
        yield (",".join(columns) + "\n").encode("utf-8")
        for start in range(0, rows, _BATCH_ROWS):
            size = min(_BATCH_ROWS, rows - start)
            parts = [""] * (stride * size)
            for k, cells in enumerate(cols):
                parts[2 * k::stride] = cells[start:start + size]
                parts[2 * k + 1::stride] = ("," if k + 1 < len(cols) else "\n",) * size
            yield "".join(parts).encode("utf-8")

    return _atomic_write(path, batches())


def write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _atomic_write(path, [text.encode("utf-8")])


def write_manifest(outdir, config, files, started=None):
    """manifest.json in `outdir`: `files` maps each written path to the sha256
    digest its writer returned, recorded under the path relative to `outdir`."""
    manifest = {
        "tool": "spinphase",
        "version": __version__,
        "config": config,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "files": {os.path.relpath(p, outdir): digest for p, digest in files.items()},
    }
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


PHASELINE_PLOT_STUB = '''\
#!/usr/bin/env python3
"""Render phaseline.csv produced alongside this script, wherever it is run from.

Columns:
  param      -- swept coupling (lambda for ti/xy, delta for xxz)
  label      -- correlation subset ("1", "12", ..., "tot")
  value      -- equal-angle Wigner value of the reduced state at the phase point
  energy     -- ground-state energy at this parameter
  degeneracy -- ground-space dimension within the degeneracy tolerance
  parity     -- spin parity of the state's symmetry sectors (+1/-1, empty when they differ)
  gap        -- energy gap between the two lowest levels

derivative.csv carries the same layout with `dvalue`, the finite-difference
first derivative of `value` with respect to `param`.
"""
import csv
import os
from collections import defaultdict

import matplotlib.pyplot as plt

os.chdir(os.path.dirname(os.path.abspath(__file__)))
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
"""Render each sphere_<label>.csv beside this script or in a frame_XXXX
directory below it to a PNG beside the CSV, wherever the script is run from.

Columns (theta-major ordering):
  theta -- polar angle in [0, pi], inclusive endpoints
  phi   -- azimuthal angle in [0, 2*pi), exclusive endpoint
  value -- equal-angle Wigner value of the reduced state at (theta, phi)

Values are raw (not clipped or normalized); aligned product states exceed 1.
"""
import csv
import glob
import os

import matplotlib.pyplot as plt
import numpy as np

os.chdir(os.path.dirname(os.path.abspath(__file__)))
for path in sorted(glob.glob("**/sphere_*.csv", recursive=True)):
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


# the plot stub `main` writes next to each subcommand's data files
PLOT_STUBS = {"phaseline": ("plot_phaseline.py", PHASELINE_PLOT_STUB),
              "sphere": ("plot_sphere.py", SPHERE_PLOT_STUB),
              "animate": ("plot_sphere.py", SPHERE_PLOT_STUB)}


# ---------------------------------------------------------------------------
# subcommands: each writes its data files under cfg["out"] and returns
# {path: sha256 digest}; `main` adds the plot stub and the manifest, which names
# each by its digest


def cmd_phaseline(cfg):
    sweep_cfg = _sweep_config(cfg)
    line = sweep(sweep_cfg)
    labels = sweep_cfg.labels

    def per_point(values):  # rows are point-major and label-minor
        return np.repeat(values, len(labels))

    keys = {"param": fmt_column(per_point(line.params)),
            "label": [label_name(sites, sweep_cfg.spec.n) for sites in labels] * len(line.params)}
    files = {}
    phaseline_path = os.path.join(cfg["out"], "phaseline.csv")
    files[phaseline_path] = write_csv(phaseline_path, {
        **keys, "value": fmt_column(np.stack([line.values[sites] for sites in labels], axis=1)),
        "energy": fmt_column(per_point(line.energy)),
        "degeneracy": list(map(str, per_point(line.degeneracy).tolist())),
        # an indefinite parity is NaN, and an empty cell
        "parity": ["" if cell == "nan" else cell for cell in fmt_column(per_point(line.parity))],
        "gap": fmt_column(per_point(line.gap))})
    derivative_path = os.path.join(cfg["out"], "derivative.csv")
    dvalues = np.stack([first_derivative(line, sites) for sites in labels], axis=1)
    files[derivative_path] = write_csv(derivative_path, {**keys, "dvalue": fmt_column(dvalues)})

    points = []
    if len(line.params) >= 5:  # extremum refinement needs interior points
        for sites in labels:
            points.extend(find_derivative_extrema(line, sites))
    points.extend(find_sector_crossings(line))
    critical_path = os.path.join(cfg["out"], "criticalpoints.json")
    files[critical_path] = write_json(
        critical_path, {"critical_points": [dataclasses.asdict(p) for p in points]})
    return files


def _sphere_angles(grid):
    """The grid's theta cells and phi cells, each formatted once and followed by
    its comma: the first two cells of the rows of every sphere file on `grid`."""
    return ([cell + "," for cell in fmt_column(grid.thetas)],
            [cell + "," for cell in fmt_column(grid.phis)])


def write_sphere_csv(path, field, angles):
    """Write the (n_theta, n_phi) array `field` as a sphere CSV, row (i, j)
    holding theta i, phi j and field[i, j]; `angles` is `_sphere_angles` of its
    grid. Returns the file's sha256 digest.

    Each theta row becomes one string. A row whose cells hold one double (equal
    bits, so 0.0 and -0.0 differ) is its first cell, formatted once and joined
    over the phi cells; any other row interleaves its own cells with them. The
    bytes are those of one `fmt` call per cell. Whole theta rows are written
    about _BATCH_ROWS cells at a time: a batch's cells are formatted by one
    `fmt_column` call, and its text is encoded, hashed and written before the
    next batch is laid out."""
    thetas, phis = angles
    field = np.ascontiguousarray(field, dtype=float)
    if field.shape != (len(thetas), len(phis)):
        raise ValueError(f"sphere field of shape {field.shape} on a "
                         f"{len(thetas)} x {len(phis)} grid")
    bits = field.view(np.uint64)
    constant = np.all(bits[:, 1:] == bits[:, :1], axis=1)
    step = max(1, _BATCH_ROWS // len(phis))

    def batches():
        yield b"theta,phi,value\n"
        for start in range(0, len(thetas), step):
            block, flat = field[start:start + step], constant[start:start + step]
            take = np.ones(block.shape, dtype=bool)
            take[flat, 1:] = False  # a constant row's first cell only
            cells, at, rows = fmt_column(block[take]), 0, []
            for head, one in zip(thetas[start:start + step], flat.tolist()):
                if one:
                    value = cells[at] + "\n"
                    rows.append(head + (value + head).join(phis) + value)
                    at += 1
                else:
                    row = map(str.__add__, phis, cells[at:at + len(phis)])
                    rows.append(head + ("\n" + head).join(row) + "\n")
                    at += len(phis)
            yield "".join(rows).encode("utf-8")

    return _atomic_write(path, batches())


# bytes a sphere cell takes while its batch is written (fmt_column's index
# arrays and its str per double, and the row text, joined and encoded; 0.3 kB
# traced), and bytes per theta row and per phi column (the formatted angle
# cells, and sphere_field's arrays over the 2b + 1 phi nodes of a row; 6.1 kB a
# theta row for the six-site label at n = 6)
_SPHERE_CELL_BYTES = 1024
_SPHERE_LINE_BYTES = 16384


def _sphere_grid(cfg):
    """The configured SphereGrid. ConfigError when writing its files would hold
    more than physical memory, counted before any array is built: the field's
    8 bytes per cell, the formatting of one batch of whole theta rows, and
    _SPHERE_LINE_BYTES per theta row and phi column. The message names the
    row count and physical memory."""
    grid = SphereGrid(cfg["grid-theta"], cfg["grid-phi"])
    rows = grid.n_theta * grid.n_phi
    need = (8 * rows + _SPHERE_CELL_BYTES * max(_BATCH_ROWS, grid.n_phi)
            + _SPHERE_LINE_BYTES * (grid.n_theta + grid.n_phi))
    have = models.physical_memory()
    if need > have:
        raise ConfigError(f"a {grid.n_theta} x {grid.n_phi} sphere grid has {rows} rows and "
                          f"needs about {need / 2**30:.1f} GiB to write, more than the "
                          f"{have / 2**30:.1f} GiB of physical memory")
    return grid


def _write_sphere_files(outdir, state, labels, grid, angles):
    """One sphere_<label>.csv per label; `angles` is `_sphere_angles(grid)`."""
    n = n_sites(len(state))
    files = {}
    for sites in labels:
        path = os.path.join(outdir, f"sphere_{label_name(sites, n)}.csv")
        files[path] = write_sphere_csv(path, sphere_field(state, sites, grid), angles)
    return files


def cmd_sphere(cfg):
    if cfg["param-value"] is None:
        raise ConfigError("--param-value is required for the sphere command")
    spec = _model_spec(cfg, cfg["param-value"])
    labels, grid = _labels(cfg, spec.n), _sphere_grid(cfg)
    gs = ground_state(spec, policy=cfg["policy"])
    return _write_sphere_files(cfg["out"], gs.state, labels, grid, _sphere_angles(grid))


def cmd_animate(cfg):
    sweep_cfg = _sweep_config(cfg)
    grid = _sphere_grid(cfg)
    angles = _sphere_angles(grid)
    files, params = {}, sweep_cfg.params
    for idx, gs in enumerate(ground_states(sweep_cfg.spec, params, sweep_cfg.policy)):
        frame_dir = os.path.join(cfg["out"], f"frame_{idx:04d}")
        os.makedirs(frame_dir, exist_ok=True)
        files.update(_write_sphere_files(frame_dir, gs.state, sweep_cfg.labels, grid, angles))
    path = os.path.join(cfg["out"], "frames.csv")
    files[path] = write_csv(path, {"frame": list(map(str, range(len(params)))),
                                   "param": fmt_column(params)})
    return files


def _formula_values(cfg):
    if cfg["values"] is not None:
        try:
            values = [float(tok) for tok in cfg["values"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values list: {cfg['values']!r}") from exc
        if not values or not all(map(math.isfinite, values)):
            raise ConfigError(f"--values needs one or more finite values: {cfg['values']!r}")
        return values
    if cfg["param-start"] is None or cfg["param-stop"] is None:
        raise ConfigError("formulas needs --values or --param-start/--param-stop")
    return grid_values(cfg["param-start"], cfg["param-stop"], cfg["param-step"]).tolist()


# closed-form columns per model, the parameter itself first
FORMULAS = {
    "ti": {"lambda": float, "energy_classical": ti_classical_energy,
           "mx_classical": ti_classical_mx, "mz_classical": ti_classical_mz,
           "energy_thermo": ti_thermo_energy, "mx_thermo": ti_thermo_mx,
           "mz_thermo": ti_thermo_mz},
    "xy": {"gamma": float, "factorization_lambda": xy_factorization_point,
           "alignment_angle": xy_factorization_angle},
}


def cmd_formulas(cfg):
    values = _formula_values(cfg)
    if cfg["model"] not in FORMULAS:
        raise ConfigError("formulas is defined for --model ti or xy only")
    columns = {name: fmt_column([f(v) for v in values])
               for name, f in FORMULAS[cfg["model"]].items()}
    for row in (columns, *zip(*columns.values())):
        print("\t".join(row))
    path = os.path.join(cfg["out"], "formulas.csv")
    return {path: write_csv(path, columns)}


def cmd_verify(cfg):
    if cfg["seed"] < 0:  # criterion i draws from default_rng(seed + i), which rejects < 0
        raise ConfigError(f"--seed must be a non-negative integer, got {cfg['seed']}")
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
        started = _utcnow()
        outdir = _ensure_outdir(cfg)
        # looked up at call time, so a wrapper rebound to the module-level name runs
        files = globals()[f"cmd_{args.subcommand}"](cfg)
        if args.subcommand in PLOT_STUBS:
            name, stub = PLOT_STUBS[args.subcommand]
            path = os.path.join(outdir, name)
            files[path] = _atomic_write(path, [stub.encode("utf-8")])
        write_manifest(outdir, cfg, files, started=started)
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
