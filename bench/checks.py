"""Correctness checks of one CLI run's output files.

Every run is checked for structure (header, row order, the generated grid).
At the seed whose outputs were recorded (seed 0) every data file is compared
with the reference values under the same-behaviour rule: |got - ref| <=
1e-12 * max(1, |ref|) for value, energy, gap and dvalue, an exact match for
param, label, degeneracy, parity, theta and phi. At every seed a seed-chosen
sample of unique, gapped rows is recomputed by the independent oracle.
criticalpoints.json is reported, never gated: detector output is meant to
change.
"""

import json
import os
import random

import numpy as np

import oracle

TOL = 1e-12
ORACLE_TOL = 1e-10  # oracle arithmetic differs from the package's
ORACLE_MIN_GAP = 1e-3  # eigenvector error grows like eps * |H| / gap
ORACLE_PARAMS = 6
ORACLE_SPHERE_ROWS = 20

FLOAT_COLUMNS = {"param", "theta", "phi", "value", "energy", "gap", "dvalue"}
CLOSE_COLUMNS = {"value", "energy", "gap", "dvalue"}
PHASELINE_HEADER = ("param", "label", "value", "energy", "degeneracy", "parity", "gap")
DERIVATIVE_HEADER = ("param", "label", "dvalue")
SPHERE_HEADER = ("theta", "phi", "value")
SPHERE_N_THETA, SPHERE_N_PHI = 181, 360

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class CheckError(Exception):
    """An output file differs from what the workload must produce."""


def read_csv(path):
    """{column: array} of a CLI data file; float columns parsed, others kept as text."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckError(f"{os.path.basename(path)} is empty")
    header = tuple(lines[0].split(","))
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise CheckError(f"{os.path.basename(path)} has rows of the wrong width")
    columns = list(zip(*cells)) if cells else [()] * len(header)
    out = {}
    for name, col in zip(header, columns):
        if name in FLOAT_COLUMNS:
            out[name] = np.array(col, dtype=float)
        elif name == "degeneracy":
            out[name] = np.array(col, dtype=np.int64)
        else:
            out[name] = np.array(col, dtype=str)
    out["_header"] = header
    return out


def compare_column(name, got, ref, tol=TOL):
    """Raise CheckError unless `got` matches `ref` under the same-behaviour rule."""
    if got.shape != ref.shape:
        raise CheckError(f"column {name}: {got.shape[0]} rows, reference has {ref.shape[0]}")
    if name in CLOSE_COLUMNS:
        err = np.abs(got - ref)
        bad = ~(err <= tol * np.maximum(1.0, np.abs(ref)))
    else:
        bad = got != ref
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(f"column {name} row {i}: got {got[i].item()!r}, "
                         f"reference {ref[i].item()!r}")


def _expect_header(table, header, what):
    if table["_header"] != header:
        raise CheckError(f"{what} header {table['_header']} != {header}")


def data_files(inputs):
    wl = inputs.workload
    if wl.command == "sphere":
        return [f"sphere_{label}.csv" for label in wl.labels]
    return ["phaseline.csv", "derivative.csv"]


def read_outputs(inputs, outdir):
    """Parse the run's data files and check their structure; return the tables."""
    wl = inputs.workload
    tables = {}
    for name in data_files(inputs):
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            raise CheckError(f"{name} was not written")
        tables[name] = read_csv(path)
    if wl.command == "sphere":
        thetas = np.linspace(0.0, np.pi, SPHERE_N_THETA)
        phis = np.arange(SPHERE_N_PHI) * (2 * np.pi / SPHERE_N_PHI)
        for name, table in tables.items():
            _expect_header(table, SPHERE_HEADER, name)
            compare_column("theta", table["theta"], np.repeat(thetas, SPHERE_N_PHI))
            compare_column("phi", table["phi"], np.tile(phis, SPHERE_N_THETA))
        return tables
    params = np.repeat(np.array(inputs.params), len(wl.labels))
    labels = np.array(list(wl.labels) * len(inputs.params), dtype=str)
    line, deriv = tables["phaseline.csv"], tables["derivative.csv"]
    _expect_header(line, PHASELINE_HEADER, "phaseline.csv")
    _expect_header(deriv, DERIVATIVE_HEADER, "derivative.csv")
    for table in (line, deriv):
        compare_column("param", table["param"], params)
        compare_column("label", table["label"], labels)
    y = line["value"].reshape(len(inputs.params), len(wl.labels))
    compare_column("dvalue", deriv["dvalue"], _finite_difference(y, wl.sweep.step))
    return tables


def _finite_difference(y, h):
    """d(value)/d(param) per label column: central inside the grid, one-sided at the ends."""
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2 * h)
    d[0] = (y[1] - y[0]) / h
    d[-1] = (y[-1] - y[-2]) / h
    return d.ravel()


def reference_path(inputs):
    return os.path.join(REFERENCE_DIR, f"{inputs.workload.name}.npz")


def check_reference(inputs, tables):
    """Compare every column of every data file with the recorded seed-0 output."""
    with np.load(reference_path(inputs), allow_pickle=False) as ref:
        for fname, table in tables.items():
            for col in table["_header"]:
                compare_column(col, table[col], ref[f"{fname}:{col}"])


def _model(inputs):
    opts = dict(zip(inputs.args[1::2], inputs.args[2::2]))
    return opts["--model"], int(opts.get("--n", 6)), float(opts.get("--gamma", 1.0))


def check_oracle(inputs, tables):
    """Recompute a seed-chosen sample of unique, gapped rows with the oracle."""
    family, n, gamma = _model(inputs)
    rng = random.Random(inputs.seed)
    wl = inputs.workload
    if wl.command == "sphere":
        _, gap, psi = oracle.ground_state(
            oracle.hamiltonian(family, n, inputs.params[0], gamma=gamma))
        if gap < ORACLE_MIN_GAP:
            return 0
        for label in wl.labels:
            table = tables[f"sphere_{label}.csv"]
            rho = oracle.reduced_density(psi, oracle.sites_of(label, n), n)
            for i in rng.sample(range(len(table["value"])), ORACLE_SPHERE_ROWS):
                want = oracle.equal_angle(rho, table["theta"][i], table["phi"][i])
                _oracle_close(f"sphere_{label}.csv row {i} value",
                              table["value"][i], want)
        return len(wl.labels) * ORACLE_SPHERE_ROWS
    line = tables["phaseline.csv"]
    k = len(wl.labels)
    eligible = [p for p in range(len(inputs.params))
                if line["degeneracy"][p * k] == 1 and line["gap"][p * k] >= ORACLE_MIN_GAP]
    checked = 0
    for p in sorted(rng.sample(eligible, min(ORACLE_PARAMS, len(eligible)))):
        param = float(line["param"][p * k])
        energy, gap, psi = oracle.ground_state(oracle.hamiltonian(family, n, param, gamma=gamma))
        _oracle_close(f"energy at {param!r}", line["energy"][p * k], energy)
        _oracle_close(f"gap at {param!r}", line["gap"][p * k], gap)
        for r in range(p * k, (p + 1) * k):
            rho = oracle.reduced_density(psi, oracle.sites_of(line["label"][r], n), n)
            _oracle_close(f"value of {line['label'][r]} at {param!r}",
                          line["value"][r], oracle.equal_angle(rho, 0.0, 0.0))
            checked += 1
    return checked


def _oracle_close(what, got, want):
    got, want = float(got), float(want)
    if not abs(got - want) <= ORACLE_TOL * max(1.0, abs(want)):
        raise CheckError(f"{what}: got {got!r}, oracle {want!r}")


def critical_points_report(inputs, outdir):
    """Count detected points by kind; at seed 0 also say whether they match the record."""
    path = os.path.join(outdir, "criticalpoints.json")
    if inputs.workload.command != "phaseline" or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        points = json.load(fh)["critical_points"]
    kinds = {}
    for p in points:
        kinds[p["kind"]] = kinds.get(p["kind"], 0) + 1
    report = {"count": len(points), "by_kind": kinds}
    ref_path = os.path.join(REFERENCE_DIR, f"{inputs.workload.name}.criticalpoints.json")
    if inputs.seed == 0 and os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            report["matches_reference"] = json.load(fh)["critical_points"] == points
    return report


def check_outputs(inputs, outdir):
    """All gating checks of one run; returns (data rows written, oracle rows checked)."""
    tables = read_outputs(inputs, outdir)
    if inputs.seed == 0:
        check_reference(inputs, tables)
    checked = check_oracle(inputs, tables)
    rows = sum(len(tables[name]["value"]) for name in data_files(inputs)
               if name != "derivative.csv")
    return rows, checked
