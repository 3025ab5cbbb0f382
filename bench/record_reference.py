#!/usr/bin/env python3
"""Record the seed-0 reference outputs that checks.py compares against.

    python3 bench/record_reference.py

Runs every workload once at seed 0 through the same child process as the
benchmark and stores each data-file column in bench/reference/<name>.npz,
plus criticalpoints.json for reporting. The files in the repository were
recorded before any optimisation; re-recording them after a change to the
program would make the check compare the program with itself.
"""

import os
import shutil
import sys

import numpy as np

import checks
import run
from workloads import WORKLOADS, make_inputs


def main():
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    workdir = os.path.join(run.WORK, "record")
    env = run.child_env()
    for workload in WORKLOADS.values():
        inputs = make_inputs(workload, 0)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        outdir = os.path.join(workdir, "out")
        result = run.invoke(run.SRC, inputs.argv(outdir), workdir, env)
        if result["error"] is not None:
            print(f"{workload.name}: {result['error']}", file=sys.stderr)
            return 1
        tables = checks.read_outputs(inputs, outdir)
        columns = {f"{fname}:{col}": table[col]
                   for fname, table in tables.items() for col in table["_header"]}
        np.savez_compressed(checks.reference_path(inputs), **columns)
        critical = os.path.join(outdir, "criticalpoints.json")
        if os.path.exists(critical):
            shutil.copyfile(critical, os.path.join(
                checks.REFERENCE_DIR, f"{workload.name}.criticalpoints.json"))
        print(f"{workload.name}: recorded {len(columns)} columns")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
