"""What a CLI run imports: scipy and numpy.ma only where a command uses them.

Each case runs in a fresh interpreter, since pytest has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinphase

SRC = str(Path(spinphase.__file__).resolve().parents[1])

# imports spinphase.cli and runs `spinphase.cli.main(argv)` if argv is given,
# exiting if that returns nonzero, then prints the modules of scipy and numpy.ma
# loaded since `import numpy`: numpy 1.x loads numpy.ma in `import numpy` itself,
# so only on numpy 2 does the check cover numpy.ma
PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import spinphase.cli
if sys.argv[1:] and spinphase.cli.main(sys.argv[1:]):
    sys.exit("the CLI run failed")
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""


def loaded_after(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither():
    assert loaded_after() == []


@pytest.mark.parametrize("argv", [
    ["sphere", "--model", "xxz", "--n", "4", "--param-value", "1.0", "--labels", "12,tot",
     "--grid-theta", "5", "--grid-phi", "8"],
    ["animate", "--model", "xy", "--gamma", "0.5", "--n", "4", "--param-start", "1.1",
     "--param-stop", "1.2", "--param-step", "0.05", "--labels", "tot", "--grid-theta", "5",
     "--grid-phi", "8"],
], ids=["sphere", "animate"])
def test_a_run_loads_neither(tmp_path, argv):
    assert loaded_after(*argv, "--out", str(tmp_path)) == []


def test_a_phase_line_through_a_root_search_loads_neither(tmp_path):
    # the grid is shifted off delta = -1, so the crossing there is a root search
    assert loaded_after("phaseline", "--model", "xxz", "--policy", "aligned-up",
                        "--param-start", "-1.513", "--param-stop", "-0.5",
                        "--param-step", "0.05", "--out", str(tmp_path)) == []
    points = json.loads((tmp_path / "criticalpoints.json").read_text())["critical_points"]
    crossings = [p["location"] for p in points if p["kind"] == "sector_crossing"]
    assert len(crossings) == 1 and abs(crossings[0] + 1.0) <= 1e-8
    assert crossings[0] not in [-1.513 + k * 0.05 for k in range(21)]


def test_ti_formulas_load_the_quadrature(tmp_path):
    loaded = loaded_after("formulas", "--model", "ti", "--values", "0,1,2", "--out",
                          str(tmp_path))
    assert "scipy.integrate" in loaded
