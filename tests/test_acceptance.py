"""Release acceptance suite.

Runs every acceptance criterion at its pinned tolerance and prints one
PASS/FAIL line per criterion. Criteria are implemented in
spinphase.acceptance; the CLI `verify` subcommand executes the same checks.
"""

import numpy as np
import pytest

from spinphase.acceptance import CRITERIA, XXZ_PLATEAU_STOP, XXZ_SWEEP
from spinphase.analysis import grid_values

SEED = 0


@pytest.mark.parametrize("ident,description,func", CRITERIA,
                         ids=[f"criterion_{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(ident, description, func, capsys):
    rng = np.random.default_rng(SEED + ident)
    passed, detail = func(rng)
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\n{status} criterion {ident}: {description} [{detail}]")
    assert passed, f"criterion {ident} ({description}): {detail}"


def test_constancy_clause_grid_is_the_head_of_the_sweep_grid():
    # criterion 10 reads its constancy clause off its sweep's points with
    # delta <= -1 - 1e-4: the same floats as a sweep of [-2, -1 - 1e-4] at 0.01
    start, _, step = XXZ_SWEEP
    head = np.array(grid_values(*XXZ_SWEEP))
    head = head[head <= XXZ_PLATEAU_STOP]
    own = np.array(grid_values(start, XXZ_PLATEAU_STOP, step))
    assert len(own) == 100
    assert np.array_equal(head, own)
