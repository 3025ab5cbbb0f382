"""Release acceptance suite.

Runs every acceptance criterion at its pinned tolerance and prints one
PASS/FAIL line per criterion. Criteria are implemented in
spinphase.acceptance; the CLI `verify` subcommand executes the same checks.
"""

import numpy as np
import pytest

from dense_oracles import embed

from spinphase import acceptance
from spinphase.acceptance import (CRITERIA, XXZ_PLATEAU_STOP, XXZ_SWEEP, diagonal_commutator,
                                  diagonal_similarity)
from spinphase.analysis import grid_values
from spinphase.cli import main
from spinphase.models import (ModelSpec, build_hamiltonian, spin_parity_diagonal,
                              staggered_flip_diagonal, total_sz_diagonal)
from spinphase.qcore import SIGMA_Z

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


def test_diagonal_forms_equal_the_dense_products():
    n = 6
    site1 = np.diag(embed(SIGMA_Z, 1, n)).real  # does not commute with the ti and xy bonds
    rng = np.random.default_rng(11)
    for _ in range(3):
        lam, gamma, delta = rng.uniform(0, 3), rng.uniform(0, 1), rng.uniform(-2, 2)
        hamiltonians = [build_hamiltonian(spec) for spec in (
            ModelSpec(family="ti", n=n, lam=lam),
            ModelSpec(family="xy", n=n, lam=lam, gamma=gamma),
            ModelSpec(family="xxz", n=n, delta=delta, j=rng.uniform(0.5, 1.5)))]
        diagonals = [spin_parity_diagonal(n), total_sz_diagonal(n), staggered_flip_diagonal(n),
                     site1, np.exp(1j * rng.uniform(0, 2 * np.pi) * total_sz_diagonal(n))]
        for h in hamiltonians:
            for d in diagonals:
                dense = np.diag(d)
                assert np.max(np.abs(diagonal_commutator(h, d) - (h @ dense - dense @ h))) < 1e-15
                assert np.max(np.abs(diagonal_similarity(h, d)
                                     - dense.conj().T @ h @ dense)) < 1e-15


def test_non_commuting_diagonal_fails_the_symmetry_bound():
    # sigma_z of site 1 alone does not commute with the Ising bonds: the check can fail
    h = build_hamiltonian(ModelSpec(family="ti", n=6, lam=0.8))
    site1 = np.diag(embed(SIGMA_Z, 1, 6)).real
    assert np.max(np.abs(diagonal_commutator(h, site1))) > 1e-11
    assert np.max(np.abs(diagonal_commutator(h, spin_parity_diagonal(6)))) < 1e-11


def test_cli_and_criteria_build_no_kronecker_product(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.kron called outside the test oracles")

    monkeypatch.setattr(np, "kron", forbidden)
    runs = {
        "phaseline": ["--model", "xxz", "--param-start", "-1.1", "--param-stop", "-0.9",
                      "--param-step", "0.05", "--labels", "1,12,tot"],
        "sphere": ["--model", "ti", "--param-value", "0.7", "--labels", "1,tot",
                   "--grid-theta", "5", "--grid-phi", "8"],
        "animate": ["--model", "xy", "--gamma", "0.5", "--param-start", "1.1",
                    "--param-stop", "1.2", "--param-step", "0.05", "--labels", "1,tot",
                    "--grid-theta", "3", "--grid-phi", "4"],
    }
    for command, argv in runs.items():
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 0
    for func in (acceptance.check_kernel_identities, acceptance.check_reconstruction,
                 acceptance.check_xy_factorization_value, acceptance.check_symmetry_suite):
        passed, detail = func(np.random.default_rng(SEED))
        assert passed, detail
