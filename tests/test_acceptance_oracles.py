"""Independent oracles for the N = 6 values pinned by acceptance criteria 8 and 10.

Every expected value here comes from a closed form or from a symmetry-sector
diagonalisation built with bit operations on the basis index. None is
produced by `build_hamiltonian`, `reduced_factor` or the Wigner kernel; those
only appear on the program side of a comparison.
"""

import math

import numpy as np
import pytest

from spinphase.acceptance import XXZ_RHO124_DERIVATIVE_MIN, parity_state_values
from spinphase.analysis import CANONICAL_LABELS_6, factorization_value_check
from spinphase.models import (ModelSpec, ground_state, spin_parity_diagonal,
                              xy_factorization_point)
from spinphase.wigner import equal_angle_values

N = 6


# ---------------------------------------------------------------------------
# criterion 8: xy factorization point


def closed_form_parity_values(gamma, k, n=N):
    """(W+, W-) at (0,0) for the parity projections of |+-theta_f>^n.

    |+-theta> = cos(theta/2)|up> +- sin(theta/2)|down> with cos(theta_f) = c, so
    <+theta|-theta> = c, and the (0,0) kernel (1 + sqrt3 sz)/2 has elements
    b = (1 + sqrt3 c)/2 between equal and x = (c + sqrt3)/2 between opposite
    tilts. The parity +1 state (|+>^n + |->^n)/sqrt(2(1 + c^n)) then gives
    W+ = [b^k + x^k c^(n-k)]/(1 + c^n), and likewise W- with the signs flipped.
    """
    c = math.sqrt((1 - gamma) / (1 + gamma))
    b = (1 + math.sqrt(3) * c) / 2
    x = (c + math.sqrt(3)) / 2
    return ((b**k + x**k * c ** (n - k)) / (1 + c**n),
            (b**k - x**k * c ** (n - k)) / (1 - c**n))


def _sector_state(mixture, parity):
    """Normalised projection of the factorization-point mixture factor onto a
    parity sector: P A is a factor of P A A^dagger P."""
    keep = spin_parity_diagonal(N) == parity
    block = np.where(keep[:, None], mixture, 0.0)
    return block / np.linalg.norm(block)


def test_gamma_half_closed_form_is_rational():
    # c = 1/sqrt3, so b = 1, x^k c^(6-k) = 2^k/27 and c^6 = 1/27
    for k in range(1, N + 1):
        w_plus, w_minus = closed_form_parity_values(0.5, k)
        assert w_plus == pytest.approx((27 + 2**k) / 28, abs=1e-14)
        assert w_minus == pytest.approx((27 - 2**k) / 26, abs=1e-14)
    assert 0.5 * sum(closed_form_parity_values(0.5, 6)) == pytest.approx(0.91346, abs=5e-6)


@pytest.mark.parametrize("gamma", [0.5, 0.8])
def test_parity_sector_ground_states_match_closed_form(gamma):
    spec = ModelSpec(family="xy", n=N, lam=xy_factorization_point(gamma), gamma=gamma)
    gs = ground_state(spec, policy="mixture")
    assert gs.degeneracy == 2
    for parity, index in ((+1, 0), (-1, 1)):
        state = _sector_state(gs.state, parity)
        for sites in CANONICAL_LABELS_6:
            expected = closed_form_parity_values(gamma, len(sites))[index]
            assert equal_angle_values([state], sites, 0.0, 0.0)[0, 0] == pytest.approx(
                expected, abs=1e-12), (parity, sites)
            assert parity_state_values(gamma, len(sites), N)[index] == pytest.approx(
                expected, abs=1e-14)


def test_straddling_mean_tends_to_parity_mean_not_product_value():
    tot = tuple(range(1, N + 1))
    limit = 0.5 * sum(closed_form_parity_values(0.5, N))
    (_, expected), = factorization_value_check(0.5, [tot])
    lam_f = xy_factorization_point(0.5)
    bias = {}
    for offset in (1e-3, 1e-4):
        states = [ground_state(ModelSpec(family="xy", n=N, lam=lam, gamma=0.5)).state
                  for lam in (lam_f - offset, lam_f + offset)]
        measured = np.mean(equal_angle_values(states, tot, 0.0, 0.0))
        bias[offset] = abs(measured - limit)
        assert abs(measured - expected) > 0.08
    # O(offset): a tenfold smaller offset leaves about a tenth of the bias
    assert 0.08 < bias[1e-4] / bias[1e-3] < 0.12


# ---------------------------------------------------------------------------
# criterion 10: xxz S_z = 0 sector


def sz0_sector_correlators(deltas, n=N, j=1.0):
    """<sz1 sz3> and <sz1 sz4> of the lowest S_z = 0 state of the xxz ring.

    H = (J/4) sum_i [sx sx + sy sy + delta sz sz] on the C(n, n/2) basis states
    with n/2 down spins: sx sx + sy sy swaps an antiparallel bond with
    amplitude 2, sz sz is diagonal. Bit n - s of the index is site s (1 = down).
    """
    index = np.arange(2**n)
    states = index[[bin(s).count("1") == n // 2 for s in index]]
    spins = 1 - 2 * ((states[:, None] >> (n - 1 - np.arange(n))) & 1)
    hop = np.zeros((len(states), len(states)))
    zz = np.zeros(len(states))
    for a in range(n):
        b = (a + 1) % n
        zz += spins[:, a] * spins[:, b]
        flip = spins[:, a] != spins[:, b]
        target = np.searchsorted(states, states[flip] ^ (1 << (n - 1 - a)) ^ (1 << (n - 1 - b)))
        hop[target, np.flatnonzero(flip)] += 2.0
    h = (j / 4) * (hop[None] + np.asarray(deltas)[:, None, None] * np.diag(zz)[None])
    _, vecs = np.linalg.eigh(h)
    prob = vecs[:, :, 0] ** 2
    return prob @ (spins[:, 0] * spins[:, 2]), prob @ (spins[:, 0] * spins[:, 3])


def oracle_values(deltas):
    """rho_13 and rho_124 at (0,0) from the spin-flip-symmetric S_z = 0 identities."""
    c13, c14 = sz0_sector_correlators(deltas)
    return (1 + 3 * c13) / 4, (3 * c14 - 1) / 16


STEP = 1e-3
DELTAS = -0.5 + STEP * np.arange(3501)  # [-0.5, 3]


@pytest.fixture(scope="module")
def oracle_derivatives():
    rho13, rho124 = oracle_values(DELTAS)
    return np.gradient(rho13, STEP), np.gradient(rho124, STEP)


def _interior_extrema(d):
    """(kind, parabolic vertex) of every strict interior extremum of d."""
    out = []
    for i in range(1, len(d) - 1):
        if (d[i] - d[i - 1]) * (d[i + 1] - d[i]) < 0:
            d0, d1, d2 = d[i - 1:i + 2]
            shift = 0.5 * (d0 - d2) / (d0 - 2 * d1 + d2)
            out.append(("maximum" if d1 > d0 else "minimum", DELTAS[i] + shift * STEP))
    return out


def test_correlator_identities_match_program():
    grid = np.array([-0.5, 0.0, 0.5, 1.0, 1.266, 2.0, 3.0])
    rho13, rho124 = oracle_values(grid)
    for k, delta in enumerate(grid):
        state = ground_state(ModelSpec(family="xxz", n=N, delta=delta)).state
        assert equal_angle_values([state], (1, 3), 0.0, 0.0)[0, 0] == pytest.approx(
            rho13[k], abs=1e-12)
        assert equal_angle_values([state], (1, 2, 4), 0.0, 0.0)[0, 0] == pytest.approx(
            rho124[k], abs=1e-12)


def test_oracle_reproduces_isotropic_radicals():
    s13 = math.sqrt(13.0)
    rho13, rho124 = oracle_values([1.0])
    assert rho13[0] == pytest.approx(0.25 + 3 * s13 / 52, abs=1e-14)
    assert rho124[0] == pytest.approx(s13 / 78 - 1 / 6, abs=1e-14)


def test_single_extremum_of_each_derivative(oracle_derivatives):
    d13, d124 = oracle_derivatives
    (kind13, at13), = _interior_extrema(d13)
    (kind124, at124), = _interior_extrema(d124)
    assert kind13 == "maximum" and abs(at13 - 1.030) <= STEP
    assert kind124 == "minimum" and abs(at124 - 1.266) <= STEP
    assert abs(at124 - XXZ_RHO124_DERIVATIVE_MIN) <= STEP


def test_rho124_derivative_monotone_near_isotropic_point(oracle_derivatives):
    _, d124 = oracle_derivatives
    window = d124[(DELTAS >= 0.9 - 1e-9) & (DELTAS <= 1.1 + 1e-9)]
    steps = np.diff(window)
    assert np.all(steps < 0) or np.all(steps > 0)
