"""Displaced-parity Wigner kernel, its Pauli-basis evaluator and sphere sampling.

The single-qubit kernel at phase point (theta, phi) is the Bloch form
K = (1 + sqrt(3) n.sigma)/2 with n = (sin theta cos phi, sin theta sin phi,
cos theta); `bloch_factors` gives its Pauli components Tr[sigma_b K]. The
Wigner value of a k-qubit state is W = Tr[rho K_1 x ... x K_k]
= 2^-k sum_a c_a prod_i f_i[a_i], with c_a = Tr[rho sigma_a1 x ... x sigma_ak]
from `pauli_expectations` and f_i the Bloch factors of site i; every value
in the package goes through that one contraction, `pauli_contract`. A state
is a factor A, rho = A A^dagger (see `qcore`); only the 2^k x 2^k matrix
M M^dagger of its reduced factor M (`qcore.reduced_factor`) is formed. The
same kernel written as the rotated parity R (1 + sqrt(3) sigma_z)/2 R^dagger
is the independent oracle of the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .qcore import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, all_up_vector, basis_vector,
                    n_sites, reduced_factor)

SQRT3 = np.sqrt(3.0)
PAULI_BASIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])

# eigenvalues of the single-qubit kernel at every phase point
KERNEL_EIG_HI = 0.5 * (1.0 + SQRT3)
KERNEL_EIG_LO = 0.5 * (1.0 - SQRT3)

IMAG_RESIDUE_ATOL = 1e-12
_ANGLE_SLACK = 1e-9


def _check_point(theta, phi):
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("phase point angles must be finite")
    if theta < -_ANGLE_SLACK or theta > np.pi + _ANGLE_SLACK:
        raise ValueError(f"theta={theta} outside [0, pi]")
    if phi < -_ANGLE_SLACK or phi >= 2 * np.pi + _ANGLE_SLACK:
        raise ValueError(f"phi={phi} outside [0, 2*pi)")


def bloch_factors(theta, phi):
    """Pauli components Tr[sigma_b K] = (1, sqrt3 nx, sqrt3 ny, sqrt3 nz) of the
    kernel at (theta, phi); array angles give one row of four per point."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([np.ones_like(theta), SQRT3 * st * np.cos(phi), SQRT3 * st * np.sin(phi),
                     SQRT3 * np.cos(theta)], axis=-1)


def _pauli_operator(coeffs):
    """2^-k sum_a coeffs[a] sigma_a1 x ... x sigma_ak for a tensor with k Pauli axes,
    the inverse of `pauli_expectations`: each leading Pauli axis in turn becomes
    its site's (row, column) axes at the end, and rows then move before columns."""
    t, k = np.asarray(coeffs), np.ndim(coeffs)
    for _ in range(k):
        t = np.tensordot(t, PAULI_BASIS, axes=(0, 0))
    return t.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)]).reshape(2**k, 2**k) / 2**k


def kernel_single(theta, phi):
    """Single-qubit displaced parity kernel (1/2) sum_b bloch_factors[b] sigma_b."""
    _check_point(theta, phi)
    return _pauli_operator(bloch_factors(theta, phi))


def pauli_expectations(rho):
    """Real tensor c[a1, ..., ak] = Tr[rho sigma_a1 x ... x sigma_ak] of a k-qubit
    state, with sigma_0 the identity.

    Raises NumericalError when an entry has an imaginary part above
    IMAG_RESIDUE_ATOL, i.e. when rho is not Hermitian.
    """
    rho = np.asarray(rho, dtype=complex)
    k = n_sites(rho.shape[0])
    t = rho.reshape((2,) * (2 * k))
    for i in range(k):
        # row index r of the next site leads, its column index c sits k - i
        # axes later; Tr[rho sigma] pairs rho[r, c] with sigma[c, r]
        t = np.tensordot(t, PAULI_BASIS, axes=([0, k - i], [2, 1]))
    residue = float(np.max(np.abs(t.imag)))
    if residue > IMAG_RESIDUE_ATOL:
        raise NumericalError(f"Pauli expectations have imaginary residue {residue:.3e}")
    return t.real


def pauli_contract(coeffs, site_factors):
    """Wigner values 2^-k sum_a coeffs[..., a] prod_i site_factors[i][:, a_i].

    `coeffs` ends in k Pauli axes (leading axes are kept); `site_factors` holds
    one (g, 4) array of Bloch factors per site, rows broadcast against each
    other. Returns the values of the g points, shape (..., g).
    """
    *rest, last = np.broadcast_arrays(*site_factors)
    out = coeffs @ last.T
    for f in reversed(rest):
        out = np.einsum("...ag,ga->...g", out, f)
    return out / 2 ** len(site_factors)


def reduced_expectations(state, sites, n=None):
    """Pauli expectations of the reduced state on `sites` of the factor `state`."""
    m = reduced_factor(state, sites, n)
    return pauli_expectations(m @ m.conj().T)


def wigner_value(state, points):
    """Wigner function Tr[rho * kernel(points)] of an n-qubit state factor.

    `points` is a sequence of (theta, phi), one entry per qubit.
    """
    points = list(points)
    coeffs = reduced_expectations(state, range(1, n_sites(len(state)) + 1))
    if len(points) != coeffs.ndim:
        raise ValueError(f"expected {coeffs.ndim} phase points, got {len(points)}")
    for t, p in points:
        _check_point(t, p)
    return float(pauli_contract(coeffs, [bloch_factors([t], [p]) for t, p in points])[0])


def _equal_angle(coeffs, thetas, phis):
    """Values at every (theta, phi) pair with all k sites at the same point."""
    return pauli_contract(coeffs, [bloch_factors(thetas, phis)] * coeffs.ndim)


def equal_angle_point(state, sites, theta, phi, n=None):
    """Equal-angle slice of the reduced Wigner function for a site subset.

    Reduces the state factor to the selected sites, then evaluates the Wigner
    value with every retained sphere at (theta, phi).
    """
    _check_point(theta, phi)
    coeffs = reduced_expectations(state, sites, n)
    return float(_equal_angle(coeffs, [theta], [phi])[0])


@dataclass(frozen=True)
class SphereGrid:
    """Rectangular sphere sampling: theta in [0, pi] inclusive, phi in [0, 2*pi) exclusive."""

    n_theta: int = 181
    n_phi: int = 360

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("SphereGrid needs at least 2 samples per axis")

    @property
    def thetas(self):
        return np.linspace(0.0, np.pi, self.n_theta)

    @property
    def phis(self):
        return np.arange(self.n_phi) * (2 * np.pi / self.n_phi)


def sphere_field(state, sites, grid=SphereGrid(), n=None):
    """Sample the equal-angle reduced Wigner function on a sphere grid.

    Returns the (n_theta, n_phi) array of the values at (thetas[i], phis[j]).
    The Pauli expectations are taken once, then the field is evaluated one theta
    row at a time, so the working memory stays that of a single row.
    """
    coeffs = reduced_expectations(state, sites, n)
    phis = grid.phis
    return np.array([_equal_angle(coeffs, np.full(grid.n_phi, theta), phis)
                     for theta in grid.thetas])


# ---------------------------------------------------------------------------
# reference states

_PARAMETRIC_KINDS = {"ghz_plus", "ghz_minus", "ghz_mixture"}

# basis states, and cats (|bits> + sign |flipped bits>)/sqrt2 (ghz: bits (0,) * n)
_BASIS_KINDS = {"up": (0,), "up_up": (0, 0), "up_down": (0, 1)}
_CAT_KINDS = {"bell_psi_plus": ((0, 1), 1.0), "singlet": ((0, 1), -1.0),
              "psi_plus_4": ((0, 0, 1, 1), 1.0), "neel_minus_4": ((0, 1, 0, 1), -1.0),
              "neel_minus_6": ((0, 1, 0, 1, 0, 1), -1.0), "ghz_plus": (None, 1.0),
              "ghz_minus": (None, -1.0)}


def reference_state(kind, n=None):
    """State factor A (rho = A A^dagger) of a named reference state.

    ghz_plus / ghz_minus / ghz_mixture take the qubit count `n`; every other
    kind has a fixed size.
    """
    if kind in _PARAMETRIC_KINDS:
        if n is None or n < 2:
            raise ValueError(f"reference state {kind!r} needs n >= 2")
    elif n is not None:
        raise ValueError(f"reference state {kind!r} does not take n")

    if kind in _BASIS_KINDS:
        return basis_vector(_BASIS_KINDS[kind])[:, None]
    if kind == "mixed_single":
        return IDENTITY_2 / np.sqrt(2.0)
    if kind == "ghz_mixture":
        return np.column_stack([all_up_vector(n), basis_vector([1] * n)]) / np.sqrt(2.0)
    if kind not in _CAT_KINDS:
        raise ValueError(f"unknown reference state kind {kind!r}")
    bits, sign = _CAT_KINDS[kind]
    bits = (0,) * n if bits is None else bits
    cat = basis_vector(bits) + sign * basis_vector([1 - b for b in bits])
    return (cat / np.sqrt(2.0))[:, None]


# ---------------------------------------------------------------------------
# informational-completeness reconstruction


def reconstruct_density(samples, n):
    """Least-squares state reconstruction from Wigner samples.

    `samples` is a sequence of (points, value) pairs where `points` lists one
    (theta, phi) per qubit. The state is parametrized by its Pauli
    expectations with the identity coefficient fixed to 1, so the solution is
    Hermitian with trace 1 by construction. Returns (rho, residual) where
    residual is the root-sum-square misfit of the sampled values.

    Raises NumericalError when fewer than 4^n samples are supplied or the
    induced linear system is rank deficient.
    """
    samples = list(samples)
    n_params = 4**n
    if len(samples) < n_params:
        raise NumericalError(
            f"reconstruction for n={n} needs at least {n_params} samples, got {len(samples)}")
    points = [list(pts) for pts, _ in samples]
    for s, pts in enumerate(points):
        if len(pts) != n:
            raise ValueError(f"sample {s} has {len(pts)} points, expected {n}")
    angles = np.array(points, dtype=float)
    values = np.array([value for _, value in samples], dtype=float)

    # design[s, a]: value of sample s for unit Pauli expectation on string a alone
    unit = np.eye(n_params).reshape((n_params,) + (4,) * n)
    design = pauli_contract(unit, [bloch_factors(angles[:, i, 0], angles[:, i, 1])
                                   for i in range(n)]).T
    rank = np.linalg.matrix_rank(design)
    if rank < n_params:
        raise NumericalError(
            f"sample set induces a rank-{rank} system; {n_params} independent rows needed")

    # unit trace fixes the identity coefficient to 1
    rhs = values - design[:, 0]
    coeffs, _, _, _ = np.linalg.lstsq(design[:, 1:], rhs, rcond=None)
    rho = _pauli_operator(np.concatenate(([1.0], coeffs)).reshape((4,) * n))
    residual = float(np.linalg.norm(design[:, 1:] @ coeffs - rhs))
    return rho, residual
