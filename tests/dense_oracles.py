"""Dense Kronecker-product constructions kept as independent test oracles.

The package reduces and evaluates states through their factors (rho = A A^dagger)
and holds each symmetry as the diagonal of its operator, built from basis-index
bits; these helpers do the same jobs the slow, direct way on full 2^n x 2^n
matrices. `pauli_expectations` and `pauli_contract` are the former evaluator,
which went through the 4^k Pauli expectations of a reduced density.
`symmetric_by_rotation` is the former `symmetric` policy, which rotated the
full degenerate ground space instead of solving the sector block.
"""

import numpy as np

from spinphase.errors import NumericalError
from spinphase.models import (DEGENERACY_TOL_FACTOR, TIE_TOL_FACTOR, build_hamiltonian,
                              pick_sector, symmetry_diagonal)
from spinphase.qcore import IDENTITY_2, herm_eig, n_sites, validate_label
from spinphase.wigner import PAULI_BASIS, kernels

IMAG_RESIDUE_ATOL = 1e-12


def kron_all(ops):
    """Kronecker product of a sequence of operators, left to right."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def density(state):
    """Density matrix A A^dagger of a state factor (a 1-D vector is one column)."""
    a = np.asarray(state, dtype=complex)
    a = a.reshape(a.shape[0], -1)
    return a @ a.conj().T


def embed(op, site, n):
    """Place a 2x2 operator at `site` (1-based) of an n-qubit register.

    Acts as the identity on every other site; site 1 is the leftmost factor.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"embed expects a 2x2 operator, got shape {op.shape}")
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range [1, {n}]")
    return kron_all([op if i == site else IDENTITY_2 for i in range(1, n + 1)])


def partial_trace(rho, keep, n=None):
    """Reduced density matrix on the sites in `keep` (1-based, increasing).

    Traces out every other site; the result keeps the relative order of the
    retained sites.
    """
    rho = np.asarray(rho, dtype=complex)
    if n is None:
        n = n_sites(rho.shape[0])
    elif rho.shape[0] != 2**n:
        raise ValueError(f"state dimension {rho.shape[0]} does not match n={n}")
    keep = validate_label(keep, n)
    drop = [i for i in range(n) if (i + 1) not in keep]
    t = rho.reshape((2,) * (2 * n))
    for d in sorted(drop, reverse=True):
        t = np.trace(t, axis1=d, axis2=d + t.ndim // 2)
    k = len(keep)
    return t.reshape(2**k, 2**k)


def kernel_multi(points, n=None):
    """Tensor-product kernel for one phase point per qubit."""
    points = list(points)
    if n is not None and len(points) != n:
        raise ValueError(f"expected {n} phase points, got {len(points)}")
    return kron_all([kernels(t, p) for (t, p) in points])


def symmetric_by_rotation(spec):
    """The `symmetric` ground state by rotating the degenerate ground space.

    Solves the full complex H, diagonalizes the symmetry diagonal inside the
    ground space, and returns the rotated vector that `pick_sector` picks from
    the Rayleigh quotients of the symmetry and of H, as a one-column factor.
    """
    H = build_hamiltonian(spec)
    w, v = herm_eig(H)
    spread = float(w[-1] - w[0])
    g = int(np.sum(w - w[0] <= DEGENERACY_TOL_FACTOR * max(spread, 1.0)))
    V = v[:, :g]
    sym = symmetry_diagonal(spec)
    block = V.conj().T @ (sym[:, None] * V)
    _, rot = herm_eig(0.5 * (block + block.conj().T))
    vecs = [V @ rot[:, k] for k in range(g)]
    sectors = [float(np.real(np.vdot(vec, sym * vec))) for vec in vecs]
    energies = [float(np.real(np.vdot(vec, H @ vec))) for vec in vecs]
    return vecs[pick_sector(sectors, energies, TIE_TOL_FACTOR * max(spread, 1.0))][:, None]


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
