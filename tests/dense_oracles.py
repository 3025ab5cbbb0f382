"""Dense Kronecker-product constructions kept as independent test oracles.

The package reduces and evaluates states through their factors (rho = A A^dagger)
and holds each symmetry as the diagonal of its operator, built from basis-index
bits; these helpers do the same jobs the slow, direct way on full 2^n x 2^n
matrices. `pauli_expectations` and `pauli_contract` are the former evaluator,
which went through the 4^k Pauli expectations of a reduced density.
`symmetric_by_rotation` is the former `symmetric` policy, which rotated the
full degenerate ground space instead of solving the sector block.
`state_parity` is the former parity of a ground state, measured on the state
instead of read off the symmetry sectors it lies in. `sector_block_ground_state`
is the former solver, which split H by its symmetry diagonal alone, without
translation: one real `eigh` per parity or S_z block of the full matrix.
`momentum_block` projects the full H onto the momentum states of any k, where
the solver builds only the blocks of 0 <= k <= pi and conjugates them for -k.
"""

import numpy as np

from spinphase.errors import NumericalError
from spinphase.models import (TIE_TOL_FACTOR, build_hamiltonian, pick_sector,
                              spin_parity_diagonal, symmetry_diagonal)
from spinphase.qcore import IDENTITY_2, all_up_vector, n_sites, validate_label
from spinphase.wigner import PAULI_BASIS, kernels

IMAG_RESIDUE_ATOL = 1e-12
PARITY_DEFINITE_ATOL = 1e-6


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

    Solves the full H, diagonalizes the symmetry diagonal inside the
    ground space, and returns the rotated vector that `pick_sector` picks from
    the Rayleigh quotients of the symmetry and of H, as a one-column factor.
    """
    H = build_hamiltonian(spec)
    w, v = np.linalg.eigh(H)
    tol = TIE_TOL_FACTOR * max(float(w[-1] - w[0]), 1.0)
    g = int(np.sum(w - w[0] <= tol))
    V = v[:, :g]
    sym = symmetry_diagonal(spec)
    block = V.conj().T @ (sym[:, None] * V)
    _, rot = np.linalg.eigh(0.5 * (block + block.conj().T))
    vecs = [V @ rot[:, k] for k in range(g)]
    sectors = [float(np.real(np.vdot(vec, sym * vec))) for vec in vecs]
    energies = [float(np.real(np.vdot(vec, H @ vec))) for vec in vecs]
    return vecs[pick_sector(sectors, energies, tol)][:, None]


def sector_block_ground_state(spec, policy):
    """The ground state of `spec` under `policy` from the real `eigh` of each block of
    `symmetry_diagonal(spec)` in `build_hamiltonian(spec)`, by the rules of
    `models.ground_state`. Returns a dict of the block spectra `spectra`, the
    `levels` triple (sectors, lowest level per sector, tol), the ground-level
    `counts` per sector, `energy`, `gap`, `degeneracy`, the picked sector
    `picked`, the ground-space projector `projector`, `parity` and the state
    factor `state` (None where `aligned_up` raises PolicyError)."""
    H, sym = build_hamiltonian(spec), symmetry_diagonal(spec)
    sectors = tuple(np.unique(sym).tolist())
    index = [np.flatnonzero(sym == s) for s in sectors]
    parity = [int(spin_parity_diagonal(spec.n)[i[0]]) for i in index]
    eigs = [np.linalg.eigh(H[np.ix_(i, i)]) for i in index]
    w = np.sort(np.concatenate([wb for wb, _ in eigs]))
    tol = TIE_TOL_FACTOR * max(float(w[-1] - w[0]), 1.0)
    lows = np.array([wb[0] for wb, _ in eigs])
    counts = [int(np.sum(wb - w[0] <= tol)) for wb, _ in eigs]
    g = sum(counts)
    V = np.zeros((2**spec.n, g))
    c = 0
    for rows, r, (_, vb) in zip(index, counts, eigs):
        V[rows, c:c + r] = vb[:, :r]
        c += r
    picked = pick_sector(sectors, lows, tol)
    held = [b for b, r in enumerate(counts) if r]
    if g == 1 or policy == "mixture":
        state = V / np.sqrt(g)
    elif policy == "aligned_up":
        up = all_up_vector(spec.n)
        state = up[:, None] if np.linalg.norm(V[0]) >= 1.0 - 1e-8 else None
        held = [sectors.index(sym[0])]
    else:
        held = [picked]
        state = np.where(np.isin(np.arange(2**spec.n), index[picked])[:, None], V, 0.0)
        state /= np.linalg.norm(state)
    held_parity = {parity[b] for b in held}
    return dict(spectra=[wb for wb, _ in eigs], levels=(sectors, lows, tol), counts=counts,
                energy=float(w[0]), gap=float(w[1] - w[0]), degeneracy=g, picked=picked,
                projector=V @ V.T, state=state,
                parity=held_parity.pop() if len(held_parity) == 1 else None)


def translate(states, n):
    """Basis indices after one translation of the n-ring, the spin on site i
    moving to site i + 1 and site n's to site 1; site i is bit n - i."""
    spins = np.array([(states >> (n - i)) & 1 for i in range(1, n + 1)])
    return sum(bit << (n - i) for i, bit in enumerate(np.roll(spins, 1, axis=0), start=1))


def momentum_block(spec, sector, m):
    """The block of `build_hamiltonian(spec)` at momentum k = 2 pi m / n (any
    0 <= m < n) in the sector of `symmetry_diagonal(spec)` value `sector`: the
    dense H projected onto the states |a(k)> = sum_l exp(-ikl) T^l |a> / norm of
    the sector's orbit representatives a (the smallest index of each
    translation orbit) in increasing order, where the sum does not vanish.
    Returns (representatives, block)."""
    n, H, sym = spec.n, build_hamiltonian(spec), symmetry_diagonal(spec)
    inside = np.flatnonzero(sym == sector)
    orbit = [inside]
    for _ in range(n - 1):
        orbit.append(translate(orbit[-1], n))
    reps = np.unique(np.min(orbit, axis=0))
    P = np.zeros((2**n, len(reps)), dtype=complex)
    image = reps
    for l in range(n):
        np.add.at(P, (image, np.arange(len(reps))), np.exp(-2j * np.pi * m * l / n))
        image = translate(image, n)
    norms = np.linalg.norm(P, axis=0)
    carried = norms > 0.5  # a norm is sqrt(n^2 / R) where the period R carries k, else 0
    P = P[:, carried] / norms[carried]
    Pi = P[inside]
    return reps[carried], Pi.conj().T @ H[np.ix_(inside, inside)] @ Pi


def state_parity(state, n):
    """Spin parity of a state factor A: the expectation sum_b parity_b |A_b|^2
    when it is +1 or -1 within PARITY_DEFINITE_ATOL, else None."""
    expect = float(np.sum(spin_parity_diagonal(n) @ np.abs(state) ** 2))
    if abs(abs(expect) - 1.0) < PARITY_DEFINITE_ATOL:
        return 1 if expect > 0 else -1
    return None


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
